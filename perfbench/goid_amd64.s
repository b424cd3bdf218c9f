#include "textflag.h"

// func getg() uintptr returns the running goroutine's g pointer, which
// is unique among live goroutines.
TEXT ·getg(SB),NOSPLIT,$0-8
	MOVQ (TLS), AX
	MOVQ AX, ret+0(FP)
	RET
