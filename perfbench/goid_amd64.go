package main

func getg() uintptr

// goid identifies the calling goroutine by its g pointer: one load, so
// tracing stays cheap enough for the open-loop rates.
func goid() uint64 { return uint64(getg()) }
