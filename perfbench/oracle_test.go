package main

import (
	"testing"

	"causalshare/internal/core"
	"causalshare/internal/message"
)

func lbl(o string, s uint64) message.Label { return message.Label{Origin: o, Seq: s} }

// TestOracleCountsSwappedOrder feeds one member a total order with two
// adjacent positions swapped: both positions must count as failed.
func TestOracleCountsSwappedOrder(t *testing.T) {
	ref := []message.Label{lbl("a", 1), lbl("c", 1), lbl("a", 2), lbl("b", 1)}
	swapped := []message.Label{lbl("a", 1), lbl("a", 2), lbl("c", 1), lbl("b", 1)}
	var r oracleResult
	auditOrder(map[string][]message.Label{"m0": swapped, "m1": ref, "m2": ref}, &r)
	r.total()
	if r.disagreements != 2 || r.failed != 2 {
		t.Fatalf("swapped delivery: disagreements=%d failed=%d, want 2 and 2", r.disagreements, r.failed)
	}
	var clean oracleResult
	auditOrder(map[string][]message.Label{"m0": ref, "m1": ref}, &clean)
	if clean.disagreements != 0 {
		t.Fatalf("identical orders flagged: %d", clean.disagreements)
	}
}

func points(digests ...string) []core.StablePoint {
	var out []core.StablePoint
	for i, d := range digests {
		out = append(out, core.StablePoint{Cycle: uint64(i + 1), Closer: lbl("m0~c", uint64(i+1)), Digest: d})
	}
	return out
}

// TestOracleCountsStaleRead feeds a deferred read that returned a cycle
// before its boundary, and one whose state is not the cycle's agreed
// state: each must count as failed, and a good read must not.
func TestOracleCountsStaleRead(t *testing.T) {
	h := points("d1", "d2", "d3")
	obj := kvObject{
		histories: map[string][]core.StablePoint{"m0": h, "m1": h},
		finals:    map[string]string{"m0": "f", "m1": "f"},
		replay:    "f",
		puts:      3,
	}
	reads := []readRes{
		{boundary: 2, cycle: 2, digest: "d2"}, // good
		{boundary: 3, cycle: 2, digest: "d2"}, // stale: before its boundary
		{boundary: 1, cycle: 3, digest: "d2"}, // wrong state for cycle 3
	}
	var r oracleResult
	auditKV([]kvObject{obj}, reads, &r)
	r.total()
	if r.staleReads != 2 || r.failed != 2 || r.attempted != 3 {
		t.Fatalf("staleReads=%d failed=%d attempted=%d, want 2, 2, 3", r.staleReads, r.failed, r.attempted)
	}
}

// TestOracleCountsDivergence checks stable-point disagreement, a missing
// stable point and a final state unlike the generation-order replay.
func TestOracleCountsDivergence(t *testing.T) {
	obj := kvObject{
		histories: map[string][]core.StablePoint{"m0": points("d1", "d2"), "m1": points("d1", "x2"), "m2": points("d1")},
		finals:    map[string]string{"m0": "f", "m1": "g", "m2": "f"},
		replay:    "f",
		puts:      2,
	}
	var r oracleResult
	auditKV([]kvObject{obj}, nil, &r)
	r.total()
	if r.pointDiverged == 0 || r.finalMismatch != 1 {
		t.Fatalf("pointDiverged=%d finalMismatch=%d, want >0 and 1", r.pointDiverged, r.finalMismatch)
	}
}

// TestOracleCountsLostOp allocates three ops at two members, applies two
// of them everywhere and one at a single member: that op is lost.
func TestOracleCountsLostOp(t *testing.T) {
	tab := &opTable{}
	for i := 0; i < 3; i++ {
		if _, err := tab.alloc(now(), phaseOpen, 2); err != nil {
			t.Fatal(err)
		}
	}
	tab.applied(0)
	tab.applied(0)
	tab.applied(1)
	tab.applied(2)
	tab.applied(2)
	if got := countLost(tab); got != 1 {
		t.Fatalf("countLost = %d, want 1", got)
	}
	if tab.get(0).visible.Load() == 0 || tab.get(1).visible.Load() != 0 {
		t.Fatal("visibility marks wrong")
	}
}

func TestKVStateCommutes(t *testing.T) {
	s := kvState{1: 10, 2: 20}
	add := message.Message{Op: opAdd, Body: kvBody(0, 1, 5)}
	add2 := message.Message{Op: opAdd, Body: kvBody(1, 2, 7)}
	put := message.Message{Op: opPut, Body: kvBody(2, 1, 3)}
	if !core.Commute(kvApply, s, add, add2) {
		t.Fatal("adds must commute")
	}
	if core.Commute(kvApply, s, add, put) {
		t.Fatal("add and put must not commute")
	}
}
