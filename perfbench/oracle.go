package main

import (
	"fmt"

	"causalshare/internal/core"
	"causalshare/internal/message"
	"causalshare/internal/obs"
)

// oracleResult is what the correctness oracles decided about one pass.
// Every failure is counted against the ops, reads and acquires attempted.
type oracleResult struct {
	attempted int64
	failed    int64
	// Breakdown of failed.
	lost          int64 // ops not applied at every member by the drain deadline
	pointDiverged int64 // stable points past a cross-member divergence, or missing
	finalMismatch int64 // (member, object) final digests unlike the generation-order replay
	staleReads    int64 // reads that failed, returned a cycle before their boundary, or a wrong digest
	disagreements int64 // total-order positions the members do not all agree on
	balanceWrong  int64 // members whose deposit balance is wrong
	exclusion     int64 // acquires that found another holder
	acquireErrs   int64
	notes         []string
}

func (r *oracleResult) note(format string, a ...any) {
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, a...))
	}
}

// countLost counts ops some member never applied.
func countLost(t *opTable) int64 {
	var lost int64
	t.each(func(_ int64, r *opRec) {
		if r.remaining.Load() > 0 {
			lost++
		}
	})
	return lost
}

// kvObject is the evidence the kv oracles check for one object.
type kvObject struct {
	histories map[string][]core.StablePoint // member -> stable points
	finals    map[string]string             // member -> final state digest
	replay    string                        // digest of the ops applied in generation order
	puts      int                           // closers generated, i.e. stable points expected
}

// auditKV checks per-object stable-point agreement, final digests against
// the generation-order replay, and every deferred read against the agreed
// digest of the cycle it returned.
func auditKV(objs []kvObject, reads []readRes, r *oracleResult) {
	for o, ob := range objs {
		rep := obs.AuditStablePoints(ob.histories)
		for m, h := range ob.histories {
			if missing := ob.puts - len(h); missing > 0 {
				r.pointDiverged += int64(missing)
				r.note("object %d: %s has %d of %d stable points", o, m, len(h), ob.puts)
			}
		}
		if !rep.Consistent() {
			shortest := ob.puts
			for _, h := range ob.histories {
				shortest = min(shortest, len(h))
			}
			r.pointDiverged += int64(max(shortest-rep.Points, 1))
			r.note("object %d: %s", o, rep.Divergence)
		}
		for m, d := range ob.finals {
			if d != ob.replay {
				r.finalMismatch++
				r.note("object %d: %s final digest %s, generation-order replay %s", o, m, d, ob.replay)
			}
		}
	}
	for _, rd := range reads {
		r.attempted++
		switch {
		case rd.err != nil:
			r.staleReads++
			r.note("read at m%d/o%d: %v", rd.member, rd.obj, rd.err)
		case rd.cycle < rd.boundary || rd.cycle == 0:
			r.staleReads++
			r.note("read at m%d/o%d: returned cycle %d before its boundary %d", rd.member, rd.obj, rd.cycle, rd.boundary)
		default:
			if agreed, ok := agreedDigest(objs[rd.obj].histories, rd.cycle); !ok || agreed != rd.digest {
				r.staleReads++
				r.note("read at m%d/o%d: cycle %d digest %s, agreed %s", rd.member, rd.obj, rd.cycle, rd.digest, agreed)
			}
		}
	}
}

// agreedDigest is the digest every member recorded at cycle c, if they
// agree on it.
func agreedDigest(h map[string][]core.StablePoint, c uint64) (string, bool) {
	var d string
	for _, pts := range h {
		if c == 0 || int(c) > len(pts) {
			return "", false
		}
		got := pts[c-1].Digest
		if d != "" && got != d {
			return "", false
		}
		d = got
	}
	return d, d != ""
}

// auditOrder counts the total-order positions on which the members'
// delivered sequences do not all agree (a position some member lacks
// counts too).
func auditOrder(orders map[string][]message.Label, r *oracleResult) {
	longest := 0
	for _, o := range orders {
		longest = max(longest, len(o))
	}
	for i := 0; i < longest; i++ {
		var ref message.Label
		first, agree := true, true
		for _, o := range orders {
			if i >= len(o) {
				agree = false
				break
			}
			if first {
				ref, first = o[i], false
			} else if o[i] != ref {
				agree = false
				break
			}
		}
		if !agree {
			if r.disagreements == 0 {
				r.note("total order: members disagree at position %d", i+1)
			}
			r.disagreements++
		}
	}
}

func (r *oracleResult) total() {
	r.failed = r.lost + r.pointDiverged + r.finalMismatch + r.staleReads +
		r.disagreements + r.balanceWrong + r.exclusion + r.acquireErrs
}

// audit runs the workload's oracles over a drained pass.
func (s *stack) audit(p *pass) oracleResult {
	r := oracleResult{attempted: s.ops.len(), lost: countLost(s.ops)}
	if r.lost > 0 {
		r.note("%d ops not applied at every member by the drain deadline", r.lost)
	}
	if s.sp.kv {
		objs := make([]kvObject, s.sp.n)
		for o := range objs {
			st := s.initial[o].Clone().(kvState)
			puts := 0
			for _, g := range s.gen[o] {
				if g.put {
					st[g.key] = g.val
					puts++
				} else {
					st[g.key] += g.val
				}
			}
			finals := make(map[string]string, s.sp.n)
			for i, m := range s.members {
				finals[m] = s.reps[i][o].ReadNow().Digest()
			}
			objs[o] = kvObject{histories: s.stablePoints(o), finals: finals, replay: st.Digest(), puts: puts}
		}
		auditKV(objs, p.reads, &r)
	} else {
		orders := make(map[string][]message.Label, s.sp.n)
		for i, m := range s.members {
			lg := s.orders[i]
			lg.mu.Lock()
			orders[m] = append([]message.Label(nil), lg.labels...)
			lg.mu.Unlock()
		}
		auditOrder(orders, &r)
		for i := range s.balances {
			if got := s.balances[i].Load(); got != p.deposited {
				r.balanceWrong++
				r.note("member m%d deposit balance %d, deposited %d", i, got, p.deposited)
			}
		}
		r.attempted += p.acquires
		r.exclusion = p.exclusion
		r.acquireErrs = p.acquireErrs
	}
	r.total()
	return r
}
