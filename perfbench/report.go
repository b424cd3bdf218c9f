package main

import (
	"fmt"
	"math"

	"causalshare/internal/telemetry"
)

// endToEnd is what a user of the system sees, from one pass.
func endToEnd(p *pass) []metric {
	q := p.openQuantile
	return []metric{
		{name: "setup_s", unit: "s", value: median(p.setup), samples: len(p.setup)},
		{name: "peak_ops_s", unit: "ops/s", value: p.peakRate(), samples: p.peakTotal()},
		{name: "cpu_us_per_op", unit: "us", value: p.cpuPerOp() * 1e6, samples: p.peakTotal()},
		q("visible_p50_ms", p.visible, 0.5),
		q("visible_p99_ms", p.visible, 0.99),
		{name: "heap_live_mb", unit: "MiB", value: p.heapMiB},
	}
}

// openQuantile reports the at-quantile of open-phase timings xs in ms.
func (p *pass) openQuantile(name string, xs []sample, at float64) metric {
	return metric{name: name, unit: "ms", value: windowedQuantile(xs, p.openFrom, p.openTo, at), samples: len(xs)}
}

// peakRate is the median over peak windows of ops completed per second.
func (p *pass) peakRate() float64 {
	var r []float64
	for w := range p.peakOps {
		r = append(r, ratio(float64(p.peakOps[w]), p.peakSecs[w]))
	}
	return median(r)
}

// cpuPerOp is the median over peak windows of CPU seconds per op.
func (p *pass) cpuPerOp() float64 {
	var r []float64
	for w := range p.peakOps {
		if p.peakOps[w] > 0 {
			r = append(r, p.peakCPU[w]/float64(p.peakOps[w]))
		}
	}
	return median(r)
}

func (p *pass) peakTotal() int {
	n := 0
	for _, c := range p.peakOps {
		n += c
	}
	return n
}

func (p *pass) readSamples() []sample {
	out := make([]sample, 0, len(p.reads))
	for _, r := range p.reads {
		if r.err == nil {
			out = append(out, sample{at: r.at, ms: r.ms})
		}
	}
	return out
}

// clientReport adds the read and lock latencies and the failure ratio
// the oracles computed.
func clientReport(p *pass) []metric {
	reads := p.readSamples()
	q := p.openQuantile
	return []metric{
		q("read_p50_ms", reads, 0.5),
		q("read_p99_ms", reads, 0.99),
		q("lock_p50_ms", p.locks, 0.5),
		q("lock_p99_ms", p.locks, 0.99),
		{name: "failed_frac", unit: "ratio", value: ratio(float64(p.oracle.failed), float64(p.oracle.attempted))},
	}
}

// snapshots reads every telemetry registry a pass's stack exposes: the
// per-member ones, the engines' own (bare stacks), the network's and the
// observability plane's.
func (s *stack) snapshots() []telemetry.Snapshot {
	var out []telemetry.Snapshot
	if s.sp.plane {
		for _, r := range s.regs {
			out = append(out, r.Snapshot())
		}
	} else {
		// Bare engines register on private registries; the sequencer of
		// asend-locks shares the member registry with nothing else.
		for _, e := range s.engines {
			out = append(out, e.Snapshot())
		}
		for _, r := range s.regs {
			if r != nil {
				out = append(out, r.Snapshot())
			}
		}
	}
	if s.netReg != nil {
		out = append(out, s.netReg.Snapshot())
	}
	if s.obsReg != nil {
		out = append(out, s.obsReg.Snapshot())
	}
	return out
}

func sumCounter(snaps []telemetry.Snapshot, name string) float64 {
	var t float64
	for _, s := range snaps {
		t += float64(s.Get(name))
	}
	return t
}

func maxGauge(snaps []telemetry.Snapshot, name string) float64 {
	m := 0.0
	for _, s := range snaps {
		if v, ok := s.GaugeValue(name, ""); ok {
			m = math.Max(m, float64(v))
		}
	}
	return m
}

// mergedHist merges one histogram across snapshots (same buckets).
func mergedHist(snaps []telemetry.Snapshot, name string) telemetry.HistogramSnapshot {
	var h telemetry.HistogramSnapshot
	for _, s := range snaps {
		g, ok := s.HistogramAt(name, "")
		if !ok || g.Count == 0 {
			continue
		}
		if h.Count == 0 {
			h = g
			h.Counts = append([]uint64(nil), g.Counts...)
			continue
		}
		for i := range h.Counts {
			if i < len(g.Counts) {
				h.Counts[i] += g.Counts[i]
			}
		}
		h.Count += g.Count
		h.Sum += g.Sum
	}
	return h
}

// spanSelf collects the self times (µs) of one span name.
func spanSelf(spans []spanStat, name uint8) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, float64(s.self)/1e3)
		}
	}
	return out
}

func spanDurMs(spans []spanStat, name uint8) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, float64(s.dur)/1e6)
		}
	}
	return out
}

// framesExact reports whether a workload's frames/op must match exactly
// between the traced and untraced passes. Only kv-stable's traffic is
// timing-free (every op is exactly n-1 data frames), and the wrappers are
// the same code on every workload; elsewhere heartbeats, adverts, acks,
// retransmits and lock rounds make frames/op depend on elapsed time, so
// both figures are printed but not compared.
func framesExact(sp spec) bool { return sp.name == "kv-stable" }

// perLayer computes the per-layer metrics of the traced pass t, and
// checks its frames/op against the untraced pass u.
func perLayer(t, u *pass) ([]metric, bool, string) {
	s := t.stack
	ops := float64(t.opsTotal)
	snaps := s.snapshots()
	spans := t.spans

	framesT := ratio(float64(t.framesNet), ops)
	framesU := ratio(float64(u.framesNet), float64(u.opsTotal))
	framesOK := !framesExact(t.sp) || (framesT == framesU && framesT > 0)
	note := fmt.Sprintf("frames/op traced %.4f untraced %.4f (exact match required: %v, ok: %v)", framesT, framesU, framesExact(t.sp), framesOK)

	var wFrames, wBytes, wBatches, wRecvd float64
	for _, c := range s.conns {
		wFrames += float64(c.frames.Load())
		wBytes += float64(c.bytes.Load())
		wBatches += float64(c.batches.Load())
		wRecvd += float64(c.recvd.Load())
	}

	var points float64
	if t.sp.kv {
		for i := range s.reps {
			for _, r := range s.reps[i] {
				points += float64(len(r.StablePoints()))
			}
		}
		points /= float64(t.sp.n)
	}

	delivered := sumCounter(snaps, "causal_osend_delivered_total")
	dups := sumCounter(snaps, "causal_osend_duplicates_total")
	depWait := mergedHist(snaps, "causal_osend_dep_wait_seconds")
	walAppend := mergedHist(snaps, "wal_append_seconds")
	walSync := mergedHist(snaps, "wal_sync_seconds")
	flush := mergedHist(snaps, "transport_tcp_flush_frames")

	var grants float64
	if len(s.arbs) > 0 {
		grants = float64(s.arbs[0].Grants())
	}
	late, self, wait := pathShares(t)
	overhead := ratio(t.cpuPerOp(), u.cpuPerOp())

	m := func(name, unit string, v float64) metric { return metric{name: name, unit: unit, value: v} }
	q := func(name, unit string, xs []float64, p float64) metric {
		return metric{name: name, unit: unit, value: quantile(xs, p), samples: len(xs)}
	}
	out := []metric{
		q("core.submit_p50_us", "us", spanSelf(spans, spCoreSubmit), 0.5),
		q("core.apply_p50_us", "us", spanSelf(spans, spCoreApply), 0.5),
		q("core.closer_apply_p50_us", "us", spanSelf(spans, spCoreCloser), 0.5),
		m("core.stable_points_per_op", "count", ratio(points, ops)),
		q("core.read_wait_p50_ms", "ms", spanDurMs(spans, spCoreRead), 0.5),

		q("causal.broadcast_p50_us", "us", spanSelf(spans, spCausalBroadcast), 0.5),
		m("causal.dep_wait_p99_ms", "ms", depWait.Quantile(0.99)*1e3),
		m("causal.held_frac", "ratio", ratio(float64(depWait.Count), delivered)),
		m("causal.pending_depth_max", "count", maxGauge(snaps, "causal_osend_pending_depth_max")),
		m("causal.fetches_per_op", "count", ratio(sumCounter(snaps, "causal_osend_fetches_total"), ops)),
		m("causal.dup_frac", "ratio", ratio(dups, delivered+dups)),
		m("causal.meta_bytes_per_msg", "B", ratio(sumCounter(snaps, "causal_meta_bytes_total"), sumCounter(snaps, "causal_meta_msgs_total"))),

		m("transport.frames_per_op", "count", framesT),
		m("transport.bytes_per_op", "B", ratio(wBytes, ops)),
		m("transport.recv_batch_mean", "count", ratio(wRecvd, wBatches)),
		q("transport.send_p50_us", "us", spanSelf(spans, spTransportSend), 0.5),
		m("transport.tcp_frames_per_flush", "count", ratio(flush.Sum, float64(flush.Count))),

		m("reliable.retransmits_per_op", "count", ratio(sumCounter(snaps, "reliable_retransmits_total"), ops)),
		m("reliable.nacks_per_op", "count", ratio(sumCounter(snaps, "reliable_nacks_sent_total"), ops)),
		m("reliable.useful_frac", "ratio", reliableUseful(s, snaps, wFrames)),
		m("reliable.window_stalls", "count", sumCounter(snaps, "reliable_window_stalls_total")),
		q("reliable.send_p50_us", "us", spanSelf(spans, spReliableSend), 0.5),

		q("total.asend_p50_us", "us", spanSelf(spans, spTotalASend), 0.5),
		q("total.order_wait_p50_ms", "ms", s.orderWaits, 0.5),
		q("total.order_wait_p99_ms", "ms", s.orderWaits, 0.99),
		m("total.pending_max", "count", float64(t.pendMax)),
		m("total.elections", "count", sumCounter(snaps, "total_elections_total")),
		m("total.order_disagreements", "count", float64(t.oracle.disagreements)),

		m("lockarb.grants_per_s", "1/s", ratio(grants, t.lockSecs)),
		q("lockarb.hold_p50_ms", "ms", t.holds, 0.5),

		m("wal.appends_per_op", "count", ratio(sumCounter(snaps, "wal_appends_total"), ops)),
		m("wal.bytes_per_op", "B", ratio(sumCounter(snaps, "wal_append_bytes_total"), ops)),
		m("wal.append_p50_us", "us", walAppend.Quantile(0.5)*1e6),
		m("wal.sync_p99_ms", "ms", walSync.Quantile(0.99)*1e3),

		m("flightrec.records_per_op", "count", ratio(sumCounter(snaps, "flightrec_records_total"), ops)),
		m("flightrec.dropped", "count", sumCounter(snaps, "flightrec_dropped_total")),
		m("trace.spans_per_op", "count", ratio(sumCounter(snaps, "trace_spans_total"), ops)),

		m("group.suspicions", "count", float64(s.suspicions.Load())),

		m("runtime.alloc_bytes_per_op", "B", ratio(t.allocB, float64(t.peakTotal()))),
		m("runtime.gc_cpu_frac", "ratio", t.gcFrac),
		m("runtime.goroutines_max", "count", float64(t.goMax)),

		q("driver.late_p99_ms", "ms", t.late, 0.99),
		m("driver.samples_open", "count", float64(len(t.visible))),
		m("driver.samples_read", "count", float64(len(t.reads))),
		m("driver.trace_overhead", "ratio", overhead),
		m("driver.path_late_frac", "ratio", late),
		m("driver.path_self_frac", "ratio", self),
		m("driver.path_wait_frac", "ratio", wait),
	}
	return out, framesOK, note
}

// reliableUseful is first-send data frames over every frame the
// reliability sublayer put on the raw transport. reliable_data_total
// counts a broadcast once; its first send is one frame per peer.
func reliableUseful(s *stack, snaps []telemetry.Snapshot, lowFrames float64) float64 {
	if !s.sp.plane {
		return 0
	}
	return ratio(sumCounter(snaps, "reliable_data_total")*float64(s.sp.n-1), lowFrames)
}

// pathShares splits each traced open-phase op's visible latency along its
// blocking path: how late the generator issued it, the self time of the
// submitting call chain at the origin plus the apply (or ordered
// delivery) at the member that applied it last, and the wait between
// them (network, receive queue, holdback, ordering). It returns the
// median share of each over the sampled ops.
func pathShares(p *pass) (late, self, wait float64) {
	type acc struct {
		start, end int64 // origin submit span
		lastStart  int64 // latest apply
		lastEnd    int64
		lastSelf   int64
	}
	byOp := make(map[int64]*acc)
	for _, sp := range p.spans {
		if sp.id < 0 {
			continue
		}
		r := p.stack.ops.get(sp.id)
		if r == nil || r.phase != phaseOpen {
			continue
		}
		a := byOp[sp.id]
		if a == nil {
			a = &acc{}
			byOp[sp.id] = a
		}
		switch sp.name {
		case spCoreSubmit, spTotalASend:
			a.start, a.end = sp.start, sp.start+sp.dur
		case spCoreApply, spCoreCloser, spTotalDeliver:
			if end := sp.start + sp.dur; end > a.lastEnd {
				a.lastStart, a.lastEnd, a.lastSelf = sp.start, end, sp.self
			}
		}
	}
	var lf, sf, wf []float64
	for id, a := range byOp {
		r := p.stack.ops.get(id)
		lat := float64(r.visible.Load() - r.due)
		if lat <= 0 || a.end == 0 || a.lastEnd == 0 {
			continue
		}
		selfT := float64(a.end - a.start)
		if a.lastStart >= a.end {
			selfT += float64(a.lastSelf)
		}
		lf = append(lf, float64(a.start-r.due)/lat)
		sf = append(sf, selfT/lat)
		wf = append(wf, math.Max(0, float64(max(a.lastStart-a.end, 0)))/lat)
	}
	return median(lf), median(sf), median(wf)
}
