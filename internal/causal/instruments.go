package causal

import (
	"time"

	"causalshare/internal/message"
	"causalshare/internal/telemetry"
)

// peerInstruments are the per-peer observability-plane instruments every
// engine registers under the same names, so the causaltop aggregator is
// engine-agnostic: a member's causal lag toward each peer reads the same
// whether OSend, CBCast or PCCast produced it.
type peerInstruments struct {
	// visibility is the send→remote-deliver latency toward the peer the
	// message originated from, computed from the SentAt wall-clock stamp
	// the origin placed in the wire trailer. Subject to clock skew between
	// members — on one host (every harness here) that is nanoseconds.
	visibility *telemetry.HistogramFamily
}

func newPeerInstruments(reg *telemetry.Registry) peerInstruments {
	return peerInstruments{
		visibility: reg.HistogramFamily("causal_visibility_seconds",
			"Origin-send to local-deliver latency, labeled by the originating peer.",
			"peer", telemetry.DurationBuckets),
	}
}

// observe records one remote delivery's visibility latency. Alloc-free:
// RouteOrigin is a substring, With is a read-locked map hit, Observe is
// atomic adds — the fan-out hot path calls this per delivery.
func (p peerInstruments) observe(self string, m *message.Message, nowNanos int64) {
	if m.SentAt == 0 {
		return
	}
	origin := RouteOrigin(m.Label.Origin)
	if origin == self {
		return
	}
	d := float64(nowNanos-m.SentAt) / 1e9
	if d < 0 {
		d = 0 // cross-host clock skew must not corrupt the ladder
	}
	p.visibility.With(origin).Observe(d)
}

// registerPeerLag registers the snapshot-time per-peer holdback gauges:
// how many of peer's messages sit in the holdback buffer and how old the
// oldest is. scan runs only at snapshot time (under the engine's delivery
// lock), so the hot path pays nothing. With a registry shared by several
// engines the last engine to register a peer label wins (a rejoined
// member's fresh engine takes the series over from its dead
// incarnation) — per-member registries (the observability-plane
// deployment) never collide.
func registerPeerLag(reg *telemetry.Registry, peers []string, scan func(peer string) (depth, ageMS int64)) {
	depthFam := reg.GaugeFamily("causal_peer_holdback_depth",
		"Messages from the peer buffered awaiting missing predecessors.",
		"peer")
	ageFam := reg.GaugeFamily("causal_peer_pending_age_ms",
		"Age in milliseconds of the oldest held-back message from the peer (0 when none).",
		"peer")
	for _, p := range peers {
		p := p
		depthFam.Func(p, func() int64 { d, _ := scan(p); return d })
		ageFam.Func(p, func() int64 { _, a := scan(p); return a })
	}
}

// scanPendingLag is the shared holdback scan: origins route through
// RouteOrigin so a total-layer label ("b~seq") counts toward member b.
func scanPendingLag(peer string, each func(yield func(origin string, since time.Time))) (depth, ageMS int64) {
	now := time.Now()
	each(func(origin string, since time.Time) {
		if RouteOrigin(origin) != peer {
			return
		}
		depth++
		if a := now.Sub(since).Milliseconds(); a > ageMS {
			ageMS = a
		}
	})
	return depth, ageMS
}

// depInstruments are the registry-backed instruments of the dependency
// core, registered under the engine's metric prefix (causal_osend_ or
// causal_pccast_). Engines given the same registry share (and therefore
// aggregate) them; an engine built without a registry gets a private one
// so its Snapshot stays per-engine.
type depInstruments struct {
	delivered     *telemetry.Counter
	duplicates    *telemetry.Counter
	fetches       *telemetry.Counter
	controlBytes  *telemetry.Counter
	stablePruned  *telemetry.Counter
	pendingDepth  *telemetry.Gauge
	pendingMax    *telemetry.Gauge
	retainedDepth *telemetry.Gauge
	sendErrors    *telemetry.Counter
	depWait       *telemetry.Histogram
	broadcastLat  *telemetry.Histogram
}

func newDepInstruments(reg *telemetry.Registry, prefix string) depInstruments {
	return depInstruments{
		delivered: reg.Counter(prefix+"delivered_total",
			"Messages delivered in causal order."),
		duplicates: reg.Counter(prefix+"duplicates_total",
			"Received messages discarded as already delivered or buffered."),
		fetches: reg.Counter(prefix+"fetches_total",
			"Retransmission requests issued for missing predecessors."),
		controlBytes: reg.Counter(prefix+"control_bytes_total",
			"Ordering metadata bytes placed on the wire, once per peer (OSend: OccursAfter labels; PC-cast: constant-size PC headers)."),
		stablePruned: reg.Counter(prefix+"stable_pruned_total",
			"Retained messages garbage-collected after every peer's watermark covered them."),
		pendingDepth: reg.Gauge(prefix+"pending_depth",
			"Messages currently buffered awaiting a missing predecessor."),
		pendingMax: reg.Gauge(prefix+"pending_depth_max",
			"High-water mark of the pending buffer."),
		retainedDepth: reg.Gauge(prefix+"retained_depth",
			"Messages retained for retransmission."),
		sendErrors: reg.Counter(prefix+"send_errors_total",
			"Best-effort fan-outs where at least one peer was unreachable."),
		depWait: reg.Histogram(prefix+"dep_wait_seconds",
			"Time a buffered message waited on missing predecessors before delivery.",
			telemetry.DurationBuckets),
		broadcastLat: reg.Histogram(prefix+"delivery_seconds",
			"Broadcast-call-to-local-self-delivery latency (encode, fan-out, ingest).",
			telemetry.DurationBuckets),
	}
}

// metaInstruments aggregate ordering-metadata cost uniformly across all
// three engines, for the E15 scaling experiment: total metadata bytes, the
// frames that carried them, and the application messages they amortize
// over. bytes/frame is the headline comparison — O(n) for vector clocks
// and dependency lists, constant for PC headers — while bytes/msg folds in
// PCCast's flood amplification honestly.
type metaInstruments struct {
	bytes  *telemetry.Counter
	frames *telemetry.Counter
	msgs   *telemetry.Counter
}

func newMetaInstruments(reg *telemetry.Registry) metaInstruments {
	m := metaInstruments{
		bytes: reg.Counter("causal_meta_bytes_total",
			"Ordering metadata bytes placed on the wire, all engines."),
		frames: reg.Counter("causal_meta_frames_total",
			"Wire frames that carried ordering metadata, all engines."),
		msgs: reg.Counter("causal_meta_msgs_total",
			"Application messages broadcast (denominator for per-msg metadata cost)."),
	}
	reg.GaugeFunc("causal_meta_bytes_per_msg",
		"Ordering metadata bytes per application message (bytes_total / msgs_total).",
		func() int64 {
			n := m.msgs.Value()
			if n == 0 {
				return 0
			}
			return int64(m.bytes.Value() / n)
		})
	return m
}

// add records one fan-out of meta bytes across frames wire frames.
func (m metaInstruments) add(metaBytes, frames uint64) {
	m.bytes.Add(metaBytes * frames)
	m.frames.Add(frames)
}

// cbcastInstruments are CBCast's registry-backed instruments.
type cbcastInstruments struct {
	delivered    *telemetry.Counter
	duplicates   *telemetry.Counter
	fetches      *telemetry.Counter
	controlBytes *telemetry.Counter
	sendErrors   *telemetry.Counter
	pendingDepth *telemetry.Gauge
	pendingMax   *telemetry.Gauge
}

func newCBCastInstruments(reg *telemetry.Registry) cbcastInstruments {
	return cbcastInstruments{
		delivered: reg.Counter("causal_cbcast_delivered_total",
			"Messages delivered in causal order (vector-clock condition)."),
		duplicates: reg.Counter("causal_cbcast_duplicates_total",
			"Received messages discarded as duplicates."),
		fetches: reg.Counter("causal_cbcast_fetches_total",
			"Retransmission requests issued for vector-clock gaps."),
		controlBytes: reg.Counter("causal_cbcast_control_bytes_total",
			"Ordering metadata bytes placed on the wire (vector clocks, once per peer)."),
		sendErrors: reg.Counter("causal_cbcast_send_errors_total",
			"Best-effort fan-outs where at least one peer was unreachable."),
		pendingDepth: reg.Gauge("causal_cbcast_pending_depth",
			"Messages currently buffered awaiting vector-clock readiness."),
		pendingMax: reg.Gauge("causal_cbcast_pending_depth_max",
			"High-water mark of the holdback buffer."),
	}
}
