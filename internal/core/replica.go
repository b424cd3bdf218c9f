package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"causalshare/internal/flightrec"
	"causalshare/internal/message"
	"causalshare/internal/telemetry"
	"causalshare/internal/trace"
)

// StablePoint records one locally detected agreement point (§4.1): the
// state reached after processing the non-commutative message that closes
// a causal activity. Replicas that share a front-end graph produce the
// same sequence of StablePoint digests — that is the model's consistency
// guarantee, checked by the obs package's auditor.
type StablePoint struct {
	// Cycle is the activity index r.
	Cycle uint64
	// Closer is the label of the non-commutative (or read) message whose
	// processing established the point.
	Closer message.Label
	// Digest fingerprints the state at the point.
	Digest string
	// ActivitySize is the number of messages processed in the activity
	// this point closed (1 + |{Cid}_r| in the paper's cycle notation).
	ActivitySize int
}

// ReplicaConfig parameterizes a replica.
type ReplicaConfig struct {
	// Self names the replica (metrics and errors only).
	Self string
	// Initial is the state the replica starts from; the replica clones it
	// twice, once for the current state and once for the stable state.
	Initial State
	// Apply is the application's transition function F. The replica runs
	// it twice per message: once on the current state at delivery and once
	// on the stable state when the activity closes, so it must be
	// deterministic for the stable state to equal the current one there.
	Apply Transition
	// OnStable, when non-nil, is invoked after every stable point with the
	// point record and an independent clone of the stable state. It runs
	// on the delivery goroutine without the replica lock held. Reads and
	// OnStable are the only callers of State.Clone after construction.
	OnStable func(StablePoint, State)
	// Telemetry, when non-nil, registers the replica's core_* instruments
	// there; replicas sharing a registry aggregate.
	Telemetry *telemetry.Registry
	// Trace, when non-nil, receives an EventStable record per stable point.
	Trace *telemetry.Ring
	// Tracer, when non-nil, records span apply/stable events on the causal
	// trace collector and feeds its stable-point and deferred-read audits.
	Tracer *trace.Tracer
	// Flight, when non-nil, is this member's black-box flight recorder;
	// the replica records stable-point advances and served deferred reads
	// there directly (the trace collector audits but does not capture
	// them).
	Flight *flightrec.Recorder
}

// Replica maintains one member's copy of the shared data, applying
// messages in the causal order the broadcast layer delivers them and
// recognizing stable points locally. Between stable points, replicas may
// diverge (concurrent commutative messages arrive in different orders);
// at each stable point the model guarantees agreement, so deferred reads
// are served from stable states only. Replica is safe for concurrent use;
// Deliver is its causal.DeliverFunc.
//
// The replica keeps two state copies. The current state takes every
// message as it is delivered. The stable state is advanced only at a
// closer, by replaying the closed activity's messages in delivery order,
// so a stable point costs the size of the activity, not of the state.
type Replica struct {
	self     string
	apply    Transition
	onStable func(StablePoint, State)
	ins      coreInstruments
	trace    *telemetry.Ring
	spans    *trace.Tracer
	flight   *flightrec.Recorder

	mu          sync.Mutex
	state       State
	stable      State
	open        []message.Message // the open activity, in delivery order
	openPeak    int               // decaying high-water mark of len(open)
	stableCycle uint64
	applied     uint64
	lastStable  time.Time
	points      []StablePoint
	waiters     []chan readResult
}

type readResult struct {
	state State
	cycle uint64
}

// NewReplica constructs a replica from cfg.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.Initial == nil {
		return nil, fmt.Errorf("core: replica %q: nil initial state", cfg.Self)
	}
	if cfg.Apply == nil {
		return nil, fmt.Errorf("core: replica %q: nil transition function", cfg.Self)
	}
	r := &Replica{
		self:       cfg.Self,
		apply:      cfg.Apply,
		onStable:   cfg.OnStable,
		ins:        newCoreInstruments(cfg.Telemetry),
		trace:      cfg.Trace,
		spans:      cfg.Tracer,
		flight:     cfg.Flight,
		state:      cfg.Initial.Clone(),
		stable:     cfg.Initial.Clone(),
		lastStable: time.Now(),
	}
	// Observability plane: the stability frontier as snapshot-time gauges,
	// so the cluster aggregator can compute cross-member stability skew
	// (max cycle - min cycle) and spot a replica whose stable point has
	// gone stale. Registered per replica; with a shared registry the first
	// replica wins (per-member registries are the deployment model).
	cfg.Telemetry.GaugeFunc("core_stable_cycle",
		"Index of the replica's latest stable point (the stability frontier).",
		func() int64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return int64(r.stableCycle)
		})
	cfg.Telemetry.GaugeFunc("core_stable_age_ms",
		"Milliseconds since the replica's latest stable point.",
		func() int64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return time.Since(r.lastStable).Milliseconds()
		})
	return r, nil
}

// Deliver applies one causally delivered message. Non-commutative and read
// messages close the open activity and establish a stable point.
func (r *Replica) Deliver(m message.Message) {
	r.mu.Lock()
	r.state = r.apply(r.state, m)
	r.open = append(r.open, m)
	r.applied++
	r.ins.applied.Inc()
	r.spans.Apply(m.Label)
	if m.Kind != message.KindNonCommutative && m.Kind != message.KindRead {
		r.mu.Unlock()
		return
	}
	size := r.replayOpenLocked()
	r.stableCycle++
	point := StablePoint{
		Cycle:        r.stableCycle,
		Closer:       m.Label,
		Digest:       r.stable.Digest(),
		ActivitySize: size,
	}
	r.points = append(r.points, point)
	now := time.Now()
	r.ins.stablePoints.Inc()
	r.ins.stableInterval.Observe(now.Sub(r.lastStable).Seconds())
	r.ins.activitySize.Observe(float64(size))
	r.lastStable = now
	r.trace.Record(telemetry.EventStable, r.self, m.Label.Origin, m.Label.Seq, int64(r.stableCycle))
	r.spans.Stable(m.Label, r.stableCycle, point.Digest)
	r.flight.Stable(m.Label, r.stableCycle)
	waiters := r.waiters
	r.waiters = nil
	notify := r.onStable
	// The stable state is mutated in place by the next closer, so readers'
	// copies come from one clone taken under the lock.
	var base State
	if len(waiters) > 0 || notify != nil {
		base = r.stable.Clone()
	}
	r.mu.Unlock()

	// base goes to the last receiver, only after every other copy is made.
	var snapshot State
	if notify != nil {
		snapshot = base
		if len(waiters) > 0 {
			snapshot = base.Clone()
		}
	}
	for i, w := range waiters {
		st := base
		if i < len(waiters)-1 {
			st = base.Clone()
		}
		w <- readResult{state: st, cycle: point.Cycle}
	}
	if notify != nil {
		notify(point, snapshot)
	}
}

// replayOpenLocked advances the stable state over the open activity and
// empties it, returning its size. Transition is deterministic and the
// stable state equalled the current one at the last closer, so after the
// replay they are equal again. Caller holds r.mu.
func (r *Replica) replayOpenLocked() int {
	size := len(r.open)
	for _, m := range r.open {
		r.stable = r.apply(r.stable, m)
	}
	// Reuse the backing array unless it is over twice the recent peak
	// activity size, which decays by a quarter per activity: regrowing it
	// every activity costs allocations, and keeping the largest one ever
	// grown costs live heap on every replica.
	r.openPeak = max(size, r.openPeak-r.openPeak/4)
	if cap(r.open) > 2*r.openPeak+4 {
		r.open = make([]message.Message, 0, r.openPeak)
		return size
	}
	clear(r.open) // release the messages' bodies to the collector
	r.open = r.open[:0]
	return size
}

// ReadDeferred returns an independent copy of the agreed state at a
// stable point along with its cycle number — the §5.1 deferred read: "a
// read operation on X requested at a member may be deferred to occur at
// the next stable point so that the value returned is the same as that by
// every other member". If the replica is mid-activity (or has seen no
// stable point yet) the call blocks until the activity closes; if it is
// exactly at a stable point, that point's state is returned immediately.
func (r *Replica) ReadDeferred(ctx context.Context) (State, uint64, error) {
	ch := make(chan readResult, 1)
	r.mu.Lock()
	if len(r.open) == 0 && r.stableCycle > 0 {
		st, cycle := r.stable.Clone(), r.stableCycle
		r.mu.Unlock()
		r.ins.deferredWait.Observe(0)
		r.spans.ReadServed(cycle, cycle)
		r.flight.Read(cycle, cycle)
		return st, cycle, nil
	}
	// Mid-activity (or before the first stable point) the read must wait
	// for at least the next cycle; that is the boundary the trace auditor
	// checks the served cycle against.
	boundary := r.stableCycle + 1
	r.waiters = append(r.waiters, ch)
	r.mu.Unlock()
	t0 := time.Now()
	select {
	case res := <-ch:
		r.ins.deferredWait.ObserveSince(t0)
		r.spans.ReadServed(res.cycle, boundary)
		r.flight.Read(res.cycle, boundary)
		return res.state, res.cycle, nil
	case <-ctx.Done():
		return nil, 0, fmt.Errorf("core: deferred read at %q: %w", r.self, ctx.Err())
	}
}

// ReadStable returns a copy of the state at the most recent stable point
// without waiting (the value all replicas that reached this cycle agree
// on) and the cycle it belongs to.
func (r *Replica) ReadStable() (State, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stable.Clone(), r.stableCycle
}

// ReadNow returns a copy of the *current* state, which may differ across
// replicas mid-activity. The inconsistency-window experiment (E10) uses it
// to measure what deferred reads avoid.
func (r *Replica) ReadNow() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state.Clone()
}

// Applied returns the number of messages processed.
func (r *Replica) Applied() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied
}

// Cycle returns the index of the last stable point.
func (r *Replica) Cycle() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stableCycle
}

// StablePoints returns a copy of the stable-point history.
func (r *Replica) StablePoints() []StablePoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]StablePoint(nil), r.points...)
}

// TrimStablePoints discards all but the most recent keep history entries,
// bounding memory in long-running replicas. Cycle numbering is
// unaffected. It returns the number of entries dropped.
func (r *Replica) TrimStablePoints(keep int) int {
	if keep < 0 {
		keep = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	drop := len(r.points) - keep
	if drop <= 0 {
		return 0
	}
	remaining := make([]StablePoint, keep)
	copy(remaining, r.points[drop:])
	r.points = remaining
	return drop
}

// Self returns the replica's name.
func (r *Replica) Self() string { return r.self }
