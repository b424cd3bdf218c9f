package total

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"causalshare/internal/causal"
	"causalshare/internal/flightrec"
	"causalshare/internal/group"
	"causalshare/internal/message"
	"causalshare/internal/telemetry"
	"causalshare/internal/trace"
	"causalshare/internal/vclock"
	"causalshare/internal/wal"
)

// Config parameterizes a total-order layer instance.
type Config struct {
	// Self is the local member id.
	Self string
	// Group is the ordering domain; every member must run an instance.
	Group *group.Group
	// Deliver receives messages in the agreed total order. Heartbeats and
	// internal control traffic are filtered out.
	Deliver causal.DeliverFunc
	// HeartbeatEvery, when positive, starts a ticker that broadcasts a
	// liveness stamp so quiet members do not stall delivery. Zero leaves
	// heartbeating to explicit Heartbeat calls (deterministic tests and
	// the simulator drive it manually). For the Sequencer the same ticker
	// also pumps the failure detector (Tick).
	HeartbeatEvery time.Duration
	// FailTimeout, when positive, arms sequencer failover: a leader whose
	// traffic goes silent for longer than FailTimeout is suspected and the
	// next live member in group order campaigns for the succeeding epoch.
	// Zero disables failover entirely (the pre-failover fixed-sequencer
	// behavior: a leader crash stalls total order). It should be several
	// multiples of HeartbeatEvery. Ignored by the Orderer.
	FailTimeout time.Duration
	// MaxPending bounds the sequencer's holdback of data messages awaiting
	// a sequence number. With a dead leader and failover disabled the
	// holdback would otherwise grow without limit; at the bound further
	// data messages are dropped (counted in total_pending_dropped_total),
	// sacrificing liveness for bounded memory. Zero selects
	// DefaultMaxPending; negative means unbounded. Ignored by the Orderer.
	MaxPending int
	// Telemetry, when non-nil, registers the layer's total_* instruments
	// there; instances sharing a registry aggregate.
	Telemetry *telemetry.Registry
	// Trace, when non-nil, receives epoch/election events (Sequencer only).
	Trace *telemetry.Ring
	// Tracer, when non-nil, records span lifecycle events for the causal
	// trace collector: total-order apply points, adopted epochs, and ORDER
	// application (the online epoch-fence audit input). Sequencer only.
	Tracer *trace.Tracer
	// Flight, when non-nil, is this member's black-box flight recorder;
	// the layer records completed elections and failure-detector
	// suspicions there (epoch adoptions reach the box via the trace
	// collector). Sequencer only.
	Flight *flightrec.Recorder
	// Journal, when non-nil, is the member's write-ahead log. The
	// sequencer journals enough to rebuild its ordering state on restart:
	// holdback payloads, sequence assignments, epoch adoptions, and
	// delivery-frontier advances. Nil disables durability at zero cost.
	Journal *wal.WAL
}

// DefaultMaxPending is the sequencer holdback bound used when
// Config.MaxPending is zero.
const DefaultMaxPending = 8192

// Orderer is the decentralized deterministic-merge implementation of
// ASend. All members observe the same set of stamped messages (causal
// broadcast below guarantees dissemination and per-sender FIFO via
// self-chaining), sort them by (Lamport time, member id), and deliver a
// message once no member can still produce a smaller stamp.
type Orderer struct {
	self    string
	grp     *group.Group
	deliver causal.DeliverFunc

	mu       sync.Mutex
	closed   bool
	bcast    causal.Broadcaster
	labeler  *message.Labeler
	lamport  vclock.Lamport
	lastSent message.Label // self-chain predecessor
	holdback []stampedMsg
	// horizon[p] is the greatest stamp time observed from member p.
	horizon map[string]uint64
	// delivered counts messages handed to the application.
	delivered uint64
	// out hands released messages to the application in stamp order.
	out handoff
	ins totalInstruments

	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

type stampedMsg struct {
	stamp vclock.Stamp
	msg   message.Message
	hb    bool
}

// New constructs an orderer. Bind must be called with the underlying
// causal broadcaster before the first ASend; the orderer's Ingest method
// is the DeliverFunc to hand to that broadcaster.
func New(cfg Config) (*Orderer, error) {
	if cfg.Group == nil || !cfg.Group.Contains(cfg.Self) {
		return nil, fmt.Errorf("total: %q is not a member of the group", cfg.Self)
	}
	if cfg.Deliver == nil {
		return nil, fmt.Errorf("total: nil deliver func")
	}
	o := &Orderer{
		self:    cfg.Self,
		grp:     cfg.Group,
		deliver: cfg.Deliver,
		labeler: message.NewLabeler(cfg.Self + labelSuffix),
		ins:     newTotalInstruments(cfg.Telemetry),
		horizon: make(map[string]uint64, cfg.Group.Size()),
		done:    make(chan struct{}),
	}
	o.out = handoff{mu: &o.mu, deliver: o.deliver}
	if cfg.HeartbeatEvery > 0 {
		o.wg.Add(1)
		go o.heartbeatLoop(cfg.HeartbeatEvery)
	}
	return o, nil
}

// Bind attaches the underlying causal broadcaster. It must be called
// exactly once, before the first ASend or Heartbeat.
func (o *Orderer) Bind(b causal.Broadcaster) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.bcast = b
}

// ASend broadcasts an operation for totally ordered delivery. The after
// predicate carries any application-level causal constraint (the paper's
// ASend({m}, OccursAfter(Msg))); the layer adds its own self-chain
// dependency so the causal engine preserves per-sender FIFO, which the
// merge correctness depends on.
func (o *Orderer) ASend(op string, kind message.Kind, body []byte, after message.OccursAfter) (message.Label, error) {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return message.Nil, ErrClosed
	}
	if o.bcast == nil {
		o.mu.Unlock()
		return message.Nil, fmt.Errorf("total: ASend before Bind")
	}
	stamp := o.lamport.Tick()
	label := o.labeler.Next()
	deps := append([]message.Label{o.lastSent}, after.Labels()...)
	o.lastSent = label
	b := o.bcast
	o.mu.Unlock()

	m := message.Message{
		Label: label,
		Deps:  message.After(deps...),
		Kind:  kind,
		Op:    op,
		Body:  wrapBody(stamp, body),
	}
	o.ins.wrapBytes.Add(uint64(uvarintLen(stamp)))
	if err := b.Broadcast(m); err != nil {
		return message.Nil, fmt.Errorf("total: %w", err)
	}
	return label, nil
}

// Heartbeat broadcasts a liveness stamp so other members can release
// messages ordered before it. It is cheap and idempotent.
func (o *Orderer) Heartbeat() error {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return ErrClosed
	}
	if o.bcast == nil {
		o.mu.Unlock()
		return fmt.Errorf("total: Heartbeat before Bind")
	}
	stamp := o.lamport.Tick()
	label := o.labeler.Next()
	dep := o.lastSent
	o.lastSent = label
	b := o.bcast
	o.mu.Unlock()

	m := message.Message{
		Label: label,
		Deps:  message.After(dep),
		Kind:  message.KindControl,
		Op:    opHeartbeat,
		Body:  wrapBody(stamp, nil),
	}
	o.ins.heartbeats.Inc()
	o.ins.wrapBytes.Add(uint64(uvarintLen(stamp)))
	if err := b.Broadcast(m); err != nil {
		return fmt.Errorf("total: heartbeat: %w", err)
	}
	return nil
}

// Ingest is the DeliverFunc to register with the underlying causal engine.
// It consumes causally ordered traffic and re-delivers it in total order.
func (o *Orderer) Ingest(m message.Message) {
	member, ok := memberOfLabel(o.grp, m.Label)
	if !ok {
		return // not total-layer traffic; ignore
	}
	stampTime, body, err := unwrapBody(m.Body)
	if err != nil {
		return
	}
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.lamport.Witness(stampTime)
	if stampTime > o.horizon[member] {
		o.horizon[member] = stampTime
	}
	entry := stampedMsg{
		stamp: vclock.Stamp{Time: stampTime, Proc: member},
		msg: message.Message{
			Label: m.Label,
			Deps:  m.Deps,
			Kind:  m.Kind,
			Op:    m.Op,
			Body:  body,
		},
		hb: m.Op == opHeartbeat,
	}
	i := sort.Search(len(o.holdback), func(i int) bool {
		return entry.stamp.Less(o.holdback[i].stamp)
	})
	o.holdback = append(o.holdback, stampedMsg{})
	copy(o.holdback[i+1:], o.holdback[i:])
	o.holdback[i] = entry
	drain := o.releaseLocked()
	o.ins.holdback.Set(int64(len(o.holdback)))
	o.mu.Unlock()
	if drain {
		o.out.drain()
	}
}

// releaseLocked queues for delivery the holdback prefix whose stamps every
// member's horizon has passed, and reports whether the caller must drain
// the hand-off after unlocking. Caller holds o.mu.
func (o *Orderer) releaseLocked() bool {
	for len(o.holdback) > 0 {
		head := o.holdback[0]
		if !o.stableLocked(head.stamp) {
			break
		}
		o.holdback = o.holdback[1:]
		if !head.hb {
			o.delivered++
			o.ins.delivered.Inc()
			o.out.pushLocked(head.msg)
		}
	}
	return o.out.claimLocked()
}

// stableLocked reports whether no member can still emit a stamp ordering
// before s: every member's horizon is at or past s.Time (a member's next
// stamp is strictly greater than its horizon).
func (o *Orderer) stableLocked(s vclock.Stamp) bool {
	for _, p := range o.grp.Members() {
		if p == s.Proc {
			continue
		}
		if o.horizon[p] < s.Time {
			return false
		}
	}
	return true
}

// Pending returns the current holdback size (experiment metric).
func (o *Orderer) Pending() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.holdback)
}

// Delivered returns the number of application messages delivered in total
// order.
func (o *Orderer) Delivered() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.delivered
}

// Close stops the heartbeat loop. It does not close the underlying
// broadcaster, which the caller owns.
func (o *Orderer) Close() error {
	o.mu.Lock()
	o.closed = true
	o.mu.Unlock()
	o.stopOnce.Do(func() { close(o.done) })
	o.wg.Wait()
	return nil
}

func (o *Orderer) heartbeatLoop(every time.Duration) {
	defer o.wg.Done()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-o.done:
			return
		case <-ticker.C:
			_ = o.Heartbeat() // best effort; retried next tick
		}
	}
}

// memberOfLabel recovers the member id from a total-layer label origin
// ("<member>~total"), reporting false for foreign labels.
func memberOfLabel(g *group.Group, l message.Label) (string, bool) {
	const n = len(labelSuffix)
	if len(l.Origin) <= n || l.Origin[len(l.Origin)-n:] != labelSuffix {
		return "", false
	}
	member := l.Origin[:len(l.Origin)-n]
	if !g.Contains(member) {
		return "", false
	}
	return member, true
}
