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
	"causalshare/internal/wal"
)

// seqLabelSuffix namespaces sequencer traffic.
const seqLabelSuffix = "~seq"

// SeqOrigin returns the label origin the sequencer layer uses for member's
// traffic. Rejoin harnesses need it to look up the member's delivered
// watermark at live peers when resuming the member's label chain.
func SeqOrigin(member string) string { return member + seqLabelSuffix }

// Sequencer is the fixed-sequencer implementation of ASend, extended with
// epoch-based leader succession. The leader of epoch e is the group's
// member at rank e mod n; epoch 0 therefore reproduces the paper's fixed
// rank-0 sequencer. The leader assigns a global sequence number to every
// data message it delivers, announcing it with an ORDER broadcast that
// causally depends on the data message itself; members deliver data
// messages in sequence-number order.
//
// Failover (armed by Config.FailTimeout > 0) works as follows:
//
//   - Every member broadcasts SEQHB beacons carrying its epoch and
//     delivery frontier; all sequencer-layer traffic feeds a heartbeat
//     failure detector.
//   - When a member suspects the current leader, it computes the next
//     epoch e' > e whose leader it believes alive. If that leader is
//     itself, it adopts e' and broadcasts ELECT(e'); otherwise it waits
//     for that member's campaign.
//   - A member receiving ELECT(e') with e' >= its epoch adopts e' and
//     answers with ACK(e', frontier, retained assignments). Every ORDER
//     carries the epoch it was assigned under, and members retain
//     assignments (even delivered ones) until every live peer's frontier
//     passes them, so the acks reconstruct all ordering knowledge any
//     survivor holds.
//   - Once every member alive in the candidate's view has acked, the
//     candidate merges the assignments (higher epoch wins per sequence
//     number), re-broadcasts them under the new epoch so every survivor
//     can fill gaps, and assigns fresh sequence numbers to still-
//     unsequenced holdback messages in deterministic label order.
//   - ORDER/ELECT/ACK messages from older epochs are fenced (dropped),
//     so a partitioned stale leader cannot split the order; on seeing the
//     higher epoch it demotes itself.
//
// The protocol tolerates crash failures under an eventually accurate
// detector. It does not resurrect assignments every survivor missed (a
// message only the dead leader sequenced is re-proposed with a fresh
// number), which preserves the invariant the chaos suite checks: all
// survivors deliver the identical total order. See DESIGN.md §8.
type Sequencer struct {
	self        string
	grp         *group.Group
	deliver     causal.DeliverFunc
	failTimeout time.Duration
	maxPending  int
	tracker     *group.Tracker
	detector    *group.Detector

	mu       sync.Mutex
	closed   bool
	bcast    causal.Broadcaster
	labeler  *message.Labeler
	lastSent message.Label
	// epoch is the current leadership epoch; leaderOf(epoch) assigns.
	epoch uint64
	// electing is true while self campaigns for epoch.
	electing  bool
	acked     map[string]bool
	suspectAt time.Time
	lastElect time.Time
	// Data messages received but not yet deliverable, by label.
	data map[message.Label]message.Message
	// seqOf maps assigned sequence numbers to data labels (with the epoch
	// of the assignment). With failover armed, delivered assignments are
	// retained until pruneAssignedLocked proves every live peer delivered
	// them; without it they are dropped on delivery as before.
	seqOf      map[uint64]seqAssign
	seqByLabel map[message.Label]uint64
	// frontier[p] is the highest delivery frontier (nextDeliver) peer p
	// has reported via SEQHB or ACK.
	frontier map[string]uint64
	// nextAssign is the leader's next sequence number to hand out.
	nextAssign uint64
	// nextDeliver is the next sequence number to release locally.
	nextDeliver uint64
	delivered   uint64
	// repairFloor is the min alive frontier observed at the last
	// heartbeat; a floor that stalls below nextDeliver for two beats
	// triggers the leader's retained-ORDER re-announcement.
	repairFloor uint64
	// out hands released messages to the application in sequence order.
	out    handoff
	ins    totalInstruments
	trace  *telemetry.Ring
	spans  *trace.Tracer
	flight *flightrec.Recorder
	wlog   *wal.WAL

	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewSequencer constructs a sequencer-layer instance for self. Bind must
// be called before the first ASend. With cfg.FailTimeout == 0 the epoch
// never advances and the rank-0 member is the fixed leader.
func NewSequencer(cfg Config) (*Sequencer, error) {
	if cfg.Group == nil || !cfg.Group.Contains(cfg.Self) {
		return nil, fmt.Errorf("total: %q is not a member of the group", cfg.Self)
	}
	if cfg.Deliver == nil {
		return nil, fmt.Errorf("total: nil deliver func")
	}
	maxPending := cfg.MaxPending
	if maxPending == 0 {
		maxPending = DefaultMaxPending
	}
	s := &Sequencer{
		self:        cfg.Self,
		grp:         cfg.Group,
		deliver:     cfg.Deliver,
		failTimeout: cfg.FailTimeout,
		maxPending:  maxPending,
		labeler:     message.NewLabeler(cfg.Self + seqLabelSuffix),
		ins:         newTotalInstruments(cfg.Telemetry),
		trace:       cfg.Trace,
		spans:       cfg.Tracer,
		flight:      cfg.Flight,
		wlog:        cfg.Journal,
		data:        make(map[message.Label]message.Message),
		seqOf:       make(map[uint64]seqAssign),
		seqByLabel:  make(map[message.Label]uint64),
		frontier:    make(map[string]uint64),
		nextAssign:  1,
		nextDeliver: 1,
		done:        make(chan struct{}),
	}
	s.out = handoff{mu: &s.mu, deliver: s.deliverOne}
	if cfg.FailTimeout > 0 {
		s.tracker = group.NewTracker(cfg.Group)
		s.detector = group.NewDetector(s.tracker, cfg.Self, cfg.FailTimeout)
		s.detector.Prime(time.Now())
	}
	s.registerFrontierLag(cfg.Telemetry)
	s.ins.epoch.Set(0)
	if cfg.HeartbeatEvery > 0 {
		s.wg.Add(1)
		go s.heartbeatLoop(cfg.HeartbeatEvery)
	}
	return s, nil
}

// registerFrontierLag registers snapshot-time per-peer gauges exposing
// how far each peer's reported delivery frontier trails this member's
// (nextDeliver - frontier[peer]): the cross-member stability-skew signal
// causaltop merges into a cluster view. Peers that have never reported
// show the full local frontier — honest, since nothing proves they
// delivered anything.
func (s *Sequencer) registerFrontierLag(reg *telemetry.Registry) {
	fam := reg.GaugeFamily("total_member_frontier_lag",
		"Sequences this member has delivered that the peer has not yet reported delivering.",
		"peer")
	for _, p := range s.grp.Members() {
		if p == s.self {
			continue
		}
		p := p
		fam.Func(p, func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			f := s.frontier[p]
			if f == 0 {
				f = 1 // never reported: assume the initial frontier
			}
			if f < s.nextDeliver {
				return int64(s.nextDeliver - f)
			}
			return 0
		})
	}
}

// Bind attaches the underlying causal broadcaster.
func (s *Sequencer) Bind(b causal.Broadcaster) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bcast = b
}

// leaderOf maps an epoch to its leader deterministically; every member
// agrees on the mapping without communication.
func (s *Sequencer) leaderOf(epoch uint64) string {
	members := s.grp.Members()
	return members[epoch%uint64(len(members))]
}

// Epoch returns the current leadership epoch.
func (s *Sequencer) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Leader returns the member currently believed to lead.
func (s *Sequencer) Leader() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leaderOf(s.epoch)
}

// IsLeader reports whether self leads the current epoch (and is not
// mid-election).
func (s *Sequencer) IsLeader() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leaderOf(s.epoch) == s.self && !s.electing
}

// SyncSnapshot is the sequencer state a rejoining member copies from one
// live peer. Beyond the epoch and delivery frontier it carries the peer's
// retained undelivered assignments and its holdback of causally-delivered
// but not-yet-sequenced data: the rejoiner seeds its causal engine with
// the peer's delivered watermarks, so ORDER and data messages the peer
// absorbed before the snapshot would otherwise be skipped as old news and
// the rejoiner would stall at the first sequence number they cover.
type SyncSnapshot struct {
	Epoch       uint64
	NextDeliver uint64
	Assigns     []SyncAssign
	Data        []message.Message
}

// SyncAssign is one retained (seq -> label) assignment with the epoch it
// was made under.
type SyncAssign struct {
	Seq   uint64
	Epoch uint64
	Label message.Label
}

// SyncState exposes the snapshot a rejoining member needs to resume. The
// rejoin harness reads the peer's causal frontier FIRST and SyncState
// second: holdback entries the peer gains in between carry labels above
// the frontier and reach the rejoiner through the normal fetch path, while
// the reverse order can lose a message into the seeded watermark.
func (s *Sequencer) SyncState() SyncSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := SyncSnapshot{Epoch: s.epoch, NextDeliver: s.nextDeliver}
	// ALL retained assignments go into the snapshot, including those below
	// the local frontier: they are retained precisely because some live
	// peer has not delivered them yet, and if the rejoiner later leads an
	// election it must be able to re-announce them or that peer wedges.
	for seq, a := range s.seqOf {
		snap.Assigns = append(snap.Assigns, SyncAssign{Seq: seq, Epoch: a.epoch, Label: a.label})
	}
	sort.Slice(snap.Assigns, func(i, j int) bool { return snap.Assigns[i].Seq < snap.Assigns[j].Seq })
	for _, m := range s.data {
		snap.Data = append(snap.Data, m)
	}
	sort.Slice(snap.Data, func(i, j int) bool {
		if snap.Data[i].Label.Origin != snap.Data[j].Label.Origin {
			return snap.Data[i].Label.Origin < snap.Data[j].Label.Origin
		}
		return snap.Data[i].Label.Seq < snap.Data[j].Label.Seq
	})
	return snap
}

// Resume fast-forwards a freshly constructed instance to a snapshot taken
// from a live peer. History below the snapshot frontier was applied to the
// restored application state out of band and is never re-delivered here.
// lastLabel is the highest sequencer-layer label sequence any live peer
// has delivered from this member (the maximum delivered watermark for the
// "<self>~seq" origin across live peers), so new control traffic is not
// mistaken for duplicates of pre-crash messages. Call it after Bind and
// before any ASend.
func (s *Sequencer) Resume(snap SyncSnapshot, lastLabel uint64) {
	s.mu.Lock()
	if snap.Epoch > s.epoch {
		s.setEpochLocked(snap.Epoch)
	}
	if snap.NextDeliver > s.nextDeliver {
		s.nextDeliver = snap.NextDeliver
	}
	if snap.NextDeliver > s.nextAssign {
		s.nextAssign = snap.NextDeliver
	}
	for _, a := range snap.Assigns {
		s.mergeAssignLocked(a.Epoch, a.Seq, a.Label)
	}
	for _, m := range snap.Data {
		if _, dup := s.data[m.Label]; !dup {
			s.data[m.Label] = m
		}
	}
	// Data assigned below the resumed frontier was committed group-wide
	// while this member was down — a disk recovery can replay holdback
	// whose Commit records were cut off with the log tail. releaseLocked
	// never revisits those sequence numbers, so without this sweep the
	// entries sit in the holdback forever.
	for l, seq := range s.seqByLabel {
		if seq < s.nextDeliver {
			delete(s.data, l)
		}
	}
	s.labeler.Resume(lastLabel)
	if s.lastSent.IsNil() {
		s.lastSent = s.labeler.Last()
	}
	// If this member leads the resumed epoch, sequencing the snapshot's
	// unassigned holdback is its job — the seeded causal frontier means
	// those data messages were delivered group-wide long ago and will
	// never re-enter through ingestData, so nothing else would assign
	// them. Same deterministic label order as the election re-proposal.
	var orders []message.Message
	if s.bcast != nil && s.leaderOf(s.epoch) == s.self && !s.electing {
		for _, l := range s.unassignedCausalLocked() {
			orders = append(orders, s.assignLocked(l))
		}
	}
	b := s.bcast
	drain := s.releaseLocked()
	s.observeLocked()
	s.mu.Unlock()
	for _, m := range orders {
		_ = b.Broadcast(m)
	}
	if drain {
		s.out.drain()
	}
}

// ASend broadcasts an operation for totally ordered delivery.
func (s *Sequencer) ASend(op string, kind message.Kind, body []byte, after message.OccursAfter) (message.Label, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return message.Nil, ErrClosed
	}
	if s.bcast == nil {
		s.mu.Unlock()
		return message.Nil, fmt.Errorf("total: ASend before Bind")
	}
	label := s.labeler.Next()
	deps := append([]message.Label{s.lastSent}, after.Labels()...)
	s.lastSent = label
	b := s.bcast
	s.mu.Unlock()

	m := message.Message{
		Label: label,
		Deps:  message.After(deps...),
		Kind:  kind,
		Op:    op,
		Body:  body,
	}
	if err := b.Broadcast(m); err != nil {
		return message.Nil, fmt.Errorf("total: %w", err)
	}
	return label, nil
}

// controlLocked mints a control message on the layer's self-chain. Caller
// holds mu and must broadcast the message after unlocking.
func (s *Sequencer) controlLocked(op string, body []byte, extra ...message.Label) message.Message {
	label := s.labeler.Next()
	deps := append([]message.Label{s.lastSent}, extra...)
	s.lastSent = label
	return message.Message{
		Label: label,
		Deps:  message.After(deps...),
		Kind:  message.KindControl,
		Op:    op,
		Body:  body,
	}
}

// Heartbeat broadcasts a SEQHB beacon (epoch + delivery frontier). With
// failover armed it is the leader-liveness signal and the carrier for
// retained-assignment pruning; the heartbeat loop calls it, deterministic
// tests drive it manually.
func (s *Sequencer) Heartbeat() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.bcast == nil {
		s.mu.Unlock()
		return fmt.Errorf("total: Heartbeat before Bind")
	}
	body := encodeSeqHB(s.epoch, s.nextDeliver)
	m := s.controlLocked(opSeqHB, body)
	b := s.bcast
	s.ins.heartbeats.Inc()
	s.ins.wrapBytes.Add(uint64(len(body)))
	repair := s.repairStalledLocked()
	s.mu.Unlock()
	if err := b.Broadcast(m); err != nil {
		return fmt.Errorf("total: heartbeat: %w", err)
	}
	for _, o := range repair {
		_ = b.Broadcast(o)
	}
	return nil
}

// repairStalledSeqs caps how many retained ORDERs one heartbeat may
// re-announce while a peer's frontier stalls; the next beat continues.
const repairStalledSeqs = 32

// repairStalledLocked is the steady-state safety net behind election-time
// re-proposal: if a live peer's reported frontier sits below our delivery
// point for two consecutive heartbeats, the leader re-announces the
// retained assignments in that gap under the current epoch. A follower
// can lose an ORDER without any further election happening — it may have
// fenced the announcement from an epoch it had already moved past — and
// with a stable leader nothing else would ever re-send it. Caller holds
// mu; the returned ORDERs are broadcast after unlock.
func (s *Sequencer) repairStalledLocked() []message.Message {
	if s.failTimeout <= 0 || s.electing || s.leaderOf(s.epoch) != s.self {
		return nil
	}
	floor := s.minAliveFrontierLocked()
	stalled := floor == s.repairFloor && floor < s.nextDeliver
	s.repairFloor = floor
	if !stalled {
		return nil
	}
	var out []message.Message
	for seq := floor; seq < s.nextDeliver && len(out) < repairStalledSeqs; seq++ {
		a, ok := s.seqOf[seq]
		if !ok {
			continue
		}
		a.epoch = s.epoch
		s.seqOf[seq] = a
		out = append(out, s.orderAnnouncementLocked(seq, a.label))
		s.ins.reproposed.Inc()
	}
	return out
}

// Suspect backdates peer's liveness evidence in the failover detector so
// the next Tick times it out immediately. Lower layers with direct
// failure evidence — the reliability sublayer shedding an unresponsive
// peer — feed their verdicts in here rather than waiting out the full
// heartbeat timeout; a later genuine heartbeat still heals the peer. A
// no-op when failover is disabled.
func (s *Sequencer) Suspect(peer string) {
	if s.detector == nil {
		return
	}
	s.flight.Suspect(peer)
	s.detector.Suspect(peer, time.Now())
}

// Tick evaluates failure detection and election progress as of now. The
// heartbeat loop pumps it; deterministic tests call it directly. It is a
// no-op when failover is disabled.
func (s *Sequencer) Tick(now time.Time) {
	if s.detector == nil {
		return
	}
	s.detector.Tick(now)
	var out []message.Message
	s.mu.Lock()
	if s.closed || s.bcast == nil {
		s.mu.Unlock()
		return
	}
	b := s.bcast
	leader := s.leaderOf(s.epoch)
	if !s.electing && leader != s.self && !s.tracker.Alive(leader) {
		et := s.epoch + 1
		for s.leaderOf(et) != s.self && !s.tracker.Alive(s.leaderOf(et)) {
			et++
		}
		if s.leaderOf(et) == s.self {
			out = append(out, s.startElectionLocked(et, now))
		}
		// Otherwise the live member leading et campaigns; if it too is
		// dead the detector will shrink the view and a later Tick
		// re-derives the candidate.
	}
	if s.electing {
		// A member that died mid-election shrinks the alive set, which may
		// complete the count; a lost ELECT is re-broadcast.
		if msgs := s.maybeCompleteElectionLocked(now); msgs != nil {
			out = append(out, msgs...)
		} else if now.Sub(s.lastElect) > s.failTimeout {
			s.lastElect = now
			out = append(out, s.controlLocked(opElect, encodeElect(s.epoch)))
		}
	}
	s.mu.Unlock()
	for _, m := range out {
		_ = b.Broadcast(m)
	}
}

// startElectionLocked adopts the target epoch and mints the ELECT
// announcement. Caller holds mu and broadcasts the returned message.
func (s *Sequencer) startElectionLocked(epoch uint64, now time.Time) message.Message {
	s.setEpochLocked(epoch)
	s.electing = true
	s.acked = map[string]bool{s.self: true}
	s.suspectAt = now
	s.lastElect = now
	s.ins.elections.Inc()
	return s.controlLocked(opElect, encodeElect(epoch))
}

// setEpochLocked adopts a strictly higher epoch, cancelling any inferior
// campaign. Caller holds mu.
func (s *Sequencer) setEpochLocked(epoch uint64) {
	s.epoch = epoch
	s.wlog.Epoch(epoch)
	s.electing = false
	s.acked = nil
	s.ins.epoch.Set(int64(epoch))
	s.trace.Record(telemetry.EventEpoch, s.self, "", epoch, 0)
	s.spans.EpochAdopted(epoch)
}

// maybeCompleteElectionLocked finishes the campaign once every member
// alive in the local view has acked AND the ackers (self included) form a
// strict majority of the group, returning the re-proposal ORDER broadcasts
// (nil while still waiting). The quorum clause is the split-brain guard: a
// fully partitioned member suspects everyone, campaigns, and — with only
// its own ack — would otherwise complete a solo election and sequence its
// holdback on a divergent branch. With the quorum it stays electing until
// it is reconnected, at which point the majority's acks (or a higher
// epoch) resolve the campaign safely. Caller holds mu.
func (s *Sequencer) maybeCompleteElectionLocked(now time.Time) []message.Message {
	for _, m := range s.tracker.View().Alive {
		if !s.acked[m] {
			return nil
		}
	}
	if len(s.acked) <= len(s.grp.Members())/2 {
		return nil
	}
	s.electing = false
	s.ins.failoverLat.ObserveSince(s.suspectAt)

	// Re-propose every retained assignment not yet delivered by all
	// survivors under the new epoch, so any survivor missing an ORDER can
	// fill the gap, then sequence the unassigned holdback deterministically.
	floor := s.minAliveFrontierLocked()
	seqs := make([]uint64, 0, len(s.seqOf))
	for seq := range s.seqOf {
		if seq >= floor {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	out := make([]message.Message, 0, len(seqs))
	for _, seq := range seqs {
		a := s.seqOf[seq]
		a.epoch = s.epoch
		s.seqOf[seq] = a
		out = append(out, s.orderAnnouncementLocked(seq, a.label))
		s.ins.reproposed.Inc()
	}
	for _, l := range s.unassignedCausalLocked() {
		out = append(out, s.assignLocked(l))
	}
	s.trace.Record(telemetry.EventElect, s.self, "", s.epoch, int64(len(seqs)))
	s.flight.Elect(s.epoch, len(seqs))
	s.acked = nil
	return out
}

// unassignedCausalLocked returns the holdback labels without a sequence
// number in a deterministic order that respects the messages' declared
// dependencies: a topological order over the dep edges inside the set,
// picking the smallest (origin, seq) label among the ready ones at each
// step. Plain label order is not enough — holdback from different origins
// can be causally related (a sync message reading concurrent writes), and
// assigning the successor a smaller sequence number would make the total
// order contradict the causal order the layer below guarantees. Deps on
// labels outside the set were sequenced or delivered already and count as
// satisfied. Caller holds mu.
func (s *Sequencer) unassignedCausalLocked() []message.Label {
	pending := make([]message.Label, 0, len(s.data))
	inSet := make(map[message.Label]bool, len(s.data))
	for l := range s.data {
		if _, ok := s.seqByLabel[l]; !ok {
			pending = append(pending, l)
			inSet[l] = true
		}
	}
	sort.Slice(pending, func(i, j int) bool {
		if pending[i].Origin != pending[j].Origin {
			return pending[i].Origin < pending[j].Origin
		}
		return pending[i].Seq < pending[j].Seq
	})
	out := make([]message.Label, 0, len(pending))
	done := make(map[message.Label]bool, len(pending))
	for len(out) < len(pending) {
		progressed := false
		for _, l := range pending {
			if done[l] {
				continue
			}
			ready := true
			for _, d := range s.data[l].Deps.Labels() {
				if inSet[d] && !done[d] {
					ready = false
					break
				}
			}
			if ready {
				done[l] = true
				out = append(out, l)
				progressed = true
				break // restart: smallest ready label first, deterministically
			}
		}
		if !progressed {
			// A dependency cycle cannot arise from honest labelers; if one
			// does, fall back to label order rather than stalling the epoch.
			for _, l := range pending {
				if !done[l] {
					done[l] = true
					out = append(out, l)
				}
			}
		}
	}
	return out
}

// assignLocked hands l the next sequence number under the current epoch
// and mints its ORDER announcement. Caller holds mu.
func (s *Sequencer) assignLocked(l message.Label) message.Message {
	seq := s.nextAssign
	s.nextAssign++
	s.seqOf[seq] = seqAssign{label: l, epoch: s.epoch}
	s.seqByLabel[l] = seq
	s.ins.assigned.Inc()
	return s.orderAnnouncementLocked(seq, l)
}

// orderAnnouncementLocked mints ORDER(epoch, seq, l). The announcement
// causally depends on the data message it sequences, so no member can see
// the assignment first. Caller holds mu.
func (s *Sequencer) orderAnnouncementLocked(seq uint64, l message.Label) message.Message {
	body := encodeOrder(s.epoch, seq, l)
	s.ins.orderBytes.Add(uint64(len(body)))
	return s.controlLocked(opOrder, body, l)
}

// Ingest is the DeliverFunc to register with the underlying causal engine.
func (s *Sequencer) Ingest(m message.Message) {
	member, ok := seqMemberOfLabel(s.grp, m.Label)
	if !ok {
		return // foreign traffic
	}
	if s.detector != nil && member != s.self {
		s.detector.Observe(member, time.Now())
	}
	switch m.Op {
	case opOrder:
		epoch, seq, label, err := decodeOrder(m.Body)
		if err != nil {
			return
		}
		s.ingestOrder(epoch, seq, label)
	case opSeqHB:
		epoch, nd, err := decodeSeqHB(m.Body)
		if err != nil {
			return
		}
		s.ingestSeqHB(member, epoch, nd)
	case opElect:
		epoch, err := decodeElect(m.Body)
		if err != nil {
			return
		}
		s.ingestElect(member, epoch)
	case opAck:
		epoch, nd, assigns, err := decodeAck(m.Body)
		if err != nil {
			return
		}
		s.ingestAck(member, epoch, nd, assigns)
	default:
		s.ingestData(m)
	}
}

func (s *Sequencer) ingestData(m message.Message) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if _, dup := s.data[m.Label]; dup {
		s.mu.Unlock()
		return
	}
	if s.maxPending > 0 && len(s.data) >= s.maxPending {
		// Holdback bound: without it a dead leader (failover disabled, or
		// mid-election backlog) grows this map without limit. Dropping
		// stalls this member at the dropped message's sequence number if
		// one is ever assigned — bounded memory is bought with liveness,
		// which the failover path restores by draining the queue.
		s.ins.pendingDropped.Inc()
		s.observeLocked()
		s.mu.Unlock()
		return
	}
	s.data[m.Label] = m
	s.wlog.Message(&m)
	var announce []message.Message
	if s.leaderOf(s.epoch) == s.self && !s.electing {
		if _, assigned := s.seqByLabel[m.Label]; !assigned {
			announce = append(announce, s.assignLocked(m.Label))
		}
	}
	drain := s.releaseLocked()
	s.observeLocked()
	b := s.bcast
	s.mu.Unlock()
	if drain {
		s.out.drain()
	}
	for _, a := range announce {
		_ = b.Broadcast(a) // leader retries are the causal layer's concern
	}
}

// mergeAssignLocked records (seq -> label) made under epoch, resolving
// conflicts in favor of the higher epoch. Caller holds mu.
func (s *Sequencer) mergeAssignLocked(epoch, seq uint64, label message.Label) {
	s.wlog.Order(epoch, seq, label)
	if seq < s.nextDeliver {
		if _, ok := s.seqOf[seq]; !ok && s.failTimeout <= 0 {
			// Without retention nothing re-proposes old assignments, so a
			// below-frontier merge is stale by construction. With failover
			// armed it must be kept: a member resumed from a snapshot
			// taken above this seq never delivered it, yet as leader it is
			// the one that must re-announce it to peers still below it.
			// pruneAssignedLocked drops it once every live frontier is
			// past.
			return
		}
	}
	if old, ok := s.seqByLabel[label]; ok && old != seq {
		if s.seqOf[old].epoch > epoch {
			return // newer assignment for this label elsewhere
		}
		delete(s.seqOf, old)
		delete(s.seqByLabel, label)
	}
	if existing, ok := s.seqOf[seq]; ok {
		if existing.label == label {
			if epoch > existing.epoch {
				s.seqOf[seq] = seqAssign{label: label, epoch: epoch}
			}
			return
		}
		if existing.epoch >= epoch {
			return // keep the same-or-newer conflicting assignment
		}
		delete(s.seqByLabel, existing.label)
	}
	s.seqOf[seq] = seqAssign{label: label, epoch: epoch}
	s.seqByLabel[label] = seq
	if seq >= s.nextAssign {
		// Followers learn the leader's assignment frontier from ORDER
		// announcements, so their lag gauge tracks the same span.
		s.nextAssign = seq + 1
	}
}

func (s *Sequencer) ingestOrder(epoch, seq uint64, label message.Label) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if epoch < s.epoch {
		s.ins.fenced.Inc()
		s.mu.Unlock()
		return
	}
	if epoch > s.epoch {
		s.setEpochLocked(epoch)
	}
	s.spans.OrderApplied(epoch, label)
	s.mergeAssignLocked(epoch, seq, label)
	drain := s.releaseLocked()
	s.observeLocked()
	s.mu.Unlock()
	if drain {
		s.out.drain()
	}
}

func (s *Sequencer) ingestSeqHB(from string, epoch, nextDeliver uint64) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if epoch > s.epoch {
		s.setEpochLocked(epoch)
	}
	if nextDeliver > s.frontier[from] {
		s.frontier[from] = nextDeliver
	}
	s.pruneAssignedLocked()
	s.mu.Unlock()
}

func (s *Sequencer) ingestElect(from string, epoch uint64) {
	s.mu.Lock()
	if s.closed || from == s.self {
		s.mu.Unlock()
		return
	}
	if epoch < s.epoch || s.leaderOf(epoch) != from {
		s.ins.fenced.Inc()
		s.mu.Unlock()
		return
	}
	if epoch > s.epoch {
		s.setEpochLocked(epoch)
	}
	ack := s.controlLocked(opAck, encodeAck(epoch, s.nextDeliver, s.seqOf))
	b := s.bcast
	s.mu.Unlock()
	if b != nil {
		_ = b.Broadcast(ack)
	}
}

func (s *Sequencer) ingestAck(from string, epoch, nextDeliver uint64, assigns map[uint64]seqAssign) {
	var out []message.Message
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if epoch < s.epoch {
		s.ins.fenced.Inc()
		s.mu.Unlock()
		return
	}
	if epoch > s.epoch {
		// An ack for a campaign we have not seen the ELECT of yet; adopt
		// the epoch, the ELECT will still be answered when it arrives.
		s.setEpochLocked(epoch)
	}
	if nextDeliver > s.frontier[from] {
		s.frontier[from] = nextDeliver
	}
	seqs := make([]uint64, 0, len(assigns))
	for seq := range assigns {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		a := assigns[seq]
		s.mergeAssignLocked(a.epoch, seq, a.label)
	}
	if s.electing && s.epoch == epoch && s.leaderOf(epoch) == s.self {
		s.acked[from] = true
		out = s.maybeCompleteElectionLocked(time.Now())
	}
	drain := s.releaseLocked()
	s.observeLocked()
	b := s.bcast
	s.mu.Unlock()
	if drain {
		s.out.drain()
	}
	for _, m := range out {
		_ = b.Broadcast(m)
	}
}

// deliverOne hands one released message to the application, marking its
// total-order apply point on the trace collector first so span records
// show sequencing latency separately from causal delivery. Called by the
// hand-off drainer without mu held.
func (s *Sequencer) deliverOne(m message.Message) {
	s.spans.Apply(m.Label)
	s.deliver(m)
}

// releaseLocked queues the contiguous sequenced prefix for delivery and
// reports whether the caller must drain the hand-off after unlocking.
// Caller holds mu.
func (s *Sequencer) releaseLocked() bool {
	retain := s.failTimeout > 0
	for {
		a, ok := s.seqOf[s.nextDeliver]
		if !ok {
			return s.out.claimLocked()
		}
		m, ok := s.data[a.label]
		if !ok {
			return s.out.claimLocked() // data not yet here (a merged assignment outran it)
		}
		if !retain {
			delete(s.seqOf, s.nextDeliver)
			delete(s.seqByLabel, a.label)
		}
		delete(s.data, a.label)
		s.nextDeliver++
		s.delivered++
		s.ins.delivered.Inc()
		s.out.pushLocked(m)
		s.wlog.Commit(s.nextDeliver)
	}
}

// maxRetainedAssigns bounds how many assignments a suspected peer may pin
// in retention. Below the cap, pruning honors every member's reported
// frontier, down-marked ones included — a false suspicion that later
// heals must still find its missing ORDERs retained somewhere, or the
// group wedges with the assignments gone from every member. Past the cap
// a peer that stayed down this long is treated as genuinely dead: pruning
// falls back to the alive-only floor, and if the peer ever returns it
// does so through the snapshot rejoin path rather than old ORDERs.
const maxRetainedAssigns = 4096

// pruneAssignedLocked drops retained assignments every member's reported
// frontier has passed; they can never be needed for a re-proposal again.
// Caller holds mu.
func (s *Sequencer) pruneAssignedLocked() {
	if s.failTimeout <= 0 {
		return
	}
	floor := s.minFrontierLocked()
	if len(s.seqOf) > maxRetainedAssigns {
		floor = s.minAliveFrontierLocked()
	}
	for seq, a := range s.seqOf {
		if seq < floor && seq < s.nextDeliver {
			delete(s.seqOf, seq)
			delete(s.seqByLabel, a.label)
		}
	}
}

// minFrontierLocked returns the lowest delivery frontier across self and
// every peer, down-marked ones included (0 if some peer has not reported
// yet). Caller holds mu.
func (s *Sequencer) minFrontierLocked() uint64 {
	floor := s.nextDeliver
	for _, p := range s.grp.Members() {
		if p == s.self {
			continue
		}
		if s.frontier[p] < floor {
			floor = s.frontier[p]
		}
	}
	return floor
}

// minAliveFrontierLocked returns the lowest delivery frontier across self
// and every peer currently believed alive (0 if some live peer has not
// reported yet). Caller holds mu.
func (s *Sequencer) minAliveFrontierLocked() uint64 {
	floor := s.nextDeliver
	for _, p := range s.grp.Members() {
		if p == s.self {
			continue
		}
		if s.tracker != nil && !s.tracker.Alive(p) {
			continue
		}
		if s.frontier[p] < floor {
			floor = s.frontier[p]
		}
	}
	return floor
}

// observeLocked refreshes the layer gauges. Caller holds mu.
func (s *Sequencer) observeLocked() {
	s.ins.lag.Set(int64(s.nextAssign - s.nextDeliver))
	s.ins.pendingDepth.Set(int64(len(s.data)))
}

// Pending returns the number of unreleased data messages.
func (s *Sequencer) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}

// Delivered returns the number of messages delivered in total order.
func (s *Sequencer) Delivered() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.delivered
}

// Close stops the heartbeat loop and marks the layer closed. The
// underlying broadcaster is caller-owned.
func (s *Sequencer) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.done) })
	s.wg.Wait()
	return nil
}

func (s *Sequencer) heartbeatLoop(every time.Duration) {
	defer s.wg.Done()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case now := <-ticker.C:
			_ = s.Heartbeat() // best effort; retried next tick
			s.Tick(now)
		}
	}
}

// seqMemberOfLabel recovers the member id from a sequencer-layer label.
func seqMemberOfLabel(g *group.Group, l message.Label) (string, bool) {
	const n = len(seqLabelSuffix)
	if len(l.Origin) <= n || l.Origin[len(l.Origin)-n:] != seqLabelSuffix {
		return "", false
	}
	member := l.Origin[:len(l.Origin)-n]
	if !g.Contains(member) {
		return "", false
	}
	return member, true
}
