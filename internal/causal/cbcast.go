package causal

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"

	"causalshare/internal/flightrec"
	"causalshare/internal/group"
	"causalshare/internal/message"
	"causalshare/internal/telemetry"
	"causalshare/internal/trace"
	"causalshare/internal/transport"
	"causalshare/internal/vclock"
	"causalshare/internal/wal"
)

// CBCastConfig parameterizes a CBCast engine.
type CBCastConfig struct {
	// Self is the local member id; it must be a member of Group.
	Self string
	// Group is the broadcast domain.
	Group *group.Group
	// Conn is the transport attachment for Self.
	Conn transport.Conn
	// Deliver receives messages in causal order.
	Deliver DeliverFunc
	// Patience bounds how long a buffered message waits on a vector-clock
	// gap before the engine requests retransmission. Zero disables it.
	Patience time.Duration
	// Telemetry is the registry the engine registers its causal_cbcast_*
	// instruments on; when nil the engine creates a private registry, so
	// Snapshot stays per-engine.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, records span lifecycles into the group's
	// trace.Collector. CBCast messages usually declare no dependencies, so
	// the audit checks are vacuous, but span context still propagates and
	// the latency breakdown still applies.
	Tracer *trace.Tracer
	// Flight, when non-nil, is this member's black-box flight recorder;
	// the engine records holdback entry (against the blocking FIFO
	// predecessor the vector clock names) and gap fetches.
	Flight *flightrec.Recorder
	// Journal, when non-nil, is the member's write-ahead log; every
	// delivery is journaled (see OSendConfig.Journal).
	Journal *wal.WAL
}

// CBCast is the ISIS-style causal broadcast baseline: each message
// piggybacks the sender's vector clock and is delivered under the classic
// causal condition (FIFO from the sender plus all causal predecessors
// delivered). It infers causality from what the sender had observed —
// the "incidental ordering" the paper contrasts OSend against — so it may
// delay messages the application considers concurrent.
type CBCast struct {
	self     string
	grp      *group.Group
	others   []string // cached fan-out targets (the group is immutable)
	conn     transport.Conn
	deliver  DeliverFunc
	patience time.Duration

	mu        sync.Mutex
	closed    bool
	vc        vclock.VC // local delivery clock
	pending   []cbEntry
	retained  map[uint64][]byte // own frames by seq, for retransmission
	lastFetch map[string]time.Time
	reg       *telemetry.Registry
	ins       cbcastInstruments
	meta      metaInstruments
	peer      peerInstruments
	spans     *trace.Tracer
	flight    *flightrec.Recorder
	wlog      *wal.WAL

	done chan struct{}
	wg   sync.WaitGroup
}

type cbEntry struct {
	sender string
	vc     vclock.VC
	msg    message.Message
	since  time.Time
}

var _ Broadcaster = (*CBCast)(nil)

// NewCBCast starts an engine; its receive loop runs until Close.
func NewCBCast(cfg CBCastConfig) (*CBCast, error) {
	if cfg.Group == nil || !cfg.Group.Contains(cfg.Self) {
		return nil, fmt.Errorf("causal: %q is not a member of the group", cfg.Self)
	}
	if cfg.Conn == nil {
		return nil, fmt.Errorf("causal: nil conn")
	}
	if cfg.Deliver == nil {
		return nil, fmt.Errorf("causal: nil deliver func")
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	e := &CBCast{
		self:      cfg.Self,
		grp:       cfg.Group,
		others:    cfg.Group.Others(cfg.Self),
		conn:      cfg.Conn,
		deliver:   cfg.Deliver,
		patience:  cfg.Patience,
		vc:        vclock.New(),
		reg:       reg,
		ins:       newCBCastInstruments(reg),
		meta:      newMetaInstruments(reg),
		spans:     cfg.Tracer,
		flight:    cfg.Flight,
		wlog:      cfg.Journal,
		retained:  make(map[uint64][]byte),
		lastFetch: make(map[string]time.Time),
		done:      make(chan struct{}),
	}
	e.peer = newPeerInstruments(reg)
	registerPeerLag(reg, e.others, e.peerLag)
	e.wg.Add(1)
	go e.recvLoop()
	if e.patience > 0 {
		e.wg.Add(1)
		go e.fetchLoop()
	}
	return e, nil
}

// Self implements Broadcaster.
func (e *CBCast) Self() string { return e.self }

// Broadcast implements Broadcaster. The local clock ticks, the message is
// stamped with the post-tick clock, delivered locally (it is causally
// ready by construction) and sent to all other members.
func (e *CBCast) Broadcast(m message.Message) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("causal: broadcast: %w", err)
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	// Span assignment and the SentAt stamp precede encoding so the frame
	// carries both trailers.
	m.Span = e.spans.Broadcast(m)
	if m.SentAt == 0 {
		m.SentAt = time.Now().UnixNano()
	}
	seq := e.vc.Tick(e.self)
	stamp := e.vc.Clone()
	frame, err := encodeCBFrame(e.self, stamp, m)
	if err != nil {
		// Roll back the tick so the clock does not advance past a message
		// that was never sent.
		e.vc.Set(e.self, seq-1)
		e.mu.Unlock()
		return fmt.Errorf("causal: encode %v: %w", m.Label, err)
	}
	e.retained[seq] = frame
	stampBytes, _ := stamp.MarshalBinary() // cannot fail
	e.ins.controlBytes.Add(uint64(len(stampBytes)) * uint64(e.grp.Size()-1))
	e.meta.add(uint64(len(stampBytes)), uint64(e.grp.Size()-1))
	e.meta.msgs.Inc()
	e.ins.delivered.Inc()
	e.mu.Unlock()

	// Self-delivery first: a member observes its own message immediately.
	e.spans.Enqueue(m)
	e.spans.Deliver(m)
	e.deliver(m)
	// After the callback — see depCore.handOut.
	e.wlog.Deliver(m.Label)
	// The frame is retained above for retransmission and never mutated, so
	// every destination shares the one encoding. StaticFrame keeps it out
	// of the pools: its lifetime is the retention window, not the send.
	f := transport.StaticFrame(frame)
	err = transport.Multicast(e.conn, e.others, f)
	f.Release()
	if err != nil {
		// Per-peer delivery is best-effort: the message was delivered
		// locally and retained, and the anti-entropy adverts re-offer it,
		// so a crashed peer must not fail the broadcast for the rest.
		e.ins.sendErrors.Inc()
	}
	return nil
}

// Clock returns a copy of the local delivery clock.
func (e *CBCast) Clock() vclock.VC {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.vc.Clone()
}

// Snapshot returns the engine's registry snapshot. When the engine was
// built with a shared registry the snapshot covers everything registered
// on it.
func (e *CBCast) Snapshot() telemetry.Snapshot { return e.reg.Snapshot() }

// Close implements Broadcaster.
func (e *CBCast) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	close(e.done)
	err := e.conn.Close()
	e.wg.Wait()
	return err
}

func (e *CBCast) recvLoop() {
	defer e.wg.Done()
	// Label the delivery goroutine for CPU/goroutine profile attribution.
	pprof.Do(context.Background(), pprof.Labels("loop", "cbcast-recv", "member", e.self), func(context.Context) {
		dec := message.NewDecoder()
		if br, ok := e.conn.(transport.BatchRecver); ok {
			var batch []transport.Envelope
			for {
				var err error
				batch, err = br.RecvBatch(batch)
				if err != nil {
					return
				}
				for i := range batch {
					e.handleFrame(dec, &batch[i])
					batch[i].Release()
				}
			}
		}
		for {
			env, err := e.conn.Recv()
			if err != nil {
				return
			}
			e.handleFrame(dec, &env)
			env.Release()
		}
	})
}

// handleFrame dispatches one inbound frame. The envelope's payload is only
// valid for the duration of the call (the caller releases the frame).
func (e *CBCast) handleFrame(dec *message.Decoder, env *transport.Envelope) {
	if len(env.Payload) == 0 {
		return
	}
	kind, body := env.Payload[0], env.Payload[1:]
	switch kind {
	case frameCBCastData:
		sender, vc, m, err := decodeCBFrame(dec, body)
		if err != nil {
			return
		}
		e.ingest(sender, vc, m)
	case frameCBCastFetch:
		seq, used := binary.Uvarint(body)
		if used <= 0 {
			return
		}
		e.serveFetch(env.From, seq)
	case frameCBCastAdvert:
		seq, used := binary.Uvarint(body)
		if used <= 0 {
			return
		}
		e.handleAdvert(env.From, seq)
	default:
	}
}

func (e *CBCast) ingest(sender string, vc vclock.VC, m message.Message) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	if vc.Get(sender) <= e.vc.Get(sender) {
		e.ins.duplicates.Inc() // already delivered (or impossibly old)
		e.mu.Unlock()
		return
	}
	for _, p := range e.pending {
		if p.sender == sender && p.vc.Get(sender) == vc.Get(sender) {
			e.ins.duplicates.Inc()
			e.mu.Unlock()
			return
		}
	}
	e.spans.Enqueue(m)
	e.pending = append(e.pending, cbEntry{sender: sender, vc: vc, msg: m, since: time.Now()})
	e.ins.pendingMax.SetMax(int64(len(e.pending)))
	ready := e.drainLocked()
	e.ins.pendingDepth.Set(int64(len(e.pending)))
	if e.flight != nil {
		for i := range e.pending {
			if e.pending[i].msg.Label != m.Label {
				continue
			}
			// Still held back after the drain: the vector clock names the
			// FIFO predecessor as (part of) what it waits on.
			if fifoSeq := vc.Get(sender); fifoSeq > 1 {
				e.flight.Holdback(m.Label, message.Label{Origin: sender, Seq: fifoSeq - 1})
			} else {
				e.flight.Holdback(m.Label, message.Label{})
			}
			break
		}
	}
	e.mu.Unlock()
	if len(ready) != 0 {
		now := time.Now().UnixNano()
		for i := range ready {
			e.peer.observe(e.self, &ready[i], now)
		}
	}
	for _, r := range ready {
		e.deliver(r)
		// After the callback — see depCore.handOut.
		e.wlog.Deliver(r.Label)
	}
}

// peerLag scans the holdback buffer for messages from peer: the
// snapshot-time feed for the causal_peer_* gauges.
func (e *CBCast) peerLag(peer string) (depth, ageMS int64) {
	return scanPendingLag(peer, func(yield func(origin string, since time.Time)) {
		e.mu.Lock()
		defer e.mu.Unlock()
		for i := range e.pending {
			yield(e.pending[i].msg.Label.Origin, e.pending[i].since)
		}
	})
}

// drainLocked repeatedly scans the buffer delivering every causally ready
// message until a fixpoint. Caller holds e.mu.
func (e *CBCast) drainLocked() []message.Message {
	var out []message.Message
	for {
		progress := false
		for i := 0; i < len(e.pending); i++ {
			p := e.pending[i]
			if !e.vc.CausallyReady(p.vc, p.sender) {
				continue
			}
			e.vc.Merge(p.vc)
			e.ins.delivered.Inc()
			e.spans.Deliver(p.msg)
			out = append(out, p.msg)
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			progress = true
			i--
		}
		if !progress {
			return out
		}
	}
}

func (e *CBCast) fetchLoop() {
	defer e.wg.Done()
	interval := e.patience / 2
	if interval <= 0 {
		interval = e.patience
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-e.done:
			return
		case now := <-ticker.C:
			e.fetchGaps(now)
			e.advertise()
		}
	}
}

// advertise tells every peer the highest sequence number this member has
// broadcast, so tail losses (messages no later clock ever references) are
// detected and re-fetched.
func (e *CBCast) advertise() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	latest := e.vc.Get(e.self)
	e.mu.Unlock()
	if latest == 0 {
		return
	}
	frame := append([]byte{frameCBCastAdvert}, binary.AppendUvarint(nil, latest)...)
	f := transport.StaticFrame(frame)
	_ = transport.Multicast(e.conn, e.others, f) // best effort; re-sent next tick
	f.Release()
}

// handleAdvert fetches the next needed sequence from a peer that claims
// to have broadcast past our horizon for it.
func (e *CBCast) handleAdvert(from string, latest uint64) {
	e.mu.Lock()
	have := e.vc.Get(from)
	want := have + 1
	stale := latest > have
	if last, ok := e.lastFetch[from]; ok && time.Since(last) < e.patience {
		stale = false
	}
	if stale {
		e.lastFetch[from] = time.Now()
		e.ins.fetches.Inc()
		e.flight.Fetch(message.Label{Origin: from, Seq: want}, from)
	}
	e.mu.Unlock()
	if !stale {
		return
	}
	frame := append([]byte{frameCBCastFetch}, binary.AppendUvarint(nil, want)...)
	_ = e.conn.Send(from, frame) // best effort; retried next advert
}

// fetchGaps requests, from each origin a stale pending message is waiting
// on, the next sequence number the local clock needs from that origin.
func (e *CBCast) fetchGaps(now time.Time) {
	type fetch struct {
		to  string
		seq uint64
	}
	var fetches []fetch
	e.mu.Lock()
	for _, p := range e.pending {
		if now.Sub(p.since) < e.patience {
			continue
		}
		for origin, need := range p.vc {
			have := e.vc.Get(origin)
			wantNext := have + 1
			if origin == p.sender {
				// FIFO gap: we need seqs up to need-1 before p itself.
				if need <= wantNext {
					continue // p is blocked on other components
				}
			} else if need <= have {
				continue
			}
			if origin == e.self || !e.grp.Contains(origin) {
				continue
			}
			if last, ok := e.lastFetch[origin]; ok && now.Sub(last) < e.patience {
				continue
			}
			e.lastFetch[origin] = now
			fetches = append(fetches, fetch{to: origin, seq: wantNext})
			e.ins.fetches.Inc()
			e.flight.Fetch(message.Label{Origin: origin, Seq: wantNext}, origin)
		}
	}
	e.mu.Unlock()
	for _, f := range fetches {
		frame := append([]byte{frameCBCastFetch}, binary.AppendUvarint(nil, f.seq)...)
		_ = e.conn.Send(f.to, frame) // best effort; retried next tick
	}
}

func (e *CBCast) serveFetch(requester string, seq uint64) {
	e.mu.Lock()
	// Serve the requested seq and a few following, to heal bursts faster.
	var frames [][]byte
	for s := seq; s < seq+4; s++ {
		if f, ok := e.retained[s]; ok {
			frames = append(frames, f)
		}
	}
	e.mu.Unlock()
	for _, f := range frames {
		_ = e.conn.Send(requester, f) // best effort
	}
}

func encodeCBFrame(sender string, vc vclock.VC, m message.Message) ([]byte, error) {
	vcBytes, err := vc.MarshalBinary()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 1+len(sender)+len(vcBytes)+m.EncodedSize()+12)
	buf = append(buf, frameCBCastData)
	buf = binary.AppendUvarint(buf, uint64(len(sender)))
	buf = append(buf, sender...)
	buf = binary.AppendUvarint(buf, uint64(len(vcBytes)))
	buf = append(buf, vcBytes...)
	return m.AppendBinary(buf)
}

// decodeCBFrame decodes the body of a frameCBCastData frame (tag already
// stripped). The decoder interns the recurring strings across frames.
func decodeCBFrame(dec *message.Decoder, body []byte) (string, vclock.VC, message.Message, error) {
	var m message.Message
	n, used := binary.Uvarint(body)
	if used <= 0 || uint64(len(body)-used) < n {
		return "", nil, m, frameError(frameCBCastData, fmt.Errorf("truncated sender"))
	}
	sender := string(body[used : used+int(n)])
	body = body[used+int(n):]
	vcLen, used := binary.Uvarint(body)
	if used <= 0 || uint64(len(body)-used) < vcLen {
		return "", nil, m, frameError(frameCBCastData, fmt.Errorf("truncated clock"))
	}
	var vc vclock.VC
	if err := vc.UnmarshalBinary(body[used : used+int(vcLen)]); err != nil {
		return "", nil, m, frameError(frameCBCastData, err)
	}
	if err := dec.Decode(&m, body[used+int(vcLen):]); err != nil {
		return "", nil, m, frameError(frameCBCastData, err)
	}
	return sender, vc, m, nil
}
