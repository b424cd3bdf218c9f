package causal

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"causalshare/internal/flightrec"
	"causalshare/internal/group"
	"causalshare/internal/message"
	"causalshare/internal/telemetry"
	"causalshare/internal/trace"
	"causalshare/internal/transport"
	"causalshare/internal/wal"
)

// depCore is the explicit-dependency machinery OSend and PCCast share: the
// delivered set, the OccursAfter holdback (§3.3: a message is delivered
// once every label its predicate names is delivered locally), group-wide
// retention with stability pruning, anti-entropy, and state sync. Because
// the predicate is stable application information, a buffered message's
// predecessors are guaranteed to exist, so a missing one can always be
// re-fetched by its label.
//
// The engines differ only in dissemination — how a message first reaches
// the peers — so each embeds one core and keeps its own front end:
// OSend's direct fan-out, PCCast's FIFO-stream flood. What tells the
// engines apart inside the core is data fixed at construction (depWire);
// the core never branches on which engine it serves.
//
// Locking is split so the two halves of the hot path never contend: the
// Broadcast path touches only retainMu (retransmission state), the
// delivery path only deliverMu (buffering state), and the delivered set
// sits behind its own read-mostly lock so stable-point detectors can poll
// Delivered without slowing either path. Counters are atomics. The lock
// hierarchy is deliverMu | retainMu → deliveredMu; deliverMu and retainMu
// are never held together. A front end's own locks sit beside these, never
// above them.
type depCore struct {
	self     string
	grp      *group.Group
	others   []string // cached fan-out targets (the group is immutable)
	conn     transport.Conn
	deliver  DeliverFunc
	patience time.Duration
	onSync   func(from string, watermarks map[string]uint64)
	wire     depWire

	closed atomic.Bool

	// deliveredMu guards the delivered-label set, the engine's most read
	// structure (every ingest probes it, stable-point detectors poll it).
	deliveredMu sync.RWMutex
	delivered   *deliveredSet

	// deliverMu guards the delivery buffer and its scratch space.
	deliverMu sync.Mutex
	pending   map[message.Label]*pendingEntry
	waiting   map[message.Label][]message.Label // missing label -> pending labels blocked on it
	cascade   []message.Message                 // BFS scratch for deliverLocked
	readyFree [][]message.Message               // recycled ready batches

	// retainMu guards retransmission state: messages kept for re-fetch,
	// fetch rate-limiting, and peer watermarks.
	retainMu  sync.Mutex
	retained  map[message.Label]message.Message
	lastFetch map[message.Label]time.Time
	// peerWM holds, per peer, the delivered watermarks that peer last
	// advertised; a retained message every peer's watermark covers is
	// stable and garbage-collected.
	peerWM map[string]map[string]uint64
	// down marks peers excluded from the stability quorum (crashed or
	// shed by the reliability sublayer): a dead member's frozen watermark
	// must not pin retained history forever. An advert from a down peer
	// clears the mark — the peer is evidently back.
	down map[string]bool
	// fetchSpread rotates dependency fetches across live peers when a
	// label's origin is down (any retainer can serve it).
	fetchSpread int

	// reg is the registry ins was registered on (shared or private); trace
	// is the optional event ring. Instruments and rings are nil-safe, so
	// the hot paths update them unconditionally.
	reg    *telemetry.Registry
	ins    depInstruments
	meta   metaInstruments
	peer   peerInstruments
	trace  *telemetry.Ring
	spans  *trace.Tracer
	flight *flightrec.Recorder
	wlog   *wal.WAL

	done chan struct{}
	wg   sync.WaitGroup
}

// depWire is what one engine's use of the core is keyed by: the frame tags
// of its out-of-stream traffic, the prefix of its metric names, and the
// profile label of its receive goroutine.
type depWire struct {
	fetch, advert, syncReq, syncResp byte
	metrics                          string // e.g. "causal_osend_"
	loop                             string // pprof "loop" label
}

type pendingEntry struct {
	msg     message.Message
	missing map[message.Label]struct{}
	since   time.Time
}

// init validates the fields both engines' configs share (PCCastConfig is
// OSendConfig plus a Tracker) and builds the core. Nothing runs until
// start.
func (c *depCore) init(cfg OSendConfig, w depWire) error {
	if cfg.Group == nil || !cfg.Group.Contains(cfg.Self) {
		return fmt.Errorf("causal: %q is not a member of the group", cfg.Self)
	}
	if cfg.Conn == nil {
		return fmt.Errorf("causal: nil conn")
	}
	if cfg.Deliver == nil {
		return fmt.Errorf("causal: nil deliver func")
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	*c = depCore{
		self:      cfg.Self,
		grp:       cfg.Group,
		others:    cfg.Group.Others(cfg.Self),
		conn:      cfg.Conn,
		deliver:   cfg.Deliver,
		patience:  cfg.Patience,
		onSync:    cfg.OnSync,
		wire:      w,
		reg:       reg,
		ins:       newDepInstruments(reg, w.metrics),
		meta:      newMetaInstruments(reg),
		peer:      newPeerInstruments(reg),
		trace:     cfg.Trace,
		spans:     cfg.Tracer,
		flight:    cfg.Flight,
		wlog:      cfg.Journal,
		delivered: newDeliveredSet(),
		pending:   make(map[message.Label]*pendingEntry),
		waiting:   make(map[message.Label][]message.Label),
		retained:  make(map[message.Label]message.Message),
		lastFetch: make(map[message.Label]time.Time),
		peerWM:    make(map[string]map[string]uint64),
		down:      make(map[string]bool),
		done:      make(chan struct{}),
	}
	registerPeerLag(reg, c.others, c.peerLag)
	return nil
}

// start runs the receive loop, handing every inbound frame to handle, and
// — when patience arms anti-entropy — a ticker calling tick. Both run
// until Close.
func (c *depCore) start(handle func(*message.Decoder, *transport.Envelope), tick func(now time.Time)) {
	c.wg.Add(1)
	go c.recvLoop(handle)
	if c.patience > 0 {
		c.wg.Add(1)
		go c.fetchLoop(tick)
	}
}

// Self implements Broadcaster.
func (c *depCore) Self() string { return c.self }

// stamp validates an outgoing message and assigns its span and SentAt
// trailers. Both must precede frame sizing: they ride as trailers, and
// EncodedSize accounts for them.
func (c *depCore) stamp(m *message.Message, now time.Time) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("causal: broadcast: %w", err)
	}
	if c.closed.Load() {
		return ErrClosed
	}
	m.Span = c.spans.Broadcast(*m)
	if m.SentAt == 0 {
		m.SentAt = now.UnixNano()
	}
	return nil
}

// retainOwn keeps an own broadcast for retransmission and accounts its
// ordering metadata (metaBytes per frame, once per peer). It runs before
// the message is ingested, which is why handleAdvert must not fetch a
// label this member already retains.
func (c *depCore) retainOwn(m message.Message, metaBytes uint64) {
	c.retainMu.Lock()
	c.retained[m.Label] = m
	c.ins.retainedDepth.Set(int64(len(c.retained)))
	c.retainMu.Unlock()
	c.ins.controlBytes.Add(metaBytes * uint64(len(c.others)))
	c.meta.add(metaBytes, uint64(len(c.others)))
	c.meta.msgs.Inc()
	c.trace.Record(telemetry.EventSend, c.self, m.Label.Origin, m.Label.Seq, 0)
}

// Snapshot returns the engine's registry snapshot — the one snapshot
// shape shared by every instrumented layer. When the engine was built
// with a shared registry the snapshot covers everything registered on it.
func (c *depCore) Snapshot() telemetry.Snapshot { return c.reg.Snapshot() }

// Delivered reports whether l has been delivered locally; the stable-point
// detector polls it, so it takes only a read lock on the delivered set.
func (c *depCore) Delivered(l message.Label) bool {
	return c.deliveredHas(l)
}

func (c *depCore) deliveredHas(l message.Label) bool {
	c.deliveredMu.RLock()
	ok := c.delivered.Has(l)
	c.deliveredMu.RUnlock()
	return ok
}

func (c *depCore) deliveredAdd(l message.Label) bool {
	c.deliveredMu.Lock()
	ok := c.delivered.Add(l)
	c.deliveredMu.Unlock()
	return ok
}

// ForgetRetained drops the local retransmission copy of l (call once l is
// known stable at all members).
func (c *depCore) ForgetRetained(l message.Label) {
	c.retainMu.Lock()
	delete(c.retained, l)
	c.ins.retainedDepth.Set(int64(len(c.retained)))
	c.retainMu.Unlock()
}

// retainedCopy returns the retained message l, if any, for a fetch answer.
func (c *depCore) retainedCopy(l message.Label) (message.Message, bool) {
	c.retainMu.Lock()
	m, ok := c.retained[l]
	c.retainMu.Unlock()
	return m, ok
}

// Frontier returns the engine's delivered watermarks: per origin, every
// sequence in [1, Frontier[origin]] has been delivered locally. A peer
// serving a rejoin snapshot pairs this with the total layer's SyncState.
func (c *depCore) Frontier() map[string]uint64 {
	c.deliveredMu.RLock()
	defer c.deliveredMu.RUnlock()
	return c.delivered.Watermarks()
}

// SeedFrontier marks every sequence up to wm[origin] as already delivered,
// per origin. A rejoining member seeds the frontiers its peers report so
// pre-crash history — whose effects it recovers through the state
// snapshot, not re-delivery — is treated as old news; buffered messages
// whose missing predecessors the seed covered deliver immediately.
func (c *depCore) SeedFrontier(wm map[string]uint64) {
	c.deliveredMu.Lock()
	for origin, seq := range wm {
		c.delivered.Seed(origin, seq)
	}
	c.deliveredMu.Unlock()
	// The auditor must learn the watermarks before the release pass below
	// delivers anything that depends on seeded history.
	c.spans.SeedDelivered(wm)
	c.releaseSeeded()
}

// releaseSeeded re-checks the holdback buffer after a frontier seed:
// dependencies the seed covered are satisfied, and fully satisfied
// messages deliver with their usual cascade.
func (c *depCore) releaseSeeded() {
	c.deliverMu.Lock()
	var freed []message.Message
	for l, entry := range c.pending {
		for d := range entry.missing {
			if c.deliveredHas(d) {
				delete(entry.missing, d)
			}
		}
		if len(entry.missing) == 0 {
			delete(c.pending, l)
			c.ins.depWait.ObserveSince(entry.since)
			freed = append(freed, entry.msg)
		}
	}
	for d := range c.waiting {
		if c.deliveredHas(d) {
			delete(c.waiting, d)
		}
	}
	if len(freed) == 0 {
		c.deliverMu.Unlock()
		return
	}
	ready := c.takeReadyLocked()
	for _, m := range freed {
		ready = c.deliverLocked(ready, m)
	}
	c.ins.pendingDepth.Set(int64(len(c.pending)))
	c.deliverMu.Unlock()
	c.handOut(ready)
}

// RequestSync asks every peer for a state-sync snapshot (their delivered
// watermarks plus the retained tail they can serve). Responses arrive as
// sync frames handled on the receive goroutine: tail fetches are issued
// and the OnSync callback (if any) invoked. Responses deliberately do NOT
// seed the delivered frontier — by the time one arrives the peer's
// watermarks may have advanced past messages whose effects the caller's
// resume snapshot predates, and seeding would skip them silently. Seeding
// is the caller's job via SeedFrontier, read consistently with whatever
// layer snapshot it resumes from. The fan-out is best-effort; callers
// re-invoke if no response arrives.
func (c *depCore) RequestSync() error {
	if c.closed.Load() {
		return ErrClosed
	}
	f := transport.StaticFrame([]byte{c.wire.syncReq})
	err := transport.Multicast(c.conn, c.others, f)
	f.Release()
	return err
}

// SyncWith asks one peer for a state-sync snapshot — the targeted variant
// of RequestSync. The reliability sublayer calls it (via its OnResync
// hook) when the link from peer skipped irrecoverable sequences: only
// that peer's retained tail needs re-fetching, not the whole group's.
func (c *depCore) SyncWith(peer string) error {
	if c.closed.Load() {
		return ErrClosed
	}
	return c.conn.Send(peer, []byte{c.wire.syncReq})
}

// MarkDown sets or clears a peer's down mark. A down peer is excluded
// from the stability quorum (its frozen watermark would otherwise pin
// retained history forever) and dependency fetches for labels it
// originated are spread across live peers instead — with group-wide
// retention any of them may hold a copy. The failure detector or the
// reliability sublayer's shed verdicts drive this; an advert arriving
// from a down peer clears the mark on its own.
func (c *depCore) MarkDown(peer string, down bool) {
	c.retainMu.Lock()
	if down {
		c.down[peer] = true
	} else {
		delete(c.down, peer)
	}
	c.retainMu.Unlock()
	c.wlog.Member(peer, down)
}

// Close implements Broadcaster.
func (c *depCore) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	close(c.done)
	err := c.conn.Close()
	c.wg.Wait()
	return err
}

func (c *depCore) recvLoop(handle func(*message.Decoder, *transport.Envelope)) {
	defer c.wg.Done()
	// Label the delivery goroutine so CPU/goroutine profiles attribute
	// holdback and cascade work to the owning member.
	pprof.Do(context.Background(), pprof.Labels("loop", c.wire.loop, "member", c.self), func(context.Context) {
		dec := message.NewDecoder()
		if br, ok := c.conn.(transport.BatchRecver); ok {
			var batch []transport.Envelope
			for {
				var err error
				batch, err = br.RecvBatch(batch)
				if err != nil {
					return
				}
				for i := range batch {
					handle(dec, &batch[i])
					batch[i].Release()
				}
			}
		}
		for {
			env, err := c.conn.Recv()
			if err != nil {
				return
			}
			handle(dec, &env)
			env.Release()
		}
	})
}

// handleControl dispatches the core's advert and state-sync frames; the
// engine's frame switch passes it every kind it does not own. The body
// is only valid for the duration of the call.
func (c *depCore) handleControl(from string, kind byte, body []byte) {
	switch kind {
	case c.wire.advert, c.wire.syncResp:
		retained, watermarks, err := decodeAdvert(body)
		if err != nil {
			return
		}
		c.handleAdvert(from, retained, watermarks)
		if kind == c.wire.syncResp && c.onSync != nil {
			// The snapshot went through the normal advert path: the
			// retained tail above the local (seeded) watermark is fetched
			// and stability bookkeeping stays current. It never seeds the
			// delivered frontier itself — see RequestSync for why.
			c.onSync(from, watermarks)
		}
	case c.wire.syncReq:
		if len(body) != 0 {
			return
		}
		// The advert payload, sent unicast under the sync-resp tag so the
		// requester knows it may seed the watermarks rather than merely
		// prune.
		maxSeq, wm := c.advertState()
		_ = c.conn.Send(from, encodeAdvertKind(c.wire.syncResp, maxSeq, wm)) // best effort; requester retries
	default:
		// Unknown frame kinds are ignored for forward compatibility.
	}
}

// takeReadyLocked pops a recycled delivery batch. Caller holds deliverMu.
func (c *depCore) takeReadyLocked() []message.Message {
	if n := len(c.readyFree); n > 0 {
		buf := c.readyFree[n-1]
		c.readyFree = c.readyFree[:n-1]
		return buf
	}
	return nil
}

// ingest runs the delivery algorithm on one received (or locally
// broadcast) message, cascading through any pending messages it releases.
func (c *depCore) ingest(m message.Message) {
	if c.closed.Load() {
		return
	}
	// Group-wide retention: with anti-entropy armed, every member keeps a
	// serveable copy of every message it sees until stability proves the
	// whole group delivered it, so a fetch is answerable by ANY retainer
	// and history survives its origin's crash. (Origin-only retention
	// strands a dead member's tail: survivors that delivered it could not
	// serve the ones that did not.) Without patience nothing ever fetches,
	// so the copies would be pure memory overhead — skip them.
	if c.patience > 0 {
		c.retainMu.Lock()
		if _, ok := c.retained[m.Label]; !ok {
			c.retained[m.Label] = m
			c.ins.retainedDepth.Set(int64(len(c.retained)))
		}
		c.retainMu.Unlock()
	}
	c.deliverMu.Lock()
	if c.deliveredHas(m.Label) {
		c.ins.duplicates.Inc()
		c.deliverMu.Unlock()
		return
	}
	if _, buffered := c.pending[m.Label]; buffered {
		c.ins.duplicates.Inc()
		c.deliverMu.Unlock()
		return
	}
	c.spans.Enqueue(m)
	// The common case has every predecessor delivered; allocate the
	// missing-set only when something actually is missing.
	var missing map[message.Label]struct{}
	for _, d := range m.Deps.Labels() {
		if !c.deliveredHas(d) {
			if missing == nil {
				missing = make(map[message.Label]struct{}, m.Deps.Len())
			}
			missing[d] = struct{}{}
		}
	}
	if missing != nil {
		c.pending[m.Label] = &pendingEntry{msg: m, missing: missing, since: time.Now()}
		for d := range missing {
			c.waiting[d] = append(c.waiting[d], m.Label)
			c.flight.Holdback(m.Label, d)
		}
		depth := len(c.pending)
		c.deliverMu.Unlock()
		c.ins.pendingDepth.Set(int64(depth))
		c.ins.pendingMax.SetMax(int64(depth))
		c.trace.Record(telemetry.EventDefer, c.self, m.Label.Origin, m.Label.Seq, int64(depth))
		return
	}
	ready := c.deliverLocked(c.takeReadyLocked(), m)
	if len(ready) > 1 {
		// The cascade drained buffered messages; refresh the depth gauge.
		c.ins.pendingDepth.Set(int64(len(c.pending)))
	}
	c.deliverMu.Unlock()
	c.handOut(ready)
}

// handOut passes a delivery batch to the upper layer with no engine lock
// held, then prunes its fetch state and recycles the batch.
func (c *depCore) handOut(ready []message.Message) {
	if len(ready) != 0 {
		// Send→deliver latency toward each remote origin; alloc-free (see
		// peerInstruments.observe).
		now := time.Now().UnixNano()
		for i := range ready {
			c.peer.observe(c.self, &ready[i], now)
		}
	}
	for _, r := range ready {
		c.deliver(r)
		// Journaled AFTER the callback: a durable delivery claim implies
		// everything the upper layer journaled for r (e.g. the
		// sequencer's holdback payload) sits earlier in the log, so a
		// torn tail can never leave a claim without its payload.
		c.wlog.Deliver(r.Label)
	}
	// Drop fetch rate-limit entries for the labels just delivered, so the
	// lastFetch map tracks only live gaps instead of growing with history.
	c.retainMu.Lock()
	if len(c.lastFetch) != 0 {
		for i := range ready {
			delete(c.lastFetch, ready[i].Label)
		}
	}
	c.retainMu.Unlock()
	clear(ready)
	c.deliverMu.Lock()
	c.readyFree = append(c.readyFree, ready[:0])
	c.deliverMu.Unlock()
}

// peerLag scans the holdback buffer for messages from peer: the
// snapshot-time feed for the causal_peer_* gauges.
func (c *depCore) peerLag(peer string) (depth, ageMS int64) {
	return scanPendingLag(peer, func(yield func(origin string, since time.Time)) {
		c.deliverMu.Lock()
		defer c.deliverMu.Unlock()
		for _, entry := range c.pending {
			yield(entry.msg.Label.Origin, entry.since)
		}
	})
}

// deliverLocked marks m delivered and appends, in order, m plus every
// buffered message transitively released by it to out. Caller holds
// deliverMu.
func (c *depCore) deliverLocked(out []message.Message, m message.Message) []message.Message {
	queue := append(c.cascade[:0], m)
	for i := 0; i < len(queue); i++ {
		cur := queue[i]
		if !c.deliveredAdd(cur.Label) {
			continue
		}
		c.ins.delivered.Inc()
		c.trace.Record(telemetry.EventDeliver, c.self, cur.Label.Origin, cur.Label.Seq, 0)
		c.spans.Deliver(cur)
		out = append(out, cur)
		blocked, ok := c.waiting[cur.Label]
		if !ok {
			continue
		}
		delete(c.waiting, cur.Label)
		for _, bl := range blocked {
			entry, ok := c.pending[bl]
			if !ok {
				continue
			}
			delete(entry.missing, cur.Label)
			if c.spans != nil {
				// Attribute the holdback wait to the edge that just resolved.
				c.spans.DepResolved(bl, cur.Label, time.Since(entry.since))
			}
			if len(entry.missing) == 0 {
				delete(c.pending, bl)
				c.ins.depWait.ObserveSince(entry.since)
				queue = append(queue, entry.msg)
			}
		}
	}
	clear(queue)
	c.cascade = queue[:0]
	return out
}

// fetchLoop is the anti-entropy heartbeat: it calls tick every half
// patience window.
func (c *depCore) fetchLoop(tick func(now time.Time)) {
	defer c.wg.Done()
	interval := c.patience / 2
	if interval <= 0 {
		interval = c.patience
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.done:
			return
		case now := <-ticker.C:
			tick(now)
		}
	}
}

// antiEntropy is one heartbeat of the core's repair machinery: fetch
// predecessors pending messages have waited on longer than the patience
// window, advertise, and sweep stale fetch state.
func (c *depCore) antiEntropy(now time.Time) {
	c.fetchMissing(now)
	c.advertise()
	c.pruneFetchState()
}

// pruneFetchState sweeps fetch rate-limit entries that can never be acted
// on again: labels already delivered (covered elsewhere but also swept
// here for entries created by adverts that raced a delivery) and labels
// whose retransmission route left the group.
func (c *depCore) pruneFetchState() {
	c.retainMu.Lock()
	for l := range c.lastFetch {
		if c.deliveredHas(l) || !c.grp.Contains(RouteOrigin(l.Origin)) {
			delete(c.lastFetch, l)
		}
	}
	c.retainMu.Unlock()
}

// fetchBacklog reports the number of tracked fetch rate-limit entries
// (test hook for the pruning regression tests).
func (c *depCore) fetchBacklog() int {
	c.retainMu.Lock()
	defer c.retainMu.Unlock()
	return len(c.lastFetch)
}

// advertState is the advert payload: the highest retained sequence per
// origin and this member's delivered watermarks.
func (c *depCore) advertState() (maxSeq, watermarks map[string]uint64) {
	c.retainMu.Lock()
	maxSeq = make(map[string]uint64)
	for l := range c.retained {
		if l.Seq > maxSeq[l.Origin] {
			maxSeq[l.Origin] = l.Seq
		}
	}
	c.retainMu.Unlock()
	return maxSeq, c.Frontier()
}

// advertise sends every peer (a) the highest retained sequence number per
// origin, and (b) this member's delivered watermarks. Peers use (a) to
// detect tail losses — dropped messages that no later dependency ever
// names — and fetch them; (b) drives stability garbage collection: a
// retained message whose sequence every peer's watermark covers can never
// be re-fetched, so the copy is dropped. Dependency-driven fetching covers
// every loss that *is* referenced; the adverts are the anti-entropy half
// of the engine's reliability.
func (c *depCore) advertise() {
	if c.closed.Load() {
		return
	}
	maxSeq, wm := c.advertState()
	if len(maxSeq) == 0 && len(wm) == 0 {
		return
	}
	f := transport.StaticFrame(encodeAdvertKind(c.wire.advert, maxSeq, wm))
	_ = transport.Multicast(c.conn, c.others, f) // best effort; re-sent next tick
	f.Release()
}

// handleAdvert fetches, from the advertising member, any sequence numbers
// it claims to retain that are neither delivered, pending nor retained
// locally, and garbage-collects retained messages the advertised
// watermarks prove stable. A label retained here but not yet delivered is
// in flight through ingest — most often this member's own broadcast, which
// is retained before it is ingested — so fetching it would only race a
// second copy against the first.
func (c *depCore) handleAdvert(from string, retained, watermarks map[string]uint64) {
	const maxFetchPerAdvert = 32
	now := time.Now()
	var candidates []message.Label
scan:
	for origin, maxSeq := range retained {
		for seq := c.deliveredWatermark(origin) + 1; seq <= maxSeq; seq++ {
			l := message.Label{Origin: origin, Seq: seq}
			if c.deliveredHas(l) || c.isPending(l) {
				continue
			}
			candidates = append(candidates, l)
			if len(candidates) >= maxFetchPerAdvert {
				break scan
			}
		}
	}
	var fetches []message.Label
	c.retainMu.Lock()
	for _, l := range candidates {
		if _, held := c.retained[l]; held {
			continue
		}
		if last, ok := c.lastFetch[l]; ok && now.Sub(last) < c.patience {
			continue
		}
		c.lastFetch[l] = now
		fetches = append(fetches, l)
		c.ins.fetches.Inc()
		c.trace.Record(telemetry.EventFetch, c.self, l.Origin, l.Seq, 0)
		c.flight.Fetch(l, from)
	}
	c.peerWM[from] = watermarks
	delete(c.down, from) // an advertising peer is evidently alive
	c.pruneStableLocked()
	c.retainMu.Unlock()
	for _, l := range fetches {
		_ = c.conn.Send(from, encodeLabel([]byte{c.wire.fetch}, l)) // best effort; retried next advert
	}
}

func (c *depCore) deliveredWatermark(origin string) uint64 {
	c.deliveredMu.RLock()
	wm := c.delivered.Watermark(origin)
	c.deliveredMu.RUnlock()
	return wm
}

func (c *depCore) isPending(l message.Label) bool {
	c.deliverMu.Lock()
	_, ok := c.pending[l]
	c.deliverMu.Unlock()
	return ok
}

// pruneStableLocked drops retained messages whose sequence every peer's
// advertised watermark covers: all members delivered them, so no fetch
// can ever name them again. Peers marked down are excluded from the
// quorum — a crashed member's frozen watermark must not pin the whole
// group's history; if it returns it recovers by snapshot, not by fetch.
// Caller holds retainMu.
func (c *depCore) pruneStableLocked() {
	for _, p := range c.others {
		if c.down[p] {
			continue
		}
		if _, ok := c.peerWM[p]; !ok {
			return // need evidence from every live peer before anything is stable
		}
	}
	for l := range c.retained {
		stable := true
		for _, p := range c.others {
			if c.down[p] {
				continue
			}
			wm, ok := c.peerWM[p]
			if !ok || wm[l.Origin] < l.Seq {
				stable = false
				break
			}
		}
		if stable {
			delete(c.retained, l)
			delete(c.lastFetch, l)
			c.ins.stablePruned.Inc()
		}
	}
	c.ins.retainedDepth.Set(int64(len(c.retained)))
}

func (c *depCore) fetchMissing(now time.Time) {
	type fetch struct {
		to string
		l  message.Label
	}
	var candidates []fetch
	c.deliverMu.Lock()
	for _, entry := range c.pending {
		if now.Sub(entry.since) < c.patience {
			continue
		}
		for d := range entry.missing {
			to := RouteOrigin(d.Origin)
			if to == c.self || !c.grp.Contains(to) {
				continue
			}
			candidates = append(candidates, fetch{to: to, l: d})
		}
	}
	c.deliverMu.Unlock()
	var fetches []fetch
	c.retainMu.Lock()
	for _, f := range candidates {
		if last, ok := c.lastFetch[f.l]; ok && now.Sub(last) < c.patience {
			continue
		}
		if c.down[f.to] {
			// The origin is down; with group-wide retention any live peer
			// may hold a copy, so rotate the request across them.
			if alt := c.altRouteLocked(f.to); alt != "" {
				f.to = alt
			}
		}
		c.lastFetch[f.l] = now
		fetches = append(fetches, f)
		c.ins.fetches.Inc()
		c.trace.Record(telemetry.EventFetch, c.self, f.l.Origin, f.l.Seq, 0)
		c.flight.Fetch(f.l, f.to)
	}
	c.retainMu.Unlock()
	for _, f := range fetches {
		_ = c.conn.Send(f.to, encodeLabel([]byte{c.wire.fetch}, f.l)) // best effort; retried next tick
	}
}

// altRouteLocked picks the next live peer in rotation, skipping avoid.
// Caller holds retainMu.
func (c *depCore) altRouteLocked(avoid string) string {
	n := len(c.others)
	for i := 0; i < n; i++ {
		p := c.others[(c.fetchSpread+i)%n]
		if p != avoid && !c.down[p] {
			c.fetchSpread = (c.fetchSpread + i + 1) % n
			return p
		}
	}
	return ""
}

// RouteOrigin maps a label origin to the transport id retransmission
// requests are sent to. '~' is reserved as a namespace separator: layers
// stacked above the engine (e.g. the total-order layer) label their
// traffic "<member>~<layer>", and fetches route to <member>.
func RouteOrigin(origin string) string {
	for i := 0; i < len(origin); i++ {
		if origin[i] == '~' {
			return origin[:i]
		}
	}
	return origin
}

func encodeAdvert(retained, watermarks map[string]uint64) []byte {
	return encodeAdvertKind(frameOSendAdvert, retained, watermarks)
}

// encodeAdvertKind builds an advert frame under any engine's tag; the body
// layout (two origin→seq maps) is shared across engines and reused by
// sync responses.
func encodeAdvertKind(kind byte, retained, watermarks map[string]uint64) []byte {
	frame := []byte{kind}
	frame = appendOriginSeqMap(frame, retained)
	frame = appendOriginSeqMap(frame, watermarks)
	return frame
}

func appendOriginSeqMap(buf []byte, m map[string]uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(m)))
	for origin, seq := range m {
		buf = binary.AppendUvarint(buf, uint64(len(origin)))
		buf = append(buf, origin...)
		buf = binary.AppendUvarint(buf, seq)
	}
	return buf
}

func decodeAdvert(body []byte) (retained, watermarks map[string]uint64, err error) {
	retained, body, err = readOriginSeqMap(body)
	if err != nil {
		return nil, nil, err
	}
	watermarks, body, err = readOriginSeqMap(body)
	if err != nil {
		return nil, nil, err
	}
	if len(body) != 0 {
		return nil, nil, fmt.Errorf("causal: %d trailing advert bytes", len(body))
	}
	return retained, watermarks, nil
}

func readOriginSeqMap(body []byte) (map[string]uint64, []byte, error) {
	n, used := binary.Uvarint(body)
	if used <= 0 {
		return nil, nil, fmt.Errorf("causal: truncated advert count")
	}
	body = body[used:]
	// Each entry takes at least 2 bytes; reject counts that cannot fit
	// before sizing any allocation.
	if n > uint64(len(body))/2 {
		return nil, nil, fmt.Errorf("causal: advert count %d exceeds frame", n)
	}
	out := make(map[string]uint64, n)
	for i := uint64(0); i < n; i++ {
		ol, used := binary.Uvarint(body)
		if used <= 0 || uint64(len(body)-used) < ol {
			return nil, nil, fmt.Errorf("causal: truncated advert origin")
		}
		origin := string(body[used : used+int(ol)])
		body = body[used+int(ol):]
		seq, used := binary.Uvarint(body)
		if used <= 0 {
			return nil, nil, fmt.Errorf("causal: truncated advert seq")
		}
		body = body[used:]
		out[origin] = seq
	}
	return out, body, nil
}

func encodeLabel(buf []byte, l message.Label) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(l.Origin)))
	buf = append(buf, l.Origin...)
	return binary.AppendUvarint(buf, l.Seq)
}

func decodeLabel(data []byte) (message.Label, []byte, error) {
	n, used := binary.Uvarint(data)
	if used <= 0 || uint64(len(data)-used) < n {
		return message.Nil, nil, fmt.Errorf("causal: truncated label origin")
	}
	origin := string(data[used : used+int(n)])
	data = data[used+int(n):]
	seq, used := binary.Uvarint(data)
	if used <= 0 {
		return message.Nil, nil, fmt.Errorf("causal: truncated label seq")
	}
	return message.Label{Origin: origin, Seq: seq}, data[used:], nil
}
