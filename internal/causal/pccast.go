package causal

import (
	"fmt"
	"sync"
	"time"

	"causalshare/internal/flightrec"
	"causalshare/internal/group"
	"causalshare/internal/message"
	"causalshare/internal/telemetry"
	"causalshare/internal/trace"
	"causalshare/internal/transport"
	"causalshare/internal/wal"
)

// PCCastConfig parameterizes a PCCast engine.
type PCCastConfig struct {
	// Self is the local member id; it must be a member of Group.
	Self string
	// Group is the broadcast domain (every Broadcast reaches all members).
	Group *group.Group
	// Conn is the transport attachment for Self. It must preserve reliable
	// per-pair FIFO order (transport.IsFIFO must report true): wrap lossy
	// transports in reliable.Wrap first. NewPCCast fails fast otherwise —
	// PC-cast carries no per-message clock, so a link that drops or
	// reorders silently breaks causal delivery instead of merely slowing
	// it.
	Conn transport.Conn
	// Deliver receives messages in causal order.
	Deliver DeliverFunc
	// Patience is how long a message may wait on a missing predecessor
	// before the engine requests retransmission. Zero disables the
	// anti-entropy loop (appropriate when the link layer already
	// guarantees delivery).
	Patience time.Duration
	// Telemetry is the registry the engine registers its instruments on;
	// nil gets a private registry.
	Telemetry *telemetry.Registry
	// Trace, when non-nil, receives send/deliver/defer/fetch events.
	Trace *telemetry.Ring
	// Tracer, when non-nil, records causal span lifecycles and runs the
	// online causal-order audit on every delivery.
	Tracer *trace.Tracer
	// Flight, when non-nil, is this member's black-box flight recorder;
	// the engine records holdback entry, dependency fetches, and flood
	// forwards — the transitions the trace collector cannot see.
	Flight *flightrec.Recorder
	// Journal, when non-nil, is the member's write-ahead log; every
	// delivery and membership verdict is journaled (see
	// OSendConfig.Journal).
	Journal *wal.WAL
	// OnSync, when non-nil, is invoked after a state-sync response from a
	// peer has been applied (see OSendConfig.OnSync).
	OnSync func(from string, watermarks map[string]uint64)
	// Tracker, when non-nil, drives link state from membership edges: a
	// member going down tears its link, a member coming back triggers the
	// buffered link-establishment round-trip.
	Tracker *group.Tracker
}

// PCCast is the PC-broadcast engine [Nédelec, Molli & Mostéfaoui]: causal
// order from reliable FIFO links alone, with constant-size wire metadata.
//
// The invariant that replaces vector clocks: every member emits or
// forwards each message into its single FIFO-sequenced outgoing stream
// BEFORE emitting anything causally later. The origin's Broadcast fans the
// message out before self-delivery (so replies it triggers land later in
// the stream); every receiver re-emits the message to the full group on
// first receipt, before reacting to it. A message therefore precedes, on
// every link it travels, everything that causally follows it — receivers
// get causal order for free from link order. The cost is flood
// amplification: each message crosses every link once, n·(n−1) frames for
// a group of n, which is the trade the scaling experiment E15 measures
// against the vector-clock engines' O(n) per-frame metadata.
//
// Two paths bypass stream order and therefore need the safety net: refill
// frames (retransmissions served from retention buffers, marked
// Refill in the PC header and never forwarded) and post-rejoin catch-up.
// The engine embeds the same dependency core as OSend (depCore) for
// exactly these — a message whose OccursAfter labels are not yet
// delivered buffers until they are, whatever link it arrived on. On FIFO
// links the predicate is already satisfied in the common case and the
// holdback is pass-through.
//
// Joins and leaves use buffered link establishment: when a peer is marked
// back up, its data frames are buffered until a join-request/response
// round-trip completes (the response carries the peer's delivered
// watermarks, priming anti-entropy), then drain in receipt order.
//
// Locking: the core's hierarchy (see depCore) plus two front-end locks
// beside it: linkMu, which guards link establishment state, and outMu, a
// leaf that guards the outbox.
type PCCast struct {
	depCore

	// outbox is the engine's outgoing data stream: Broadcast and forward
	// enqueue encoded frames, and one sender goroutine drains them into
	// the transport in enqueue order, which makes the stream a single
	// well-defined sequence. Decoupling emission from the receive loop is
	// load-bearing, not cosmetic: the reliable sublayer applies inbound
	// acks inside Recv, so a receive goroutine that forwarded
	// synchronously could block on a full send window and thereby starve
	// the very acks that drain it.
	outMu     sync.Mutex
	outCond   *sync.Cond
	outQ      []*transport.Frame
	outHead   int
	outClosed bool

	// linkMu guards per-peer link establishment state.
	linkMu  sync.Mutex
	links   map[string]*pcLink
	linkBuf int // total frames buffered across unestablished links

	forwarded    *telemetry.Counter
	linkBuffered *telemetry.Gauge
}

// pcLink is one inbound link's establishment state. Links are established
// by default (the group starts connected); MarkDown tears one, MarkUp
// starts the join round-trip that re-establishes it.
type pcLink struct {
	established bool
	buf         []pcBuffered
}

// pcBuffered is a data frame held on a not-yet-established link.
type pcBuffered struct {
	m   message.Message
	hdr message.PCHeader
}

// maxLinkBuffer bounds per-link establishment buffering; overflow drops
// the newest frame (anti-entropy re-fetches anything that mattered).
const maxLinkBuffer = 4096

var (
	_ Broadcaster = (*PCCast)(nil)
	_ Engine      = (*PCCast)(nil)
)

// pccastWire keys the dependency core to PC-cast's frames and metric names.
var pccastWire = depWire{
	fetch: framePCCastFetch, advert: framePCCastAdvert,
	syncReq: framePCCastSyncReq, syncResp: framePCCastSyncResp,
	metrics: "causal_pccast_", loop: "pccast-recv",
}

// NewPCCast starts an engine; its receive loop runs until Close. It fails
// fast when the conn does not guarantee reliable FIFO links — the one
// property the engine's correctness rests on.
func NewPCCast(cfg PCCastConfig) (*PCCast, error) {
	if cfg.Conn != nil && !transport.IsFIFO(cfg.Conn) {
		return nil, fmt.Errorf("causal: pccast requires reliable FIFO links; wrap the conn in reliable.Wrap")
	}
	e := &PCCast{links: make(map[string]*pcLink)}
	err := e.init(OSendConfig{
		Self: cfg.Self, Group: cfg.Group, Conn: cfg.Conn, Deliver: cfg.Deliver,
		Patience: cfg.Patience, Telemetry: cfg.Telemetry, Trace: cfg.Trace,
		Tracer: cfg.Tracer, Flight: cfg.Flight, Journal: cfg.Journal, OnSync: cfg.OnSync,
	}, pccastWire)
	if err != nil {
		return nil, err
	}
	e.forwarded = e.reg.Counter("causal_pccast_forwarded_total",
		"Frames re-emitted to the full group on first receipt (flood dissemination).")
	e.linkBuffered = e.reg.Gauge("causal_pccast_link_buffered",
		"Data frames buffered on not-yet-established links (join round-trips in flight).")
	e.outCond = sync.NewCond(&e.outMu)
	if cfg.Tracker != nil {
		cfg.Tracker.Subscribe(func(id string, up bool) {
			if id != e.self {
				e.MarkDown(id, !up)
			}
		})
	}
	e.wg.Add(1)
	go e.sendLoop()
	e.start(e.handleFrame, func(now time.Time) {
		e.antiEntropy(now)
		e.repingLinks()
	})
	return e, nil
}

// Broadcast implements Broadcaster. The message goes out under a
// zero-valued PC header — one byte of ordering metadata regardless of
// group size — before local delivery, so anything the delivery triggers
// lands later in this member's FIFO stream.
func (e *PCCast) Broadcast(m message.Message) error {
	t0 := time.Now()
	if err := e.stamp(&m, t0); err != nil {
		return err
	}
	hdr := message.PCHeader{}
	f, err := encodePCData(m, hdr)
	if err != nil {
		return fmt.Errorf("causal: encode %v: %w", m.Label, err)
	}
	e.retainOwn(m, uint64(hdr.EncodedSize()))
	// Into the stream BEFORE self-delivery: anything the delivery
	// callback broadcasts in response enqueues later, so it follows m on
	// every link.
	e.enqueue(f)
	f.Release()
	e.ingest(m)
	e.ins.broadcastLat.ObserveSince(t0)
	return nil
}

// encodePCData encodes m behind hdr as a data frame into a pooled frame.
func encodePCData(m message.Message, hdr message.PCHeader) (*transport.Frame, error) {
	f := transport.NewFrame(1 + hdr.EncodedSize() + m.EncodedSize())
	f.B = append(f.B, framePCCastData)
	f.B = message.AppendPCHeader(f.B, hdr)
	var err error
	f.B, err = m.AppendBinary(f.B)
	if err != nil {
		f.Release()
		return nil, err
	}
	return f, nil
}

// forward re-emits a first-receipt message to the full group with the hop
// count bumped. It MUST target the exact full peer set: the reliable
// sublayer sequences only complete fan-outs into the FIFO stream, so
// excluding even the peer the frame came from would silently demote the
// forward to unordered unicast.
func (e *PCCast) forward(m message.Message, hdr message.PCHeader) {
	fh := message.PCHeader{Hops: hdr.Hops + 1}
	f, err := encodePCData(m, fh)
	if err != nil {
		return
	}
	metaBytes := uint64(fh.EncodedSize())
	e.ins.controlBytes.Add(metaBytes * uint64(len(e.others)))
	e.meta.add(metaBytes, uint64(len(e.others)))
	e.forwarded.Inc()
	e.flight.Forward(m.Label, int(fh.Hops))
	e.enqueue(f)
	f.Release()
}

// enqueue appends one data frame to the outgoing stream. The frame is
// retained until the sender goroutine has fanned it out.
func (e *PCCast) enqueue(f *transport.Frame) {
	f.Retain()
	e.outMu.Lock()
	if e.outClosed {
		e.outMu.Unlock()
		f.Release()
		return
	}
	e.outQ = append(e.outQ, f)
	e.outMu.Unlock()
	e.outCond.Signal()
}

// sendLoop drains the outbox in enqueue order. It is the only goroutine
// that fans data frames out, so enqueue order IS stream order; if the
// transport applies backpressure (reliable window full) only this
// goroutine blocks, while the receive loop keeps draining acks.
func (e *PCCast) sendLoop() {
	defer e.wg.Done()
	for {
		e.outMu.Lock()
		for e.outHead >= len(e.outQ) && !e.outClosed {
			e.outQ = e.outQ[:0]
			e.outHead = 0
			e.outCond.Wait()
		}
		if e.outClosed {
			for _, f := range e.outQ[e.outHead:] {
				f.Release()
			}
			e.outQ = nil
			e.outMu.Unlock()
			return
		}
		f := e.outQ[e.outHead]
		e.outQ[e.outHead] = nil
		e.outHead++
		e.outMu.Unlock()
		err := transport.Multicast(e.conn, e.others, f)
		f.Release()
		if err != nil {
			// Best-effort, as in OSend: retention plus anti-entropy repair
			// the peers that missed it.
			e.ins.sendErrors.Inc()
		}
	}
}

// MarkDown sets or clears a peer's down mark. Beyond the core's stability
// and fetch-routing semantics (depCore.MarkDown), PCCast ties link state
// to it: marking a peer down tears its inbound link (buffered frames from
// the dead incarnation are discarded); marking it up starts the buffered
// establishment round-trip — data frames from the peer are held until its
// join response arrives, then drain in receipt order.
func (e *PCCast) MarkDown(peer string, down bool) {
	e.depCore.MarkDown(peer, down)

	e.linkMu.Lock()
	ls := e.links[peer]
	if down {
		if ls == nil {
			ls = &pcLink{}
			e.links[peer] = ls
		}
		ls.established = false
		e.linkBuf -= len(ls.buf)
		ls.buf = nil
		e.linkBuffered.Set(int64(e.linkBuf))
		e.linkMu.Unlock()
		return
	}
	if ls == nil || ls.established {
		e.linkMu.Unlock()
		return
	}
	e.linkMu.Unlock()
	if !e.closed.Load() {
		_ = e.conn.Send(peer, []byte{framePCCastJoinReq}) // retried each anti-entropy tick
	}
}

// establish completes the join round-trip for one link: marks it
// established and returns the frames buffered while it was pending.
func (e *PCCast) establish(peer string) []pcBuffered {
	e.linkMu.Lock()
	ls := e.links[peer]
	if ls == nil || ls.established {
		e.linkMu.Unlock()
		return nil
	}
	ls.established = true
	buf := ls.buf
	ls.buf = nil
	e.linkBuf -= len(buf)
	e.linkBuffered.Set(int64(e.linkBuf))
	e.linkMu.Unlock()
	return buf
}

// gateLink buffers a data frame when its inbound link is mid-establishment.
// Returns true when the frame was consumed (buffered or dropped on
// overflow).
func (e *PCCast) gateLink(from string, m message.Message, hdr message.PCHeader) bool {
	e.linkMu.Lock()
	ls := e.links[from]
	if ls == nil || ls.established {
		e.linkMu.Unlock()
		return false
	}
	if len(ls.buf) < maxLinkBuffer {
		ls.buf = append(ls.buf, pcBuffered{m: m, hdr: hdr})
		e.linkBuf++
		e.linkBuffered.Set(int64(e.linkBuf))
	}
	e.linkMu.Unlock()
	return true
}

// Close implements Broadcaster: it closes the outbox, releasing frames
// not yet fanned out, then stops the core.
func (e *PCCast) Close() error {
	e.outMu.Lock()
	e.outClosed = true
	e.outMu.Unlock()
	e.outCond.Broadcast()
	return e.depCore.Close()
}

// handleFrame dispatches one inbound frame. The envelope's payload is only
// valid for the duration of the call (the caller releases the frame).
func (e *PCCast) handleFrame(dec *message.Decoder, env *transport.Envelope) {
	if len(env.Payload) == 0 {
		return
	}
	kind, body := env.Payload[0], env.Payload[1:]
	switch kind {
	case framePCCastData:
		hdr, msgBytes, err := message.DecodePCHeader(body)
		if err != nil {
			return // malformed header; drop
		}
		var m message.Message
		if err := dec.Decode(&m, msgBytes); err != nil {
			return
		}
		if e.gateLink(env.From, m, hdr) {
			return // link mid-establishment; frame buffered
		}
		e.processData(m, hdr)
	case framePCCastFetch:
		l, rest, err := decodeLabel(body)
		if err != nil || len(rest) != 0 {
			return
		}
		e.serveFetch(env.From, l)
	case framePCCastJoinReq:
		if len(body) != 0 {
			return
		}
		e.serveJoin(env.From)
	case framePCCastJoinResp:
		wm, rest, err := readOriginSeqMap(body)
		if err != nil || len(rest) != 0 {
			return
		}
		e.handleJoinResp(env.From, wm)
	default:
		e.handleControl(env.From, kind, body)
	}
}

// processData runs the receive path for one data frame: forward on first
// receipt (into this member's FIFO stream, BEFORE any delivery the frame
// may trigger), then the holdback delivery algorithm. Refill frames —
// retransmissions that bypassed the sender's stream — are never
// forwarded; the holdback alone orders them. Echoes of this member's own
// messages never forward either: the original emission already occupies
// this member's stream.
//
// Only the receive goroutine calls processData, so first-receipt is
// race-free for foreign labels without extra locking: every copy of a
// foreign label arrives here.
func (e *PCCast) processData(m message.Message, hdr message.PCHeader) {
	if !hdr.Refill && RouteOrigin(m.Label.Origin) != e.self &&
		!e.deliveredHas(m.Label) && !e.isPending(m.Label) {
		e.forward(m, hdr)
	}
	e.ingest(m)
}

// serveJoin answers a peer's link-establishment ping with this member's
// delivered watermarks. The response is the "cut" in this member's FIFO
// stream the requester establishes from; the watermarks prime its
// anti-entropy so history from before the cut is fetched, not awaited.
func (e *PCCast) serveJoin(requester string) {
	e.retainMu.Lock()
	delete(e.down, requester) // an explicit ping is liveness evidence
	e.retainMu.Unlock()
	frame := appendOriginSeqMap([]byte{framePCCastJoinResp}, e.Frontier())
	_ = e.conn.Send(requester, frame) // best effort; requester re-pings
}

// handleJoinResp completes establishment of the link from the responding
// peer: its watermarks feed stability bookkeeping, then the frames
// buffered during the round-trip drain in receipt order.
func (e *PCCast) handleJoinResp(from string, wm map[string]uint64) {
	e.handleAdvert(from, nil, wm)
	for _, b := range e.establish(from) {
		e.processData(b.m, b.hdr)
	}
}

// repingLinks re-sends the join ping for every link whose establishment
// round-trip has not completed — including links to peers still marked
// down. Pinging a dead peer costs one dropped unicast per tick; pinging
// it the moment it returns is what re-establishes the link even when the
// failure detector's recovery signal (OnResync) never fires, e.g. a
// rejoin on a link that skipped nothing.
func (e *PCCast) repingLinks() {
	if e.closed.Load() {
		return
	}
	var stuck []string
	e.linkMu.Lock()
	for peer, ls := range e.links {
		if !ls.established {
			stuck = append(stuck, peer)
		}
	}
	e.linkMu.Unlock()
	for _, peer := range stuck {
		_ = e.conn.Send(peer, []byte{framePCCastJoinReq})
	}
}

// serveFetch re-encodes a retained message under a Refill header: the
// copy bypasses this member's FIFO stream (it is a unicast answer, not a
// fan-out), so the receiver must not forward it and must order it by its
// OccursAfter predicate alone.
func (e *PCCast) serveFetch(requester string, l message.Label) {
	m, ok := e.retainedCopy(l)
	if !ok {
		return
	}
	f, err := encodePCData(m, message.PCHeader{Refill: true})
	if err != nil {
		return
	}
	_ = e.conn.Send(requester, f.B) // best effort
	f.Release()
}
