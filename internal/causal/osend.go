package causal

import (
	"fmt"
	"time"

	"causalshare/internal/flightrec"
	"causalshare/internal/group"
	"causalshare/internal/message"
	"causalshare/internal/telemetry"
	"causalshare/internal/trace"
	"causalshare/internal/transport"
	"causalshare/internal/wal"
)

// OSendConfig parameterizes an OSend engine.
type OSendConfig struct {
	// Self is the local member id; it must be a member of Group.
	Self string
	// Group is the broadcast domain (every Broadcast reaches all members).
	Group *group.Group
	// Conn is the transport attachment for Self.
	Conn transport.Conn
	// Deliver receives messages in causal order.
	Deliver DeliverFunc
	// Patience is how long a message may wait on a missing predecessor
	// before the engine requests retransmission from the predecessor's
	// origin. Zero disables retransmission (appropriate on lossless
	// transports).
	Patience time.Duration
	// Telemetry is the registry the engine registers its instruments on.
	// Engines sharing a registry aggregate their counters; when nil the
	// engine creates a private registry, so Snapshot stays per-engine.
	Telemetry *telemetry.Registry
	// Trace, when non-nil, receives send/deliver/defer/fetch events. A nil
	// ring disables tracing at zero cost.
	Trace *telemetry.Ring
	// Tracer, when non-nil, records causal span lifecycles (send → enqueue
	// → holdback wait → deliver) into the group's trace.Collector and runs
	// the online causal-order audit on every delivery. Nil disables span
	// tracing; messages then carry no span context.
	Tracer *trace.Tracer
	// Flight, when non-nil, is this member's black-box flight recorder.
	// The engine records what the trace collector cannot see from its
	// hooks: holdback entry with the blocking dependency, and dependency
	// fetches. Nil disables flight recording at zero cost.
	Flight *flightrec.Recorder
	// Journal, when non-nil, is the member's write-ahead log. The engine
	// journals every delivery (rebuilding the frontier and label chain on
	// restart) and every membership verdict. A nil journal disables
	// durability at zero cost.
	Journal *wal.WAL
	// OnSync, when non-nil, is invoked after a state-sync response from a
	// peer has been applied: the peer's delivered watermarks have been
	// seeded locally and fetches for the retained tail issued. A rejoining
	// member uses it to learn how far the group had progressed while it was
	// down. The callback runs on the engine's receive goroutine.
	OnSync func(from string, watermarks map[string]uint64)
}

// OSend is the paper's causal broadcast engine: ordering is driven purely
// by the explicit OccursAfter predicates messages carry. A message is
// delivered once every label in its predicate has been delivered locally;
// until then it is buffered. The holdback, retention, anti-entropy and
// sync machinery is the shared dependency core (depCore, which documents
// the locking); OSend adds only its dissemination front end — each
// message is sent straight to every peer — and its frame dispatch.
type OSend struct {
	depCore
}

var (
	_ Broadcaster = (*OSend)(nil)
	_ Engine      = (*OSend)(nil)
)

// osendWire keys the dependency core to OSend's frames and metric names.
var osendWire = depWire{
	fetch: frameOSendFetch, advert: frameOSendAdvert,
	syncReq: frameOSendSyncReq, syncResp: frameOSendSyncResp,
	metrics: "causal_osend_", loop: "osend-recv",
}

// NewOSend starts an engine; its receive loop runs until Close.
func NewOSend(cfg OSendConfig) (*OSend, error) {
	e := &OSend{}
	if err := e.init(cfg, osendWire); err != nil {
		return nil, err
	}
	e.start(e.handleFrame, e.antiEntropy)
	return e, nil
}

// Broadcast implements Broadcaster. The message is encoded exactly once
// into a pooled frame that every destination shares (the transport fans
// it out without per-peer copies), retained for retransmission, and
// processed locally through the same delivery logic (self-delivery in
// causal position).
func (e *OSend) Broadcast(m message.Message) error {
	t0 := time.Now()
	if err := e.stamp(&m, t0); err != nil {
		return err
	}
	f, err := encodeOSendData(m)
	if err != nil {
		return fmt.Errorf("causal: encode %v: %w", m.Label, err)
	}
	// Ordering metadata on the wire: the OccursAfter labels, once per peer.
	e.retainOwn(m, uint64(m.Deps.EncodedSize()))
	err = transport.Multicast(e.conn, e.others, f)
	f.Release()
	if err != nil {
		// Per-peer delivery is best-effort: the message is retained for
		// retransmission and the anti-entropy adverts re-offer it, so a
		// crashed or partitioned peer must not fail the broadcast for the
		// rest — and the sender still observes its own message.
		e.ins.sendErrors.Inc()
	}
	e.ingest(m)
	e.ins.broadcastLat.ObserveSince(t0)
	return nil
}

// encodeOSendData encodes m as a data frame into a pooled frame.
func encodeOSendData(m message.Message) (*transport.Frame, error) {
	f := transport.NewFrame(1 + m.EncodedSize())
	f.B = append(f.B, frameOSendData)
	var err error
	f.B, err = m.AppendBinary(f.B)
	if err != nil {
		f.Release()
		return nil, err
	}
	return f, nil
}

// handleFrame dispatches one inbound frame. The envelope's payload is only
// valid for the duration of the call (the caller releases the frame).
func (e *OSend) handleFrame(dec *message.Decoder, env *transport.Envelope) {
	if len(env.Payload) == 0 {
		return
	}
	kind, body := env.Payload[0], env.Payload[1:]
	switch kind {
	case frameOSendData:
		var m message.Message
		if err := dec.Decode(&m, body); err != nil {
			return // malformed frame; drop
		}
		e.ingest(m)
	case frameOSendFetch:
		l, rest, err := decodeLabel(body)
		if err != nil || len(rest) != 0 {
			return
		}
		e.serveFetch(env.From, l)
	default:
		e.handleControl(env.From, kind, body)
	}
}

func (e *OSend) serveFetch(requester string, l message.Label) {
	m, ok := e.retainedCopy(l)
	if !ok {
		return
	}
	f, err := encodeOSendData(m)
	if err != nil {
		return
	}
	_ = e.conn.Send(requester, f.B) // best effort
	f.Release()
}
