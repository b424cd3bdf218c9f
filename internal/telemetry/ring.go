package telemetry

import (
	"sync"
	"time"
)

// EventKind classifies a traced runtime event.
type EventKind uint8

// Event kinds recorded by the instrumented layers.
const (
	// EventSend: a broadcast left the local engine.
	EventSend EventKind = iota + 1
	// EventDeliver: a message was handed to the application in order.
	EventDeliver
	// EventDefer: a message was buffered awaiting a missing predecessor.
	EventDefer
	// EventStable: a replica established a stable point (Value = cycle).
	EventStable
	// EventDrop: the transport discarded a frame (fault or partition).
	EventDrop
	// EventFetch: a retransmission request was issued.
	EventFetch
	// EventEpoch: the total-order layer adopted a new epoch (Seq = epoch).
	EventEpoch
	// EventElect: a leader election completed at the new leader
	// (Seq = epoch, Value = re-proposed assignments).
	EventElect
	// EventViolation: the online causal auditor flagged an ordering
	// violation (Value = violation kind).
	EventViolation
	// EventRetransmit: the reliability sublayer re-sent a frame
	// (Seq = link sequence number).
	EventRetransmit
	// EventNack: the reliability sublayer requested a missing frame
	// (Seq = first missing link sequence, Value = gap width).
	EventNack
	// EventShed: the reliability sublayer shed an unresponsive peer
	// (Origin = the shed peer).
	EventShed
	// EventResync: a receiver skipped irrecoverable link sequences and
	// asked the layer above to resync (Origin = the link peer,
	// Value = sequences skipped).
	EventResync
)

// String returns the kind's wire/debug name.
func (k EventKind) String() string {
	switch k {
	case EventSend:
		return "send"
	case EventDeliver:
		return "deliver"
	case EventDefer:
		return "defer"
	case EventStable:
		return "stable"
	case EventDrop:
		return "drop"
	case EventFetch:
		return "fetch"
	case EventEpoch:
		return "epoch"
	case EventElect:
		return "elect"
	case EventViolation:
		return "violation"
	case EventRetransmit:
		return "retransmit"
	case EventNack:
		return "nack"
	case EventShed:
		return "shed"
	case EventResync:
		return "resync"
	default:
		return "unknown"
	}
}

// Event is one traced occurrence. The string fields must be immutable
// (member ids and label origins are); Record stores them by reference, so
// recording allocates nothing.
type Event struct {
	// At is the monotonic time since the ring was created.
	At time.Duration `json:"at_ns"`
	// Kind classifies the event.
	Kind EventKind `json:"kind"`
	// Member is the local member the event happened at.
	Member string `json:"member,omitempty"`
	// Origin and Seq identify the message label involved, when any.
	Origin string `json:"origin,omitempty"`
	Seq    uint64 `json:"seq,omitempty"`
	// Value carries a kind-specific payload (buffer depth for EventDefer,
	// stable cycle for EventStable; 0 otherwise).
	Value int64 `json:"value,omitempty"`
}

// Ring is a fixed-capacity event tracer. Record overwrites the oldest
// event once full — memory is bounded by construction — and costs one
// short mutex section and no allocation. A nil *Ring is a valid disabled
// tracer: Record on it is a no-op, so layers thread a Ring through
// unconditionally.
//
// Ownership: the ring owns its slots; Snapshot returns copies. Producers
// must only pass strings that remain immutable for the process lifetime
// (ids, label origins) — the ring aliases them rather than copying.
type Ring struct {
	mu   sync.Mutex
	base time.Time
	buf  []Event
	next uint64 // total events ever recorded
}

// NewRing returns a tracer retaining the most recent capacity events
// (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{base: time.Now(), buf: make([]Event, capacity)}
}

// Record appends one event, overwriting the oldest when full. No-op on a
// nil ring.
func (r *Ring) Record(kind EventKind, member, origin string, seq uint64, value int64) {
	if r == nil {
		return
	}
	// Stamp under the lock so slot order and At order agree: Snapshot
	// promises oldest-first.
	r.mu.Lock()
	r.buf[r.next%uint64(len(r.buf))] = Event{
		At: time.Since(r.base), Kind: kind, Member: member, Origin: origin, Seq: seq, Value: value,
	}
	r.next++
	r.mu.Unlock()
}

// Len returns the number of events currently retained.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next < uint64(len(r.buf)) {
		return int(r.next)
	}
	return len(r.buf)
}

// Dropped returns how many events have been overwritten.
func (r *Ring) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next < uint64(len(r.buf)) {
		return 0
	}
	return r.next - uint64(len(r.buf))
}

// Snapshot copies the retained events oldest-first.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	if r.next < n {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, n)
	start := r.next % n
	out = append(out, r.buf[start:]...)
	out = append(out, r.buf[:start]...)
	return out
}
