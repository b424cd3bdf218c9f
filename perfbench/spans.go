package main

import (
	"sort"
	"sync"
	"sync/atomic"

	"causalshare/internal/causal"
	"causalshare/internal/message"
	"causalshare/internal/transport"
)

// Span names: one per layer seam the benchmark times from outside, each
// noted with the call it wraps.
const (
	spCoreSubmit      uint8 = iota // core.FrontEnd.Submit (compose + broadcast)
	spCausalBroadcast              // causal.Broadcaster.Broadcast
	spReliableSend                 // transport.Conn send above reliable.Wrap
	spTransportSend                // transport.Conn send on the raw transport
	spCoreApply                    // core.Replica.Deliver, commutative op
	spCoreCloser                   // core.Replica.Deliver, closer (clone + digest)
	spCoreRead                     // core.Replica.ReadDeferred
	spTotalASend                   // total.Sequencer.ASend
	spTotalIngest                  // total.Sequencer.Ingest
	spTotalDeliver                 // the total-order delivery callback
	spLockAcquire                  // lockarb.Arbiter.Acquire
	spLockRelease                  // lockarb.Arbiter.Release
)

// span is one timed call. start/end bound the call itself; o0/o1 also
// cover the tracer's own bookkeeping, so a parent's self time excludes
// the cost of recording its children. All spans of one op carry the op
// id; parent indexes the enclosing span on the same goroutine.
type span struct {
	o0, start, end, o1 int64
	id                 int64
	parent             int32
	name               uint8
	member             int8
}

const traceShards = 64 // 1<<6: begin shards by the top 6 bits of a hashed goroutine id

type traceShard struct {
	mu     sync.Mutex
	spans  []span
	stacks map[uint64][]int32
}

// tracer keeps spans in memory, sharded by goroutine: nested calls run on
// one goroutine, so a span's parent is the top of that goroutine's stack.
// It records one op in every sampleEvery (by op id) with all its nested
// spans; spans outside any op (reads, lock calls, protocol traffic) are
// always recorded.
type tracer struct {
	sampleEvery int64
	shards      [traceShards]traceShard
}

// skipped marks a stack entry whose span is not recorded; its children
// are not recorded either.
const skipped int32 = -2

func newTracer(sampleEvery int64) *tracer {
	t := &tracer{sampleEvery: max(sampleEvery, 1)}
	for i := range t.shards {
		t.shards[i].stacks = make(map[uint64][]int32)
	}
	return t
}

type spanRef struct {
	sh    *traceShard
	gid   uint64
	idx   int32
	o0    int64
	start int64
}

// begin opens a span; id < 0 inherits the enclosing span's op id. A nil
// tracer returns a zero ref whose end is a no-op.
func (t *tracer) begin(name uint8, member int, id int64) spanRef {
	if t == nil {
		return spanRef{}
	}
	o0 := now()
	gid := goid()
	sh := &t.shards[(gid*0x9E3779B97F4A7C15)>>58]
	sh.mu.Lock()
	st := sh.stacks[gid]
	parent := int32(-1)
	if len(st) > 0 {
		parent = st[len(st)-1]
	}
	idx := skipped
	switch {
	case parent == skipped:
	case parent < 0 && id >= 0 && id%t.sampleEvery != 0:
	default:
		if parent >= 0 && id < 0 {
			id = sh.spans[parent].id
		}
		idx = int32(len(sh.spans))
		sh.spans = append(sh.spans, span{o0: o0, id: id, parent: parent, name: name, member: int8(member)})
	}
	sh.stacks[gid] = append(st, idx)
	sh.mu.Unlock()
	return spanRef{sh: sh, gid: gid, idx: idx, o0: o0, start: now()}
}

func (r spanRef) end() {
	if r.sh == nil {
		return
	}
	e := now()
	sh := r.sh
	sh.mu.Lock()
	st := sh.stacks[r.gid]
	if len(st) <= 1 {
		delete(sh.stacks, r.gid)
	} else {
		sh.stacks[r.gid] = st[:len(st)-1]
	}
	if r.idx >= 0 {
		s := &sh.spans[r.idx]
		s.start, s.end = r.start, e
		s.o1 = now()
	}
	sh.mu.Unlock()
}

// spanStat is one finished span with its self time.
type spanStat struct {
	name   uint8
	member int8
	id     int64
	start  int64
	dur    int64
	self   int64
}

// finish computes every span's self time: its duration minus the part of
// it that its children (with their recording overhead) cover.
func (t *tracer) finish() []spanStat {
	var out []spanStat
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		covered := make([]int64, len(sh.spans))
		for _, s := range sh.spans {
			if s.parent < 0 || s.end == 0 {
				continue
			}
			p := sh.spans[s.parent]
			lo, hi := max(s.o0, p.start), min(s.o1, p.end)
			if hi > lo {
				covered[s.parent] += hi - lo
			}
		}
		for j, s := range sh.spans {
			if s.end == 0 {
				continue
			}
			d := s.end - s.start
			out = append(out, spanStat{name: s.name, member: s.member, id: s.id, start: s.start, dur: d, self: max(d-covered[j], 0)})
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// msgID is the op id a message carries, or -1 for protocol traffic.
func msgID(m message.Message) int64 {
	switch m.Op {
	case opAdd, opPut, opASend, opDeposit:
		return bodyID(m.Body)
	}
	return -1
}

// tracedBroadcaster times Broadcast calls into the causal layer.
type tracedBroadcaster struct {
	causal.Broadcaster
	t      *tracer
	member int
}

func (b *tracedBroadcaster) Broadcast(m message.Message) error {
	sp := b.t.begin(spCausalBroadcast, b.member, msgID(m))
	err := b.Broadcaster.Broadcast(m)
	sp.end()
	return err
}

// fullConn is what every transport in the stack implements: a Conn that
// also fans out shared frames, drains in batches and reports FIFO-ness.
type fullConn interface {
	transport.Conn
	transport.FrameSender
	transport.BatchRecver
	transport.FIFOProber
}

// tracedConn times sends and counts frames, bytes and receive batches on
// one member's connection. It implements exactly the optional interfaces
// of the conn it wraps (wrapConn refuses any other conn), so the engine
// above takes the same code path as without it.
type tracedConn struct {
	fullConn
	t       *tracer
	name    uint8
	member  int
	frames  atomic.Uint64
	bytes   atomic.Uint64
	batches atomic.Uint64
	recvd   atomic.Uint64
}

func wrapConn(c transport.Conn, t *tracer, name uint8, member int) (*tracedConn, bool) {
	fc, ok := c.(fullConn)
	if !ok {
		return nil, false
	}
	return &tracedConn{fullConn: fc, t: t, name: name, member: member}, true
}

func (c *tracedConn) Send(to string, payload []byte) error {
	sp := c.t.begin(c.name, c.member, -1)
	err := c.fullConn.Send(to, payload)
	sp.end()
	c.frames.Add(1)
	c.bytes.Add(uint64(len(payload)))
	return err
}

func (c *tracedConn) SendFrame(tos []string, f *transport.Frame) error {
	sp := c.t.begin(c.name, c.member, -1)
	err := c.fullConn.SendFrame(tos, f)
	sp.end()
	c.frames.Add(uint64(len(tos)))
	c.bytes.Add(uint64(len(tos) * len(f.B)))
	return err
}

func (c *tracedConn) RecvBatch(buf []transport.Envelope) ([]transport.Envelope, error) {
	envs, err := c.fullConn.RecvBatch(buf)
	if err == nil {
		c.batches.Add(1)
		c.recvd.Add(uint64(len(envs)))
	}
	return envs, err
}

func (c *tracedConn) Recv() (transport.Envelope, error) {
	env, err := c.fullConn.Recv()
	if err == nil {
		c.batches.Add(1)
		c.recvd.Add(1)
	}
	return env, err
}
