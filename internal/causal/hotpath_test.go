package causal

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"causalshare/internal/group"
	"causalshare/internal/message"
	"causalshare/internal/telemetry"
	"causalshare/internal/transport"
)

// captureConn is a Conn without FrameSender support that records every
// payload slice handed to Send. Recv blocks until Close.
type captureConn struct {
	id string

	mu       sync.Mutex
	payloads [][]byte

	closed chan struct{}
	once   sync.Once
}

func newCaptureConn(id string) *captureConn {
	return &captureConn{id: id, closed: make(chan struct{})}
}

func (c *captureConn) LocalID() string { return c.id }

// FIFO reports true so PCCast accepts the conn: it never delivers a frame,
// so it cannot reorder one.
func (c *captureConn) FIFO() bool { return true }

func (c *captureConn) Send(to string, payload []byte) error {
	c.mu.Lock()
	c.payloads = append(c.payloads, payload)
	c.mu.Unlock()
	return nil
}

func (c *captureConn) Recv() (transport.Envelope, error) {
	<-c.closed
	return transport.Envelope{}, transport.ErrClosed
}

func (c *captureConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *captureConn) sent() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.payloads...)
}

// TestOSendEncodeOnce pins the tentpole property: one Broadcast encodes
// the message exactly once no matter how many destinations it fans out
// to. The capture conn lacks FrameSender, so the engine goes through the
// Multicast fallback — if it encoded per peer, the recorded payloads
// would have distinct backing arrays.
func TestOSendEncodeOnce(t *testing.T) {
	for _, size := range []int{2, 4, 16} {
		t.Run(fmt.Sprintf("n=%d", size), func(t *testing.T) {
			ids := make([]string, size)
			for i := range ids {
				ids[i] = fmt.Sprintf("m%d", i)
			}
			grp := group.MustNew("g", ids)
			conn := newCaptureConn("m0")
			e, err := NewOSend(OSendConfig{
				Self: "m0", Group: grp, Conn: conn,
				Deliver: func(message.Message) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = e.Close() }()

			m := message.Message{
				Label: message.Label{Origin: "m0", Seq: 1},
				Kind:  message.KindCommutative,
				Op:    "inc",
				Body:  []byte("x"),
				// Pre-stamp so the engine keeps this value and the frame
				// matches MarshalBinary byte for byte.
				SentAt: 12345,
			}
			if err := e.Broadcast(m); err != nil {
				t.Fatal(err)
			}
			sent := conn.sent()
			if len(sent) != size-1 {
				t.Fatalf("sent %d frames, want %d", len(sent), size-1)
			}
			for i := 1; i < len(sent); i++ {
				if &sent[i][0] != &sent[0][0] {
					t.Fatalf("peer %d received a different encoding: broadcast was marshalled more than once", i)
				}
			}
			want, err := m.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if len(sent[0]) != 1+len(want) || sent[0][0] != frameOSendData {
				t.Fatalf("frame is %d bytes with tag %d, want %d bytes with tag %d",
					len(sent[0]), sent[0][0], 1+len(want), frameOSendData)
			}
		})
	}
}

// depEngines are the engines built on the dependency core. Core tests run
// against each, so a wrong frame tag or metric prefix in one engine's
// construction fails them.
var depEngines = []struct {
	name     string
	metrics  string // metric name prefix
	fetchTag byte
	// build starts an engine on cfg's fields, returning its core and the
	// engine's own Close (PCCast's also stops its outbox).
	build func(cfg OSendConfig) (*depCore, func() error, error)
	// cluster starts one engine per id on net.
	cluster func(t *testing.T, ids []string, net transport.Network, patience time.Duration) *cluster
}{
	{"osend", "causal_osend_", frameOSendFetch, func(cfg OSendConfig) (*depCore, func() error, error) {
		e, err := NewOSend(cfg)
		if err != nil {
			return nil, nil, err
		}
		return &e.depCore, e.Close, nil
	}, newOSendCluster},
	{"pccast", "causal_pccast_", framePCCastFetch, func(cfg OSendConfig) (*depCore, func() error, error) {
		e, err := NewPCCast(PCCastConfig{
			Self: cfg.Self, Group: cfg.Group, Conn: cfg.Conn, Deliver: cfg.Deliver, Patience: cfg.Patience,
		})
		if err != nil {
			return nil, nil, err
		}
		return &e.depCore, e.Close, nil
	}, func(t *testing.T, ids []string, net transport.Network, patience time.Duration) *cluster {
		return newPCCastCluster(t, ids, net, patience, nil)
	}},
}

// newCaptureCore starts a two-member engine "a" (peer "b") over a capture
// conn with anti-entropy armed but a patience too long to ever tick.
func newCaptureCore(t *testing.T, build func(OSendConfig) (*depCore, func() error, error)) (*depCore, *captureConn) {
	t.Helper()
	conn := newCaptureConn("a")
	e, closeFn, err := build(OSendConfig{
		Self: "a", Group: group.MustNew("g", []string{"a", "b"}), Conn: conn,
		Deliver: func(message.Message) {}, Patience: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = closeFn() })
	return e, conn
}

// TestLastFetchPrunedOnDelivery is the regression test for the unbounded
// lastFetch growth: once a fetched-for label is delivered, its rate-limit
// entry must go away.
func TestLastFetchPrunedOnDelivery(t *testing.T) {
	for _, eng := range depEngines {
		t.Run(eng.name, func(t *testing.T) {
			e, _ := newCaptureCore(t, eng.build)
			m1 := message.Label{Origin: "b", Seq: 1}
			m2 := message.Message{
				Label: message.Label{Origin: "b", Seq: 2},
				Deps:  message.After(m1),
				Kind:  message.KindCommutative,
				Op:    "inc",
			}
			e.ingest(m2) // buffered: m1 missing
			// Simulate the fetch the patience timer would have issued for m1.
			e.retainMu.Lock()
			e.lastFetch[m1] = time.Now()
			e.retainMu.Unlock()
			if got := e.fetchBacklog(); got != 1 {
				t.Fatalf("fetch backlog = %d, want 1", got)
			}

			// The missing message arrives; both deliver, and the rate-limit
			// entry for m1 must be pruned with them.
			e.ingest(message.Message{Label: m1, Kind: message.KindCommutative, Op: "inc"})
			if !e.Delivered(m1) || !e.Delivered(m2.Label) {
				t.Fatal("cascade delivery failed")
			}
			if got := e.fetchBacklog(); got != 0 {
				t.Fatalf("fetch backlog after delivery = %d, want 0 (lastFetch leaks)", got)
			}
		})
	}
}

// TestLastFetchPrunedWhenOriginLeaves checks the periodic sweep drops
// entries whose retransmission route is no longer a group member (the
// origin left), as well as entries for labels delivered through a path
// that bypassed the delivery-time pruning.
func TestLastFetchPrunedWhenOriginLeaves(t *testing.T) {
	for _, eng := range depEngines {
		t.Run(eng.name, func(t *testing.T) {
			e, _ := newCaptureCore(t, eng.build)
			delivered := message.Label{Origin: "b", Seq: 1}
			e.ingest(message.Message{Label: delivered, Kind: message.KindCommutative, Op: "inc"})

			e.retainMu.Lock()
			e.lastFetch[delivered] = time.Now()                                // already delivered
			e.lastFetch[message.Label{Origin: "ghost", Seq: 4}] = time.Now()   // origin not in group
			e.lastFetch[message.Label{Origin: "ghost~t", Seq: 9}] = time.Now() // layered origin, also gone
			live := message.Label{Origin: "b", Seq: 99}
			e.lastFetch[live] = time.Now() // still fetchable: must survive
			e.retainMu.Unlock()

			e.pruneFetchState()

			e.retainMu.Lock()
			defer e.retainMu.Unlock()
			if len(e.lastFetch) != 1 {
				t.Fatalf("lastFetch has %d entries after sweep, want 1: %v", len(e.lastFetch), e.lastFetch)
			}
			if _, ok := e.lastFetch[live]; !ok {
				t.Fatal("sweep removed a live fetch entry")
			}
		})
	}
}

// TestAdvertSkipsInFlightOwnLabel: Broadcast retains a message before it
// ingests it, and a peer's advert naming the label in that window must
// not make the member fetch its own message (the fetched copy would race
// the self-delivery).
func TestAdvertSkipsInFlightOwnLabel(t *testing.T) {
	for _, eng := range depEngines {
		t.Run(eng.name, func(t *testing.T) {
			e, conn := newCaptureCore(t, eng.build)
			own := message.Message{Label: message.Label{Origin: "a", Seq: 1}, Kind: message.KindCommutative, Op: "inc"}
			e.retainMu.Lock()
			e.retained[own.Label] = own // retained, not yet ingested
			e.retainMu.Unlock()

			e.handleAdvert("b", map[string]uint64{"a": 1}, map[string]uint64{})

			for _, p := range conn.sent() {
				if len(p) > 0 && p[0] == eng.fetchTag {
					t.Fatalf("fetched an in-flight own label: frame %v", p)
				}
			}
			if n := e.Snapshot().Get(eng.metrics + "fetches_total"); n != 0 {
				t.Fatalf("%sfetches_total = %d, want 0", eng.metrics, n)
			}
		})
	}
}

// TestOSendTelemetrySteadyStateAllocs pins the telemetry overhead budget:
// with a registry, a trace ring, and an observed transport all enabled, a
// steady-state broadcast (frame pooled, retained map not growing, every
// member delivering) must stay at 0 allocs/op. Counter increments, gauge
// stores, histogram observations, and ring records are all on the
// measured path.
func TestOSendTelemetrySteadyStateAllocs(t *testing.T) {
	reg := telemetry.NewRegistry()
	ring := telemetry.NewRing(1024)
	net := transport.NewChanNetObserved(transport.FaultModel{}, reg)
	defer func() { _ = net.Close() }()
	ids := []string{"a", "b"}
	grp := group.MustNew("g", ids)

	var delivered atomic.Uint64
	engines := make([]*OSend, 0, len(ids))
	for _, id := range ids {
		conn, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewOSend(OSendConfig{
			Self: id, Group: grp, Conn: conn,
			Deliver:   func(message.Message) { delivered.Add(1) },
			Telemetry: reg,
			Trace:     ring,
		})
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
	}
	defer func() {
		for _, e := range engines {
			_ = e.Close()
		}
	}()

	lab := message.NewLabeler("a")
	send := func() {
		m := message.Message{Label: lab.Next(), Kind: message.KindCommutative, Op: "inc"}
		if err := engines[0].Broadcast(m); err != nil {
			t.Error(err)
			return
		}
		// Keep the retained map at steady size so the measurement sees the
		// long-run regime, not map growth.
		engines[0].ForgetRetained(m.Label)
		want := uint64(len(ids)) * lab.Last().Seq
		for delivered.Load() < want {
			runtime.Gosched() // AllocsPerRun pins GOMAXPROCS to 1
		}
	}
	for i := 0; i < 200; i++ {
		send() // warm the frame pool, decoder interning, and batch buffers
	}
	if n := testing.AllocsPerRun(500, send); n != 0 {
		t.Fatalf("telemetry-enabled broadcast = %.1f allocs/op, want 0", n)
	}
}

// TestOSendConcurrentBroadcastRecv drives several sender goroutines per
// engine while receive loops deliver concurrently, under a fault model
// with enough delay jitter to force buffering. Run with -race it covers
// the split-lock paths: Broadcast (retainMu) against ingest/deliver
// (deliverMu, deliveredMu) against metric and query readers.
func TestOSendConcurrentBroadcastRecv(t *testing.T) {
	const (
		members    = 4
		sendersPer = 3
		perSender  = 40
	)
	ids := make([]string, members)
	for i := range ids {
		ids[i] = fmt.Sprintf("m%d", i)
	}
	net := transport.NewChanNet(transport.FaultModel{
		MaxDelay: 2 * time.Millisecond, Seed: 7,
	})
	defer func() { _ = net.Close() }()
	grp := group.MustNew("g", ids)

	var delivered atomic.Uint64
	engines := make([]*OSend, members)
	for i, id := range ids {
		conn, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewOSend(OSendConfig{
			Self: id, Group: grp, Conn: conn,
			Deliver:  func(message.Message) { delivered.Add(1) },
			Patience: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	defer func() {
		for _, e := range engines {
			_ = e.Close()
		}
	}()

	var wg sync.WaitGroup
	for i, e := range engines {
		for s := 0; s < sendersPer; s++ {
			wg.Add(1)
			go func(e *OSend, origin string) {
				defer wg.Done()
				var prev message.Label
				for seq := uint64(1); seq <= perSender; seq++ {
					m := message.Message{
						Label: message.Label{Origin: origin, Seq: seq},
						Deps:  message.After(prev), // chain: forces buffering under reordering
						Kind:  message.KindCommutative,
						Op:    "inc",
					}
					if err := e.Broadcast(m); err != nil {
						t.Errorf("broadcast %v: %v", m.Label, err)
						return
					}
					prev = m.Label
				}
			}(e, fmt.Sprintf("%s~s%d", ids[i], s))
		}
	}
	// Concurrent readers exercise the read-mostly paths while the storm
	// runs.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for _, e := range engines {
		readers.Add(1)
		go func(e *OSend) {
			defer readers.Done()
			probe := message.Label{Origin: ids[0] + "~s0", Seq: 1}
			for {
				select {
				case <-stop:
					return
				default:
					_ = e.Snapshot()
					_ = e.Delivered(probe)
					time.Sleep(time.Millisecond)
				}
			}
		}(e)
	}
	wg.Wait()

	want := uint64(members) * sendersPer * perSender * members // every member delivers every message
	deadline := time.Now().Add(20 * time.Second)
	for delivered.Load() < want {
		if time.Now().After(deadline) {
			close(stop)
			readers.Wait()
			t.Fatalf("delivered %d of %d", delivered.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	readers.Wait()
}
