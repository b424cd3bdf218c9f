package causal

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"causalshare/internal/group"
	"causalshare/internal/message"
	"causalshare/internal/transport"
)

// collector records delivered messages at one member.
type collector struct {
	mu   sync.Mutex
	msgs []message.Message
}

func (c *collector) deliver(m message.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, m)
}

func (c *collector) snapshot() []message.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]message.Message(nil), c.msgs...)
}

// waitFor blocks until the collector holds n messages or the deadline
// passes, returning the snapshot either way.
func (c *collector) waitFor(t *testing.T, n int, timeout time.Duration) []message.Message {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		got := c.snapshot()
		if len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d deliveries, have %d: %v", n, len(got), got)
		}
		time.Sleep(time.Millisecond)
	}
}

func positions(msgs []message.Message) map[message.Label]int {
	pos := make(map[message.Label]int, len(msgs))
	for i, m := range msgs {
		pos[m.Label] = i
	}
	return pos
}

// cluster is a set of engines of one kind over a shared network.
type cluster struct {
	grp  *group.Group
	net  transport.Network
	cols map[string]*collector
	bcs  map[string]Broadcaster
}

func (c *cluster) close(t *testing.T) {
	t.Helper()
	for _, b := range c.bcs {
		if err := b.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}
	_ = c.net.Close()
}

func newOSendCluster(t *testing.T, ids []string, net transport.Network, patience time.Duration) *cluster {
	t.Helper()
	grp := group.MustNew("g", ids)
	c := &cluster{grp: grp, net: net, cols: map[string]*collector{}, bcs: map[string]Broadcaster{}}
	for _, id := range ids {
		conn, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		col := &collector{}
		e, err := NewOSend(OSendConfig{
			Self: id, Group: grp, Conn: conn, Deliver: col.deliver, Patience: patience,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.cols[id] = col
		c.bcs[id] = e
	}
	return c
}

func newCBCastCluster(t *testing.T, ids []string, net transport.Network, patience time.Duration) *cluster {
	t.Helper()
	grp := group.MustNew("g", ids)
	c := &cluster{grp: grp, net: net, cols: map[string]*collector{}, bcs: map[string]Broadcaster{}}
	for _, id := range ids {
		conn, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		col := &collector{}
		e, err := NewCBCast(CBCastConfig{
			Self: id, Group: grp, Conn: conn, Deliver: col.deliver, Patience: patience,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.cols[id] = col
		c.bcs[id] = e
	}
	return c
}

func TestOSendConfigValidation(t *testing.T) {
	grp := group.MustNew("g", []string{"a"})
	net := transport.NewChanNet(transport.FaultModel{})
	defer func() { _ = net.Close() }()
	conn, _ := net.Attach("a")
	cb := func(message.Message) {}
	tests := []struct {
		name string
		cfg  OSendConfig
	}{
		{"not a member", OSendConfig{Self: "x", Group: grp, Conn: conn, Deliver: cb}},
		{"nil group", OSendConfig{Self: "a", Conn: conn, Deliver: cb}},
		{"nil conn", OSendConfig{Self: "a", Group: grp, Deliver: cb}},
		{"nil deliver", OSendConfig{Self: "a", Group: grp, Conn: conn}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewOSend(tt.cfg); err == nil {
				t.Error("NewOSend accepted invalid config")
			}
		})
	}
}

func TestOSendSelfDelivery(t *testing.T) {
	net := transport.NewChanNet(transport.FaultModel{})
	c := newOSendCluster(t, []string{"a", "b"}, net, 0)
	defer c.close(t)
	m := message.Message{Label: message.Label{Origin: "a", Seq: 1}, Kind: message.KindCommutative, Op: "inc"}
	if err := c.bcs["a"].Broadcast(m); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		got := c.cols[id].waitFor(t, 1, time.Second)
		if got[0].Label != m.Label {
			t.Errorf("member %s delivered %v", id, got[0].Label)
		}
	}
}

func TestOSendRespectsExplicitDependency(t *testing.T) {
	// b broadcasts m2 with OccursAfter(m1) before a's m1 is sent anywhere.
	// Every member must still deliver m1 before m2.
	net := transport.NewChanNet(transport.FaultModel{})
	c := newOSendCluster(t, []string{"a", "b", "c"}, net, 0)
	defer c.close(t)

	m1 := message.Message{Label: message.Label{Origin: "a", Seq: 1}, Kind: message.KindNonCommutative, Op: "w1"}
	m2 := message.Message{
		Label: message.Label{Origin: "b", Seq: 1},
		Deps:  message.After(m1.Label),
		Kind:  message.KindNonCommutative,
		Op:    "w2",
	}
	// Deliberately broadcast the dependent first.
	if err := c.bcs["b"].Broadcast(m2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let m2 spread and buffer everywhere
	if err := c.bcs["a"].Broadcast(m1); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		got := c.cols[id].waitFor(t, 2, 2*time.Second)
		pos := positions(got)
		if pos[m1.Label] >= pos[m2.Label] {
			t.Errorf("member %s delivered %v before its dependency %v", id, m2.Label, m1.Label)
		}
	}
}

func TestOSendFigure2Scenario(t *testing.T) {
	// Figure 2: R(M) = mk -> ||{m1', m2'} -> mj'. All members must see mk
	// first and mj' last; m1'/m2' may interleave per member.
	net := transport.NewChanNet(transport.FaultModel{
		MinDelay: 0, MaxDelay: 3 * time.Millisecond, Seed: 11,
	})
	c := newOSendCluster(t, []string{"ai", "aj", "ak"}, net, 50*time.Millisecond)
	defer c.close(t)

	mk := message.Message{Label: message.Label{Origin: "ak", Seq: 1}, Kind: message.KindNonCommutative, Op: "mk"}
	m1 := message.Message{Label: message.Label{Origin: "ai", Seq: 1}, Deps: message.After(mk.Label), Kind: message.KindCommutative, Op: "m1'"}
	m2 := message.Message{Label: message.Label{Origin: "aj", Seq: 1}, Deps: message.After(mk.Label), Kind: message.KindCommutative, Op: "m2'"}
	mj := message.Message{Label: message.Label{Origin: "ai", Seq: 2}, Deps: message.After(m1.Label, m2.Label), Kind: message.KindNonCommutative, Op: "mj'"}

	if err := c.bcs["ak"].Broadcast(mk); err != nil {
		t.Fatal(err)
	}
	if err := c.bcs["ai"].Broadcast(m1); err != nil {
		t.Fatal(err)
	}
	if err := c.bcs["aj"].Broadcast(m2); err != nil {
		t.Fatal(err)
	}
	if err := c.bcs["ai"].Broadcast(mj); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"ai", "aj", "ak"} {
		got := c.cols[id].waitFor(t, 4, 2*time.Second)
		pos := positions(got)
		if pos[mk.Label] != 0 {
			t.Errorf("member %s: mk not first: %v", id, got)
		}
		if pos[mj.Label] != 3 {
			t.Errorf("member %s: mj' not last: %v", id, got)
		}
	}
}

func TestOSendConcurrentInterleavingsMayDiffer(t *testing.T) {
	// Concurrent messages are delivered in arrival order, which may differ
	// across members. With many rounds and random latency this should
	// produce at least one divergence — demonstrating the paper's point
	// that views agree only at synchronization points.
	net := transport.NewChanNet(transport.FaultModel{
		MinDelay: 0, MaxDelay: 4 * time.Millisecond, Seed: 3,
	})
	c := newOSendCluster(t, []string{"a", "b"}, net, 50*time.Millisecond)
	defer c.close(t)

	const rounds = 20
	for r := uint64(1); r <= rounds; r++ {
		ma := message.Message{Label: message.Label{Origin: "a", Seq: r}, Kind: message.KindCommutative, Op: "inc"}
		mb := message.Message{Label: message.Label{Origin: "b", Seq: r}, Kind: message.KindCommutative, Op: "dec"}
		if err := c.bcs["a"].Broadcast(ma); err != nil {
			t.Fatal(err)
		}
		if err := c.bcs["b"].Broadcast(mb); err != nil {
			t.Fatal(err)
		}
	}
	gotA := c.cols["a"].waitFor(t, 2*rounds, 2*time.Second)
	gotB := c.cols["b"].waitFor(t, 2*rounds, 2*time.Second)
	same := true
	for i := range gotA {
		if gotA[i].Label != gotB[i].Label {
			same = false
			break
		}
	}
	if same {
		t.Log("members happened to agree on interleaving (allowed but unexpected under reordering)")
	}
	// Both must have delivered the same *set*.
	setA, setB := positions(gotA), positions(gotB)
	if len(setA) != len(setB) {
		t.Fatalf("delivered sets differ in size: %d vs %d", len(setA), len(setB))
	}
	for l := range setA {
		if _, ok := setB[l]; !ok {
			t.Errorf("label %v delivered at a but not b", l)
		}
	}
}

func TestOSendDuplicateFramesIgnored(t *testing.T) {
	net := transport.NewChanNet(transport.FaultModel{DupProb: 1.0, Seed: 5})
	c := newOSendCluster(t, []string{"a", "b"}, net, 0)
	defer c.close(t)
	for i := uint64(1); i <= 10; i++ {
		m := message.Message{Label: message.Label{Origin: "a", Seq: i}, Kind: message.KindCommutative, Op: "inc"}
		if err := c.bcs["a"].Broadcast(m); err != nil {
			t.Fatal(err)
		}
	}
	got := c.cols["b"].waitFor(t, 10, 2*time.Second)
	time.Sleep(20 * time.Millisecond) // allow duplicates to arrive
	got = c.cols["b"].snapshot()
	if len(got) != 10 {
		t.Fatalf("duplicates leaked: delivered %d, want 10", len(got))
	}
	e, ok := c.bcs["b"].(*OSend)
	if !ok {
		t.Fatal("not an OSend engine")
	}
	if e.Snapshot().Get("causal_osend_duplicates_total") == 0 {
		t.Error("duplicate counter never incremented under DupProb=1")
	}
}

func TestOSendLossRecoveryViaFetch(t *testing.T) {
	// 30% loss; patience-driven fetch must recover every message.
	net := transport.NewChanNet(transport.FaultModel{
		DropProb: 0.3, MinDelay: 0, MaxDelay: 2 * time.Millisecond, Seed: 99,
	})
	c := newOSendCluster(t, []string{"a", "b", "c"}, net, 15*time.Millisecond)
	defer c.close(t)

	var prev message.Label
	const count = 30
	for i := uint64(1); i <= count; i++ {
		m := message.Message{
			Label: message.Label{Origin: "a", Seq: i},
			Deps:  message.After(prev), // chain: forces gap detection
			Kind:  message.KindNonCommutative,
			Op:    "w",
		}
		if err := c.bcs["a"].Broadcast(m); err != nil {
			t.Fatal(err)
		}
		prev = m.Label
	}
	for _, id := range []string{"b", "c"} {
		got := c.cols[id].waitFor(t, count, 10*time.Second)
		for i := range got {
			if got[i].Label.Seq != uint64(i+1) {
				t.Fatalf("member %s: chain out of order at %d: %v", id, i, got[i].Label)
			}
		}
	}
	e, ok := c.bcs["b"].(*OSend)
	if !ok {
		t.Fatal("not an OSend engine")
	}
	if e.Snapshot().Get("causal_osend_fetches_total") == 0 {
		t.Error("recovery happened without any fetches under 30% loss (suspicious)")
	}
}

func TestOSendBroadcastAfterClose(t *testing.T) {
	net := transport.NewChanNet(transport.FaultModel{})
	c := newOSendCluster(t, []string{"a", "b"}, net, 0)
	e := c.bcs["a"]
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	m := message.Message{Label: message.Label{Origin: "a", Seq: 1}, Kind: message.KindRead, Op: "rd"}
	if err := e.Broadcast(m); err != ErrClosed {
		t.Errorf("Broadcast after Close = %v, want ErrClosed", err)
	}
	if err := e.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
	_ = c.bcs["b"].Close()
	_ = net.Close()
}

func TestOSendDeliveredQuery(t *testing.T) {
	net := transport.NewChanNet(transport.FaultModel{})
	c := newOSendCluster(t, []string{"a", "b"}, net, 0)
	defer c.close(t)
	e, ok := c.bcs["a"].(*OSend)
	if !ok {
		t.Fatal("not an OSend engine")
	}
	l := message.Label{Origin: "a", Seq: 1}
	if e.Delivered(l) {
		t.Error("label delivered before broadcast")
	}
	if err := e.Broadcast(message.Message{Label: l, Kind: message.KindCommutative, Op: "inc"}); err != nil {
		t.Fatal(err)
	}
	c.cols["a"].waitFor(t, 1, time.Second)
	if !e.Delivered(l) {
		t.Error("label not delivered after broadcast")
	}
}

func TestCBCastSelfAndRemoteDelivery(t *testing.T) {
	net := transport.NewChanNet(transport.FaultModel{})
	c := newCBCastCluster(t, []string{"a", "b"}, net, 0)
	defer c.close(t)
	m := message.Message{Label: message.Label{Origin: "a", Seq: 1}, Kind: message.KindCommutative, Op: "inc"}
	if err := c.bcs["a"].Broadcast(m); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		got := c.cols[id].waitFor(t, 1, time.Second)
		if got[0].Label != m.Label {
			t.Errorf("member %s delivered %v", id, got[0].Label)
		}
	}
}

func TestCBCastCausalOrderAcrossSenders(t *testing.T) {
	// a sends m1; b delivers m1 then sends m2. Under CBCAST m1 -> m2 is
	// potential causality, so every member delivers m1 before m2 even when
	// the network reorders them.
	net := transport.NewChanNet(transport.FaultModel{
		MinDelay: 0, MaxDelay: 5 * time.Millisecond, Seed: 17,
	})
	c := newCBCastCluster(t, []string{"a", "b", "c"}, net, 50*time.Millisecond)
	defer c.close(t)

	m1 := message.Message{Label: message.Label{Origin: "a", Seq: 1}, Kind: message.KindNonCommutative, Op: "w1"}
	if err := c.bcs["a"].Broadcast(m1); err != nil {
		t.Fatal(err)
	}
	c.cols["b"].waitFor(t, 1, time.Second) // b has delivered m1
	m2 := message.Message{Label: message.Label{Origin: "b", Seq: 1}, Kind: message.KindNonCommutative, Op: "w2"}
	if err := c.bcs["b"].Broadcast(m2); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		got := c.cols[id].waitFor(t, 2, 2*time.Second)
		pos := positions(got)
		if pos[m1.Label] >= pos[m2.Label] {
			t.Errorf("member %s violated causal order: %v", id, got)
		}
	}
}

func TestCBCastFIFOFromEachSender(t *testing.T) {
	net := transport.NewChanNet(transport.FaultModel{
		MinDelay: 0, MaxDelay: 4 * time.Millisecond, Seed: 23,
	})
	c := newCBCastCluster(t, []string{"a", "b"}, net, 50*time.Millisecond)
	defer c.close(t)
	const count = 25
	for i := uint64(1); i <= count; i++ {
		m := message.Message{Label: message.Label{Origin: "a", Seq: i}, Kind: message.KindCommutative, Op: "inc"}
		if err := c.bcs["a"].Broadcast(m); err != nil {
			t.Fatal(err)
		}
	}
	got := c.cols["b"].waitFor(t, count, 3*time.Second)
	for i := range got {
		if got[i].Label.Seq != uint64(i+1) {
			t.Fatalf("FIFO violated at %d: %v", i, got[i].Label)
		}
	}
}

func TestCBCastLossRecovery(t *testing.T) {
	net := transport.NewChanNet(transport.FaultModel{
		DropProb: 0.25, MinDelay: 0, MaxDelay: 2 * time.Millisecond, Seed: 31,
	})
	c := newCBCastCluster(t, []string{"a", "b"}, net, 15*time.Millisecond)
	defer c.close(t)
	const count = 30
	for i := uint64(1); i <= count; i++ {
		m := message.Message{Label: message.Label{Origin: "a", Seq: i}, Kind: message.KindCommutative, Op: "inc"}
		if err := c.bcs["a"].Broadcast(m); err != nil {
			t.Fatal(err)
		}
	}
	got := c.cols["b"].waitFor(t, count, 10*time.Second)
	if len(got) < count {
		t.Fatalf("recovered only %d of %d", len(got), count)
	}
}

func TestCBCastDuplicateSuppression(t *testing.T) {
	net := transport.NewChanNet(transport.FaultModel{DupProb: 1.0, Seed: 41})
	c := newCBCastCluster(t, []string{"a", "b"}, net, 0)
	defer c.close(t)
	for i := uint64(1); i <= 10; i++ {
		m := message.Message{Label: message.Label{Origin: "a", Seq: i}, Kind: message.KindCommutative, Op: "inc"}
		if err := c.bcs["a"].Broadcast(m); err != nil {
			t.Fatal(err)
		}
	}
	c.cols["b"].waitFor(t, 10, 2*time.Second)
	time.Sleep(20 * time.Millisecond)
	if got := c.cols["b"].snapshot(); len(got) != 10 {
		t.Fatalf("duplicates leaked: %d deliveries", len(got))
	}
}

func TestEnginesOverTCP(t *testing.T) {
	for _, engine := range []string{"osend", "cbcast"} {
		t.Run(engine, func(t *testing.T) {
			net := transport.NewTCPNet()
			var c *cluster
			if engine == "osend" {
				c = newOSendCluster(t, []string{"a", "b", "c"}, net, 0)
			} else {
				c = newCBCastCluster(t, []string{"a", "b", "c"}, net, 0)
			}
			defer c.close(t)
			const count = 10
			for i := uint64(1); i <= count; i++ {
				m := message.Message{Label: message.Label{Origin: "a", Seq: i}, Kind: message.KindCommutative, Op: "inc"}
				if err := c.bcs["a"].Broadcast(m); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range []string{"a", "b", "c"} {
				got := c.cols[id].waitFor(t, count, 5*time.Second)
				if len(got) != count {
					t.Errorf("member %s delivered %d", id, len(got))
				}
			}
		})
	}
}

func TestControlBytesComparison(t *testing.T) {
	// E7 sanity: with a large group, CBCAST's vector clock metadata should
	// exceed OSend's single-label dependency metadata per message.
	ids := make([]string, 12)
	for i := range ids {
		ids[i] = fmt.Sprintf("m%02d", i)
	}
	netO := transport.NewChanNet(transport.FaultModel{})
	co := newOSendCluster(t, ids, netO, 0)
	defer co.close(t)
	netC := transport.NewChanNet(transport.FaultModel{})
	cc := newCBCastCluster(t, ids, netC, 0)
	defer cc.close(t)

	// Everyone broadcasts once (fills every VC component), then m00 sends
	// a chain of 20 messages each depending on its predecessor.
	for _, id := range ids {
		m := message.Message{Label: message.Label{Origin: id, Seq: 1}, Kind: message.KindCommutative, Op: "inc"}
		if err := co.bcs[id].Broadcast(m); err != nil {
			t.Fatal(err)
		}
		if err := cc.bcs[id].Broadcast(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		co.cols[id].waitFor(t, len(ids), 3*time.Second)
		cc.cols[id].waitFor(t, len(ids), 3*time.Second)
	}
	prev := message.Label{Origin: "m00", Seq: 1}
	for i := uint64(2); i <= 21; i++ {
		m := message.Message{Label: message.Label{Origin: "m00", Seq: i}, Deps: message.After(prev), Kind: message.KindNonCommutative, Op: "w"}
		if err := co.bcs["m00"].Broadcast(m); err != nil {
			t.Fatal(err)
		}
		if err := cc.bcs["m00"].Broadcast(m); err != nil {
			t.Fatal(err)
		}
		prev = m.Label
	}
	eo, ok := co.bcs["m00"].(*OSend)
	if !ok {
		t.Fatal("not OSend")
	}
	ec, ok := cc.bcs["m00"].(*CBCast)
	if !ok {
		t.Fatal("not CBCast")
	}
	osendBytes := eo.Snapshot().Get("causal_osend_control_bytes_total")
	cbcastBytes := ec.Snapshot().Get("causal_cbcast_control_bytes_total")
	if osendBytes >= cbcastBytes {
		t.Errorf("OSend control bytes %d not below CBCAST %d for 12-member group",
			osendBytes, cbcastBytes)
	}
}
