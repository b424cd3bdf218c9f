package transport

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// TestTCPFlushWindowDelivers checks the batched write path carries every
// frame, in per-pair FIFO order, across a burst large enough to exercise
// both the timed flush and the inline flushBytes overflow.
func TestTCPFlushWindowDelivers(t *testing.T) {
	n := NewTCPNetWithConfig(TCPConfig{FlushWindow: 2 * time.Millisecond})
	defer func() { _ = n.Close() }()
	a, err := n.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	const count = 2000
	payload := make([]byte, 100) // 2000 * ~100B crosses flushBytes repeatedly
	go func() {
		for i := 0; i < count; i++ {
			payload[0], payload[1] = byte(i>>8), byte(i)
			if err := a.Send("b", payload); err != nil {
				return
			}
		}
	}()
	br := b.(BatchRecver)
	var got int
	var batch []Envelope
	deadline := time.Now().Add(10 * time.Second)
	for got < count {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %d/%d frames", got, count)
		}
		batch, err = br.RecvBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, env := range batch {
			seq := int(env.Payload[0])<<8 | int(env.Payload[1])
			if seq != got {
				t.Fatalf("frame %d arrived as %d: batching broke FIFO", got, seq)
			}
			if len(env.Payload) != len(payload) {
				t.Fatalf("frame %d has %d bytes, want %d", got, len(env.Payload), len(payload))
			}
			got++
		}
	}
}

// TestTCPFlushWindowMulticast checks SendFrame over the batched path: one
// frame reaches several peers intact.
func TestTCPFlushWindowMulticast(t *testing.T) {
	n := NewTCPNetWithConfig(TCPConfig{FlushWindow: time.Millisecond})
	defer func() { _ = n.Close() }()
	src, err := n.Attach("src")
	if err != nil {
		t.Fatal(err)
	}
	peers := make([]Conn, 3)
	ids := make([]string, 3)
	for i := range peers {
		ids[i] = fmt.Sprintf("r%d", i)
		if peers[i], err = n.Attach(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	f := StaticFrame([]byte("batched multicast"))
	if err := Multicast(src, ids, f); err != nil {
		t.Fatal(err)
	}
	f.Release()
	for i, p := range peers {
		env, err := p.Recv()
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		if string(env.Payload) != "batched multicast" {
			t.Fatalf("peer %d got %q", i, env.Payload)
		}
		if env.From != "src" {
			t.Fatalf("peer %d got From=%q", i, env.From)
		}
	}
}

// TestTCPFlushWindowErrorSurfaces checks a write failure on the batched
// path becomes visible on a later Send to the same peer instead of being
// swallowed.
func TestTCPFlushWindowErrorSurfaces(t *testing.T) {
	n := NewTCPNetWithConfig(TCPConfig{FlushWindow: time.Millisecond})
	defer func() { _ = n.Close() }()
	a, err := n.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", []byte("warmup")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	// Kill the receiving side; subsequent batched writes must eventually
	// fail (flush hits a broken pipe, the sticky error surfaces, and the
	// peer is dropped for a re-dial that cannot succeed).
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := a.Send("b", []byte("doomed")); err != nil {
			return // surfaced, as required
		}
		if time.Now().After(deadline) {
			t.Fatal("write errors never surfaced on Send")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPCloseWhileDialing is the regression test for the Close/acceptLoop
// race: a connection accepted just before the listener closes must not
// escape Close's sweep of inbound connections, or its read loop blocks
// Close forever. Peers dial in a tight loop (and keep every connection
// open, so only Close can end a read loop) while Close runs.
func TestTCPCloseWhileDialing(t *testing.T) {
	for i := 0; i < 50; i++ {
		n := NewTCPNet()
		c, err := n.Attach("a")
		if err != nil {
			t.Fatal(err)
		}
		addr, _ := n.addrOf("a")
		stop := make(chan struct{})
		var dialers sync.WaitGroup
		var mu sync.Mutex
		var open []net.Conn
		for d := 0; d < 4; d++ {
			dialers.Add(1)
			go func() {
				defer dialers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					conn, err := net.Dial("tcp", addr)
					if err != nil {
						continue // listener closed; keep dialing until stopped
					}
					mu.Lock()
					open = append(open, conn)
					mu.Unlock()
				}
			}()
		}
		time.Sleep(time.Millisecond)
		closed := make(chan struct{})
		go func() {
			_ = c.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatalf("iteration %d: Close hung with a dialer racing acceptLoop", i)
		}
		close(stop)
		dialers.Wait()
		for _, conn := range open {
			_ = conn.Close()
		}
		_ = n.Close()
	}
}
