package total

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"causalshare/internal/group"
	"causalshare/internal/message"
)

// blockingRecorder is a deliver callback that logs each call's entry and
// return and blocks inside the callback for body "1" until unblock closes.
type blockingRecorder struct {
	entered chan struct{}
	unblock chan struct{}
	mu      sync.Mutex
	log     []string
}

func newBlockingRecorder() *blockingRecorder {
	return &blockingRecorder{entered: make(chan struct{}), unblock: make(chan struct{})}
}

func (r *blockingRecorder) record(s string) {
	r.mu.Lock()
	r.log = append(r.log, s)
	r.mu.Unlock()
}

func (r *blockingRecorder) deliver(m message.Message) {
	r.record("deliver " + string(m.Body))
	if string(m.Body) == "1" {
		close(r.entered)
		<-r.unblock
	}
	r.record("return " + string(m.Body))
}

func (r *blockingRecorder) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.log...)
}

// checkReleaseOrder runs releaseFirst on its own goroutine until its
// callback for body "1" blocks, then runs releaseSecond here: the second
// release must queue behind the blocked callback, not overtake it.
func checkReleaseOrder(t *testing.T, rec *blockingRecorder, releaseFirst, releaseSecond func()) {
	t.Helper()
	first := make(chan struct{})
	go func() {
		defer close(first)
		releaseFirst()
	}()
	select {
	case <-rec.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first release never reached the application")
	}
	releaseSecond()
	if got := rec.snapshot(); len(got) != 1 {
		t.Errorf("second message handed out while the first one's callback ran: %v", got)
	}
	close(rec.unblock)
	<-first
	want := []string{"deliver 1", "return 1", "deliver 2", "return 2"}
	if got := rec.snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("delivery log = %v, want %v", got, want)
	}
}

// The sequencer hands seq k+1 to the application only after seq k's
// callback returns, even when another goroutine releases k+1 meanwhile.
func TestSequencerHandOffInReleaseOrder(t *testing.T) {
	rec := newBlockingRecorder()
	s, _, _ := newFailoverSequencer(t, "b", Config{Deliver: rec.deliver})
	d1 := message.Message{Label: message.Label{Origin: SeqOrigin("a"), Seq: 1}, Op: "app.op", Body: []byte("1")}
	d2 := message.Message{Label: message.Label{Origin: SeqOrigin("a"), Seq: 2}, Op: "app.op", Body: []byte("2")}
	s.Ingest(d1)
	s.Ingest(d2)
	checkReleaseOrder(t, rec,
		func() { s.Ingest(control("a", 3, opOrder, encodeOrder(0, 1, d1.Label))) },
		func() { s.Ingest(control("a", 4, opOrder, encodeOrder(0, 2, d2.Label))) })
}

// The merge orderer keeps the same discipline: a stamp released while an
// earlier one's callback runs is delivered after it returns.
func TestOrdererHandOffInReleaseOrder(t *testing.T) {
	rec := newBlockingRecorder()
	o, err := New(Config{Self: "b", Group: group.MustNew("g", []string{"a", "b"}), Deliver: rec.deliver})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = o.Close() })
	stamped := func(member string, stamp uint64, op, body string) message.Message {
		return message.Message{
			Label: message.Label{Origin: member + labelSuffix, Seq: stamp},
			Kind:  message.KindCommutative,
			Op:    op,
			Body:  wrapBody(stamp, []byte(body)),
		}
	}
	o.Ingest(stamped("a", 1, "app.op", "1"))
	// b's heartbeats advance its horizon, releasing a's stamp at or below.
	checkReleaseOrder(t, rec,
		func() { o.Ingest(stamped("b", 1, opHeartbeat, "")) },
		func() {
			o.Ingest(stamped("a", 2, "app.op", "2"))
			o.Ingest(stamped("b", 2, opHeartbeat, ""))
		})
}

// A callback that re-enters ASend on the leader queues the new message
// behind the one being delivered instead of deadlocking on the decision
// lock.
func TestSequencerReentrantASend(t *testing.T) {
	var got []string
	var s *Sequencer
	s, b, _ := newFailoverSequencer(t, "a", Config{Deliver: func(m message.Message) {
		got = append(got, string(m.Body))
		if string(m.Body) == "first" {
			if _, err := s.ASend("app.op", message.KindNonCommutative, []byte("second"), message.After()); err != nil {
				t.Error(err)
			}
			if len(got) != 1 {
				t.Errorf("re-entrant ASend delivered inside the callback: %v", got)
			}
		}
	}})
	b.loop = s
	if _, err := s.ASend("app.op", message.KindNonCommutative, []byte("first"), message.After()); err != nil {
		t.Fatal(err)
	}
	if want := []string{"first", "second"}; !reflect.DeepEqual(got, want) {
		t.Errorf("delivered %v, want %v", got, want)
	}
}
