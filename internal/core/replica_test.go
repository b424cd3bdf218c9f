package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"causalshare/internal/message"
)

// mapState is a keyed store of integers, large enough that a copy costs
// something. clones, when non-nil, counts Clone calls across every copy.
type mapState struct {
	m      map[uint32]int64
	clones *atomic.Int64
}

func newMapState(keys int, clones *atomic.Int64) *mapState {
	s := &mapState{m: make(map[uint32]int64, keys), clones: clones}
	for k := 0; k < keys; k++ {
		s.m[uint32(k)] = int64(k)
	}
	return s
}

func (s *mapState) copyState() *mapState {
	c := &mapState{m: make(map[uint32]int64, len(s.m)), clones: s.clones}
	for k, v := range s.m {
		c.m[k] = v
	}
	return c
}

func (s *mapState) Clone() State {
	if s.clones != nil {
		s.clones.Add(1)
	}
	return s.copyState()
}

func (s *mapState) Equal(o State) bool {
	t, ok := o.(*mapState)
	if !ok || len(t.m) != len(s.m) {
		return false
	}
	for k, v := range s.m {
		if w, ok := t.m[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func (s *mapState) Digest() string {
	keys := make([]uint32, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	h := fnv.New64a()
	var buf [12]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint32(buf[:], k)
		binary.LittleEndian.PutUint64(buf[4:], uint64(s.m[k]))
		_, _ = h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// mapMsg builds an "add" (commutative), "put" (non-commutative) or "rd"
// (read) message on key with value v.
func mapMsg(seq uint64, op string, key uint32, v int64) message.Message {
	kind := message.KindCommutative
	switch op {
	case "put":
		kind = message.KindNonCommutative
	case "rd":
		kind = message.KindRead
	}
	body := make([]byte, 12)
	binary.LittleEndian.PutUint32(body, key)
	binary.LittleEndian.PutUint64(body[4:], uint64(v))
	return message.Message{Label: lbl("c", seq), Kind: kind, Op: op, Body: body}
}

func mapUpdate(s *mapState, m message.Message) {
	key := binary.LittleEndian.Uint32(m.Body)
	v := int64(binary.LittleEndian.Uint64(m.Body[4:]))
	switch m.Op {
	case "add":
		s.m[key] += v
	case "put":
		s.m[key] = v
	}
}

// applyMapInPlace mutates and returns its input state.
func applyMapInPlace(s State, m message.Message) State {
	st := s.(*mapState)
	mapUpdate(st, m)
	return st
}

// applyMapFresh returns a new state and leaves its input untouched.
func applyMapFresh(s State, m message.Message) State {
	st := s.(*mapState).copyState()
	mapUpdate(st, m)
	return st
}

// mapActivities returns activities of 1..maxAdds commutative adds, each
// closed by a put or a read, over keys [0, keys).
func mapActivities(seed int64, activities, maxAdds, keys int) []message.Message {
	rng := rand.New(rand.NewSource(seed))
	var out []message.Message
	seq := uint64(0)
	for a := 0; a < activities; a++ {
		for i := rng.Intn(maxAdds) + 1; i > 0; i-- {
			seq++
			out = append(out, mapMsg(seq, "add", uint32(rng.Intn(keys)), int64(rng.Intn(100)-50)))
		}
		seq++
		closer := "put"
		if rng.Intn(4) == 0 {
			closer = "rd"
		}
		out = append(out, mapMsg(seq, closer, uint32(rng.Intn(keys)), int64(rng.Intn(1000))))
	}
	return out
}

func newMapReplica(t testing.TB, initial State, apply Transition, onStable func(StablePoint, State)) *Replica {
	t.Helper()
	r, err := NewReplica(ReplicaConfig{Self: "r1", Initial: initial, Apply: apply, OnStable: onStable})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// waitForWaiters blocks until n deferred reads are parked on r.
func waitForWaiters(t *testing.T, r *Replica, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.mu.Lock()
		parked := len(r.waiters)
		r.mu.Unlock()
		if parked == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d deferred reads parked, want %d", parked, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// A closer advances the stable state without copying it: with no reads
// and no OnStable, State.Clone never runs after construction.
func TestReplicaCloserMakesNoClone(t *testing.T) {
	var clones atomic.Int64
	r := newMapReplica(t, newMapState(16, &clones), applyMapInPlace, nil)
	clones.Store(0) // construction copies the initial state
	for i := 1; i <= 1000; i++ {
		op := "add"
		if i%10 == 0 {
			op = "put"
		}
		r.Deliver(mapMsg(uint64(i), op, uint32(i%16), int64(i)))
	}
	if c := r.Cycle(); c != 100 {
		t.Fatalf("cycle = %d, want 100", c)
	}
	if n := clones.Load(); n != 0 {
		t.Errorf("Clone ran %d times over 100 closers, want 0", n)
	}
}

func TestReplicaReadStableMidActivity(t *testing.T) {
	r := newMapReplica(t, newMapState(4, nil), applyMapInPlace, nil)
	r.Deliver(mapMsg(1, "put", 0, 7))
	r.Deliver(mapMsg(2, "add", 0, 3))
	r.Deliver(mapMsg(3, "add", 0, 4))
	st, cycle := r.ReadStable()
	if got := st.(*mapState).m[0]; got != 7 || cycle != 1 {
		t.Errorf("ReadStable mid-activity = %d at cycle %d, want 7 at 1", got, cycle)
	}
	if got := r.ReadNow().(*mapState).m[0]; got != 14 {
		t.Errorf("ReadNow = %d, want 14", got)
	}
	r.Deliver(mapMsg(4, "rd", 0, 0))
	st, cycle = r.ReadStable()
	if got := st.(*mapState).m[0]; got != 14 || cycle != 2 {
		t.Errorf("ReadStable after closer = %d at cycle %d, want 14 at 2", got, cycle)
	}
}

// Several deferred reads released by one closer each get their own copy:
// readers mutate theirs concurrently (the race detector flags sharing) and
// neither the other readers nor the replica see it.
func TestReplicaDeferredWaitersGetIndependentCopies(t *testing.T) {
	r := newMapReplica(t, newMapState(16, nil), applyMapInPlace, nil)
	r.Deliver(mapMsg(1, "put", 0, 1))
	r.Deliver(mapMsg(2, "add", 1, 5))
	const readers = 4
	got := make([]*mapState, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, cycle, err := r.ReadDeferred(context.Background())
			if err != nil || cycle != 2 {
				t.Errorf("reader %d: cycle %d, err %v; want cycle 2", i, cycle, err)
				return
			}
			ms := st.(*mapState)
			ms.m[1000+uint32(i)] = int64(i)
			ms.m[1] = -1
			got[i] = ms
		}()
	}
	waitForWaiters(t, r, readers)
	r.Deliver(mapMsg(3, "put", 2, 9))
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, ms := range got {
		for j := 0; j < readers; j++ {
			if _, ok := ms.m[1000+uint32(j)]; ok != (i == j) {
				t.Errorf("reader %d sees reader %d's write: %v", i, j, ok)
			}
		}
	}
	st, _ := r.ReadStable()
	ms := st.(*mapState)
	if ms.m[1] != 6 || len(ms.m) != 16 {
		t.Errorf("replica stable state changed by readers: key1=%d, %d keys", ms.m[1], len(ms.m))
	}
	if d, want := ms.Digest(), r.StablePoints()[1].Digest; d != want {
		t.Errorf("stable digest %s, want %s", d, want)
	}
	// The next closer mutates the stable state in place; the readers'
	// copies must not move with it.
	r.Deliver(mapMsg(4, "add", 5, 100))
	r.Deliver(mapMsg(5, "put", 6, 100))
	for i, ms := range got {
		if ms.m[5] != 5 || ms.m[6] != 6 {
			t.Errorf("reader %d's copy moved with the replica: key5=%d key6=%d", i, ms.m[5], ms.m[6])
		}
	}
}

// The OnStable snapshot is the receiver's own: mutating it leaves the
// replica and a deferred read released by the same closer alone, and
// later closers leave it alone.
func TestReplicaOnStableSnapshotIndependent(t *testing.T) {
	var snaps []*mapState
	var points []StablePoint
	r := newMapReplica(t, newMapState(16, nil), applyMapInPlace, func(sp StablePoint, st State) {
		ms := st.(*mapState)
		if d := ms.Digest(); d != sp.Digest {
			t.Errorf("cycle %d: snapshot digest %s, point digest %s", sp.Cycle, d, sp.Digest)
		}
		ms.m[999] = -1
		snaps = append(snaps, ms)
		points = append(points, sp)
	})
	read := make(chan *mapState, 1)
	go func() {
		st, _, err := r.ReadDeferred(context.Background())
		if err != nil {
			t.Error(err)
			read <- nil
			return
		}
		ms := st.(*mapState)
		ms.m[998] = -1
		read <- ms
	}()
	waitForWaiters(t, r, 1)
	for _, m := range mapActivities(7, 20, 8, 16) {
		r.Deliver(m)
	}
	if ms := <-read; ms != nil {
		if _, ok := ms.m[999]; ok {
			t.Error("the OnStable snapshot shares the deferred read's copy")
		}
	}
	if len(snaps) != 20 {
		t.Fatalf("OnStable ran %d times, want 20", len(snaps))
	}
	for i, ms := range snaps {
		delete(ms.m, 999)
		if d := ms.Digest(); d != points[i].Digest {
			t.Errorf("cycle %d snapshot changed after delivery: %s, want %s", points[i].Cycle, d, points[i].Digest)
		}
	}
	st, _ := r.ReadStable()
	if _, ok := st.(*mapState).m[999]; ok {
		t.Error("a snapshot mutation reached the replica's stable state")
	}
	if d, want := st.Digest(), points[len(points)-1].Digest; d != want {
		t.Errorf("stable digest %s, want %s", d, want)
	}
}

// Replaying the closed activity yields the digests a clone-per-closer
// replica records, for a Transition that mutates its input and for one
// that returns a fresh state.
func TestReplicaReplayMatchesCloneReference(t *testing.T) {
	msgs := mapActivities(11, 200, 15, 64)
	for _, tc := range []struct {
		name  string
		apply Transition
	}{{"mutating", applyMapInPlace}, {"fresh", applyMapFresh}} {
		t.Run(tc.name, func(t *testing.T) {
			// Reference: the current state, cloned at every closer.
			var ref State = newMapState(64, nil)
			var want []StablePoint
			size := 0
			for _, m := range msgs {
				ref = tc.apply(ref, m)
				size++
				if m.Kind == message.KindNonCommutative || m.Kind == message.KindRead {
					want = append(want, StablePoint{Cycle: uint64(len(want) + 1), Closer: m.Label,
						Digest: ref.Clone().Digest(), ActivitySize: size})
					size = 0
				}
			}
			r := newMapReplica(t, newMapState(64, nil), tc.apply, nil)
			for _, m := range msgs {
				r.Deliver(m)
			}
			got := r.StablePoints()
			if len(got) != len(want) {
				t.Fatalf("%d stable points, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("point %d = %+v, want %+v", i, got[i], want[i])
				}
			}
			st, _ := r.ReadStable()
			if !st.Equal(ref) || !r.ReadNow().Equal(ref) {
				t.Error("final stable or current state differs from the reference")
			}
		})
	}
}

var benchPoint uint64

// BenchmarkReplicaCloser measures one activity of nine commutative adds
// closed by a put, on a map state of 16 and of 1,000 keys, with no reads
// and no OnStable: the per-closer cost a replica pays on every member.
func BenchmarkReplicaCloser(b *testing.B) {
	for _, keys := range []int{16, 1000} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			r := newMapReplica(b, newMapState(keys, nil), applyMapInPlace, nil)
			msgs := make([]message.Message, 10)
			for i := range msgs {
				op := "add"
				if i == len(msgs)-1 {
					op = "put"
				}
				msgs[i] = mapMsg(uint64(i+1), op, uint32(i*keys/len(msgs)), int64(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for _, m := range msgs {
					r.Deliver(m)
				}
				// Bound the history a long run accumulates.
				if n%1024 == 1023 {
					r.TrimStablePoints(0)
				}
			}
			benchPoint = r.Cycle()
		})
	}
}
