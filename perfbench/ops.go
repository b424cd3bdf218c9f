package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"causalshare/internal/core"
	"causalshare/internal/message"
)

// Phase tags which part of a run an op belongs to.
const (
	phaseWarm uint8 = iota + 1
	phaseOpen
	phasePeak
	phaseLock // deposits made by the lock clients of asend-locks
)

// opRec is one client op's timeline: when it was due, and when the last
// member applied it.
type opRec struct {
	due       int64
	visible   atomic.Int64
	remaining atomic.Int32
	phase     uint8
}

const (
	chunkBits = 12
	chunkSize = 1 << chunkBits
	maxChunks = 1 << 10 // 4M ops per run
)

// opTable maps dense op ids to records without locking on the read path:
// chunks are published once through atomic pointers.
type opTable struct {
	mu     sync.Mutex
	n      int64
	chunks [maxChunks]atomic.Pointer[[chunkSize]opRec]
	// onVisible runs when an op's last application lands.
	onVisible func(r *opRec)
}

// alloc reserves the next op id, due at due, to be applied at members
// members.
func (t *opTable) alloc(due int64, phase uint8, members int) (int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.n
	c := id >> chunkBits
	if c >= maxChunks {
		return 0, fmt.Errorf("op table full at %d ops", id)
	}
	if t.chunks[c].Load() == nil {
		t.chunks[c].Store(new([chunkSize]opRec))
	}
	t.n++
	r := &t.chunks[c].Load()[id&(chunkSize-1)]
	r.due = due
	r.phase = phase
	r.remaining.Store(int32(members))
	return id, nil
}

func (t *opTable) len() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

func (t *opTable) get(id int64) *opRec {
	c := t.chunks[id>>chunkBits].Load()
	if c == nil {
		return nil
	}
	return &c[id&(chunkSize-1)]
}

// applied records one member's application of op id.
func (t *opTable) applied(id int64) {
	r := t.get(id)
	if r == nil {
		return
	}
	if r.remaining.Add(-1) == 0 {
		r.visible.Store(now())
		if t.onVisible != nil {
			t.onVisible(r)
		}
	}
}

// each visits every allocated op.
func (t *opTable) each(fn func(id int64, r *opRec)) {
	n := t.len()
	for id := int64(0); id < n; id++ {
		fn(id, t.get(id))
	}
}

// Op bodies start with the op id; kv ops add a key and a value.
func kvBody(id int64, key uint32, val int64) []byte {
	b := make([]byte, 20)
	binary.LittleEndian.PutUint64(b, uint64(id))
	binary.LittleEndian.PutUint32(b[8:], key)
	binary.LittleEndian.PutUint64(b[12:], uint64(val))
	return b
}

func idBody(id int64, amount int64) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, uint64(id))
	binary.LittleEndian.PutUint64(b[8:], uint64(amount))
	return b
}

// bodyID extracts the op id a benchmark body carries (-1 if none).
func bodyID(b []byte) int64 {
	if len(b) < 8 {
		return -1
	}
	return int64(binary.LittleEndian.Uint64(b))
}

const (
	opAdd = "kv.add"
	opPut = "kv.put"
)

// kvState is a map of integer keys to values: Add commutes, Put does not.
type kvState map[uint32]int64

func (s kvState) Clone() core.State {
	c := make(kvState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s kvState) Equal(o core.State) bool {
	t, ok := o.(kvState)
	if !ok || len(t) != len(s) {
		return false
	}
	for k, v := range s {
		if w, ok := t[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func (s kvState) Digest() string {
	keys := make([]uint32, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	h := fnv.New64a()
	var buf [12]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint32(buf[:], k)
		binary.LittleEndian.PutUint64(buf[4:], uint64(s[k]))
		_, _ = h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// kvApply is the transition function F of the kv objects.
func kvApply(s core.State, m message.Message) core.State {
	st := s.(kvState)
	if len(m.Body) < 20 {
		return st
	}
	key := binary.LittleEndian.Uint32(m.Body[8:])
	val := int64(binary.LittleEndian.Uint64(m.Body[12:]))
	switch m.Op {
	case opAdd:
		st[key] += val
	case opPut:
		st[key] = val
	}
	return st
}
