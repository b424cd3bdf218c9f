package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"causalshare/internal/core"
	"causalshare/internal/message"
)

// readRes is one deferred read: where it ran, the stable cycle the
// replica had reached when it was issued, and what it returned.
type readRes struct {
	member, obj int
	boundary    uint64
	cycle       uint64
	digest      string
	at          int64
	ms          float64
	err         error
}

// pass is the outcome of one run of a workload through all four phases.
type pass struct {
	sp    spec
	stack *stack
	setup []float64 // seconds, one per set-up trial

	openFrom, openTo int64
	visible          []sample  // open phase, ms from due time to the last member
	late             []float64 // open phase, ms the generator ran late
	reads            []readRes
	locks            []sample  // lock acquire latency, ms (acquires begun in the open phase)
	holds            []float64 // lock hold time, ms

	acquires, acquireErrs, exclusion int64
	deposited                        int64
	lockSecs                         float64

	// Per peak window: ops applied everywhere in it, its length and the
	// process CPU spent in it.
	peakOps  [windows]int
	peakSecs [windows]float64
	peakCPU  [windows]float64
	allocB   float64 // bytes allocated during the peak phase
	gcFrac   float64
	goMax    int
	pendMax  int64
	heapMiB  float64

	opsTotal  int64
	framesNet uint64

	oracle oracleResult
	spans  []spanStat
}

// phases splits a pass of the given length.
func phases(seconds float64) (warm, open, peak int64) {
	d := seconds * 1e9
	return int64(0.1 * d), int64(0.4 * d), int64(0.5 * d)
}

// runPass builds the workload's stack trials times (reporting each
// set-up), then drives warm-up, the open loop, the closed-loop peak and
// the drain on the last one, and checks every output.
func runPass(sp spec, seed int64, seconds float64, traced bool, trials int, workDir string) (*pass, error) {
	p := &pass{sp: sp}
	var s *stack
	for t := 0; t < trials; t++ {
		if s != nil {
			s.close()
		}
		t0 := now()
		var tr *tracer
		if traced {
			tr = newTracer(sp.traceSample)
		}
		var err error
		s, err = buildStack(sp, seed, tr, filepath.Join(workDir, fmt.Sprintf("wal-%d", t)))
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		id, err := s.submit(rng, now(), phaseWarm, 0)
		if err != nil {
			s.close()
			return nil, err
		}
		if !s.waitVisible(id, 30*time.Second) {
			s.close()
			return nil, fmt.Errorf("set-up: first op not visible at every member within 30s")
		}
		p.setup = append(p.setup, float64(now()-t0)/1e9)
	}
	p.stack = s
	defer s.close()

	// Sample goroutines and the sequencer holdback while the load runs.
	stopMon := make(chan struct{})
	var monWG sync.WaitGroup
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopMon:
				return
			case <-tick.C:
				p.goMax = max(p.goMax, runtime.NumGoroutine())
				for _, q := range s.seqs {
					p.pendMax = max(p.pendMax, int64(q.Pending()))
				}
			}
		}
	}()
	defer func() {
		close(stopMon)
		monWG.Wait()
	}()

	warmD, openD, peakD := phases(seconds)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	seqNo := 1
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds*float64(time.Second))+60*time.Second)
	defer cancel()

	start := now()
	seqNo = s.openLoop(ctx, p, rng, seqNo, start, start+warmD, phaseWarm, nil)
	openStart := start + warmD
	openEnd := openStart + openD
	p.openFrom, p.openTo = openStart, openEnd

	var lockWG sync.WaitGroup
	var stopLocks atomic.Bool
	var lockMu sync.Mutex
	lockStart := now()
	for c := 0; c < sp.locks; c++ {
		member := 1 + c
		lockWG.Add(1)
		go func() {
			defer lockWG.Done()
			p.lockClient(ctx, member, &stopLocks, &lockMu, openStart, openEnd)
		}()
	}

	var readWG sync.WaitGroup
	seqNo = s.openLoop(ctx, p, rng, seqNo, openStart, openEnd, phaseOpen, &readWG)

	// Live heap after a fixed amount of work: the open phase's op count is
	// set by its rate and length alone, unlike the peak phase's, so the
	// figure tracks retention rather than how fast this run happened to be.
	s.waitAll(time.Now().Add(10 * time.Second))
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapMiB = float64(ms.HeapAlloc) / (1 << 20)

	s.peak(p, rng, seqNo, now()+peakD)

	stopLocks.Store(true)
	lockWG.Wait()
	p.lockSecs = float64(now()-lockStart) / 1e9

	// Drain: close every object's open activity so each deferred read has
	// a stable point to return, then wait for every op to be applied at
	// every member.
	if sp.kv {
		for o := 0; o < sp.n; o++ {
			if _, err := s.submitKV(o, true, 0, 0, now(), phaseWarm); err != nil {
				return nil, err
			}
		}
	}
	drainBy := time.Now().Add(30 * time.Second)
	s.waitAll(drainBy)
	readWG.Wait()
	if !sp.kv {
		s.waitOrders(drainBy)
	}

	s.ops.each(func(id int64, r *opRec) {
		if r.phase == phaseOpen && r.visible.Load() != 0 {
			p.visible = append(p.visible, sample{at: r.due, ms: float64(r.visible.Load()-r.due) / 1e6})
		}
	})
	p.opsTotal = s.ops.len()
	p.framesNet = s.netFrames()

	p.oracle = s.audit(p)
	if s.tr != nil {
		p.spans = s.tr.finish()
	}
	return p, nil
}

// submit issues one generated client op due at due.
func (s *stack) submit(rng *rand.Rand, due int64, phase uint8, seqNo int) (int64, error) {
	if s.sp.kv {
		o := rng.Intn(s.sp.n)
		put := rng.Float64() < s.sp.putFrac
		key := uint32(rng.Intn(s.sp.keys))
		val := rng.Int63n(1000)
		if !put {
			val = 1 + rng.Int63n(9)
		}
		return s.submitKV(o, put, key, val, due, phase)
	}
	member := seqNo % s.sp.n
	id, err := s.ops.alloc(due, phase, s.sp.n)
	if err != nil {
		return 0, err
	}
	sp := s.tr.begin(spTotalASend, member, id)
	// A refused op is never applied; the drain counts it as lost.
	_, _ = s.seqs[member].ASend(opASend, message.KindNonCommutative, idBody(id, 1), message.After())
	sp.end()
	return id, nil
}

func (s *stack) submitKV(o int, put bool, key uint32, val int64, due int64, phase uint8) (int64, error) {
	id, err := s.ops.alloc(due, phase, s.sp.n)
	if err != nil {
		return 0, err
	}
	s.gen[o] = append(s.gen[o], genOp{put: put, key: key, val: val})
	op, kind := opAdd, message.KindCommutative
	if put {
		op, kind = opPut, message.KindNonCommutative
	}
	sp := s.tr.begin(spCoreSubmit, o, id)
	_, _ = s.fes[o].Submit(op, kind, kvBody(id, key, val))
	sp.end()
	return id, nil
}

// openLoop issues ops at the workload's fixed rate (and, in the open
// phase, deferred reads at the read rate) from start to end. Every op is
// timed from its due time, however late the generator gets to it.
func (s *stack) openLoop(ctx context.Context, p *pass, rng *rand.Rand, seqNo int, start, end int64, phase uint8, readWG *sync.WaitGroup) int {
	opGap := 1e9 / s.sp.rate
	readGap := 0.0
	if readWG != nil && s.sp.readRate > 0 {
		readGap = 1e9 / s.sp.readRate
	}
	var nOps, nReads int
	for {
		opDue := start + int64(float64(nOps)*opGap)
		due := opDue
		isRead := false
		if readGap > 0 {
			if rd := start + int64((float64(nReads)+0.5)*readGap); rd < opDue {
				due, isRead = rd, true
			}
		}
		if due >= end {
			return seqNo
		}
		sleepUntil(due)
		if isRead {
			nReads++
			s.read(ctx, p, rng.Intn(s.sp.n), rng.Intn(s.sp.n), readWG)
			continue
		}
		nOps++
		if phase == phaseOpen {
			p.late = append(p.late, float64(now()-due)/1e6)
		}
		if _, err := s.submit(rng, due, phase, seqNo); err != nil {
			return seqNo
		}
		seqNo++
	}
}

// read issues one deferred read at member m on object o.
func (s *stack) read(ctx context.Context, p *pass, m, o int, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		rep := s.reps[m][o]
		rr := readRes{member: m, obj: o, boundary: rep.Cycle()}
		sp := s.tr.begin(spCoreRead, m, -1)
		t0 := now()
		rr.at = t0
		st, cycle, err := rep.ReadDeferred(ctx)
		rr.ms = float64(now()-t0) / 1e6
		sp.end()
		rr.cycle, rr.err = cycle, err
		if err == nil {
			rr.digest = st.Digest()
		}
		s.readMu.Lock()
		p.reads = append(p.reads, rr)
		s.readMu.Unlock()
	}()
}

// peak keeps a fixed window of ops outstanding from now until end; an op
// leaves the window when it is applied at every member. It records, per
// window of the phase, the ops completed and the CPU spent.
func (s *stack) peak(p *pass, rng *rand.Rand, seqNo int, end int64) {
	slots := s.slots
	alloc0, gc0, tot0 := runtimeCounters()
	var bounds [windows + 1]int64
	var cpus [windows + 1]float64
	bounds[0], cpus[0] = now(), cpuTime().Seconds()
	step := (end - bounds[0]) / windows
	stopped := false
	for w := 1; w <= windows; w++ {
		wEnd := bounds[0] + int64(w)*step
		timer := time.NewTimer(time.Duration(wEnd - now()))
	window:
		for !stopped && now() < wEnd {
			select {
			case slots <- struct{}{}:
				if _, err := s.submit(rng, now(), phasePeak, seqNo); err != nil {
					stopped = true
				}
				seqNo++
			case <-timer.C:
				break window
			}
		}
		timer.Stop()
		bounds[w], cpus[w] = now(), cpuTime().Seconds()
	}
	alloc1, gc1, tot1 := runtimeCounters()
	p.allocB = alloc1 - alloc0
	p.gcFrac = ratio(gc1-gc0, tot1-tot0)
	for w := 0; w < windows; w++ {
		p.peakSecs[w] = float64(bounds[w+1]-bounds[w]) / 1e9
		p.peakCPU[w] = cpus[w+1] - cpus[w]
	}
	s.ops.each(func(_ int64, r *opRec) {
		v := r.visible.Load()
		if r.phase != phasePeak || v == 0 {
			return
		}
		for w := 0; w < windows; w++ {
			if v >= bounds[w] && v < bounds[w+1] {
				p.peakOps[w]++
			}
		}
	})
}

// runtimeCounters reads cumulative heap allocation bytes, GC CPU seconds
// and total CPU seconds from the runtime.
func runtimeCounters() (allocBytes, gcCPU, totalCPU float64) {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	return val(0), val(1), val(2)
}

// lockClient loops Acquire → deposit → Release at one member until
// stopped, checking in-process that no two clients hold the lock at once.
// Rounds start at the workload's lock rate (back to back when a round
// overruns), so lock traffic is the same amount on every run.
func (p *pass) lockClient(ctx context.Context, member int, stop *atomic.Bool, mu *sync.Mutex, openStart, openEnd int64) {
	s := p.stack
	arb := s.arbs[member]
	gap := time.Duration(1e9 / s.sp.lockRate)
	next := time.Now()
	for !stop.Load() {
		// A runtime timer, not sleepUntil: a round's start need not be
		// exact, and a thread parked in the kernel keeps its processor
		// from the stack until the runtime takes it back.
		time.Sleep(time.Until(next))
		next = next.Add(gap)
		if late := time.Now().Add(-gap); next.Before(late) {
			next = late
		}
		sp := s.tr.begin(spLockAcquire, member, -1)
		t0 := now()
		actx, cancel := context.WithTimeout(ctx, 10*time.Second)
		_, err := arb.Acquire(actx)
		cancel()
		got := now()
		sp.end()
		atomic.AddInt64(&p.acquires, 1)
		if err != nil {
			atomic.AddInt64(&p.acquireErrs, 1)
			return
		}
		if s.holders.Add(1) != 1 {
			atomic.AddInt64(&p.exclusion, 1)
		}
		id, err := s.ops.alloc(got, phaseLock, s.sp.n)
		amount := 1 + id%7
		if err == nil {
			if _, err := s.seqs[member].ASend(opDeposit, message.KindNonCommutative, idBody(id, amount), message.After()); err == nil {
				atomic.AddInt64(&p.deposited, amount)
			}
		}
		s.holders.Add(-1)
		held := now()
		rsp := s.tr.begin(spLockRelease, member, -1)
		relErr := arb.Release()
		rsp.end()
		mu.Lock()
		if t0 >= openStart && t0 < openEnd {
			p.locks = append(p.locks, sample{at: t0, ms: float64(got-t0) / 1e6})
		}
		p.holds = append(p.holds, float64(held-got)/1e6)
		mu.Unlock()
		if relErr != nil {
			atomic.AddInt64(&p.acquireErrs, 1)
			return
		}
	}
}

// waitVisible polls until op id is applied at every member.
func (s *stack) waitVisible(id int64, d time.Duration) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if r := s.ops.get(id); r != nil && r.visible.Load() != 0 {
			return true
		}
		time.Sleep(200 * time.Microsecond)
	}
	return false
}

// waitAll polls until every op is applied everywhere or the deadline.
func (s *stack) waitAll(deadline time.Time) {
	from := int64(0)
	for time.Now().Before(deadline) {
		n := s.ops.len()
		for from < n && s.ops.get(from).remaining.Load() <= 0 {
			from++
		}
		if from == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// waitOrders polls until every member's total-order log has the same
// length for several consecutive polls (lock traffic settles after the
// last client op).
func (s *stack) waitOrders(deadline time.Time) {
	steady := 0
	last := -1
	for time.Now().Before(deadline) && steady < 5 {
		same := true
		l0 := s.orderLen(0)
		for i := 1; i < len(s.orders); i++ {
			if s.orderLen(i) != l0 {
				same = false
			}
		}
		if same && l0 == last {
			steady++
		} else {
			steady = 0
		}
		last = l0
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *stack) orderLen(i int) int {
	lg := s.orders[i]
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return len(lg.labels)
}

// netFrames is the raw transport's frame count (every destination copy).
func (s *stack) netFrames() uint64 {
	if s.chanNet != nil {
		return s.chanNet.Stats().Sent
	}
	return s.netReg.Snapshot().Get("transport_frames_sent_total")
}

// stablePoints returns object o's stable-point histories by member.
func (s *stack) stablePoints(o int) map[string][]core.StablePoint {
	h := make(map[string][]core.StablePoint, len(s.members))
	for i, m := range s.members {
		h[m] = s.reps[i][o].StablePoints()
	}
	return h
}
