package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"causalshare/internal/causal"
	"causalshare/internal/core"
	"causalshare/internal/flightrec"
	"causalshare/internal/group"
	"causalshare/internal/lockarb"
	"causalshare/internal/message"
	"causalshare/internal/reliable"
	"causalshare/internal/telemetry"
	"causalshare/internal/total"
	"causalshare/internal/trace"
	"causalshare/internal/transport"
	"causalshare/internal/wal"
)

// spec fixes one workload's stack and load.
type spec struct {
	name     string
	n        int
	rate     float64 // open-loop client ops/s
	readRate float64 // open-loop deferred reads/s (kv workloads)
	keys     int     // keys per kv object
	putFrac  float64 // share of non-commutative Puts among kv ops
	locks    int     // lock-client goroutines (asend-locks)
	lockRate float64 // lock rounds per second per lock client
	window   int     // outstanding ops in the closed-loop peak phase
	// traceSample: a traced run records one op in traceSample with all
	// its spans, which keeps the span store small at high op rates.
	traceSample int64
	kv          bool
	// plane arms the production layers: reliable links, a telemetry
	// registry and a WAL per member, the trace collector with a flight
	// recorder per member, and heartbeat failure detection.
	plane bool
	// tcp runs the members on TCPNet loopback with 1% seeded send-side
	// drop instead of ChanNet, and arms OSend's anti-entropy (adverts and
	// fetches) to recover what the reliable links give up on.
	tcp bool
}

var specs = map[string]spec{
	"kv-stable":      {name: "kv-stable", n: 8, rate: 3000, readRate: 600, keys: 1000, putFrac: 0.1, window: 64, traceSample: 1, kv: true},
	"asend-locks":    {name: "asend-locks", n: 4, rate: 10000, locks: 2, lockRate: 250, window: 64, traceSample: 8},
	"prod-chan":      {name: "prod-chan", n: 8, rate: 3000, readRate: 600, keys: 16, putFrac: 0.1, window: 512, traceSample: 1, kv: true, plane: true},
	"prod-tcp-lossy": {name: "prod-tcp-lossy", n: 8, rate: 1500, readRate: 600, keys: 16, putFrac: 0.1, window: 64, traceSample: 1, kv: true, plane: true, tcp: true},
}

// leftOut names the workloads BENCHMARK.json does not list, with the
// reason (README.md, "Workloads left out"). They run by name, with every
// oracle armed, and print "correct": false when a defect shows.
var leftOut = map[string]string{
	// The sequencer delivers a released batch after unlocking, so the
	// leader's own self-delivery races its receive goroutine.
	"asend-locks": "the program fails its total-order oracle on every run",
	// An advert makes a member fetch its own in-flight op from a peer; the
	// fetched copy is delivered on the receive goroutine while the
	// member's next broadcast self-delivers on the caller's.
	"prod-tcp-lossy": "the program fails its stable-point oracle in about one run in ten",
}

const (
	opASend   = "acct.op"
	opDeposit = "acct.deposit"
)

// orderLog is one member's total-order delivery sequence.
type orderLog struct {
	mu     sync.Mutex
	labels []message.Label
}

// stack is one workload's running cluster plus the benchmark's view of it.
type stack struct {
	sp      spec
	tr      *tracer // nil on untraced runs
	members []string
	grp     *group.Group
	ops     *opTable
	slots   chan struct{} // the peak phase's window of outstanding ops

	engines []*causal.OSend
	conns   []*tracedConn // lowest traced conn per member (traced runs)

	// kv workloads: member i's front-end owns object i; every member holds
	// a replica of every object.
	fes     []*core.FrontEnd
	reps    [][]*core.Replica // [member][object]
	initial []kvState
	gen     [][]genOp // per object, in submission order
	objOf   map[string]int

	// asend-locks
	seqs     []*total.Sequencer
	arbs     []*lockarb.Arbiter
	orders   []*orderLog
	balances []atomic.Int64
	// orderWait: per member, when each data op reached Sequencer.Ingest
	// (traced runs only), and the ingest→ordered-delivery waits.
	ingestMu   sync.Mutex
	ingestAt   []map[int64]int64
	orderWaits []float64

	// measurement plumbing
	chanNet    *transport.ChanNet
	tcpNet     *transport.TCPNet
	netReg     *telemetry.Registry
	regs       []*telemetry.Registry // per member (nil entries allowed)
	obsReg     *telemetry.Registry
	collector  *trace.Collector
	flight     *flightrec.Set
	wals       []*wal.WAL
	walDir     string
	runners    []*group.Runner
	suspicions atomic.Int64
	readMu     sync.Mutex
	holders    atomic.Int64

	closeOnce sync.Once
}

type genOp struct {
	put bool
	key uint32
	val int64
}

// buildStack wires the workload's layers through their public
// constructors. workDir holds the WAL segments of the production layers.
func buildStack(sp spec, seed int64, tr *tracer, workDir string) (*stack, error) {
	s := &stack{sp: sp, tr: tr, ops: &opTable{}, slots: make(chan struct{}, sp.window)}
	// A peak-phase op leaves the closed loop's window when the last member
	// applies it.
	s.ops.onVisible = func(r *opRec) {
		if r.phase == phasePeak {
			<-s.slots
		}
	}
	for i := 0; i < sp.n; i++ {
		s.members = append(s.members, fmt.Sprintf("m%d", i))
	}
	s.grp = group.MustNew("bench", s.members)
	build := s.buildASend
	if sp.kv {
		build = func() error { return s.buildKV(seed, workDir) }
	}
	if err := build(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// attach returns member i's connection, with the traced wrappers in
// place on traced runs.
func (s *stack) attach(i int, net transport.Network) (transport.Conn, error) {
	conn, err := net.Attach(s.members[i])
	if err != nil {
		return nil, err
	}
	if s.tr == nil {
		return conn, nil
	}
	tc, ok := wrapConn(conn, s.tr, spTransportSend, i)
	if !ok {
		_ = conn.Close()
		return nil, fmt.Errorf("transport conn %T lacks an optional interface the wrapper mirrors", conn)
	}
	s.conns = append(s.conns, tc)
	return tc, nil
}

func (s *stack) buildKV(seed int64, workDir string) error {
	sp := s.sp
	n := sp.n
	rng := rand.New(rand.NewSource(seed))
	s.initial = make([]kvState, n)
	for o := range s.initial {
		st := make(kvState, sp.keys)
		for k := 0; k < sp.keys; k++ {
			st[uint32(k)] = rng.Int63n(1000)
		}
		s.initial[o] = st
	}
	s.gen = make([][]genOp, n)
	s.objOf = make(map[string]int, n)
	for i, m := range s.members {
		s.objOf[m+"~c"] = i
	}
	s.regs = make([]*telemetry.Registry, n)
	var net transport.Network
	if sp.plane {
		// The production layers: reliable links, a telemetry registry and
		// a WAL per member, the always-on trace collector feeding one
		// flight recorder per member, and heartbeat failure detection.
		s.obsReg = telemetry.NewRegistry()
		s.collector = trace.NewCollector(trace.Config{SampleEvery: 1, Telemetry: s.obsReg})
		s.flight = flightrec.NewSet(flightrec.Config{Telemetry: s.obsReg})
		s.collector.SetFlight(s.flight)
		s.walDir = workDir
	}
	if sp.tcp {
		// TCP loopback with seeded send-side loss.
		s.netReg = telemetry.NewRegistry()
		s.tcpNet = transport.NewTCPNetWithConfig(transport.TCPConfig{
			// No flush window: it parks each peer's writer on a runtime
			// timer, which an idle process rounds up to whole milliseconds.
			FlushWindow: 0,
			Faults:      transport.FaultModel{DropProb: 0.01, Seed: seed},
			Telemetry:   s.netReg,
		})
		net = s.tcpNet
	} else {
		s.chanNet = transport.NewChanNet(transport.FaultModel{MaxDelay: 500 * time.Microsecond, Seed: seed})
		net = s.chanNet
	}
	s.reps = make([][]*core.Replica, n)
	for i, id := range s.members {
		i := i
		var reg *telemetry.Registry
		var box *flightrec.Recorder
		var wlog *wal.WAL
		tracer := s.collector.Tracer(id)
		if sp.plane {
			reg = telemetry.NewRegistry()
			s.regs[i] = reg
			box = s.flight.For(id)
			w, err := wal.Open(wal.Options{Dir: filepath.Join(s.walDir, id), Policy: wal.PolicyAsync, SegmentBytes: 64 << 20, Telemetry: reg})
			if err != nil {
				return err
			}
			s.wals = append(s.wals, w)
			wlog = w
		}
		conn, err := s.attach(i, net)
		if err != nil {
			return err
		}
		// The reliability sublayer's hooks may fire from its ticker before
		// the engine they drive exists; engRef publishes it safely.
		var engRef atomic.Pointer[causal.OSend]
		patience := time.Duration(0)
		if sp.plane {
			// The link settings cmd/causalsim arms: prompt acks and a wide
			// window, with shedding reserved for peers silent for seconds.
			rconn := reliable.Wrap(conn, s.grp.Others(id), reliable.Config{
				Window:       512,
				AckEvery:     8,
				Tick:         2 * time.Millisecond,
				StallTimeout: 2 * time.Second,
				ShedAfter:    5 * time.Second,
				Seed:         seed*int64(n+1) + int64(i) + 1,
				Telemetry:    reg,
				Flight:       box,
				OnSuspect: func(peer string) {
					s.suspicions.Add(1)
					if e := engRef.Load(); e != nil {
						e.MarkDown(peer, true)
					}
				},
				OnResync: func(peer string) {
					if e := engRef.Load(); e != nil {
						e.MarkDown(peer, false)
						_ = e.SyncWith(peer)
					}
				},
			})
			conn = rconn
			if s.tr != nil {
				tc, ok := wrapConn(rconn, s.tr, spReliableSend, i)
				if !ok {
					return fmt.Errorf("reliable conn lacks an optional interface the wrapper mirrors")
				}
				conn = tc
			}
			if sp.tcp {
				patience = 20 * time.Millisecond
			}
		}
		s.reps[i] = make([]*core.Replica, n)
		for o := 0; o < n; o++ {
			r, err := core.NewReplica(core.ReplicaConfig{
				Self:      fmt.Sprintf("%s/o%d", id, o),
				Initial:   s.initial[o],
				Apply:     kvApply,
				Telemetry: reg,
				Tracer:    tracer,
				Flight:    box,
			})
			if err != nil {
				return err
			}
			s.reps[i][o] = r
		}
		eng, err := causal.NewOSend(causal.OSendConfig{
			Self:      id,
			Group:     s.grp,
			Conn:      conn,
			Deliver:   s.kvDeliver(i),
			Patience:  patience,
			Telemetry: reg,
			Tracer:    tracer,
			Flight:    box,
			Journal:   wlog,
		})
		if err != nil {
			_ = conn.Close()
			return err
		}
		engRef.Store(eng)
		s.engines = append(s.engines, eng)
		var b causal.Broadcaster = eng
		if s.tr != nil {
			b = &tracedBroadcaster{Broadcaster: eng, t: s.tr, member: i}
		}
		fe, err := core.NewFrontEnd("c", b)
		if err != nil {
			return err
		}
		s.fes = append(s.fes, fe)
	}
	if sp.plane {
		for _, id := range s.members {
			tracker := group.NewTracker(s.grp)
			tracker.Subscribe(func(_ string, up bool) {
				if !up {
					s.suspicions.Add(1)
				}
			})
			r, err := group.StartRunner(tracker, id, net, 20*time.Millisecond, time.Second)
			if err != nil {
				return err
			}
			s.runners = append(s.runners, r)
		}
	}
	return nil
}

// kvDeliver routes member i's causal deliveries to the replica of the
// object named by the label's origin, and marks the op applied there.
func (s *stack) kvDeliver(i int) causal.DeliverFunc {
	return func(m message.Message) {
		o, ok := s.objOf[m.Label.Origin]
		if !ok {
			return
		}
		name := spCoreApply
		if m.Kind == message.KindNonCommutative {
			name = spCoreCloser
		}
		sp := s.tr.begin(name, i, msgID(m))
		s.reps[i][o].Deliver(m)
		sp.end()
		s.ops.applied(bodyID(m.Body))
	}
}

func (s *stack) buildASend() error {
	n := s.sp.n
	s.chanNet = transport.NewChanNet(transport.FaultModel{})
	s.orders = make([]*orderLog, n)
	s.balances = make([]atomic.Int64, n)
	s.regs = make([]*telemetry.Registry, n)
	if s.tr != nil {
		s.ingestAt = make([]map[int64]int64, n)
		for i := range s.ingestAt {
			s.ingestAt[i] = make(map[int64]int64)
		}
	}
	for i, id := range s.members {
		i := i
		reg := telemetry.NewRegistry()
		s.regs[i] = reg
		s.orders[i] = &orderLog{}
		var arb *lockarb.Arbiter
		seq, err := total.NewSequencer(total.Config{
			Self:           id,
			Group:          s.grp,
			Deliver:        s.totalDeliver(i, &arb),
			HeartbeatEvery: 20 * time.Millisecond,
			FailTimeout:    time.Second,
			Telemetry:      reg,
		})
		if err != nil {
			return err
		}
		s.seqs = append(s.seqs, seq)
		conn, err := s.attach(i, s.chanNet)
		if err != nil {
			return err
		}
		ingest := causal.DeliverFunc(seq.Ingest)
		if s.tr != nil {
			ingest = func(m message.Message) {
				id := msgID(m)
				if id >= 0 {
					s.ingestMu.Lock()
					if _, seen := s.ingestAt[i][id]; !seen {
						s.ingestAt[i][id] = now()
					}
					s.ingestMu.Unlock()
				}
				sp := s.tr.begin(spTotalIngest, i, id)
				seq.Ingest(m)
				sp.end()
			}
		}
		eng, err := causal.NewOSend(causal.OSendConfig{
			Self:     id,
			Group:    s.grp,
			Conn:     conn,
			Deliver:  ingest,
			Patience: 20 * time.Millisecond, // adverts prune retained history
		})
		if err != nil {
			_ = conn.Close()
			return err
		}
		s.engines = append(s.engines, eng)
		var b causal.Broadcaster = eng
		if s.tr != nil {
			b = &tracedBroadcaster{Broadcaster: eng, t: s.tr, member: i}
		}
		seq.Bind(b)
		arb, err = lockarb.NewArbiter(lockarb.Config{Self: id, Group: s.grp, Layer: seq})
		if err != nil {
			return err
		}
		s.arbs = append(s.arbs, arb)
	}
	for _, a := range s.arbs {
		if err := a.Start(); err != nil {
			return err
		}
	}
	return nil
}

// totalDeliver is member i's total-order callback: it logs the delivered
// sequence, feeds lock traffic to the arbiter and applies deposits.
func (s *stack) totalDeliver(i int, arb **lockarb.Arbiter) causal.DeliverFunc {
	return func(m message.Message) {
		id := msgID(m)
		sp := s.tr.begin(spTotalDeliver, i, id)
		lg := s.orders[i]
		lg.mu.Lock()
		lg.labels = append(lg.labels, m.Label)
		lg.mu.Unlock()
		switch {
		case strings.HasPrefix(m.Op, "lockarb."):
			(*arb).Ingest(m)
		case m.Op == opDeposit:
			s.balances[i].Add(int64(bodyAmount(m.Body)))
		}
		sp.end()
		if id >= 0 {
			if s.ingestAt != nil {
				s.ingestMu.Lock()
				if t, ok := s.ingestAt[i][id]; ok {
					s.orderWaits = append(s.orderWaits, float64(now()-t)/1e6)
					delete(s.ingestAt[i], id)
				}
				s.ingestMu.Unlock()
			}
			s.ops.applied(id)
		}
	}
}

func bodyAmount(b []byte) uint64 {
	if len(b) < 16 {
		return 0
	}
	return binary.LittleEndian.Uint64(b[8:])
}

// close tears the cluster down and waits for every goroutine it started.
func (s *stack) close() {
	s.closeOnce.Do(func() {
		// Members close at once, as separate processes would. Closed one
		// after another, a TCP member's Close can wait forever: it waits
		// for a read loop on a connection a peer dialed while it was
		// closing, and that peer, still open, never hangs up.
		closeEach(len(s.runners), func(i int) { _ = s.runners[i].Close() })
		for _, a := range s.arbs {
			_ = a.Close()
		}
		for _, q := range s.seqs {
			_ = q.Close()
		}
		closeEach(len(s.engines), func(i int) { _ = s.engines[i].Close() })
		for _, w := range s.wals {
			_ = w.Close()
		}
		if s.chanNet != nil {
			_ = s.chanNet.Close()
		}
		if s.tcpNet != nil {
			_ = s.tcpNet.Close()
		}
		if s.walDir != "" {
			_ = os.RemoveAll(s.walDir)
		}
	})
}

// closeEach runs close(i) for i in [0, n) concurrently and waits for all.
func closeEach(n int, close func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			close(i)
		}()
	}
	wg.Wait()
}
