// Command causalsim runs a live replicated-counter scenario on the real
// stack (front-end protocol → causal broadcast engine → in-process faulty
// network → replicas) and reports the stable-point audit plus engine
// metrics. It is the quickest way to see the paper's headline property:
// replicas disagree mid-activity and provably agree at every stable
// point, with zero agreement traffic.
//
// Usage:
//
//	causalsim [-n 5] [-cycles 20] [-fgamma 20] [-engine osend|cbcast|pccast]
//	          [-drop 0.1] [-jitter 5ms] [-seed 7]
//	          [-wal-dir /tmp/sim-wal] [-wal-sync each|interval|async]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"causalshare/internal/causal"
	"causalshare/internal/core"
	"causalshare/internal/flightrec"
	"causalshare/internal/group"
	"causalshare/internal/obs"
	"causalshare/internal/reliable"
	"causalshare/internal/shareddata"
	"causalshare/internal/telemetry"
	"causalshare/internal/transport"
	"causalshare/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "causalsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("causalsim", flag.ContinueOnError)
	n := fs.Int("n", 5, "group size")
	cycles := fs.Int("cycles", 20, "causal activities to run")
	fgamma := fs.Int("fgamma", 20, "commutative operations per activity")
	engine := fs.String("engine", "osend", "causal engine: osend, cbcast or pccast")
	drop := fs.Float64("drop", 0.1, "frame drop probability")
	jitter := fs.Duration("jitter", 5*time.Millisecond, "max network latency")
	seed := fs.Int64("seed", 7, "fault model seed")
	dot := fs.Bool("dot", false, "print the extracted dependency graph in Graphviz dot syntax")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /vars and /trace on this address during the run (e.g. :9090)")
	walDir := fs.String("wal-dir", "", "journal every member's deliveries to a write-ahead log under this directory (one subdirectory per member)")
	walSync := fs.String("wal-sync", "interval", "WAL sync policy: each, interval or async (with -wal-dir)")
	version := fs.Bool("version", false, "print the binary version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println(telemetry.Version())
		return nil
	}

	reg := telemetry.NewRegistry()
	ring := telemetry.NewRing(4096)
	transport.RegisterPoolMetrics(reg)
	// Every member gets a black-box flight recorder; with -metrics-addr the
	// boxes are dumpable over /flightrec/<member> while the run is live.
	flight := flightrec.NewSet(flightrec.Config{Telemetry: reg})
	if *metricsAddr != "" {
		srv, err := telemetry.Serve(*metricsAddr, reg, ring,
			telemetry.Healthz(fmt.Sprintf("causalsim(%s,n=%d)", *engine, *n)),
			flight.Route())
		if err != nil {
			return err
		}
		defer func() { _ = srv.Close() }()
		fmt.Printf("telemetry: serving http://%s/metrics\n", srv.Addr())
	}

	ids := make([]string, *n)
	for i := range ids {
		ids[i] = fmt.Sprintf("r%02d", i)
	}
	grp, err := group.New("counter", ids)
	if err != nil {
		return err
	}
	net := transport.NewChanNetObserved(transport.FaultModel{
		DropProb: *drop,
		MaxDelay: *jitter,
		Seed:     *seed,
	}, reg)
	defer func() { _ = net.Close() }()

	// With -wal-dir every member journals its deliveries to a real on-disk
	// write-ahead log (one directory per member, DESIGN.md §15); an
	// existing log is extended, so repeated runs against the same
	// directory accumulate one continuous history per member.
	var walPolicy wal.Policy
	if *walDir != "" {
		var err error
		if walPolicy, err = wal.ParsePolicy(*walSync); err != nil {
			return err
		}
	}

	trace := obs.NewTrace()
	replicas := make(map[string]*core.Replica, *n)
	var engines []causal.Broadcaster
	var wlogs []*wal.WAL
	defer func() {
		for _, e := range engines {
			_ = e.Close()
		}
		for _, w := range wlogs {
			_ = w.Close()
		}
	}()
	for _, id := range ids {
		box := flight.For(id)
		var wlog *wal.WAL
		if *walDir != "" {
			var err error
			wlog, err = wal.Open(wal.Options{
				Dir:       filepath.Join(*walDir, id),
				Policy:    walPolicy,
				Telemetry: reg,
			})
			if err != nil {
				return err
			}
			wlogs = append(wlogs, wlog)
		}
		rep, err := core.NewReplica(core.ReplicaConfig{
			Self:      id,
			Initial:   shareddata.NewCounter(0),
			Apply:     shareddata.ApplyCounter,
			Telemetry: reg,
			Trace:     ring,
			Flight:    box,
		})
		if err != nil {
			return err
		}
		replicas[id] = rep
		conn, err := net.Attach(id)
		if err != nil {
			return err
		}
		deliver := trace.Observer(id, rep.Deliver)
		var eng causal.Broadcaster
		switch *engine {
		case "osend":
			eng, err = causal.NewOSend(causal.OSendConfig{
				Self: id, Group: grp, Conn: conn, Deliver: deliver,
				Patience:  10 * time.Millisecond,
				Telemetry: reg,
				Trace:     ring,
				Flight:    box,
				Journal:   wlog,
			})
		case "cbcast":
			eng, err = causal.NewCBCast(causal.CBCastConfig{
				Self: id, Group: grp, Conn: conn, Deliver: deliver,
				Patience:  10 * time.Millisecond,
				Telemetry: reg,
				Flight:    box,
				Journal:   wlog,
			})
		case "pccast":
			// PC-cast needs reliable per-pair FIFO links: repair the lossy
			// jittery default network below the engine instead of above it.
			rconn := reliable.Wrap(conn, grp.Others(id), reliable.Config{
				Window:       512,
				AckEvery:     8,
				Tick:         2 * time.Millisecond,
				StallTimeout: 2 * time.Second,
				ShedAfter:    5 * time.Second,
				Seed:         *seed,
				Telemetry:    reg,
				Flight:       box,
			})
			eng, err = causal.NewPCCast(causal.PCCastConfig{
				Self: id, Group: grp, Conn: rconn, Deliver: deliver,
				Patience:  10 * time.Millisecond,
				Telemetry: reg,
				Trace:     ring,
				Flight:    box,
				Journal:   wlog,
			})
		default:
			return fmt.Errorf("unknown engine %q", *engine)
		}
		if err != nil {
			return err
		}
		engines = append(engines, eng)
	}

	fe, err := core.NewFrontEnd("cli", engines[0])
	if err != nil {
		return err
	}
	total := 0
	start := time.Now()
	for c := 0; c < *cycles; c++ {
		for k := 0; k < *fgamma; k++ {
			op := shareddata.Inc()
			if k%2 == 1 {
				op = shareddata.Dec()
			}
			if _, err := fe.Submit(op.Op, op.Kind, op.Body); err != nil {
				return err
			}
			total++
		}
		rd := shareddata.Read()
		if _, err := fe.Submit(rd.Op, rd.Kind, rd.Body); err != nil {
			return err
		}
		total++
	}

	// Wait for every replica to apply everything.
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := true
		for _, rep := range replicas {
			if rep.Applied() < uint64(total) {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas did not converge within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)

	histories := make(map[string][]core.StablePoint, *n)
	for id, rep := range replicas {
		histories[id] = rep.StablePoints()
	}
	audit := obs.AuditStablePoints(histories)
	if err := trace.VerifyAll(); err != nil {
		return fmt.Errorf("causal delivery violated: %w", err)
	}
	delivered, err := trace.SameDeliverySet()
	if err != nil {
		return fmt.Errorf("delivery sets diverged: %w", err)
	}
	g, err := trace.ExtractGraph()
	if err != nil {
		return err
	}

	fmt.Printf("scenario: %d replicas, %d activities x %d commutative ops, engine=%s drop=%.0f%% jitter=%s\n",
		*n, *cycles, *fgamma, *engine, *drop*100, *jitter)
	fmt.Printf("ran in %s; %d messages delivered at every replica\n", elapsed.Round(time.Millisecond), delivered)
	fmt.Printf("causal delivery: OK at every replica (every OccursAfter respected)\n")
	fmt.Printf("stable points audited: %d, agreement: %v\n", audit.Points, audit.Consistent())
	if !audit.Consistent() {
		fmt.Printf("divergence: %s\n", audit.Divergence)
	}
	fmt.Printf("extracted stable graph: %d nodes, mean antichain width %.2f\n", g.Len(), g.MeanWidth())
	if *dot {
		fmt.Println(g.DOT("causalsim"))
	}
	report, err := core.AnalyzeTrace(trace.Sequence(ids[0]), shareddata.ApplyCounter, shareddata.NewCounter(0), 720)
	if err != nil {
		return fmt.Errorf("trace analysis: %w", err)
	}
	fmt.Printf("trace analysis: %d activities (mean size %.1f), transition-preserving: %v\n",
		report.Activities, report.MeanActivitySize, report.Conforms())
	st, cycle := replicas[ids[0]].ReadStable()
	fmt.Printf("final stable state at cycle %d: %s\n", cycle, st.Digest())
	netStats := net.Stats()
	fmt.Printf("network: sent=%d delivered=%d dropped=%d duplicated=%d\n",
		netStats.Sent, netStats.Delivered, netStats.Dropped, netStats.Duplicated)
	snap := reg.Snapshot()
	fmt.Printf("telemetry: frames_sent=%d causal_delivered=%d stable_points=%d trace_events=%d (of %d recorded)\n",
		snap.Get("transport_frames_sent_total"), snap.Get("causal_osend_delivered_total"),
		snap.Get("core_stable_points_total"), ring.Len(), ring.Len()+int(ring.Dropped()))
	if *walDir != "" {
		// Force the tails to stable storage before reporting: a summary
		// that precedes the fsync would overstate what a crash keeps.
		for _, w := range wlogs {
			if err := w.Sync(); err != nil {
				return fmt.Errorf("wal sync: %w", err)
			}
		}
		wsnap := reg.Snapshot()
		fmt.Printf("durability: %d members journaled to %s (sync=%s): appends=%d bytes=%d syncs=%d\n",
			len(wlogs), *walDir, walPolicy,
			wsnap.Get("wal_appends_total"), wsnap.Get("wal_append_bytes_total"), wsnap.Get("wal_syncs_total"))
	}
	if o, ok := engines[0].(*causal.OSend); ok {
		// The engines share one registry, so these are group-wide totals
		// (and the group-wide holdback high-water mark).
		s := o.Snapshot()
		maxBuffered, _ := s.GaugeValue("causal_osend_pending_depth_max", "")
		fmt.Printf("engine[osend, all members]: delivered=%d maxBuffered=%d duplicates=%d fetches=%d\n",
			s.Get("causal_osend_delivered_total"), maxBuffered,
			s.Get("causal_osend_duplicates_total"), s.Get("causal_osend_fetches_total"))
	}
	if audit.Consistent() {
		fmt.Printf("RESULT: all %d replicas agreed at every one of %d stable points with zero agreement messages\n",
			*n, audit.Points)
	}
	return nil
}
