// Command perfbench drives the causalshare stack end to end through the
// layers' public constructors and reports client-visible metrics, or, on
// a traced run, per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// An untraced run drives untracedPasses fresh stacks, each for an equal
// share of --seconds, and reports the median over them: one stack's
// throughput and CPU per op keep an offset for its whole life, so a run
// that samples one stack reports that offset. Each pass builds its stack trialsPerPass times; setup_s is the
// median over all those set-ups.
const (
	untracedPasses = 3
	trialsPerPass  = 5
)

func main() {
	workload := flag.String("workload", "", "workload name: kv-stable, prod-chan, asend-locks or prod-tcp-lossy")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "run length; an untraced run splits it over 3 passes, each warm-up 10%, open loop 40%, peak 50%")
	traced := flag.Int("trace", 0, "1: run untraced then traced and report per-layer metrics")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench-work"), "scratch directory for WAL segments")
	flag.Parse()
	sp, ok := specs[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *workload)
		os.Exit(2)
	}
	if why, ok := leftOut[sp.name]; ok {
		fmt.Fprintf(os.Stderr, "perfbench: %s is left out of BENCHMARK.json: %s (README.md)\n", sp.name, why)
	}
	workDir := filepath.Join(*work, fmt.Sprint(os.Getpid()))
	defer os.RemoveAll(workDir)
	out, err := run(sp, *seed, *seconds, *traced == 1, workDir)
	if err != nil {
		os.RemoveAll(workDir)
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(os.Stdout, out)
}

// result is one invocation's output.
type result struct {
	workload  string
	correct   bool
	attempted int64
	failed    int64
	report    []metric // everything measured, printed by name
	json      []metric // the metrics the last line carries
	notes     []string
}

type metric struct {
	name    string
	unit    string
	value   float64
	samples int // 0 when the metric is not a sampled timing
}

func run(sp spec, seed int64, seconds float64, traced bool, workDir string) (*result, error) {
	if !traced {
		res := &result{workload: sp.name, correct: true}
		var reports [][]metric
		var setups []float64
		for k := 0; k < untracedPasses; k++ {
			p, err := runPass(sp, seed, seconds/untracedPasses, false, trialsPerPass, workDir)
			if err != nil {
				return nil, err
			}
			res.correct = res.correct && p.oracle.failed == 0
			res.attempted += p.oracle.attempted
			res.failed += p.oracle.failed
			res.notes = append(res.notes, p.oracle.notes...)
			reports = append(reports, append(endToEnd(p), clientReport(p)...))
			setups = append(setups, p.setup...)
		}
		res.report = medianOver(reports)
		for i, m := range res.report {
			switch m.name {
			case "setup_s":
				res.report[i].value, res.report[i].samples = median(setups), len(setups)
			case "failed_frac":
				res.report[i].value = ratio(float64(res.failed), float64(res.attempted))
			}
		}
		res.json = pick(res.report, endToEndNames)
		return res, nil
	}
	u, err := runPass(sp, seed, seconds, false, 1, workDir)
	if err != nil {
		return nil, err
	}
	t, err := runPass(sp, seed, seconds, true, 1, workDir)
	if err != nil {
		return nil, err
	}
	layers, framesOK, note := perLayer(t, u)
	res := &result{
		workload:  sp.name,
		correct:   u.oracle.failed == 0 && t.oracle.failed == 0 && framesOK,
		attempted: u.oracle.attempted + t.oracle.attempted,
		failed:    u.oracle.failed + t.oracle.failed,
		report:    append(append(endToEnd(t), clientReport(t)...), layers...),
		json:      dropNames(layers, leftOutLayers),
		notes:     append(append([]string{note}, u.oracle.notes...), t.oracle.notes...),
	}
	return res, nil
}

// endToEndNames are the metrics BENCHMARK.json gates, in its order. The
// other latencies and failed_frac are printed on every run too, but not
// gated: see README.md.
var endToEndNames = []string{"setup_s", "peak_ops_s", "cpu_us_per_op", "heap_live_mb", "read_p50_ms"}

// leftOutLayers are the per-layer metrics that only the workloads left
// out of BENCHMARK.json exercise (README.md, "Workloads left out"). Every
// traced run still reports them; the last line does not carry them.
var leftOutLayers = map[string]bool{
	"causal.fetches_per_op":          true,
	"transport.tcp_frames_per_flush": true,
	"total.asend_p50_us":             true,
	"total.order_wait_p50_ms":        true,
	"total.order_wait_p99_ms":        true,
	"total.pending_max":              true,
	"total.elections":                true,
	"total.order_disagreements":      true,
	"lockarb.grants_per_s":           true,
	"lockarb.hold_p50_ms":            true,
}

func dropNames(ms []metric, names map[string]bool) []metric {
	var out []metric
	for _, m := range ms {
		if !names[m.name] {
			out = append(out, m)
		}
	}
	return out
}

// medianOver merges the same metric lists from several passes: each
// value is the median over the passes, each sample count their sum.
func medianOver(passes [][]metric) []metric {
	out := append([]metric(nil), passes[0]...)
	for i := range out {
		var vs []float64
		out[i].samples = 0
		for _, ms := range passes {
			vs = append(vs, ms[i].value)
			out[i].samples += ms[i].samples
		}
		out[i].value = median(vs)
	}
	return out
}

func pick(ms []metric, names []string) []metric {
	by := make(map[string]metric, len(ms))
	for _, m := range ms {
		by[m.name] = m
	}
	out := make([]metric, 0, len(names))
	for _, n := range names {
		if m, ok := by[n]; ok {
			out = append(out, m)
		}
	}
	return out
}

func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "workload %s\n", r.workload)
	for _, m := range r.report {
		if m.samples > 0 {
			fmt.Fprintf(w, "  %-30s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
		} else {
			fmt.Fprintf(w, "  %-30s %14.4f %s\n", m.name, m.value, m.unit)
		}
	}
	for _, n := range r.notes {
		if n != "" {
			fmt.Fprintf(w, "  note: %s\n", n)
		}
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(r.json))
	for _, m := range r.json {
		ms[m.name] = val{Value: m.value, Unit: m.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	fmt.Fprintln(w, string(line))
}
