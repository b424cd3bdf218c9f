package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile mirrors the keys of BENCHMARK.json the tests compare.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

type lastLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runShort runs one workload for a short pass and parses the last line.
func runShort(t *testing.T, name string, traced bool) lastLine {
	t.Helper()
	res, err := run(specs[name], 7, 1.5, traced, t.TempDir())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var buf bytes.Buffer
	printResult(&buf, res)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var ll lastLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &ll); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", name, err)
	}
	if ll.Attempted < 1 {
		t.Fatalf("%s: attempted %d", name, ll.Attempted)
	}
	return ll
}

// TestMetricsMatchBenchmarkFile runs every workload BENCHMARK.json lists,
// untraced and traced, and checks that the last line carries exactly the
// metrics it lists, with its units. The program's other workloads are the
// ones left out of BENCHMARK.json (see README.md).
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchmark(t)
	if len(b.Workloads)+len(leftOut) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads and %d are left out, the program has %d", len(b.Workloads), len(leftOut), len(specs))
	}
	for _, w := range b.Workloads {
		if _, ok := specs[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json workload %q unknown to the program", w.Name)
		}
		if _, ok := leftOut[w.Name]; ok {
			t.Fatalf("BENCHMARK.json lists %q, which the program marks as left out", w.Name)
		}
		for _, traced := range []bool{false, true} {
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			ll := runShort(t, w.Name, traced)
			if len(ll.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json lists %d", w.Name, traced, len(ll.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := ll.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: %s unit %q, BENCHMARK.json says %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; gated metrics must never be 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestSmoke runs each workload briefly and checks its oracles: the kv
// workloads must be clean; on asend-locks the only failures allowed are
// total-order disagreements, the known ASend delivery race.
func TestSmoke(t *testing.T) {
	for name, sp := range specs {
		t.Run(name, func(t *testing.T) {
			p, err := runPass(sp, 3, 1, false, 1, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			o := p.oracle
			if o.attempted < 100 || p.peakTotal() == 0 || len(p.visible) == 0 {
				t.Fatalf("too little work: attempted=%d peak=%d open=%d", o.attempted, p.peakTotal(), len(p.visible))
			}
			if o.failed != o.disagreements {
				t.Fatalf("oracle failures beyond order disagreements: %+v", o)
			}
			if sp.kv && o.failed != 0 {
				t.Fatalf("kv workload failed %d: %v", o.failed, o.notes)
			}
		})
	}
}
