package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"pgssi"
)

// smokeParams shrinks a workload until a run takes well under a second:
// the transactions, checks and metrics are the real ones, the numbers
// mean nothing.
func smokeParams(t *testing.T, name string) params {
	t.Helper()
	sp, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	sp.rows = min(sp.rows, 4000)
	sp.warmup = 100
	return params{spec: sp, seed: 7, window: 200 * time.Millisecond, setups: 1,
		level: pgssi.Serializable, outDir: t.TempDir(), probe: 10 * time.Millisecond}
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

func sortedKeys(m map[string]metric) []string {
	var ks []string
	for k, v := range m {
		ks = append(ks, k+" "+v.Unit)
	}
	sort.Strings(ks)
	return ks
}

// TestSmoke runs every workload both ways and holds the metrics it
// reports to the names and units BENCHMARK.json promises.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and runs timed windows")
	}
	bf := loadBenchmarkFile(t)
	var wantE2E, wantLayer []string
	for _, m := range bf.EndToEnd {
		wantE2E = append(wantE2E, m.Name+" "+m.Unit)
	}
	for _, m := range bf.PerLayer {
		wantLayer = append(wantLayer, m.Name+" "+m.Unit)
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(specs))
	}
	for i, wl := range bf.Workloads {
		if wl.Name != specs[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, wl.Name, specs[i].name)
		}
		name := specs[i].name
		t.Run(name, func(t *testing.T) {
			for _, run := range []struct {
				kind string
				fn   func(params) (*report, error)
				want []string
			}{{"measured", runMeasured, wantE2E}, {"traced", runTraced, wantLayer}} {
				r, err := run.fn(smokeParams(t, name))
				if err != nil {
					t.Fatalf("%s run: %v", run.kind, err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Errorf("%s run: correct=%v (%s), %d of %d transactions failed", run.kind, r.Correct, r.CheckError, r.Failed, r.Attempted)
				}
				if got := sortedKeys(r.Metrics); strings.Join(got, "\n") != strings.Join(run.want, "\n") {
					t.Errorf("%s run reports\n%s\nBENCHMARK.json promises\n%s", run.kind, strings.Join(got, "\n"), strings.Join(run.want, "\n"))
				}
				for k, m := range r.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s run: %s = %v", run.kind, k, m.Value)
					}
				}
			}
		})
	}
}

// TestSkewHotCheckBites runs skew_hot's clients under snapshot
// isolation, which admits write skew: the invariant check must notice.
func TestSkewHotCheckBites(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a timed window")
	}
	p := smokeParams(t, "skew_hot")
	p.level = pgssi.RepeatableRead
	p.window = 500 * time.Millisecond
	r, err := runMeasured(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct {
		t.Errorf("%d transactions under snapshot isolation and the on-call invariant still holds: the check cannot bite", r.Attempted)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, tps ...float64) string {
		var buf bytes.Buffer
		for _, v := range tps {
			b, err := json.Marshal(report{Workload: "kv_uniform", Metrics: map[string]metric{"tps": {v, "txn/s"}}})
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(b, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := write("steady", 1000, 1001, 1002, 1003, 1004)
	for _, tc := range []struct {
		name    string
		other   string
		verdict string
	}{
		{"same", write("same", 1003, 1004, 1002, 1001, 1005), "same"},
		{"better", write("better", 1100, 1101, 1102, 1103, 1104), "better"},
		{"worse", write("worse", 500, 501, 502, 503, 504), "worse"},
		{"unresolved", write("noisy", 500, 1000, 1500, 2000, 2500), "unresolved"},
	} {
		var out bytes.Buffer
		if err := compareFiles(&out, filepath.Join("..", "BENCHMARK.json"), steady, tc.other); err != nil {
			t.Fatal(err)
		}
		rows := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(rows) != 2 || !strings.HasSuffix(rows[1], tc.verdict) {
			t.Errorf("%s: want one row ending in %q, got\n%s", tc.name, tc.verdict, out.String())
		}
	}
	// Python's statistics.quantiles(v, n=4) gives [2, 8, 32] for the
	// first, [1.25, 3.5, 5.75] for the second and [0, 3, 6] for the third.
	for _, tc := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{64, 1, 8, 2, 32, 4, 16}, 30},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 4.5},
		{[]float64{1, 5}, 6},
	} {
		if got := iqr(tc.v); got != tc.want {
			t.Errorf("iqr(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
}
