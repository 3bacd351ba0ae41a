package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the comparison and the
// smoke test read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(b, &bf)
}

// readRuns reads the measured runs of a result file — one JSON object
// per run, as the files in out/ concatenate — and groups each metric's
// values by workload.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	dec := json.NewDecoder(f)
	for {
		var r report
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			return runs, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace {
			continue
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			runs[r.Workload][name] = append(runs[r.Workload][name], m.Value)
		}
	}
}

// iqr is the distance between the first and third quartile, computed as
// Python's statistics.quantiles(v, n=4) computes them (the pipeline's
// measure of spread); 0 for fewer than two values.
func iqr(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(len(s)+1)/4, 1), len(s)-1)
		delta := float64(i*(len(s)+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(3) - q(1)
}

// compareFiles prints one row per workload and end-to-end metric: the
// median of each side with its spread (interquartile distance as a share
// of the median) and number of runs, the change as a share of the old
// median, the bound, and a verdict:
//
//	unresolved  either side's spread is wider than the bound
//	worse       the new median is worse than the old by more than the bound
//	better      it is better by more than the old side's own spread
//	same        anything else
func compareFiles(w io.Writer, benchmarkPath, oldPath, newPath string) error {
	bf, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		return err
	}
	olds, err := readRuns(oldPath)
	if err != nil {
		return err
	}
	news, err := readRuns(newPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median (spread, runs)\tnew median (spread, runs)\tchange vs old\tbound\tverdict")
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			a, b := olds[wl.Name][m.Name], news[wl.Name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			sa, sb := iqr(a)/ma, iqr(b)/mb
			change := (mb - ma) / ma
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "same"
			switch {
			case max(sa, sb) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
			case worse < 0 && -worse > sa:
				verdict = "better"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s (%.1f%%, %d)\t%.6g %s (%.1f%%, %d)\t%+.1f%% of %.6g\t%.0f%%\t%s\n",
				wl.Name, m.Name, ma, m.Unit, 100*sa, len(a), mb, m.Unit, 100*sb, len(b), 100*change, ma, 100*m.Bound, verdict)
		}
	}
	return tw.Flush()
}
