// Command bench is the repository's benchmark: it starts the engine and
// internal/server in this process, configured as cmd/pgssid configures
// them, and drives them over loopback TCP with two closed-loop clients.
//
//	go run ./bench -workload kv_uniform -seed 1             measured run
//	go run ./bench -workload kv_uniform -seed 1 -trace 1    traced run
//	go run ./bench -compare old.jsonl new.jsonl             compare two sets of runs
//
// A measured run prints every end-to-end metric, a traced run every
// per-layer metric, as "name{workload} value unit"; the last line of
// output is the result as one JSON object. See README.md beside this
// file for what the metrics and workloads are and why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pgssi"
)

func main() {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
		seed    = flag.Uint64("seed", 1, "seed of the request generator; the server sees only the requests")
		seconds = flag.Int("seconds", 15, "length of the timed window (a traced run splits it into four passes)")
		trace   = flag.Int("trace", 0, "0 = measured run, end-to-end metrics; 1 = traced run, per-layer metrics")
		outDir  = flag.String("out", "bench/out", "directory for result files and the durable workload's data")
		si      = flag.Bool("si", false, "run the clients at RepeatableRead (snapshot isolation): skew_hot's check must then fail")
		compare = flag.Bool("compare", false, "compare the runs in two result files: -compare old.jsonl new.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		if err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	sp, ok := specByName(*name)
	if !ok || flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	p := params{spec: sp, seed: *seed, window: time.Duration(*seconds) * time.Second,
		setups: 3, level: pgssi.Serializable, outDir: *outDir, probe: 300 * time.Millisecond}
	if *si {
		p.level = pgssi.RepeatableRead
	}
	run := runMeasured
	if *trace == 1 {
		run = runTraced
	}
	r, err := run(p)
	if err != nil {
		fatal(err)
	}
	r.print(os.Stdout)
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", last)
	if !r.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
