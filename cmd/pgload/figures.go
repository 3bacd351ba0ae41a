package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"pgssi"
	"pgssi/internal/workload"
)

// sibench regenerates Figure 4: SIBENCH throughput under each regime,
// normalized to snapshot isolation, as a function of table size.
func sibench(args []string) {
	fs := flag.NewFlagSet("sibench", flag.ExitOnError)
	sizes := fs.String("sizes", "10,100,1000,10000", "comma-separated table sizes")
	workers := fs.Int("workers", 4, "closed-loop worker goroutines")
	dur := fs.Duration("duration", 2*time.Second, "measurement duration per point")
	partitions := fs.Int("partitions", 0, "SIREAD lock-table partitions (0 = engine default, 1 = single mutex)")
	scanRows := fs.Int("scanrows", 0, "cap each query transaction's scan at this many rows (0 = full-table scans)")
	fs.Parse(args)

	var rows []int
	for _, s := range strings.Split(*sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			log.Fatalf("bad size %q: %v", s, err)
		}
		rows = append(rows, n)
	}
	for _, n := range rows {
		b := workload.SIBench{Rows: n, ScanRows: *scanRows}
		res, err := workload.Sweep(pgssi.Config{Partitions: *partitions}, workload.Regimes, func(db *pgssi.DB) (*workload.Mix, error) {
			return b.Mix(), b.Setup(db)
		}, workload.Options{Workers: *workers, Duration: *dur, Seed: 1})
		report(fmt.Sprintf("Figure 4 — SIBENCH, %d rows (%d workers)", n, *workers), workload.Regimes, res, err)
	}
}

// dbt2 regenerates Figure 5: DBT-2++ throughput against the read-only
// fraction under each regime, for the in-memory (5a) and simulated
// disk-bound (5b) configurations.
func dbt2(args []string) {
	fs := flag.NewFlagSet("dbt2", flag.ExitOnError)
	config := fs.String("config", "memory", `"memory" (Figure 5a) or "disk" (Figure 5b)`)
	warehouses := fs.Int("warehouses", 0, "warehouse count (default: 4 memory, 8 disk)")
	workers := fs.Int("workers", 0, "workers (default: 4 memory, 16 disk)")
	dur := fs.Duration("duration", 2*time.Second, "measurement duration per point")
	fs.Parse(args)

	var cfg pgssi.Config
	figure, wh, wk := "5a", 4, 4
	regimes := workload.Regimes
	switch *config {
	case "memory":
	case "disk":
		cfg = pgssi.Config{IODelay: 100 * time.Microsecond, CacheMissRatio: 0.3}
		figure, wh, wk = "5b", 8, 16
		regimes = withoutNoRO(regimes) // Figure 5b omits the no-r/o series
	default:
		log.Fatalf("unknown -config %q", *config)
	}
	if *warehouses > 0 {
		wh = *warehouses
	}
	if *workers > 0 {
		wk = *workers
	}

	for _, f := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0} {
		res, err := workload.Sweep(cfg, regimes, func(db *pgssi.DB) (*workload.Mix, error) {
			b := workload.DefaultDBT2(wh)
			return b.Mix(f), b.Setup(db)
		}, workload.Options{Workers: wk, Duration: *dur, Seed: 2})
		report(fmt.Sprintf("Figure %s — DBT-2++, %.0f%% read-only (%d warehouses, %d workers)", figure, f*100, wh, wk), regimes, res, err)
	}
}

// rubis regenerates Figure 6: RUBiS bidding-mix throughput and
// serialization failure rates under SI, SSI and S2PL.
func rubis(args []string) {
	fs := flag.NewFlagSet("rubis", flag.ExitOnError)
	users := fs.Int("users", 1000, "registered users")
	items := fs.Int("items", 2000, "active auctions")
	cats := fs.Int("categories", 20, "item categories")
	workers := fs.Int("workers", 4, "closed-loop workers")
	dur := fs.Duration("duration", 3*time.Second, "measurement duration")
	fs.Parse(args)

	regimes := withoutNoRO(workload.Regimes) // Figure 6 has three rows
	res, err := workload.Sweep(pgssi.Config{}, regimes, func(db *pgssi.DB) (*workload.Mix, error) {
		r := &workload.RUBiS{Users: *users, Items: *items, Categories: *cats}
		return r.Mix(), r.Setup(db)
	}, workload.Options{Workers: *workers, Duration: *dur, Seed: 3})
	report("Figure 6 — RUBiS bidding mix (85% read-only)", regimes, res, err)
}

// deferrable regenerates the §8.4 experiment: the latency for a
// SERIALIZABLE READ ONLY DEFERRABLE transaction to obtain a safe
// snapshot while a DBT-2++ workload runs under SSI.
func deferrable(args []string) {
	fs := flag.NewFlagSet("deferrable", flag.ExitOnError)
	warehouses := fs.Int("warehouses", 4, "DBT-2++ scale factor")
	workers := fs.Int("workers", 8, "background workers")
	dur := fs.Duration("duration", 5*time.Second, "background run duration")
	interval := fs.Duration("interval", 50*time.Millisecond, "delay between deferrable probes")
	fs.Parse(args)

	db := pgssi.Open(pgssi.Config{})
	defer db.Close()
	b := workload.DefaultDBT2(*warehouses)
	if err := b.Setup(db); err != nil {
		log.Fatal(err)
	}
	ssi := workload.Regime{Name: "SSI", Level: pgssi.Serializable}
	lat, bg := workload.MeasureDeferrable(db, b.Mix(0.08), workload.Options{
		Level: ssi.Level, Workers: *workers, Duration: *dur, Seed: 4,
	}, *interval, nil)

	report(fmt.Sprintf("§8.4 — DBT-2++ background (%d warehouses, %d workers)", *warehouses, *workers), []workload.Regime{ssi}, []workload.Result{bg}, nil)
	fmt.Printf("deferrable safe-snapshot latency over %d samples:\n", lat.Count())
	fmt.Printf("  median %v   p90 %v   max %v\n", lat.Quantile(0.5), lat.Quantile(0.9), lat.Max())
	fmt.Println("(paper §8.4: median 1.98 s, p90 6 s, max 20 s against a much")
	fmt.Println(" larger disk-bound system; the reproduction target is latency of")
	fmt.Println(" the order of a few concurrent-transaction lifetimes)")
}

// withoutNoRO drops the SSI-without-read-only-optimizations regime, for
// the figures that do not plot it.
func withoutNoRO(regimes []workload.Regime) []workload.Regime {
	var out []workload.Regime
	for _, r := range regimes {
		if !r.DisableReadOnlyOpt {
			out = append(out, r)
		}
	}
	return out
}

// report prints one sweep as the figure table titled title — per regime,
// committed txn/s, throughput relative to the SI regime ("-" without
// one), and the share of attempts that failed with a serialization
// error — and fails the command if the sweep failed (err) or any run hit
// a non-retryable error.
func report(title string, regimes []workload.Regime, res []workload.Result, err error) {
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(title)
	var si float64
	for i, r := range regimes {
		if r.Level == pgssi.RepeatableRead {
			si = res[i].Throughput()
		}
	}
	var errs int64
	fmt.Printf("  %-12s %10s %7s %9s\n", "regime", "txn/s", "×SI", "fail%")
	for i, r := range res {
		rel := "-"
		if si > 0 {
			rel = fmt.Sprintf("%.2fx", r.Throughput()/si)
		}
		fmt.Printf("  %-12s %10.0f %7s %8.3f%%\n", regimes[i].Name, r.Throughput(), rel, 100*r.AttemptFailureRate())
		errs += r.Errors
	}
	if errs > 0 {
		log.Fatalf("%d non-retryable errors", errs)
	}
}
