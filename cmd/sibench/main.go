// Command sibench regenerates Figure 4: SIBENCH throughput for SSI,
// SSI without read-only optimizations, and S2PL, normalized to snapshot
// isolation, as a function of table size.
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

func main() {
	sizes := flag.String("sizes", "10,100,1000,10000", "comma-separated table sizes")
	workers := flag.Int("workers", 4, "closed-loop worker goroutines")
	dur := flag.Duration("duration", 2*time.Second, "measurement duration per point")
	partitions := flag.Int("partitions", 0, "SIREAD lock-table partitions (0 = engine default, 1 = single mutex)")
	scanRows := flag.Int("scanrows", 0, "cap each query transaction's scan at this many rows (0 = full-table scans)")
	flag.Parse()

	var rows []int
	for _, s := range strings.Split(*sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			log.Fatalf("bad size %q: %v", s, err)
		}
		rows = append(rows, n)
	}

	series, err := workload.Figure4Scan(rows, *scanRows, pgssi.Config{Partitions: *partitions}, workload.RunOptions{
		Workers: *workers, Duration: *dur, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Figure 4 — SIBENCH throughput normalized to SI")
	fmt.Printf("%8s  %12s  %8s  %12s  %8s\n", "rows", "SI (txn/s)", "SSI", "SSI no r/o", "S2PL")
	for _, row := range series {
		fmt.Printf("%8d  %12.0f  %7.2fx  %11.2fx  %7.2fx\n",
			row.Rows, row.SI, row.SSI, row.SSINoRO, row.S2PL)
	}
}
