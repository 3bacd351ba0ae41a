package pgssi_test

import (
	"fmt"
	"os"
	"testing"
	"time"

	"pgssi"
	"pgssi/internal/workload"
)

// This file regenerates every figure and table of the paper's evaluation
// (§8) as Go benchmarks. Each sub-benchmark is one point of a figure:
// one (workload parameter, concurrency-control regime) pair, reporting
// committed transactions per second and the serialization failure
// percentage via b.ReportMetric. The pgload sibench, dbt2, rubis and
// deferrable subcommands print the same sweeps as tables normalized to
// SI (cmd/pgload).
//
// Durations are deliberately short so `go test -bench=.` completes in
// minutes; set PGSSI_BENCH_MS (per-point milliseconds) for longer, less
// noisy runs.

func benchDuration() time.Duration {
	if ms := os.Getenv("PGSSI_BENCH_MS"); ms != "" {
		var n int
		if _, err := fmt.Sscanf(ms, "%d", &n); err == nil && n > 0 {
			return time.Duration(n) * time.Millisecond
		}
	}
	return 400 * time.Millisecond
}

func reportResult(b *testing.B, res workload.Result) {
	b.ReportMetric(res.Throughput(), "txn/s")
	b.ReportMetric(100*res.AttemptFailureRate(), "fail%")
	if res.Errors > 0 {
		b.Fatalf("%d hard errors", res.Errors)
	}
}

// benchRegime runs one point of a figure: setup's mix under regime rg
// on a fresh database configured from base.
func benchRegime(b *testing.B, base pgssi.Config, rg workload.Regime, setup func(*pgssi.DB) (*workload.Mix, error), opts workload.Options) {
	for i := 0; i < b.N; i++ {
		res, err := workload.Sweep(base, []workload.Regime{rg}, setup, opts)
		if err != nil {
			b.Fatal(err)
		}
		reportResult(b, res[0])
	}
}

// BenchmarkFigure4 is the SIBENCH sweep of §8.1: transaction throughput
// vs table size for each regime. Normalize each size's series to its SI
// point to recover the figure's y-axis.
func BenchmarkFigure4(b *testing.B) {
	for _, rows := range []int{10, 100, 1000, 10000} {
		for _, rg := range workload.Regimes {
			b.Run(fmt.Sprintf("rows=%d/%s", rows, rg.Name), func(b *testing.B) {
				si := workload.SIBench{Rows: rows}
				benchRegime(b, pgssi.Config{}, rg, func(db *pgssi.DB) (*workload.Mix, error) {
					return si.Mix(), si.Setup(db)
				}, workload.Options{Workers: 4, Duration: benchDuration(), Seed: 4})
			})
		}
	}
}

// benchmarkFigure5 runs the DBT-2++ read-only-fraction sweep of §8.2
// under the given storage configuration.
func benchmarkFigure5(b *testing.B, base pgssi.Config, warehouses, workers int) {
	for _, ro := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0} {
		for _, rg := range workload.Regimes {
			b.Run(fmt.Sprintf("ro=%.0f%%/%s", ro*100, rg.Name), func(b *testing.B) {
				benchRegime(b, base, rg, func(db *pgssi.DB) (*workload.Mix, error) {
					w := workload.DefaultDBT2(warehouses)
					return w.Mix(ro), w.Setup(db)
				}, workload.Options{Workers: workers, Duration: benchDuration(), Seed: 5})
			})
		}
	}
}

// BenchmarkFigure5a is the in-memory DBT-2++ configuration (paper: 25
// warehouses on tmpfs, 4 threads; scaled here to 4 warehouses).
func BenchmarkFigure5a(b *testing.B) {
	benchmarkFigure5(b, pgssi.Config{}, 4, 4)
}

// BenchmarkFigure5b is the disk-bound DBT-2++ configuration (paper: 150
// warehouses on a RAID array, 36 threads; reproduced with a simulated
// per-page I/O delay and more workers than cores so transactions overlap
// under I/O waits).
func BenchmarkFigure5b(b *testing.B) {
	benchmarkFigure5(b, pgssi.Config{IODelay: 100 * time.Microsecond, CacheMissRatio: 0.3}, 8, 16)
}

// BenchmarkFigure6 is the RUBiS bidding-mix table of §8.3: absolute
// throughput and serialization failure rate for SI, SSI, and S2PL.
func BenchmarkFigure6(b *testing.B) {
	for _, rg := range workload.Regimes {
		if rg.DisableReadOnlyOpt {
			continue // Figure 6 has three rows
		}
		b.Run(rg.Name, func(b *testing.B) {
			benchRegime(b, pgssi.Config{}, rg, func(db *pgssi.DB) (*workload.Mix, error) {
				r := &workload.RUBiS{Users: 500, Items: 1000, Categories: 20}
				return r.Mix(), r.Setup(db)
			}, workload.Options{Workers: 4, Duration: benchDuration(), Seed: 6})
		})
	}
}

// BenchmarkDeferrable is the §8.4 experiment: latency to acquire a safe
// snapshot for a SERIALIZABLE READ ONLY DEFERRABLE transaction while the
// DBT-2++ mix (standard 8% read-only) runs.
func BenchmarkDeferrable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := pgssi.Open(pgssi.Config{})
		w := workload.DefaultDBT2(2)
		if err := w.Setup(db); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, bg := workload.MeasureDeferrable(db, w.Mix(0.08), workload.Options{
			Level: pgssi.Serializable, Workers: 8, Duration: 4 * benchDuration(), Seed: 8,
		}, 20*time.Millisecond, nil)
		if bg.Errors > 0 {
			b.Fatalf("%d hard errors", bg.Errors)
		}
		b.ReportMetric(float64(res.Quantile(0.5).Microseconds())/1000, "median-ms")
		b.ReportMetric(float64(res.Quantile(0.9).Microseconds())/1000, "p90-ms")
		b.ReportMetric(float64(res.Max().Microseconds())/1000, "max-ms")
		b.ReportMetric(float64(res.Count()), "samples")
	}
}

// BenchmarkAblationCommitOrdering quantifies the §3.3.1 commit-ordering
// optimization: SIBENCH at a contended size, with and without it, the
// difference showing up as false-positive aborts.
func BenchmarkAblationCommitOrdering(b *testing.B) {
	for _, mode := range []struct {
		name  string
		hooks pgssi.Hooks
	}{
		{"with-commit-ordering", pgssi.Hooks{}},
		{"basic-SSI", pgssi.Hooks{DisableCommitOrderingOpt: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db := pgssi.OpenWithHooks(pgssi.Config{}, mode.hooks)
				si := workload.SIBench{Rows: 50}
				if err := si.Setup(db); err != nil {
					b.Fatal(err)
				}
				reportResult(b, workload.Run(si.Mix(), workload.InProcess(db), workload.Options{
					Level: pgssi.Serializable, Workers: 8, Duration: benchDuration(), Seed: 10,
				}))
				db.Close()
			}
		})
	}
}

// BenchmarkAblationSummarization sweeps the committed-transaction budget
// (§6.2): smaller budgets force summarization, trading memory for
// false-positive aborts. The long-running reader prevents cleanup, as in
// the paper's motivating scenario.
func BenchmarkAblationSummarization(b *testing.B) {
	for _, budget := range []int{8, 64, 1 << 14} {
		b.Run(fmt.Sprintf("maxCommitted=%d", budget), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := pgssi.Config{MaxCommittedXacts: budget}
				db := pgssi.Open(cfg)
				si := workload.SIBench{Rows: 200}
				if err := si.Setup(db); err != nil {
					b.Fatal(err)
				}
				// A long-running reader pins cleanup for the whole
				// measurement interval.
				pin, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := pin.Get("sibench", "k000000"); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res := workload.Run(si.Mix(), workload.InProcess(db), workload.Options{
					Level: pgssi.Serializable, Workers: 4, Duration: benchDuration(), Seed: 11,
				})
				b.StopTimer()
				pin.Rollback()
				b.StartTimer()
				reportResult(b, res)
				st := db.SSIStats()
				b.ReportMetric(float64(st.Summarized), "summarized")
			}
		})
	}
}

// BenchmarkLockManager measures raw SIREAD lock-path overhead: the cost
// a Serializable point read pays over a snapshot-isolation read.
func BenchmarkLockManager(b *testing.B) {
	for _, lv := range []struct {
		name  string
		level pgssi.IsolationLevel
	}{{"SI-read", pgssi.RepeatableRead}, {"SSI-read", pgssi.Serializable}} {
		b.Run(lv.name, func(b *testing.B) {
			db := pgssi.Open(pgssi.Config{})
			si := workload.SIBench{Rows: 1000}
			if err := si.Setup(db); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx, err := db.Begin(pgssi.TxOptions{Isolation: lv.level})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tx.Get("sibench", fmt.Sprintf("k%06d", i%1000)); err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLockManagerParallel measures lock-table contention: parallel
// workers each run Serializable transactions of 8 point reads over a
// shared table, with the SIREAD lock table at 1 partition (the old
// single-mutex scheme) versus the partitioned default. The §8 contention
// analysis predicts the single partition serializes every read of every
// worker on one mutex.
//
// The scan shape drives the same contended table through the range-scan
// read path — a 128-row scan per transaction — so the lock path's
// O(pages) behaviour shows up in this benchmark's mutex profile next to
// the point-read shape's O(rows) (profile one shape at a time:
// `-bench 'BenchmarkLockManagerParallel/partitions=16/scan128'`).
func BenchmarkLockManagerParallel(b *testing.B) {
	const readsPerTxn = 8
	for _, parts := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("partitions=%d", parts), func(b *testing.B) {
			db := pgssi.Open(pgssi.Config{Partitions: parts})
			si := workload.SIBench{Rows: 1000}
			if err := si.Setup(db); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
					if err != nil {
						b.Fatal(err)
					}
					for r := 0; r < readsPerTxn; r++ {
						i++
						if _, err := tx.Get("sibench", fmt.Sprintf("k%06d", i%1000)); err != nil {
							b.Fatal(err)
						}
					}
					if err := tx.Commit(); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
		b.Run(fmt.Sprintf("partitions=%d/scan128", parts), func(b *testing.B) {
			db := pgssi.Open(pgssi.Config{Partitions: parts})
			si := workload.SIBench{Rows: 1000}
			if err := si.Setup(db); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
					if err != nil {
						b.Error(err)
						return
					}
					i++
					lo := fmt.Sprintf("k%06d", (i*128)%872)
					hi := fmt.Sprintf("k%06d", (i*128)%872+128)
					n := 0
					if err := tx.Scan("sibench", lo, hi, func(string, []byte) bool {
						n++
						return true
					}); err != nil {
						b.Error(err)
						return
					}
					if n != 128 {
						b.Errorf("scan saw %d rows, want 128", n)
						return
					}
					if err := tx.Commit(); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkPartitionSweep is the SIBENCH sweep of the lock-table
// partition count: the full update/query mix at a contended size with
// ≥4 workers, 1 partition versus the partitioned default.
func BenchmarkPartitionSweep(b *testing.B) {
	for _, parts := range []int{1, 16} {
		for _, workers := range []int{4, 8} {
			b.Run(fmt.Sprintf("partitions=%d/workers=%d", parts, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					db := pgssi.Open(pgssi.Config{Partitions: parts})
					si := workload.SIBench{Rows: 1000}
					if err := si.Setup(db); err != nil {
						b.Fatal(err)
					}
					reportResult(b, workload.Run(si.Mix(), workload.InProcess(db), workload.Options{
						Level: pgssi.Serializable, Workers: workers, Duration: benchDuration(), Seed: 12,
					}))
					db.Close()
				}
			})
		}
	}
}

// BenchmarkScanParallel measures the serializable scan read path:
// parallel workers each run one whole-table Serializable scan per
// transaction — streamed leaf by leaf, one shared page latch and one
// batched lock-manager call per heap page. The rows axis controls how
// many heap pages a scan crosses (64 rows ≈ 1 page, 1000 ≈ 16). The
// nightly workflow archives this benchmark with a mutex profile next to
// the lock-contention, lifecycle, and snapshot artifacts.
func BenchmarkScanParallel(b *testing.B) {
	for _, rows := range []int{64, 1000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			db := pgssi.Open(pgssi.Config{})
			si := workload.SIBench{Rows: rows}
			if err := si.Setup(db); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
					if err != nil {
						b.Error(err)
						return
					}
					n := 0
					if err := tx.Scan("sibench", "", "", func(string, []byte) bool {
						n++
						return true
					}); err != nil {
						b.Error(err)
						return
					}
					if n != rows {
						b.Errorf("scan saw %d rows, want %d", n, rows)
						return
					}
					if err := tx.Commit(); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkScanPath times the storage read path alone, in process and
// single-threaded, in the three shapes the repository's benchmark drives
// over TCP (bench/: scan_readmostly's report and adjust, kv_uniform's
// Get): a 1000-row read-only scan on a safe snapshot, a 100-row tracked
// scan followed by two Puts, and a point Get on a million rows — and a
// tracked 1000-row scan of a table whose every row was updated once, in
// scattered order, before the clock started: a row keeps its heap page,
// so this costs what the scan of a freshly loaded table costs (locks/scan
// ≈ 17 page locks + the index leaves'); if updates ever move rows again,
// locks/scan and ns/row grow with the table's update history. Run with
// -benchmem: the scans' allocations must not grow with their range. The
// nightly workflow archives it with the other scan benchmarks.
func BenchmarkScanPath(b *testing.B) {
	load := func(b *testing.B, rows int) (*pgssi.DB, []string) {
		db := pgssi.Open(pgssi.Config{})
		b.Cleanup(func() { db.Close() })
		if err := db.CreateTable("kv"); err != nil {
			b.Fatal(err)
		}
		keys := make([]string, rows)
		for lo := 0; lo < rows; lo += 10000 {
			tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.ReadCommitted})
			if err != nil {
				b.Fatal(err)
			}
			for i := lo; i < min(lo+10000, rows); i++ {
				keys[i] = workload.LoadKey(i)
				if err := tx.Insert("kv", keys[i], []byte("0123456789abcdef")); err != nil {
					b.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
		return db, keys
	}
	scan := func(b *testing.B, tx *pgssi.Tx, keys []string, lo, n int) {
		got := 0
		if err := tx.Scan("kv", keys[lo], keys[lo+n], func(string, []byte) bool { got++; return true }); err != nil || got != n {
			b.Fatalf("scan of %d rows returned %d: %v", n, got, err)
		}
	}
	b.Run("report-1000-safe", func(b *testing.B) {
		db, keys := load(b, 100_000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable, ReadOnly: true})
			if err != nil {
				b.Fatal(err)
			}
			scan(b, tx, keys, (i*7919)%(len(keys)-1001), 1000)
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1000, "ns/row")
	})
	b.Run("adjust-100-tracked-2put", func(b *testing.B) {
		db, keys := load(b, 100_000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
			if err != nil {
				b.Fatal(err)
			}
			lo := (i * 7919) % (len(keys) - 101)
			scan(b, tx, keys, lo, 100)
			for _, k := range []string{keys[lo+i%100], keys[lo+(i+37)%100]} {
				if err := tx.Put("kv", k, []byte("fedcba9876543210")); err != nil {
					b.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("after-updates", func(b *testing.B) {
		db, keys := load(b, 100_000)
		for lo := 0; lo < len(keys); lo += 10000 {
			tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.ReadCommitted})
			if err != nil {
				b.Fatal(err)
			}
			for i := lo; i < lo+10000; i++ {
				if err := tx.Update("kv", keys[i*7919%len(keys)], []byte("fedcba9876543210")); err != nil {
					b.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
		locks := db.SSIStats().LocksAcquired
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Not read-only: a read-only transaction begun on an idle
			// database is safe at once and registers nothing.
			tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
			if err != nil {
				b.Fatal(err)
			}
			scan(b, tx, keys, (i*7919)%(len(keys)-1001), 1000)
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(db.SSIStats().LocksAcquired-locks)/float64(b.N), "locks/scan")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1000, "ns/row")
	})
	b.Run("get-1M", func(b *testing.B) {
		db, keys := load(b, 1_000_000)
		tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead, ReadOnly: true})
		if err != nil {
			b.Fatal(err)
		}
		defer tx.Rollback()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tx.Get("kv", keys[(i*7919+i/3)%len(keys)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSnapshotParallel measures snapshot-path contention: parallel
// workers run single-read transactions — every transaction pays one
// Begin, one TakeSnapshot, one visibility-checked read, and one Commit —
// while a pool of long-running transactions stays open, so any snapshot
// cost that grew with the active set would show here (a CSN snapshot is
// one atomic load). The sub-benchmark keeps the name "csn", under which
// earlier releases archived it beside an xmin/xmax/in-progress-set
// variant, so archived results still compare. The nightly workflow
// archives this benchmark with a mutex profile next to the
// lock-contention and lifecycle ones.
func BenchmarkSnapshotParallel(b *testing.B) {
	b.Run("csn", func(b *testing.B) {
		db := pgssi.Open(pgssi.Config{})
		si := workload.SIBench{Rows: 1000}
		if err := si.Setup(db); err != nil {
			b.Fatal(err)
		}
		// A standing pool of open transactions.
		const pinned = 64
		pins := make([]*pgssi.Tx, pinned)
		for i := range pins {
			tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.RepeatableRead})
			if err != nil {
				b.Fatal(err)
			}
			pins[i] = tx
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
				if err != nil {
					b.Error(err)
					return
				}
				i++
				if _, err := tx.Get("sibench", fmt.Sprintf("k%06d", i%1000)); err != nil {
					b.Error(err)
					return
				}
				if err := tx.Commit(); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		for _, tx := range pins {
			tx.Rollback()
		}
	})
}

// BenchmarkLifecycleParallel measures transaction-lifecycle contention:
// parallel workers run begin/commit-only serializable transactions (no
// reads, no writes), so every contended nanosecond is Begin/Commit —
// the residual bottleneck §8's analysis predicts once lock acquisition
// is partitioned. The nightly workflow archives this benchmark with a
// mutex profile next to the lock-contention ones, so lifecycle
// contention is tracked release over release like lock contention is.
func BenchmarkLifecycleParallel(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts pgssi.TxOptions
	}{
		{"rw", pgssi.TxOptions{Isolation: pgssi.Serializable}},
		{"declared-ro", pgssi.TxOptions{Isolation: pgssi.Serializable, ReadOnly: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			db := pgssi.Open(pgssi.Config{})
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					tx, err := db.Begin(mode.opts)
					if err != nil {
						b.Error(err)
						return
					}
					if err := tx.Commit(); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
	// Closed-loop variant through the workload harness, with a
	// read-only slice in the mix so fenced and unfenced begins contend
	// with each other the way a real mixed workload makes them.
	b.Run("mix-ro=10%", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db := pgssi.Open(pgssi.Config{})
			res := workload.Run(workload.LifecycleMix(0.1), workload.InProcess(db), workload.Options{
				Level: pgssi.Serializable, Workers: 4, Duration: benchDuration(), Seed: 13,
			})
			reportResult(b, res)
		}
	})
}
