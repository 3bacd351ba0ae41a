package workload

import (
	"math/rand/v2"
	"testing"
	"time"

	"pgssi"
)

func shortOpts(level pgssi.IsolationLevel) Options {
	return Options{Level: level, Workers: 4, Duration: 300 * time.Millisecond, Seed: 42}
}

// runSIBench measures b's mix on a fresh database opened with cfg.
func runSIBench(cfg pgssi.Config, b SIBench, opts Options) (Result, error) {
	db := pgssi.Open(cfg)
	defer db.Close()
	if err := b.Setup(db); err != nil {
		return Result{}, err
	}
	return Run(b.Mix(), InProcess(db), opts), nil
}

func TestMixWeightsAndPick(t *testing.T) {
	m := NewMix().
		Add(0.75, Job{Name: "a", ReadOnly: true}).
		Add(0.25, Job{Name: "b"})
	rng := rand.New(rand.NewPCG(1, 1))
	counts := map[string]int{}
	for i := 0; i < 10000; i++ {
		counts[m.jobs[m.pick(rng)].Name]++
	}
	if counts["a"] < 7000 || counts["a"] > 8000 {
		t.Fatalf("weighted pick skewed: %v", counts)
	}
}

func TestSIBenchRunsCleanAtAllLevels(t *testing.T) {
	for _, level := range []pgssi.IsolationLevel{
		pgssi.RepeatableRead, pgssi.Serializable, pgssi.SerializableS2PL,
	} {
		res, err := runSIBench(pgssi.Config{}, SIBench{Rows: 50}, shortOpts(level))
		if err != nil {
			t.Fatalf("%v: %v", level, err)
		}
		if res.Errors != 0 {
			t.Fatalf("%v: %d hard errors", level, res.Errors)
		}
		if res.Committed == 0 {
			t.Fatalf("%v: no transactions committed", level)
		}
	}
}

func TestSIBenchNoROOptStillCorrect(t *testing.T) {
	res, err := runSIBench(pgssi.Config{DisableReadOnlyOpt: true}, SIBench{Rows: 30}, shortOpts(pgssi.Serializable))
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d hard errors", res.Errors)
	}
}

func TestDBT2RunsCleanAtAllLevels(t *testing.T) {
	for _, level := range []pgssi.IsolationLevel{
		pgssi.RepeatableRead, pgssi.Serializable, pgssi.SerializableS2PL,
	} {
		db := pgssi.Open(pgssi.Config{})
		b := DefaultDBT2(1)
		b.Customers = 30
		b.Items = 100
		if err := b.Setup(db); err != nil {
			t.Fatal(err)
		}
		res := Run(b.Mix(0.08), InProcess(db), shortOpts(level))
		if res.Errors != 0 {
			t.Fatalf("%v: %d hard errors", level, res.Errors)
		}
		if res.Committed == 0 {
			t.Fatalf("%v: nothing committed", level)
		}
	}
}

func TestDBT2AllTransactionTypesExecute(t *testing.T) {
	db := pgssi.Open(pgssi.Config{})
	b := DefaultDBT2(1)
	b.Customers = 20
	b.Items = 50
	if err := b.Setup(db); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 3))
	for name, fn := range map[string]func(*pgssi.Tx, *rand.Rand) error{
		"new_order":    b.NewOrder,
		"payment":      b.Payment,
		"order_status": b.OrderStatus,
		"delivery":     b.Delivery,
		"stock_level":  b.StockLevel,
		"credit_check": b.CreditCheck,
	} {
		for attempt := 0; ; attempt++ {
			tx, err := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
			if err != nil {
				t.Fatal(err)
			}
			err = fn(tx, rng)
			if err == nil {
				err = tx.Commit()
			} else {
				tx.Rollback()
			}
			if err == nil {
				break
			}
			if !pgssi.IsSerializationFailure(err) || attempt > 10 {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

func TestDBT2SerializationFailureRateIsLow(t *testing.T) {
	// §8.2: "in all cases, the serialization failure rate was under
	// 0.25%" — of a workload whose snapshot-isolation baseline has
	// first-updater-wins failures of its own, on 25 warehouses. The
	// runner separates the failures SI already has (write conflicts,
	// deadlocks) from the dangerous-structure aborts SSI adds.
	run := func(warehouses int, level pgssi.IsolationLevel) Result {
		t.Helper()
		db := pgssi.Open(pgssi.Config{})
		defer db.Close()
		b := DefaultDBT2(warehouses)
		if err := b.Setup(db); err != nil {
			t.Fatal(err)
		}
		res := Run(b.Mix(0.08), InProcess(db), Options{Level: level, Workers: 4, Duration: time.Second, Seed: 7})
		if res.Errors != 0 {
			t.Fatalf("%d warehouses, %v: %d hard errors", warehouses, level, res.Errors)
		}
		t.Logf("%d warehouses, %v: %.0f txn/s, %d committed, %d aborted (%.3f%%: %d write conflicts, %d deadlocks, %d dangerous structures)",
			warehouses, level, res.Throughput(), res.Committed, res.Aborted, 100*res.AttemptFailureRate(), res.WriteConflicts, res.Deadlocks, res.DangerousAborts)
		return res
	}

	// The hot configuration — 2 warehouses under 4 workers, 12x hotter
	// than the paper's — keeps the bound it has always had, on every
	// serialization failure of the run, SI's own included. Typical runs
	// sit around 1–2% on one core; with the workers on two cores (or
	// under the race detector's ~10x slowdown) transactions overlap far
	// more and the same mix measures 8–11%, of which 6–6.5% are the write
	// conflicts it has under plain SI: the bound guards against an
	// order-of-magnitude regression and is within scheduler noise of the
	// typical value there. It runs first, on the fresh heap the test has
	// always given it.
	hot := run(2, pgssi.Serializable)
	if hot.AttemptFailureRate() > 0.10 {
		t.Errorf("2 warehouses: serialization failure rate %.2f%% unexpectedly high (%d write conflicts, %d deadlocks, %d dangerous structures)",
			100*hot.AttemptFailureRate(), hot.WriteConflicts, hot.Deadlocks, hot.DangerousAborts)
	}
	// Same configuration, same seed, SSI switched off: what SSI adds
	// there. Reported, not asserted: on 20 districts the mix has real
	// dangerous structures (Payment reads the district row NewOrder
	// updates and updates the customer row NewOrder reads), and SSI's
	// total measures 2–4.5 points above SI's; bounding it at one point
	// waits for the abort taxonomy of ROADMAP direction 1(c)–(e).
	si := run(2, pgssi.RepeatableRead)
	t.Logf("2 warehouses: SSI fails %.2f%% of attempts, SI %.2f%%", 100*hot.AttemptFailureRate(), 100*si.AttemptFailureRate())

	// Paper-shaped scale: dangerous-structure aborts per attempt.
	// Measured 0.11–0.24% at 10 warehouses; 1% guards against a
	// regression of the detector, not scheduler noise.
	ssi := run(10, pgssi.Serializable)
	if rate := float64(ssi.DangerousAborts) / float64(ssi.Committed+ssi.Aborted); rate > 0.01 {
		t.Errorf("10 warehouses: SSI adds %.2f%% dangerous-structure aborts per attempt, want <= 1%%", 100*rate)
	}
}

func TestRUBiSRunsCleanAtAllLevels(t *testing.T) {
	for _, level := range []pgssi.IsolationLevel{
		pgssi.RepeatableRead, pgssi.Serializable, pgssi.SerializableS2PL,
	} {
		db := pgssi.Open(pgssi.Config{})
		r := &RUBiS{Users: 100, Items: 200, Categories: 5}
		if err := r.Setup(db); err != nil {
			t.Fatal(err)
		}
		res := Run(r.Mix(), InProcess(db), shortOpts(level))
		if res.Errors != 0 {
			t.Fatalf("%v: %d hard errors", level, res.Errors)
		}
		if res.Committed == 0 {
			t.Fatalf("%v: nothing committed", level)
		}
	}
}

func TestDeferrableProbeUnderLoad(t *testing.T) {
	db := pgssi.Open(pgssi.Config{})
	b := DefaultDBT2(1)
	b.Customers = 30
	b.Items = 100
	if err := b.Setup(db); err != nil {
		t.Fatal(err)
	}
	res, bg := MeasureDeferrable(db, b.Mix(0.08), Options{
		Level: pgssi.Serializable, Workers: 4, Duration: 800 * time.Millisecond, Seed: 9,
	}, 50*time.Millisecond, func(tx *pgssi.Tx) error {
		_, err := tx.Get("warehouse", wKey(1))
		return err
	})
	if bg.Errors != 0 {
		t.Fatalf("%d hard errors in background load", bg.Errors)
	}
	if res.Count() == 0 {
		t.Fatal("no deferrable samples collected")
	}
	if res.Max() > 5*time.Second {
		t.Fatalf("deferrable latency unreasonable: %v", res.Max())
	}
}

func TestIODelayConfigurationSlowsRuns(t *testing.T) {
	fres, err := runSIBench(pgssi.Config{}, SIBench{Rows: 40}, shortOpts(pgssi.RepeatableRead))
	if err != nil {
		t.Fatal(err)
	}
	sres, err := runSIBench(pgssi.Config{IODelay: 200 * time.Microsecond, CacheMissRatio: 0.5},
		SIBench{Rows: 40}, shortOpts(pgssi.RepeatableRead))
	if err != nil {
		t.Fatal(err)
	}
	if sres.Throughput() >= fres.Throughput() {
		t.Fatalf("simulated I/O should reduce throughput: fast=%.0f slow=%.0f",
			fres.Throughput(), sres.Throughput())
	}
}

func TestSweepRunsEveryRegimeInOrder(t *testing.T) {
	b := SIBench{Rows: 20}
	res, err := Sweep(pgssi.Config{}, Regimes, func(db *pgssi.DB) (*Mix, error) {
		return b.Mix(), b.Setup(db)
	}, Options{Workers: 2, Duration: 50 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(Regimes) {
		t.Fatalf("%d results for %d regimes", len(res), len(Regimes))
	}
	for i, r := range Regimes {
		if res[i].Options.Level != r.Level {
			t.Errorf("result %d (%s) ran at %v, want %v", i, r.Name, res[i].Options.Level, r.Level)
		}
		if res[i].Committed == 0 {
			t.Errorf("%s: nothing committed", r.Name)
		}
		if res[i].Errors != 0 {
			t.Errorf("%s: %d hard errors", r.Name, res[i].Errors)
		}
	}
}

func TestLifecycleMixRunsEmptyTransactions(t *testing.T) {
	db := pgssi.Open(pgssi.Config{})
	res := Run(LifecycleMix(0.25), InProcess(db), Options{
		Level: pgssi.Serializable, Workers: 4, Duration: 50 * time.Millisecond, Seed: 99,
	})
	if res.Errors > 0 {
		t.Fatalf("%d hard errors from empty lifecycle transactions", res.Errors)
	}
	if res.Committed == 0 {
		t.Fatal("no lifecycle transactions committed")
	}
	if res.Aborted > 0 {
		t.Fatalf("empty transactions can never conflict, got %d serialization failures", res.Aborted)
	}
	// A quarter of the commits are the read-only job.
	if f := float64(res.PerJob["lifecycle-ro"]) / float64(res.Committed); f < 0.2 || f > 0.3 {
		t.Fatalf("read-only share of commits = %v, want 0.25 (%v)", f, res.PerJob)
	}
}

// TestRunAccounting runs one conflicting mix through Run's attempt loop
// closed loop and open loop under snapshot isolation: every abort lands
// in exactly one cause, every commit in the histogram, every arrival in
// one outcome, and the hot-row updates' failures are first-updater-wins
// write conflicts — snapshot isolation has no dangerous structures.
func TestRunAccounting(t *testing.T) {
	db := pgssi.Open(pgssi.Config{})
	defer db.Close()
	mustDo := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mustDo(db.CreateTable("hot"))
	mustDo(db.RunTx(pgssi.TxOptions{}, func(tx *pgssi.Tx) error { return tx.Insert("hot", "k", []byte("0")) }))
	// Read the row, hold the snapshot a while, then update it: overlapping
	// transactions collide on the update.
	mix := NewMix().Add(1, Job{Name: "bump", Fn: func(tx *pgssi.Tx, _ *rand.Rand) error {
		v, err := tx.Get("hot", "k")
		if err != nil {
			return err
		}
		time.Sleep(200 * time.Microsecond)
		return tx.Update("hot", "k", v)
	}})

	for _, opts := range []Options{
		{Level: pgssi.RepeatableRead, Workers: 4, Duration: 200 * time.Millisecond, Seed: 1},
		{Level: pgssi.RepeatableRead, Arrival: ArrivalFixed, Rate: 2000, MaxRetries: 3, Duration: 200 * time.Millisecond, Seed: 1},
	} {
		t.Run(opts.Arrival.String(), func(t *testing.T) {
			res := Run(mix, InProcess(db), opts)
			t.Log(res)
			if res.Errors != 0 {
				t.Fatalf("%d non-retryable errors", res.Errors)
			}
			if res.Aborted != res.WriteConflicts+res.Deadlocks+res.DangerousAborts {
				t.Errorf("aborted %d != %d write conflicts + %d deadlocks + %d dangerous",
					res.Aborted, res.WriteConflicts, res.Deadlocks, res.DangerousAborts)
			}
			if got := int64(res.Hist.Count()); got != res.Committed || res.PerJob["bump"] != res.Committed {
				t.Errorf("histogram holds %d, per-job %d, for %d commits", got, res.PerJob["bump"], res.Committed)
			}
			if res.Committed+res.Failed+res.Dropped != res.Offered {
				t.Errorf("committed %d + failed %d + dropped %d != offered %d",
					res.Committed, res.Failed, res.Dropped, res.Offered)
			}
			if res.WriteConflicts == 0 || res.DangerousAborts != 0 {
				t.Errorf("snapshot isolation: %d write conflicts (want > 0), %d dangerous aborts (want 0)",
					res.WriteConflicts, res.DangerousAborts)
			}
		})
	}
}
