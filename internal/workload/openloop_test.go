package workload

import (
	"math/rand/v2"
	"testing"
	"time"

	"pgssi"
)

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1..1000 ns uniformly: quantiles should land near their rank within
	// the histogram's ≤1.6% bucket error.
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i))
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	checks := []struct {
		q    float64
		want float64
	}{{0.50, 500}, {0.99, 990}, {0.999, 999}}
	for _, c := range checks {
		got := float64(h.Quantile(c.q))
		if got < c.want*0.95 || got > c.want*1.05 {
			t.Errorf("p%g = %v, want ~%v", c.q*100, got, c.want)
		}
	}
	if h.Max() < 1000*15/16 || h.Max() > 1024 {
		t.Errorf("max = %v", h.Max())
	}

	// Values below the sub-bucket resolution are exact.
	var small Histogram
	small.Record(7)
	if small.Quantile(0.5) != 7 {
		t.Errorf("small-value quantile = %v", small.Quantile(0.5))
	}

	// Wide range: relative error stays bounded at every magnitude.
	var wide Histogram
	for _, v := range []time.Duration{1, 1 << 10, 1 << 20, 1 << 30, 1 << 40} {
		wide.Record(v)
	}
	if q := wide.Quantile(1.0); q < 1<<40 || q > (1<<40)+(1<<40)/32 {
		t.Errorf("p100 of widely spread values = %v", q)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram: count=%d p50=%v max=%v", h.Count(), h.Quantile(0.5), h.Max())
	}
}

// TestZipfChooser: with s>1 the hot key set must be heavily skewed, and
// every produced index must stay in range.
func TestZipfChooser(t *testing.T) {
	job := KVJob{Keys: 1_000_000, ZipfS: 1.1}
	rng := rand.New(rand.NewPCG(7, 7))
	choose := job.chooser(rng)
	counts := map[int]int{}
	const draws = 100_000
	for i := 0; i < draws; i++ {
		k := choose()
		if k < 0 || k >= job.Keys {
			t.Fatalf("key index %d out of range", k)
		}
		counts[k]++
	}
	// Zipf with s=1.1 concentrates mass: the single hottest key should
	// take a few percent of draws, and far fewer distinct keys than
	// draws should appear.
	hottest := 0
	for _, c := range counts {
		if c > hottest {
			hottest = c
		}
	}
	if hottest < draws/100 {
		t.Errorf("hottest key got %d/%d draws; zipf skew looks broken", hottest, draws)
	}
	if len(counts) > draws/2 {
		t.Errorf("%d distinct keys in %d draws; distribution looks uniform", len(counts), draws)
	}

	// Uniform mode (s<=1): the hottest key should NOT dominate.
	uni := KVJob{Keys: 1000, ZipfS: 0}
	chooseU := uni.chooser(rng)
	countsU := map[int]int{}
	for i := 0; i < draws; i++ {
		countsU[chooseU()]++
	}
	for k, c := range countsU {
		if c > draws/100 {
			t.Fatalf("uniform chooser: key %d got %d/%d draws", k, c, draws)
		}
	}
}

// TestRunOpenLoopInProcess runs a short fixed-rate open loop against an
// in-process session and checks the accounting adds up.
func TestRunOpenLoopInProcess(t *testing.T) {
	db := pgssi.Open(pgssi.Config{})
	defer db.Close()
	if err := db.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	const keys = 1000
	if err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.ReadCommitted}, func(tx *pgssi.Tx) error {
		for i := 0; i < keys; i++ {
			if err := tx.Insert("kv", LoadKey(i), []byte("v")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	job := KVJob{Table: "kv", Keys: keys, ZipfS: 1.1, Reads: 2, Writes: 1, ValueSize: 8}
	res := Run(job.Mix(), job.Attempt(db.NewSession()), Options{
		Level:      pgssi.Serializable,
		Arrival:    ArrivalFixed,
		Rate:       2000,
		Duration:   300 * time.Millisecond,
		MaxRetries: 3,
		Seed:       1,
	})

	if res.Offered == 0 {
		t.Fatal("no arrivals were offered")
	}
	if res.Committed+res.Failed+res.Dropped != res.Offered {
		t.Fatalf("accounting mismatch: offered=%d committed=%d failed=%d dropped=%d",
			res.Offered, res.Committed, res.Failed, res.Dropped)
	}
	if res.Errors != 0 {
		t.Fatalf("%d non-retryable errors", res.Errors)
	}
	if res.Committed == 0 {
		t.Fatal("nothing completed")
	}
	if got := int64(res.Hist.Count()); got != res.Committed {
		t.Fatalf("histogram count %d != committed %d", got, res.Committed)
	}
	if res.Hist.Quantile(0.5) <= 0 {
		t.Fatal("zero p50")
	}
	if res.Throughput() <= 0 || res.ArrivalFailureRate() < 0 || res.ArrivalFailureRate() > 1 {
		t.Fatalf("throughput=%v failrate=%v", res.Throughput(), res.ArrivalFailureRate())
	}
	if res.String() == "" {
		t.Fatal("empty summary")
	}
}

// attemptReturning is an Attempt that returns err without beginning
// anything, after running wait if it is set.
func attemptReturning(err error, wait func()) Attempt {
	return func(*Job, pgssi.IsolationLevel, *rand.Rand) error {
		if wait != nil {
			wait()
		}
		return err
	}
}

// oneJob is a mix of one job with no body, for attemptReturning.
var oneJob = NewMix().Add(1, Job{Name: "one"})

// TestRunOpenLoopPoisson: the Poisson arrival process offers a count in
// the right ballpark of rate*duration.
func TestRunOpenLoopPoisson(t *testing.T) {
	res := Run(oneJob, attemptReturning(nil, nil), Options{
		Arrival:  ArrivalPoisson,
		Rate:     5000,
		Duration: 200 * time.Millisecond,
		Seed:     42,
	})
	want := 5000 * 0.2
	if float64(res.Offered) < want/2 || float64(res.Offered) > want*2 {
		t.Fatalf("offered %d arrivals, want ~%v", res.Offered, want)
	}
	if res.Committed != res.Offered {
		t.Fatalf("committed=%d offered=%d", res.Committed, res.Offered)
	}
}

// TestRunOpenLoopDrops: with MaxPending 1 and a txn that blocks longer
// than the whole run, arrivals beyond the first must be dropped, not
// queued invisibly.
func TestRunOpenLoopDrops(t *testing.T) {
	block := make(chan struct{})
	// Unblock after the run window so Run's final wait for
	// in-flight transactions can finish.
	timer := time.AfterFunc(200*time.Millisecond, func() { close(block) })
	defer timer.Stop()
	res := Run(oneJob, attemptReturning(nil, func() { <-block }), Options{
		Arrival:    ArrivalFixed,
		Rate:       1000,
		MaxPending: 1,
		Duration:   150 * time.Millisecond,
		Seed:       1,
	})
	if res.Dropped == 0 {
		t.Fatalf("expected drops under saturation: %v", res)
	}
	if res.Committed+res.Failed+res.Dropped != res.Offered {
		t.Fatalf("accounting mismatch: %v", res)
	}
}

// TestRunOpenLoopRetries: serialization failures are retried up to
// MaxRetries, then counted as Failed (not Errors).
func TestRunOpenLoopRetries(t *testing.T) {
	res := Run(oneJob, attemptReturning(pgssi.ErrSerialization, nil), Options{
		Arrival:    ArrivalFixed,
		Rate:       500,
		Duration:   100 * time.Millisecond,
		MaxRetries: 2,
		Seed:       1,
	})
	if res.Failed != res.Offered-res.Dropped {
		t.Fatalf("failed=%d offered=%d dropped=%d", res.Failed, res.Offered, res.Dropped)
	}
	if res.Errors != 0 {
		t.Fatalf("serialization failures miscounted as errors: %v", res)
	}
	// Each arrival made 1 + MaxRetries attempts.
	if res.Aborted == 0 || res.Aborted != 3*res.Failed {
		t.Fatalf("aborted=%d attempts for %d failed arrivals, want 3 each", res.Aborted, res.Failed)
	}
}

func TestLoadKeyFormat(t *testing.T) {
	if LoadKey(0) != "k00000000" || LoadKey(12345678) != "k12345678" {
		t.Fatalf("LoadKey format changed: %q %q — pgssid preload and pgload must agree", LoadKey(0), LoadKey(12345678))
	}
}
