// Package workload implements the paper's three evaluation workloads —
// the SIBENCH microbenchmark (§8.1), the DBT-2++ transaction-processing
// benchmark (TPC-C plus Cahill's "credit check" transaction, §8.2), and
// the RUBiS auction-site bidding mix (§8.3) — together with a closed-loop
// measurement harness, the sweep of one workload over the concurrency-
// control regimes the paper's figures compare, and the
// deferrable-transaction latency probe (§8.4).
package workload

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"pgssi"
)

// Job is one transaction type in a workload mix.
type Job struct {
	// Name labels the job in per-type statistics.
	Name string
	// ReadOnly declares the transaction READ ONLY at Begin, enabling
	// the §4 optimizations under Serializable.
	ReadOnly bool
	// Fn executes the transaction body. It is retried (in a fresh
	// transaction) on serialization failures.
	Fn func(tx *pgssi.Tx, rng *rand.Rand) error
}

// Mix selects jobs with fixed weights.
type Mix struct {
	jobs    []Job
	weights []float64
	total   float64
}

// NewMix builds a weighted mix. Weights need not sum to 1.
func NewMix() *Mix { return &Mix{} }

// Add appends a job with the given weight and returns the mix.
func (m *Mix) Add(weight float64, job Job) *Mix {
	if weight <= 0 {
		return m
	}
	m.jobs = append(m.jobs, job)
	m.total += weight
	m.weights = append(m.weights, m.total)
	return m
}

// Pick selects a job.
func (m *Mix) Pick(rng *rand.Rand) *Job {
	x := rng.Float64() * m.total
	for i, w := range m.weights {
		if x < w {
			return &m.jobs[i]
		}
	}
	return &m.jobs[len(m.jobs)-1]
}

// ReadOnlyFraction returns the weight fraction of read-only jobs.
func (m *Mix) ReadOnlyFraction() float64 {
	prev := 0.0
	ro := 0.0
	for i, w := range m.weights {
		if m.jobs[i].ReadOnly {
			ro += w - prev
		}
		prev = w
	}
	if m.total == 0 {
		return 0
	}
	return ro / m.total
}

// Result is the outcome of a closed-loop run.
type Result struct {
	Level     pgssi.IsolationLevel
	Duration  time.Duration
	Committed int64
	Aborted   int64 // serialization failures (each retry attempt counts)
	// WriteConflicts, Deadlocks and DangerousAborts split Aborted by
	// cause: first-updater-wins failures and lock-wait deadlock victims,
	// which plain snapshot isolation has too (pgssi.ErrWriteConflict,
	// pgssi.ErrDeadlock), and the dangerous-structure aborts SSI adds —
	// the failures §8.2 reports.
	WriteConflicts  int64
	Deadlocks       int64
	DangerousAborts int64
	Errors          int64 // non-retryable errors (should be zero)
	Throughput      float64
	// FailureRate is Aborted / (Committed + Aborted); DangerousRate is
	// DangerousAborts over the same attempts.
	FailureRate   float64
	DangerousRate float64
	// PerJob maps job name → committed count.
	PerJob map[string]int64
}

// String renders the result compactly.
func (r Result) String() string {
	return fmt.Sprintf("%-20s %8.0f txn/s  committed=%d aborted=%d (%.3f%% failures: %d write conflicts, %d deadlocks, %d dangerous structures)",
		r.Level, r.Throughput, r.Committed, r.Aborted, 100*r.FailureRate, r.WriteConflicts, r.Deadlocks, r.DangerousAborts)
}

// RunOptions configure a closed-loop run.
type RunOptions struct {
	Level    pgssi.IsolationLevel
	Workers  int
	Duration time.Duration
	// MaxRetries bounds retries per logical transaction (0 = retry
	// until it commits, like the paper's middleware).
	MaxRetries int
	// Seed makes the run reproducible.
	Seed uint64
}

// RunClosedLoop drives Workers goroutines, each executing transactions
// drawn from mix with no think time, for the configured duration — the
// measurement methodology of §8. Serialization failures are retried and
// counted; the transaction rate counts commits only, matching the
// paper's "throughput in committed transactions per second".
func RunClosedLoop(db *pgssi.DB, mix *Mix, opts RunOptions) Result {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.Duration <= 0 {
		opts.Duration = time.Second
	}
	var committed, aborted, writeConflicts, deadlocks, hardErrors atomic.Int64
	perJob := make(map[string]*atomic.Int64, 8)
	var perJobMu sync.Mutex
	jobCounter := func(name string) *atomic.Int64 {
		perJobMu.Lock()
		defer perJobMu.Unlock()
		c := perJob[name]
		if c == nil {
			c = &atomic.Int64{}
			perJob[name] = c
		}
		return c
	}

	deadline := time.Now().Add(opts.Duration)
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(opts.Seed+1, uint64(w)))
			for time.Now().Before(deadline) {
				job := mix.Pick(rng)
				counter := jobCounter(job.Name)
				retries := 0
				for {
					tx, err := db.Begin(pgssi.TxOptions{Isolation: opts.Level, ReadOnly: job.ReadOnly})
					if err != nil {
						hardErrors.Add(1)
						break
					}
					err = job.Fn(tx, rng)
					if err == nil {
						err = tx.Commit()
					} else {
						tx.Rollback()
					}
					if err == nil {
						committed.Add(1)
						counter.Add(1)
						break
					}
					if !pgssi.IsSerializationFailure(err) {
						hardErrors.Add(1)
						break
					}
					aborted.Add(1)
					switch {
					case errors.Is(err, pgssi.ErrWriteConflict):
						writeConflicts.Add(1)
					case errors.Is(err, pgssi.ErrDeadlock):
						deadlocks.Add(1)
					}
					retries++
					if opts.MaxRetries > 0 && retries >= opts.MaxRetries {
						break
					}
					if !time.Now().Before(deadline) {
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()

	res := Result{
		Level:          opts.Level,
		Duration:       opts.Duration,
		Committed:      committed.Load(),
		Aborted:        aborted.Load(),
		WriteConflicts: writeConflicts.Load(),
		Deadlocks:      deadlocks.Load(),
		Errors:         hardErrors.Load(),
		PerJob:         make(map[string]int64, len(perJob)),
	}
	res.DangerousAborts = res.Aborted - res.WriteConflicts - res.Deadlocks
	res.Throughput = float64(res.Committed) / opts.Duration.Seconds()
	if total := res.Committed + res.Aborted; total > 0 {
		res.FailureRate = float64(res.Aborted) / float64(total)
		res.DangerousRate = float64(res.DangerousAborts) / float64(total)
	}
	perJobMu.Lock()
	for name, c := range perJob {
		res.PerJob[name] = c.Load()
	}
	perJobMu.Unlock()
	return res
}

// Regime is one concurrency-control series of the paper's §8 figures:
// an isolation level and the Config ablation it runs under.
type Regime struct {
	Name  string
	Level pgssi.IsolationLevel
	// DisableReadOnlyOpt sets Config.DisableReadOnlyOpt (the "SSI no
	// r/o opt" series).
	DisableReadOnlyOpt bool
}

// Regimes are the series of Figures 4–6, snapshot isolation — the 1.0x
// baseline the figures normalize to — first.
var Regimes = []Regime{
	{Name: "SI", Level: pgssi.RepeatableRead},
	{Name: "SSI", Level: pgssi.Serializable},
	{Name: "SSI-noROopt", Level: pgssi.Serializable, DisableReadOnlyOpt: true},
	{Name: "S2PL", Level: pgssi.SerializableS2PL},
}

// Sweep measures one workload under each regime: for each it opens a
// fresh database with the regime's configuration, populates it with
// setup, and runs the returned mix closed-loop at the regime's level.
// It returns one Result per regime, in order.
func Sweep(cfg pgssi.Config, regimes []Regime, setup func(*pgssi.DB) (*Mix, error), opts RunOptions) ([]Result, error) {
	out := make([]Result, 0, len(regimes))
	for _, r := range regimes {
		cfg.DisableReadOnlyOpt = r.DisableReadOnlyOpt
		db := pgssi.Open(cfg)
		mix, err := setup(db)
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("%s: %w", r.Name, err)
		}
		opts.Level = r.Level
		out = append(out, RunClosedLoop(db, mix, opts))
		db.Close()
	}
	return out, nil
}
