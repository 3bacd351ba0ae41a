// Package workload implements the paper's three evaluation workloads —
// the SIBENCH microbenchmark (§8.1), the DBT-2++ transaction-processing
// benchmark (TPC-C plus Cahill's "credit check" transaction, §8.2), and
// the RUBiS auction-site bidding mix (§8.3) — and the one load driver
// that measures them.
//
// Run drives a Mix closed loop (Workers goroutines back to back with no
// think time, the methodology of §8) or open loop (arrivals at a Rate,
// openloop.go). Both share one attempt loop: it retries serialization
// failures, splits them by cause and counts commits — throughput is the
// paper's "committed transactions per second" — timing each from its
// logical transaction's intended start. Sweep runs one workload under
// each regime the figures compare; MeasureDeferrable is the §8.4 probe.
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
	// Fn executes the transaction body in process (InProcess). It is
	// retried (in a fresh transaction) on serialization failures.
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

// pick selects a job and returns its index.
func (m *Mix) pick(rng *rand.Rand) int {
	x := rng.Float64() * m.total
	for i, w := range m.weights {
		if x < w {
			return i
		}
	}
	return len(m.jobs) - 1
}

// Attempt runs one attempt at a logical transaction of job: it begins a
// transaction at level, runs the body and commits or rolls back, and
// returns nil if it committed. Run retries an error for which
// pgssi.IsSerializationFailure reports true.
type Attempt func(job *Job, level pgssi.IsolationLevel, rng *rand.Rand) error

// InProcess returns the Attempt that runs job.Fn in a transaction of db.
func InProcess(db *pgssi.DB) Attempt {
	return func(job *Job, level pgssi.IsolationLevel, rng *rand.Rand) error {
		tx, err := db.Begin(pgssi.TxOptions{Isolation: level, ReadOnly: job.ReadOnly})
		if err != nil {
			return err
		}
		if err := job.Fn(tx, rng); err != nil {
			tx.Rollback()
			return err
		}
		return tx.Commit()
	}
}

// Arrival selects how Run starts logical transactions.
type Arrival int

// Arrival processes.
const (
	// ArrivalClosed runs Workers goroutines, each starting its next
	// transaction as soon as its last one ends: when the engine slows
	// down, the offered load slows down with it.
	ArrivalClosed Arrival = iota
	// ArrivalPoisson draws exponential inter-arrival gaps (a Poisson
	// process at Rate) — the standard open-system model.
	ArrivalPoisson
	// ArrivalFixed spaces arrivals deterministically at 1/Rate.
	ArrivalFixed
)

// String implements fmt.Stringer.
func (a Arrival) String() string { return [...]string{"closed", "poisson", "fixed"}[a] }

// Options configure Run. A zero field takes the default noted.
type Options struct {
	// Level is the isolation level every attempt begins at.
	Level pgssi.IsolationLevel
	// Arrival is closed loop (the zero value) or an open-loop process.
	Arrival Arrival
	// Workers is the closed loop's goroutine count (default 4).
	Workers int
	// Rate is the open loop's offered arrival rate in transactions per
	// second (default 1000).
	Rate float64
	// MaxPending caps the open loop's transactions in flight (default
	// 4096); an arrival past it is dropped, the queueing-collapse signal.
	MaxPending int
	// Duration is the window in which logical transactions start
	// (default 1 s).
	Duration time.Duration
	// MaxRetries is how many times an open-loop arrival is retried on
	// serialization failure before it counts as failed (0 = none). A
	// closed-loop worker retries until its transaction commits or the
	// window ends, like the paper's middleware.
	MaxRetries int
	// Seed makes the run reproducible: job choices, arrival times and
	// the rngs the transaction bodies get derive from it.
	Seed uint64
}

// Result is what one Run measured.
type Result struct {
	// Options are the options run, defaults filled in.
	Options Options
	Elapsed time.Duration
	// Each logical transaction Offered ends Committed, Failed (out of
	// retries, or on a non-retryable error) or, open loop only, Dropped
	// at MaxPending.
	Offered, Committed, Failed, Dropped int64
	// Aborted counts attempts that failed with a serialization failure,
	// split by cause: first-updater-wins write conflicts and lock-wait
	// deadlock victims, which plain snapshot isolation has too
	// (pgssi.ErrWriteConflict, pgssi.ErrDeadlock), and the
	// dangerous-structure aborts SSI adds — the failures §8.2 reports.
	// An Attempt over a Status (pgssi.Session, wire.Client) does not
	// carry the cause, so there every failure counts as dangerous.
	Aborted, WriteConflicts, Deadlocks, DangerousAborts int64
	// Errors counts non-retryable errors (should be zero).
	Errors int64
	// PerJob maps job name → committed count.
	PerJob map[string]int64
	// Hist is the commit latency histogram, timed from each logical
	// transaction's intended start (a worker's pick, an arrival's
	// scheduled time), so retries and queueing delay count.
	Hist *Histogram
}

// Throughput returns committed transactions per second of elapsed time.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Committed) / r.Elapsed.Seconds()
}

// AttemptFailureRate is Aborted / (Committed + Aborted): the share of
// attempts that failed with a serialization failure, the figures' fail%.
func (r Result) AttemptFailureRate() float64 {
	if total := r.Committed + r.Aborted; total > 0 {
		return float64(r.Aborted) / float64(total)
	}
	return 0
}

// ArrivalFailureRate is (Failed + Dropped) / Offered: the share of
// logical transactions that never committed, pgload kv's fail%.
func (r Result) ArrivalFailureRate() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Failed+r.Dropped) / float64(r.Offered)
}

// String renders the result compactly.
func (r Result) String() string {
	mode := fmt.Sprintf("closed-loop workers=%d", r.Options.Workers)
	if r.Options.Arrival != ArrivalClosed {
		mode = fmt.Sprintf("open-loop %s rate=%.0f/s", r.Options.Arrival, r.Options.Rate)
	}
	// A failed transaction's last abort was not retried.
	retries := r.Aborted - (r.Failed - r.Errors)
	return fmt.Sprintf(
		"%s dur=%s: offered=%d completed=%d failed=%d dropped=%d retries=%d (fail%%=%.3f)\n"+
			"  throughput=%.1f txn/s  latency p50=%s p99=%s p999=%s max=%s",
		mode, r.Elapsed.Round(time.Millisecond),
		r.Offered, r.Committed, r.Failed, r.Dropped, retries, 100*r.ArrivalFailureRate(),
		r.Throughput(),
		r.Hist.Quantile(0.50), r.Hist.Quantile(0.99), r.Hist.Quantile(0.999), r.Hist.Max())
}

// driver is the state of one Run.
type driver struct {
	mix      *Mix
	attempt  Attempt
	opts     Options
	deadline time.Time
	hist     *Histogram
	perJob   []atomic.Int64 // committed, by job index

	offered, committed, failed, dropped                   atomic.Int64
	aborted, writeConflicts, deadlocks, dangerous, errors atomic.Int64
}

// Run drives mix through attempt as opts describe and returns what it
// measured. Each logical transaction draws a job from mix and gets an
// rng; each of its attempts is one call of attempt.
func Run(mix *Mix, attempt Attempt, opts Options) Result {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.Rate <= 0 {
		opts.Rate = 1000
	}
	if opts.MaxPending <= 0 {
		opts.MaxPending = 4096
	}
	if opts.Duration <= 0 {
		opts.Duration = time.Second
	}
	d := &driver{mix: mix, attempt: attempt, opts: opts, hist: NewHistogram(), perJob: make([]atomic.Int64, len(mix.jobs))}
	start := time.Now()
	d.deadline = start.Add(opts.Duration)
	if opts.Arrival == ArrivalClosed {
		d.closedLoop()
	} else {
		d.openLoop(start)
	}
	res := Result{
		Options:         opts,
		Elapsed:         time.Since(start),
		Offered:         d.offered.Load(),
		Committed:       d.committed.Load(),
		Failed:          d.failed.Load(),
		Dropped:         d.dropped.Load(),
		Aborted:         d.aborted.Load(),
		WriteConflicts:  d.writeConflicts.Load(),
		Deadlocks:       d.deadlocks.Load(),
		DangerousAborts: d.dangerous.Load(),
		Errors:          d.errors.Load(),
		PerJob:          make(map[string]int64, len(mix.jobs)),
		Hist:            d.hist,
	}
	for i := range mix.jobs {
		res.PerJob[mix.jobs[i].Name] += d.perJob[i].Load()
	}
	return res
}

// closedLoop runs Workers goroutines, each starting its next logical
// transaction as soon as its last one ends, until the window closes.
func (d *driver) closedLoop() {
	var wg sync.WaitGroup
	for w := 0; w < d.opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(d.opts.Seed+1, uint64(w)))
			for start := time.Now(); start.Before(d.deadline); start = time.Now() {
				d.offered.Add(1)
				d.transact(d.mix.pick(rng), rng, start)
			}
		}(w)
	}
	wg.Wait()
}

// transact runs one logical transaction of job j, intended to start at
// start, until an attempt commits, an attempt fails with a non-retryable
// error, or the retries run out. It is the driver's one attempt loop.
func (d *driver) transact(j int, rng *rand.Rand, start time.Time) {
	job := &d.mix.jobs[j]
	for retries := 0; ; retries++ {
		err := d.attempt(job, d.opts.Level, rng)
		if err == nil {
			d.committed.Add(1)
			d.perJob[j].Add(1)
			d.hist.Record(time.Since(start))
			return
		}
		if !pgssi.IsSerializationFailure(err) {
			d.errors.Add(1)
			d.failed.Add(1)
			return
		}
		d.aborted.Add(1)
		switch {
		case errors.Is(err, pgssi.ErrWriteConflict):
			d.writeConflicts.Add(1)
		case errors.Is(err, pgssi.ErrDeadlock):
			d.deadlocks.Add(1)
		default:
			d.dangerous.Add(1)
		}
		if !d.retry(retries) {
			d.failed.Add(1)
			return
		}
	}
}

// retry reports whether a transaction retried retries times so far gets
// another attempt: in the closed loop until the window ends, in the open
// loop up to MaxRetries times.
func (d *driver) retry(retries int) bool {
	if d.opts.Arrival == ArrivalClosed {
		return time.Now().Before(d.deadline)
	}
	return retries < d.opts.MaxRetries
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
// setup, and runs the returned mix in process at the regime's level.
// It returns one Result per regime, in order.
func Sweep(cfg pgssi.Config, regimes []Regime, setup func(*pgssi.DB) (*Mix, error), opts Options) ([]Result, error) {
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
		out = append(out, Run(mix, InProcess(db), opts))
		db.Close()
	}
	return out, nil
}
