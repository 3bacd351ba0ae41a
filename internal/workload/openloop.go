package workload

import (
	"fmt"
	"io"
	"math/bits"
	mrand "math/rand"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"pgssi"
)

// This file implements the open-loop measurement harness. The
// closed-loop Runner (runner.go) has each worker issue its next
// transaction only after the previous one finishes, so when the engine
// slows down the offered load politely slows down with it — queueing
// collapse is structurally invisible and latency percentiles are
// meaningless. Real traffic does not wait: arrivals follow their own
// process (here Poisson or fixed-rate), latency is measured from the
// scheduled arrival time (queueing delay included), and overload shows
// up exactly where it should — in p99/p999 and, past saturation, in
// dropped arrivals.

// Session is the handle-based transactional surface the open-loop
// driver and the standard key-value transaction body run against. It is
// the method set shared by pgssi.Session (in process) and wire.Client
// (over TCP) — the session layer is what makes the harness
// transport-agnostic.
type Session interface {
	Begin(level pgssi.IsolationLevel, readOnly, deferrable bool) (pgssi.Handle, pgssi.Status)
	Get(h pgssi.Handle, table, key string) ([]byte, pgssi.Status)
	Put(h pgssi.Handle, table, key string, value []byte) pgssi.Status
	Commit(h pgssi.Handle) pgssi.Status
	Rollback(h pgssi.Handle) pgssi.Status
}

// Arrival selects the inter-arrival process of an open-loop run.
type Arrival int

// Arrival processes.
const (
	// ArrivalPoisson draws exponential inter-arrival gaps (a Poisson
	// process at the configured rate) — the standard open-system model.
	ArrivalPoisson Arrival = iota
	// ArrivalFixed spaces arrivals deterministically at 1/rate.
	ArrivalFixed
)

// String implements fmt.Stringer.
func (a Arrival) String() string {
	if a == ArrivalFixed {
		return "fixed"
	}
	return "poisson"
}

// OpenLoopOptions configure RunOpenLoop.
type OpenLoopOptions struct {
	// Rate is the offered arrival rate in transactions per second.
	Rate float64
	// Duration is how long arrivals are generated.
	Duration time.Duration
	// Arrival selects the inter-arrival process.
	Arrival Arrival
	// MaxPending caps transactions in flight (dispatched, not yet
	// finished). An arrival past the cap is dropped and counted — the
	// queueing-collapse signal — instead of accumulating goroutines
	// without bound. 0 defaults to 4096.
	MaxPending int
	// MaxRetries is how many times one arrival's transaction is retried
	// on serialization failure before it counts as failed. Retries are
	// part of the arrival's latency. 0 means no retries.
	MaxRetries int
	// Seed makes the run reproducible (arrival times and per-arrival
	// rngs derive from it).
	Seed uint64
}

// OpenLoopResult is the outcome of an open-loop run.
type OpenLoopResult struct {
	Options  OpenLoopOptions
	Elapsed  time.Duration
	Offered  int64 // arrivals generated
	Complete int64 // transactions that committed
	Failed   int64 // arrivals whose transaction never committed
	Dropped  int64 // arrivals shed at MaxPending
	Retries  int64 // serialization-failure retries across all arrivals
	Errors   int64 // non-retryable errors (subset of Failed)
	// Hist is the commit latency histogram (scheduled arrival →
	// completion, so queueing delay counts).
	Hist *Histogram
}

// Throughput returns committed transactions per second of elapsed time.
func (r OpenLoopResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Complete) / r.Elapsed.Seconds()
}

// FailureRate returns (Failed+Dropped) / Offered.
func (r OpenLoopResult) FailureRate() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Failed+r.Dropped) / float64(r.Offered)
}

// String renders the result compactly.
func (r OpenLoopResult) String() string {
	return fmt.Sprintf(
		"open-loop %s rate=%.0f/s dur=%s: offered=%d completed=%d failed=%d dropped=%d retries=%d (fail%%=%.3f)\n"+
			"  throughput=%.1f txn/s  latency p50=%s p99=%s p999=%s max=%s",
		r.Options.Arrival, r.Options.Rate, r.Elapsed.Round(time.Millisecond),
		r.Offered, r.Complete, r.Failed, r.Dropped, r.Retries, 100*r.FailureRate(),
		r.Throughput(),
		r.Hist.Quantile(0.50), r.Hist.Quantile(0.99), r.Hist.Quantile(0.999), r.Hist.Max())
}

// RunOpenLoop generates arrivals at the configured rate and runs txn for
// each on its own goroutine. txn receives a per-arrival deterministic
// rng; it should execute one complete transaction (begin..commit) and
// report the outcome as an error (nil = committed, a value for which
// pgssi.IsSerializationFailure is true = retryable; see Status.Err).
func RunOpenLoop(opts OpenLoopOptions, txn func(rng *rand.Rand) error) OpenLoopResult {
	if opts.Rate <= 0 {
		opts.Rate = 1000
	}
	if opts.Duration <= 0 {
		opts.Duration = time.Second
	}
	if opts.MaxPending <= 0 {
		opts.MaxPending = 4096
	}

	res := OpenLoopResult{Options: opts, Hist: NewHistogram()}
	var complete, failed, dropped, retries, hardErrors atomic.Int64
	var pending atomic.Int64
	var wg sync.WaitGroup

	arrivalRng := rand.New(rand.NewPCG(opts.Seed, 0x9e3779b97f4a7c15))
	gap := func() time.Duration {
		mean := float64(time.Second) / opts.Rate
		if opts.Arrival == ArrivalFixed {
			return time.Duration(mean)
		}
		return time.Duration(arrivalRng.ExpFloat64() * mean)
	}

	start := time.Now()
	deadline := start.Add(opts.Duration)
	next := start
	var offered int64
	for {
		next = next.Add(gap())
		if next.After(deadline) {
			break
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		offered++
		if pending.Load() >= int64(opts.MaxPending) {
			dropped.Add(1)
			continue
		}
		pending.Add(1)
		wg.Add(1)
		scheduled := next
		seq := offered
		go func() {
			defer wg.Done()
			defer pending.Add(-1)
			rng := rand.New(rand.NewPCG(opts.Seed+1, uint64(seq)))
			var err error
			for attempt := 0; ; attempt++ {
				err = txn(rng)
				if err == nil || !pgssi.IsSerializationFailure(err) || attempt >= opts.MaxRetries {
					break
				}
				retries.Add(1)
			}
			switch {
			case err == nil:
				complete.Add(1)
				res.Hist.Record(time.Since(scheduled))
			case pgssi.IsSerializationFailure(err):
				failed.Add(1)
			default:
				failed.Add(1)
				hardErrors.Add(1)
			}
		}()
	}
	wg.Wait()

	res.Elapsed = time.Since(start)
	res.Offered = offered
	res.Complete = complete.Load()
	res.Failed = failed.Load()
	res.Dropped = dropped.Load()
	res.Retries = retries.Load()
	res.Errors = hardErrors.Load()
	return res
}

// ---- standard key-value transaction body -----------------------------

// LoadKey formats the i-th preload key. cmd/pgssid's preloader and
// cmd/pgload's key chooser must agree on this format.
func LoadKey(i int) string { return fmt.Sprintf("k%08d", i) }

// KVJob describes the standard open-loop key-value transaction: Reads
// gets plus Writes puts against zipfian-skewed keys in one transaction.
type KVJob struct {
	Table string
	// Keys is the keyspace size (LoadKey(0) .. LoadKey(Keys-1)).
	Keys int
	// ZipfS is the zipfian skew exponent; values <= 1 select a uniform
	// key distribution.
	ZipfS float64
	// Reads and Writes are the operations per transaction.
	Reads, Writes int
	// ValueSize is the written value's length in bytes.
	ValueSize int
	Isolation pgssi.IsolationLevel
}

// Txn returns an open-loop transaction body running the job over sess.
// The returned function is safe for concurrent calls iff sess is (both
// pgssi.Session and a dedicated-per-call wire.Client qualify).
func (j KVJob) Txn(sess Session) func(rng *rand.Rand) error {
	value := make([]byte, max(j.ValueSize, 1))
	for i := range value {
		value[i] = 'v'
	}
	return func(rng *rand.Rand) error {
		chooser := j.chooser(rng)
		h, st := sess.Begin(j.Isolation, j.Writes == 0, false)
		if !st.OK() {
			return st.Err()
		}
		for i := 0; i < j.Reads; i++ {
			if _, st := sess.Get(h, j.Table, LoadKey(chooser())); !st.OK() && st != pgssi.StatusNotFound {
				sess.Rollback(h)
				return st.Err()
			}
		}
		for i := 0; i < j.Writes; i++ {
			if st := sess.Put(h, j.Table, LoadKey(chooser()), value); !st.OK() {
				sess.Rollback(h)
				return st.Err()
			}
		}
		return sess.Commit(h).Err()
	}
}

// chooser returns a key index generator over [0, Keys): zipfian when
// ZipfS > 1 (rank 0 hottest), uniform otherwise.
func (j KVJob) chooser(rng *rand.Rand) func() int {
	n := max(j.Keys, 1)
	if j.ZipfS <= 1 {
		return func() int { return rng.IntN(n) }
	}
	// math/rand/v2 has no Zipf generator; bridge the v2 rng into the v1
	// rejection-inversion implementation. Zipf ranks are scattered over
	// the keyspace with a multiplicative hash so the hot set is not one
	// contiguous (same-page) run of keys.
	z := mrand.NewZipf(mrand.New(mrand.NewSource(int64(rng.Uint64()))), j.ZipfS, 1, uint64(n-1))
	return func() int {
		rank := z.Uint64()
		return int((rank * 0x9e3779b97f4a7c15) % uint64(n))
	}
}

// ---- latency histogram -----------------------------------------------

// Histogram is an HDR-style log-linear latency histogram: 64 linear
// sub-buckets per power-of-two decade of nanoseconds, i.e. ≤1.6%
// relative error, covering 1ns to ~150000s in a fixed 4096-counter
// array. Recording is lock-free (one atomic add); it is safe for
// concurrent use.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	total  atomic.Uint64
	max    atomic.Int64
}

const (
	histSubBits = 6 // 64 sub-buckets per decade
	histSub     = 1 << histSubBits
	histBuckets = 64 * histSub
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketOf maps a latency to its bucket index.
func bucketOf(d time.Duration) int {
	v := uint64(d)
	if d < 0 {
		v = 0
	}
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - histSubBits - 1
	idx := exp*histSub + int(v>>uint(exp))
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketLow returns the smallest value mapping to bucket i.
func bucketLow(i int) time.Duration {
	if i < histSub {
		return time.Duration(i)
	}
	exp := i/histSub - 1
	sub := i - exp*histSub
	return time.Duration(uint64(sub) << uint(exp))
}

// Record adds one latency observation.
func (h *Histogram) Record(d time.Duration) {
	h.counts[bucketOf(d)].Add(1)
	h.total.Add(1)
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Max returns the largest recorded value.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile returns the q-th quantile (0..1) as the lower bound of the
// bucket holding it, clamped to Max for the tail.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	want := uint64(q * float64(total))
	if want >= total {
		want = total - 1
	}
	var seen uint64
	for i := 0; i < histBuckets; i++ {
		seen += h.counts[i].Load()
		if seen > want {
			v := bucketLow(i)
			if m := h.Max(); v > m {
				return m
			}
			return v
		}
	}
	return h.Max()
}

// Mean returns the mean of the recorded observations (bucket lower
// bounds, so slightly pessimistic toward zero).
func (h *Histogram) Mean() time.Duration {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < histBuckets; i++ {
		if c := h.counts[i].Load(); c != 0 {
			sum += float64(bucketLow(i)) * float64(c)
		}
	}
	return time.Duration(sum / float64(total))
}

// WriteTo dumps the non-empty buckets as "lo_ns count" lines preceded
// by a summary header — the archived-artifact format of the nightly
// open-loop smoke.
func (h *Histogram) WriteTo(w io.Writer) (int64, error) {
	var written int64
	n, err := fmt.Fprintf(w, "# count=%d max_ns=%d p50_ns=%d p99_ns=%d p999_ns=%d\n",
		h.Count(), int64(h.Max()), int64(h.Quantile(0.5)), int64(h.Quantile(0.99)), int64(h.Quantile(0.999)))
	written += int64(n)
	if err != nil {
		return written, err
	}
	for i := 0; i < histBuckets; i++ {
		if c := h.counts[i].Load(); c != 0 {
			n, err := fmt.Fprintf(w, "%d %d\n", int64(bucketLow(i)), c)
			written += int64(n)
			if err != nil {
				return written, err
			}
		}
	}
	return written, nil
}
