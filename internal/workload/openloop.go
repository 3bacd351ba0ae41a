package workload

import (
	"bytes"
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

// The open loop, the key-value job and the latency histogram. A closed
// loop's offered load slows down with the engine, so queueing collapse
// stays invisible and its latency percentiles mean little. Open-loop
// arrivals follow their own process and are timed from their scheduled
// start, so overload shows up in p99/p999 and, past saturation, in
// dropped arrivals (Schroeder et al., "Open Versus Closed"). Each
// arrival still runs through the driver's one attempt loop, transact.

// openLoop starts a logical transaction at each arrival until the window
// closes, each on its own goroutine, and drops an arrival that finds
// MaxPending transactions in flight.
func (d *driver) openLoop(start time.Time) {
	arrivals := rand.New(rand.NewPCG(d.opts.Seed, 0x9e3779b97f4a7c15))
	mean := float64(time.Second) / d.opts.Rate
	var pending atomic.Int64
	var wg sync.WaitGroup
	next := start
	for seq := uint64(1); ; seq++ {
		gap := mean
		if d.opts.Arrival == ArrivalPoisson {
			gap = arrivals.ExpFloat64() * mean
		}
		if next = next.Add(time.Duration(gap)); next.After(d.deadline) {
			break
		}
		time.Sleep(time.Until(next))
		d.offered.Add(1)
		if pending.Load() >= int64(d.opts.MaxPending) {
			d.dropped.Add(1)
			continue
		}
		pending.Add(1)
		wg.Add(1)
		go func(scheduled time.Time, seq uint64) {
			defer wg.Done()
			defer pending.Add(-1)
			rng := rand.New(rand.NewPCG(d.opts.Seed+1, seq))
			d.transact(d.mix.pick(rng), rng, scheduled)
		}(next, seq)
	}
	wg.Wait()
}

// Session is the handle-based transactional surface KVJob runs against.
// It is the method set shared by pgssi.Session (in process) and
// wire.Client (over TCP) — the session layer is what makes the job
// transport-agnostic.
type Session interface {
	Begin(level pgssi.IsolationLevel, readOnly, deferrable bool) (pgssi.Handle, pgssi.Status)
	Get(h pgssi.Handle, table, key string) ([]byte, pgssi.Status)
	Put(h pgssi.Handle, table, key string, value []byte) pgssi.Status
	Commit(h pgssi.Handle) pgssi.Status
	Rollback(h pgssi.Handle) pgssi.Status
}

// LoadKey formats the i-th preload key. cmd/pgssid's preloader and
// cmd/pgload's key chooser must agree on this format.
func LoadKey(i int) string { return fmt.Sprintf("k%08d", i) }

// KVJob describes the standard key-value transaction: Reads gets plus
// Writes puts against zipfian-skewed keys in one transaction.
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
}

// Mix returns the one-job mix to Run the job from, READ ONLY when Writes
// is 0. The job has no Fn: run it with Attempt.
func (j KVJob) Mix() *Mix {
	return NewMix().Add(1, Job{Name: "kv", ReadOnly: j.Writes == 0})
}

// Attempt returns the Attempt that runs the job over sess. It is safe
// for concurrent calls iff sess is (both pgssi.Session and a
// dedicated-per-call wire.Client qualify).
func (j KVJob) Attempt(sess Session) Attempt {
	value := make([]byte, max(j.ValueSize, 1))
	for i := range value {
		value[i] = 'v'
	}
	return func(job *Job, level pgssi.IsolationLevel, rng *rand.Rand) error {
		chooser := j.chooser(rng)
		h, st := sess.Begin(level, job.ReadOnly, false)
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

// WriteTo dumps the non-empty buckets as "lo_ns count" lines preceded
// by a summary header — the archived-artifact format of the nightly
// open-loop smoke.
func (h *Histogram) WriteTo(w io.Writer) (int64, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# count=%d max_ns=%d p50_ns=%d p99_ns=%d p999_ns=%d\n",
		h.Count(), int64(h.Max()), int64(h.Quantile(0.5)), int64(h.Quantile(0.99)), int64(h.Quantile(0.999)))
	for i := 0; i < histBuckets; i++ {
		if c := h.counts[i].Load(); c != 0 {
			fmt.Fprintf(&b, "%d %d\n", int64(bucketLow(i)), c)
		}
	}
	return b.WriteTo(w)
}
