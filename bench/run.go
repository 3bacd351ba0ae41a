package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"pgssi"
	"pgssi/internal/core"
)

// processStart is when this program started; the first set-up of a run
// is timed from here.
var processStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env describes the machine and the fixed settings of a run; it is
// written into every result.
type env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	GitSHA     string `json:"git_sha"`
	Clients    int    `json:"clients"`
	Loop       string `json:"loop"`
	Fsync      string `json:"fsync"`
}

func describe(p params) env {
	e := env{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		GitSHA:     "unknown",
		Clients:    numClients,
		Loop:       "closed, zero think time",
		Fsync:      p.fsyncPolicy(),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	// Not every checkout is a git repository; the pipeline's is not.
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.GitSHA = strings.TrimSpace(string(b))
	}
	return e
}

// report is the outcome of one run, measured or traced.
type report struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	Isolation string  `json:"isolation"`
	Env       env     `json:"env"`
	// Correct is false if a correctness check failed or any
	// transaction did; CheckError says which.
	Correct    bool   `json:"correct"`
	CheckError string `json:"check_error,omitempty"`
	Attempted  int64  `json:"attempted"`
	Failed     int64  `json:"failed"`
	// Metrics are the ones BENCHMARK.json names: end to end for a
	// measured run, per layer for a traced one. Extra are printed and
	// stored beside them but gate nothing.
	Metrics map[string]metric `json:"metrics"`
	Extra   map[string]metric `json:"extra,omitempty"`

	order []string // every metric in the order it was added, for printing
}

func newReport(p params, trace bool) *report {
	return &report{Workload: p.spec.name, Seed: p.seed, Seconds: p.window.Seconds(), Trace: trace,
		Isolation: p.level.String(), Env: describe(p), Correct: true,
		Metrics: map[string]metric{}, Extra: map[string]metric{}}
}

// add records a metric BENCHMARK.json names, addExtra one it does not.
func (r *report) add(name string, value float64, unit string) {
	r.Metrics[name] = metric{value, unit}
	r.order = append(r.order, name)
}

func (r *report) addExtra(name string, value float64, unit string) {
	r.Extra[name] = metric{value, unit}
	r.order = append(r.order, name)
}

func (r *report) fail(err error) {
	if err != nil && r.Correct {
		r.Correct = false
		r.CheckError = err.Error()
	}
}

func (r *report) count(res passResult) {
	r.Attempted += res.started
	r.Failed += res.failed
	if res.failed > 0 {
		r.fail(fmt.Errorf("%d of %d transactions failed: %v", res.failed, res.started, res.err))
	}
}

// print writes every metric as "name{workload} value unit".
func (r *report) print(w io.Writer) {
	for _, name := range r.order {
		m, ok := r.Metrics[name]
		if !ok {
			m = r.Extra[name]
		}
		fmt.Fprintf(w, "%s{%s} %.6g %s\n", name, r.Workload, m.Value, m.Unit)
	}
	if !r.Correct {
		fmt.Fprintf(w, "CHECK FAILED{%s}: %s\n", r.Workload, r.CheckError)
	}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of sorted latencies, in milliseconds.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[min(int(q*float64(len(sorted))), len(sorted)-1)].Nanoseconds()) / 1e6
}

func sortedLatencies(samples []sample, kind int) []time.Duration {
	var out []time.Duration
	for _, s := range samples {
		if kind < 0 || int(s.kind) == kind {
			out = append(out, s.latency)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// finalCheck stops serving and verifies the database; a durable one is
// closed and reopened first, so what is verified is what recovery
// returns. It reports how long that close and reopen took. A traced run
// has already verified before its snapshot-isolation pass, so it asks
// again only for what recovery returns.
func (e *engine) finalCheck(r *report, verify bool) (recovery time.Duration) {
	r.fail(e.stopServing())
	if e.p.spec.durable {
		t0 := time.Now()
		r.fail(e.db.Close())
		db, err := pgssi.OpenDir(e.p.dataDir(), e.p.dbConfig())
		recovery = time.Since(t0)
		if err != nil {
			r.fail(fmt.Errorf("reopen: %w", err))
			return recovery
		}
		e.db = db
	}
	if verify {
		r.fail(e.ld.verify(e.db))
	}
	return recovery
}

// runMeasured is the run the end-to-end metrics come from: tracing off,
// one timed window over TCP.
func runMeasured(p params) (*report, error) {
	r := newReport(p, false)
	var e *engine
	var setups []float64
	for i := 0; i < p.setups; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		var err error
		if e, err = start(p); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < p.setups-1 {
			if err := e.stop(); err != nil {
				return nil, err
			}
		}
	}
	res := e.drive(pass{conns: e.tcpConns(), level: p.level, check: true, first: timedFirst, done: after(p.window)})
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.count(res)
	e.finalCheck(r, true)
	if err := e.stop(); err != nil {
		return nil, err
	}
	if res.commits == 0 {
		return nil, fmt.Errorf("no transaction committed: %v", res.err)
	}

	all := sortedLatencies(res.samples, -1)
	r.add("tps", res.tps(), "txn/s")
	r.add("p75_ms", quantile(all, 0.75), "ms")
	r.add("p95_ms", quantile(all, 0.95), "ms")
	r.add("attempts_per_commit", float64(res.commits+res.retries)/float64(res.commits), "ratio")
	r.add("setup_s", median(setups), "s")
	r.addExtra("failed_pct", 100*float64(res.failed)/float64(res.started), "%")
	r.addExtra("p50_ms", quantile(all, 0.50), "ms")
	r.addExtra("p99_ms", quantile(all, 0.99), "ms")
	r.addExtra("p999_ms", quantile(all, 0.999), "ms")
	r.addExtra("max_ms", quantile(all, 1), "ms")
	r.addExtra("samples", float64(len(all)), "count")
	r.addExtra("heap_mb", float64(ms.HeapInuse)/(1<<20), "MB")
	for kind, name := range kindNames {
		if lat := sortedLatencies(res.samples, kind); name != "" && len(lat) > 0 {
			r.addExtra(name+"_p50_ms", quantile(lat, 0.50), "ms")
		}
	}
	for i, s := range setups {
		r.addExtra(fmt.Sprintf("setup_%d_s", i+1), s, "s")
	}
	return r, writeJSON(filepath.Join(p.outDir, p.spec.name+".json"), r, false)
}

// runTraced is the run the per-layer metrics come from. After the same
// set-up it makes four passes of a quarter of the window each —
// untraced over TCP, traced over TCP, traced in process, traced in
// process under snapshot isolation — and then the direct probes.
// Layers are measured from outside: by the spans around calls into
// them and by differencing passes.
func runTraced(p params) (*report, error) {
	r := newReport(p, true)
	e, err := start(p)
	if err != nil {
		return nil, err
	}
	defer e.stop() // again on the way out of an error; stopping twice is harmless
	window := p.window / 4
	wal0 := e.db.WALStats()

	plain := e.drive(pass{conns: e.tcpConns(), level: p.level, check: true, first: timedFirst, done: after(window)})
	r.count(plain)
	core0 := e.db.SSIStats()
	tcp := e.tracedPass("tcp", e.tcpConns(), p.level, true, window)
	r.count(tcp.res)
	core1 := e.db.SSIStats()
	inproc := e.tracedPass("inproc", e.sessionConns(), p.level, true, window)
	r.count(inproc.res)
	// The invariants are checked before the snapshot-isolation pass,
	// which is expected to break skew_hot's.
	r.fail(e.ld.verify(e.db))
	si := e.tracedPass("inproc_si", e.sessionConns(), pgssi.RepeatableRead, false, window)
	r.count(si.res)
	wal1 := e.db.WALStats()
	if tcp.res.commits == 0 || inproc.res.commits == 0 || si.res.commits == 0 {
		return nil, fmt.Errorf("a pass committed nothing: %v %v %v", tcp.res.err, inproc.res.err, si.res.err)
	}

	wc, err := e.probeWire()
	if err != nil {
		return nil, err
	}
	r.add("wire.codec_us_per_txn", wc.codecUs, "us")
	r.add("wire.bytes_per_txn", wc.bytes, "bytes")
	r.add("wire.roundtrips_per_txn", wc.roundTrips, "count")

	r.add("server.overhead_us_per_op", serverOverhead(tcp, inproc), "us")

	r.add("session.begin_us", inproc.perTxn(spanBegin), "us")
	r.add("session.get_us", inproc.perTxn(spanGet), "us")
	r.add("session.put_us", inproc.perTxn(spanPut), "us")
	r.add("session.scan_us", inproc.perTxn(spanScan), "us")
	r.add("session.commit_us", inproc.perTxn(spanCommit), "us")
	r.add("session.txn_us", inproc.perTxn(spanTxn), "us")

	r.add("core.ssi_overhead_us_per_txn", inproc.perTxn(spanTxn)-si.perTxn(spanTxn), "us")
	r.add("core.ssi_vs_si_tps", inproc.res.tps()/si.res.tps(), "ratio")
	addCoreDeltas(r, core0, core1, tcp)
	r.add("core.direct_us_per_txn", probeCore(p), "us")

	r.add("mvcc.direct_us_per_txn", probeMVCC(), "us")
	r.add("mvcc.commitlog_entries", float64(e.db.CommitLogSize()), "count")

	var scanUsPerRow float64
	if inproc.scanRows > 0 {
		scanUsPerRow = us(inproc.total[spanScan]) / float64(inproc.scanRows)
	}
	r.add("storage.scan_us_per_row", scanUsPerRow, "us")
	getNs, rangeNs, err := probeStorage(p)
	if err != nil {
		return nil, err
	}
	r.add("storage.get_ns", getNs, "ns")
	r.add("btree.range_ns_per_key", rangeNs, "ns")

	// The log's work over all four passes; all zero without a durable
	// log.
	commits := float64(plain.commits + tcp.res.commits + inproc.res.commits + si.res.commits)
	var perFsync, appendUs float64
	if d := wal1.Fsyncs - wal0.Fsyncs; d > 0 {
		perFsync = float64(wal1.Appends-wal0.Appends) / float64(d)
	}
	if p.spec.durable {
		if appendUs, err = probeWALAppend(p); err != nil {
			return nil, err
		}
	}
	recovery := e.finalCheck(r, p.spec.durable)
	r.add("wal.commits_per_fsync", perFsync, "ratio")
	r.add("wal.bytes_per_commit", float64(wal1.BytesWritten-wal0.BytesWritten)/commits, "bytes")
	r.add("wal.checkpoints", float64(wal1.Checkpoints-wal0.Checkpoints), "count")
	r.add("wal.segments_gced", float64(wal1.SegmentsGCed-wal0.SegmentsGCed), "count")
	r.add("wal.append_sync_us", appendUs, "us")
	r.add("wal.recovery_s", recovery.Seconds(), "s")

	r.add("harness.self_us_per_txn", us(tcp.self)/float64(tcp.res.commits), "us")
	r.add("trace_overhead_pct", 100*(plain.tps()-tcp.res.tps())/plain.tps(), "%")

	for _, pt := range []*passTrace{tcp, inproc, si} {
		r.addExtra("tps_"+pt.name, pt.res.tps(), "txn/s")
	}
	r.addExtra("tps_tcp_untraced", plain.tps(), "txn/s")

	if err := e.stop(); err != nil {
		return nil, err
	}
	tf := traceFile{Workload: r.Workload, Seed: r.Seed, Env: r.Env, Metrics: r.Metrics,
		Passes: []tracePassSummary{tcp.summary(), inproc.summary(), si.summary()}}
	return r, writeJSON(filepath.Join(p.outDir, "trace_"+p.spec.name+".json"), tf, true)
}

// serverOverhead is what a round trip adds to an operation: per kind of
// operation, its median span over TCP minus its median span in process,
// and of those differences the median weighted by the operation mix.
// The median, because a kind whose time is mostly waiting (kv_durable's
// commit waits for an fsync shared differently in the two passes) says
// nothing about the round trip.
func serverOverhead(tcp, inproc *passTrace) float64 {
	type diff struct {
		us    float64
		count int64
	}
	var diffs []diff
	var ops int64
	for k := spanBegin; k < numSpanKinds; k++ {
		if n := min(tcp.count[k], inproc.count[k]); n > 0 {
			diffs = append(diffs, diff{us(tcp.median[k] - inproc.median[k]), n})
			ops += n
		}
	}
	sort.Slice(diffs, func(i, j int) bool { return diffs[i].us < diffs[j].us })
	var seen int64
	for _, d := range diffs {
		if seen += d.count; 2*seen >= ops {
			return d.us
		}
	}
	return 0
}

// addCoreDeltas reports what the lock manager did during the traced TCP
// pass, per commit, from its own counters.
func addCoreDeltas(r *report, a, b core.Stats, pt *passTrace) {
	commits := float64(pt.res.commits)
	r.add("core.siread_locks_per_commit", float64(b.LocksAcquired-a.LocksAcquired)/commits, "count")
	r.add("core.conflicts_per_commit", float64(b.ConflictsFlagged-a.ConflictsFlagged)/commits, "count")
	r.add("core.dangerous_aborts_per_1k", 1000*float64(b.DangerousAborts-a.DangerousAborts)/commits, "count")
	promotions := (b.TuplePromotions - a.TuplePromotions) + (b.PagePromotions - a.PagePromotions) + (b.CapacityPromotions - a.CapacityPromotions)
	r.add("core.promotions_per_1k", 1000*float64(promotions)/commits, "count")
	// The share of commits that ran on a safe snapshot (§4.2): only
	// read-only transactions can, so it is 0 where there are none.
	r.add("core.safe_ro_share", float64(b.SafeSnapshots-a.SafeSnapshots)/commits, "ratio")
}
