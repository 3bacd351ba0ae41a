package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pgssi"
)

// Spans are recorded from here, around the calls into each layer; the
// program under test carries none. The tree of one transaction is
// txn → attempt → op, and a span's self time is its duration minus its
// children's.

type spanKind uint8

const (
	spanTxn spanKind = iota
	spanAttempt
	spanBegin
	spanGet
	spanPut
	spanScan
	spanCommit
	spanRollback
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"txn", "attempt", "op:begin", "op:get", "op:put", "op:scan", "op:commit", "op:rollback"}

// span is one recorded interval. parent indexes the same recorder's
// spans (-1 for a txn); txn is the index of the transaction span it
// belongs to, the identifier its spans share.
type span struct {
	kind       spanKind
	parent     int32
	txn        int32
	start, end time.Duration // since the pass began
}

// recorder holds one client's spans in memory until the run ends. A nil
// recorder records nothing, which is how the measured run pays only a
// nil check.
type recorder struct {
	epoch    time.Time
	spans    []span
	stack    [3]int32 // open spans, outermost first
	depth    int
	scanRows int64
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, 1<<16)}
}

func (r *recorder) open(kind spanKind) {
	if r == nil {
		return
	}
	id := int32(len(r.spans))
	s := span{kind: kind, parent: -1, txn: id, start: time.Since(r.epoch)}
	if r.depth > 0 {
		s.parent = r.stack[r.depth-1]
		s.txn = r.stack[0]
	}
	r.spans = append(r.spans, s)
	r.stack[r.depth] = id
	r.depth++
}

func (r *recorder) close() {
	if r == nil {
		return
	}
	r.depth--
	r.spans[r.stack[r.depth]].end = time.Since(r.epoch)
}

// tracedConn records a span around every call into the connection.
type tracedConn struct {
	conn
	rec *recorder
}

func (t *tracedConn) Begin(level pgssi.IsolationLevel, readOnly, deferrable bool) (pgssi.Handle, pgssi.Status) {
	t.rec.open(spanBegin)
	defer t.rec.close()
	return t.conn.Begin(level, readOnly, deferrable)
}

func (t *tracedConn) Get(h pgssi.Handle, table, key string) ([]byte, pgssi.Status) {
	t.rec.open(spanGet)
	defer t.rec.close()
	return t.conn.Get(h, table, key)
}

func (t *tracedConn) Put(h pgssi.Handle, table, key string, value []byte) pgssi.Status {
	t.rec.open(spanPut)
	defer t.rec.close()
	return t.conn.Put(h, table, key, value)
}

func (t *tracedConn) Scan(h pgssi.Handle, table, lo, hi string, limit int) ([]pgssi.KV, pgssi.Status) {
	t.rec.open(spanScan)
	defer t.rec.close()
	rows, st := t.conn.Scan(h, table, lo, hi, limit)
	t.rec.scanRows += int64(len(rows))
	return rows, st
}

func (t *tracedConn) Commit(h pgssi.Handle) pgssi.Status {
	t.rec.open(spanCommit)
	defer t.rec.close()
	return t.conn.Commit(h)
}

func (t *tracedConn) Rollback(h pgssi.Handle) pgssi.Status {
	t.rec.open(spanRollback)
	defer t.rec.close()
	return t.conn.Rollback(h)
}

// passTrace is what one traced pass measured.
type passTrace struct {
	name string
	res  passResult
	recs []*recorder
	// total and count are summed over every span of a kind; median is
	// the median duration of one.
	total    [numSpanKinds]time.Duration
	count    [numSpanKinds]int64
	median   [numSpanKinds]time.Duration
	self     time.Duration // self time of txn and attempt spans: the harness's own
	scanRows int64
}

// perTxn is the time spent in spans of a kind per committed
// transaction, retried attempts included, in microseconds.
func (pt *passTrace) perTxn(k spanKind) float64 {
	if pt.res.commits == 0 {
		return 0
	}
	return float64(pt.total[k].Microseconds()) / float64(pt.res.commits)
}

// tracedPass drives the clients for window with a recorder each.
func (e *engine) tracedPass(name string, conns []conn, level pgssi.IsolationLevel, check bool, window time.Duration) *passTrace {
	pt := &passTrace{name: name, recs: make([]*recorder, len(conns))}
	epoch := time.Now()
	for i := range pt.recs {
		pt.recs[i] = newRecorder(epoch)
	}
	pt.res = e.drive(pass{conns: conns, level: level, check: check, first: timedFirst, recs: pt.recs, done: after(window)})
	var durs [numSpanKinds][]time.Duration
	for _, r := range pt.recs {
		pt.scanRows += r.scanRows
		children := make([]time.Duration, len(r.spans))
		for _, s := range r.spans {
			d := s.end - s.start
			pt.total[s.kind] += d
			pt.count[s.kind]++
			durs[s.kind] = append(durs[s.kind], d)
			if s.parent >= 0 {
				children[s.parent] += d
			}
		}
		for i, s := range r.spans {
			if s.kind == spanTxn || s.kind == spanAttempt {
				pt.self += s.end - s.start - children[i]
			}
		}
	}
	for k := range durs {
		if len(durs[k]) > 0 {
			sort.Slice(durs[k], func(i, j int) bool { return durs[k][i] < durs[k][j] })
			pt.median[k] = durs[k][len(durs[k])/2]
		}
	}
	return pt
}

// traceFile is what a traced run leaves in out/trace_<workload>.json:
// the per-pass aggregates, and the raw span trees of the first
// traceSampleTxns transactions of every client and pass (all of them
// would be hundreds of megabytes of JSON).
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Env      env                `json:"env"`
	Metrics  map[string]metric  `json:"metrics"`
	Passes   []tracePassSummary `json:"passes"`
}

type tracePassSummary struct {
	Name    string             `json:"name"`
	Seconds float64            `json:"seconds"`
	Commits int64              `json:"commits"`
	Retries int64              `json:"retries"`
	Failed  int64              `json:"failed"`
	Spans   map[string]spanAgg `json:"spans"`
	Sample  []spanJSON         `json:"sample"`
}

type spanAgg struct {
	Count    int64   `json:"count"`
	TotalUs  float64 `json:"total_us"`
	MedianUs float64 `json:"median_us"`
}

type spanJSON struct {
	ID      string  `json:"id"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	Txn     string  `json:"txn"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

const traceSampleTxns = 200

func (pt *passTrace) summary() tracePassSummary {
	s := tracePassSummary{
		Name: pt.name, Seconds: pt.res.elapsed.Seconds(),
		Commits: pt.res.commits, Retries: pt.res.retries, Failed: pt.res.failed,
		Spans: map[string]spanAgg{},
	}
	for k := spanKind(0); k < numSpanKinds; k++ {
		if pt.count[k] > 0 {
			s.Spans[spanNames[k]] = spanAgg{Count: pt.count[k], TotalUs: us(pt.total[k]), MedianUs: us(pt.median[k])}
		}
	}
	for c, r := range pt.recs {
		id := func(i int32) string { return fmt.Sprintf("c%d:%d", c, i) }
		txns := 0
		for i, sp := range r.spans {
			if sp.kind == spanTxn {
				if txns++; txns > traceSampleTxns {
					break
				}
			}
			j := spanJSON{ID: id(int32(i)), Name: spanNames[sp.kind], Txn: id(sp.txn), StartUs: us(sp.start), EndUs: us(sp.end)}
			if sp.parent >= 0 {
				j.Parent = id(sp.parent)
			}
			s.Sample = append(s.Sample, j)
		}
	}
	return s
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func writeJSON(path string, v any, indent bool) error {
	var b []byte
	var err error
	if indent {
		b, err = json.MarshalIndent(v, "", " ")
	} else {
		b, err = json.Marshal(v)
	}
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
