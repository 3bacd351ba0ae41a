package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sync/atomic"

	"pgssi"
	"pgssi/internal/workload"
)

const table = "kv"

// conn is the transactional surface a client drives. Both *wire.Client
// (over TCP) and *pgssi.Session (in process) implement it, which is what
// lets the traced run replay one operation stream against either.
type conn interface {
	Begin(level pgssi.IsolationLevel, readOnly, deferrable bool) (pgssi.Handle, pgssi.Status)
	Get(h pgssi.Handle, table, key string) ([]byte, pgssi.Status)
	Put(h pgssi.Handle, table, key string, value []byte) pgssi.Status
	Scan(h pgssi.Handle, table, lo, hi string, limit int) ([]pgssi.KV, pgssi.Status)
	Commit(h pgssi.Handle) pgssi.Status
	Rollback(h pgssi.Handle) pgssi.Status
}

// spec is one workload: its size, its transaction, and why it exists.
// The names and the whys are repeated in BENCHMARK.json.
type spec struct {
	name string
	rows int
	// warmup is the number of transactions committed before the timed
	// window; count-based, so a faster engine shortens setup_s.
	warmup int
	// durable opens the database on a directory with fsync=batch,
	// 1 MiB segments and a checkpoint every 1 MiB of log; otherwise it
	// is pgssid without -data: in memory with a wal.Log attached.
	durable bool
	// reads and writes are the tuple reads and writes of a typical
	// transaction, the shape of the direct core probe.
	reads, writes int
	newLoad       func(rows int) load
}

var specs = []spec{
	{name: "kv_uniform", rows: 1_000_000, warmup: 10_000, reads: 2, writes: 1, newLoad: newKVLoad},
	{name: "skew_hot", rows: 16, warmup: 10_000, reads: 4, writes: 1, newLoad: newSkewLoad},
	{name: "kv_durable", rows: 200_000, warmup: 2_000, durable: true, reads: 2, writes: 1, newLoad: newKVLoad},
	{name: "scan_readmostly", rows: 100_000, warmup: 3_000, reads: 730, writes: 1, newLoad: newScanLoad},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// Transaction kinds; latencies of scan_readmostly are also reported per
// kind, so a scan-path gain paid for by writers shows.
const (
	kindDefault = iota
	kindReport
	kindAdjust
	numKinds
)

var kindNames = [numKinds]string{kindReport: "report", kindAdjust: "adjust"}

// txn is one attempt's context. The rng is re-seeded to the same state
// for every attempt of a transaction, so a retry repeats the same
// choices.
type txn struct {
	cn     conn
	level  pgssi.IsolationLevel
	client int
	rng    *rand.Rand
	// serial increases with every transaction a client starts; kv
	// workloads write it, so the last acknowledged value of a key is
	// known exactly.
	serial uint64
	// check is false where an invariant is expected to break: the
	// snapshot-isolation pass of a traced run.
	check bool
	kind  int // set by the attempt
}

// load is a workload's data and transaction. Its methods are called by
// both client goroutines at once.
type load interface {
	// initial returns the preloaded value of row i.
	initial(i int) []byte
	// attempt runs one attempt of a transaction and returns StatusOK
	// if it committed, or the first status that stopped it.
	attempt(t *txn) pgssi.Status
	// verify checks the final state of the database and whatever the
	// transactions observed on the way.
	verify(db *pgssi.DB) error
}

// abort rolls back after a failed operation and returns its status.
func abort(cn conn, h pgssi.Handle, st pgssi.Status) pgssi.Status {
	cn.Rollback(h)
	return st
}

// value16 returns a 16-byte value carrying v in its first 8 bytes.
func value16(v uint64) []byte {
	b := make([]byte, 16)
	binary.BigEndian.PutUint64(b, v)
	copy(b[8:], "vvvvvvvv")
	return b
}

func decode16(b []byte) (uint64, bool) {
	if len(b) != 16 {
		return 0, false
	}
	return binary.BigEndian.Uint64(b), true
}

// ---- kv_uniform, kv_durable ------------------------------------------

// kvLoad is 2 uniform Gets and 1 Put per transaction. Client c writes
// only keys whose index is congruent to c modulo the client count, so
// writes never collide and acked[i] has a single writer.
type kvLoad struct {
	rows  int
	acked []uint64 // last acknowledged serial per row, 0 = preloaded value
}

func newKVLoad(rows int) load { return &kvLoad{rows: rows, acked: make([]uint64, rows)} }

func (k *kvLoad) initial(int) []byte { return value16(0) }

func (k *kvLoad) attempt(t *txn) pgssi.Status {
	r1, r2 := t.rng.IntN(k.rows), t.rng.IntN(k.rows)
	w := t.rng.IntN(k.rows/numClients)*numClients + t.client
	h, st := t.cn.Begin(t.level, false, false)
	if !st.OK() {
		return st
	}
	for _, r := range [2]int{r1, r2} {
		if _, st := t.cn.Get(h, table, workload.LoadKey(r)); !st.OK() {
			return abort(t.cn, h, st)
		}
	}
	if st := t.cn.Put(h, table, workload.LoadKey(w), value16(t.serial)); !st.OK() {
		return abort(t.cn, h, st)
	}
	if st := t.cn.Commit(h); !st.OK() {
		return st
	}
	k.acked[w] = t.serial
	return pgssi.StatusOK
}

// verify reads every row back: a row holds the last value whose commit
// was acknowledged, or the preloaded value if none was.
func (k *kvLoad) verify(db *pgssi.DB) error {
	return db.RunTx(pgssi.TxOptions{Isolation: pgssi.RepeatableRead, ReadOnly: true}, func(tx *pgssi.Tx) error {
		for i, want := range k.acked {
			v, err := tx.Get(table, workload.LoadKey(i))
			if err != nil {
				return fmt.Errorf("row %d: %w", i, err)
			}
			if got, ok := decode16(v); !ok || got != want {
				return fmt.Errorf("row %d holds %d, last acknowledged write is %d", i, got, want)
			}
		}
		return nil
	})
}

// ---- skew_hot ---------------------------------------------------------

// skewLoad is the paper's §2.1.1 on-call table: groups of 4 doctors,
// each on or off call. A transaction reads one group and flips one
// doctor, never taking the last one off call. "Every group has a doctor
// on call" then holds in every serial order, and breaks under snapshot
// isolation (write skew), which is what makes the check bite.
type skewLoad struct {
	groups     int
	violations atomic.Int64
}

const groupSize = 4

func newSkewLoad(rows int) load { return &skewLoad{groups: rows / groupSize} }

func (s *skewLoad) initial(int) []byte { return value16(1) }

func (s *skewLoad) attempt(t *txn) pgssi.Status {
	g := t.rng.IntN(s.groups)
	pick := t.rng.IntN(groupSize)
	h, st := t.cn.Begin(t.level, false, false)
	if !st.OK() {
		return st
	}
	var on, off []int
	for d := 0; d < groupSize; d++ {
		v, st := t.cn.Get(h, table, workload.LoadKey(g*groupSize+d))
		if !st.OK() {
			return abort(t.cn, h, st)
		}
		if x, _ := decode16(v); x == 1 {
			on = append(on, d)
		} else {
			off = append(off, d)
		}
	}
	if len(on) == 0 && t.check {
		s.violations.Add(1)
	}
	var d int
	var to uint64
	if len(on) >= 2 {
		d, to = on[pick%len(on)], 0
	} else {
		d, to = off[pick%len(off)], 1
	}
	if st := t.cn.Put(h, table, workload.LoadKey(g*groupSize+d), value16(to)); !st.OK() {
		return abort(t.cn, h, st)
	}
	return t.cn.Commit(h)
}

func (s *skewLoad) verify(db *pgssi.DB) error {
	if n := s.violations.Load(); n > 0 {
		return fmt.Errorf("%d transactions read a group with nobody on call", n)
	}
	return db.RunTx(pgssi.TxOptions{Isolation: pgssi.RepeatableRead, ReadOnly: true}, func(tx *pgssi.Tx) error {
		for g := 0; g < s.groups; g++ {
			on := 0
			for d := 0; d < groupSize; d++ {
				v, err := tx.Get(table, workload.LoadKey(g*groupSize+d))
				if err != nil {
					return fmt.Errorf("group %d: %w", g, err)
				}
				if x, _ := decode16(v); x == 1 {
					on++
				}
			}
			if on == 0 {
				return fmt.Errorf("group %d ends with nobody on call", g)
			}
		}
		return nil
	})
}

// ---- scan_readmostly --------------------------------------------------

// scanLoad is 70% read-only reports over 1000 consecutive rows and 30%
// adjustments that scan 100 rows and move one unit between two of them.
type scanLoad struct {
	rows       int
	reportLen  int
	adjustLen  int
	badReports atomic.Int64
}

const scanInitial = 1000

func newScanLoad(rows int) load {
	return &scanLoad{rows: rows, reportLen: min(1000, rows/2), adjustLen: min(100, rows/4)}
}

func (s *scanLoad) initial(int) []byte { return value16(scanInitial) }

func (s *scanLoad) attempt(t *txn) pgssi.Status {
	if t.rng.IntN(10) < 7 {
		t.kind = kindReport
		return s.report(t)
	}
	t.kind = kindAdjust
	return s.adjust(t)
}

func (s *scanLoad) report(t *txn) pgssi.Status {
	lo := t.rng.IntN(s.rows - s.reportLen + 1)
	h, st := t.cn.Begin(t.level, true, false)
	if !st.OK() {
		return st
	}
	rows, st := t.cn.Scan(h, table, workload.LoadKey(lo), workload.LoadKey(lo+s.reportLen), 0)
	if !st.OK() {
		return abort(t.cn, h, st)
	}
	if len(rows) != s.reportLen {
		s.badReports.Add(1)
	}
	return t.cn.Commit(h)
}

func (s *scanLoad) adjust(t *txn) pgssi.Status {
	lo := t.rng.IntN(s.rows - s.adjustLen + 1)
	from := t.rng.IntN(s.adjustLen)
	to := (from + 1 + t.rng.IntN(s.adjustLen-1)) % s.adjustLen
	h, st := t.cn.Begin(t.level, false, false)
	if !st.OK() {
		return st
	}
	rows, st := t.cn.Scan(h, table, workload.LoadKey(lo), workload.LoadKey(lo+s.adjustLen), 0)
	if !st.OK() {
		return abort(t.cn, h, st)
	}
	if len(rows) != s.adjustLen {
		s.badReports.Add(1)
		return abort(t.cn, h, pgssi.StatusInternal)
	}
	for _, m := range [2]struct {
		i     int
		delta uint64
	}{{from, ^uint64(0)}, {to, 1}} {
		v, _ := decode16(rows[m.i].Value)
		if st := t.cn.Put(h, table, rows[m.i].Key, value16(v+m.delta)); !st.OK() {
			return abort(t.cn, h, st)
		}
	}
	return t.cn.Commit(h)
}

// verify checks that adjustments neither lost nor created units or rows.
func (s *scanLoad) verify(db *pgssi.DB) error {
	if n := s.badReports.Load(); n > 0 {
		return fmt.Errorf("%d scans returned the wrong number of rows", n)
	}
	return db.RunTx(pgssi.TxOptions{Isolation: pgssi.RepeatableRead, ReadOnly: true}, func(tx *pgssi.Tx) error {
		count, sum := 0, uint64(0)
		err := tx.Scan(table, "", "", func(_ string, v []byte) bool {
			x, _ := decode16(v)
			count++
			sum += x
			return true
		})
		if err != nil {
			return err
		}
		if count != s.rows || sum != uint64(s.rows)*scanInitial {
			return fmt.Errorf("table holds %d rows summing to %d, preload was %d rows summing to %d",
				count, int64(sum), s.rows, s.rows*scanInitial)
		}
		return nil
	})
}
