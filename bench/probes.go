package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pgssi"
	"pgssi/internal/btree"
	"pgssi/internal/core"
	"pgssi/internal/mvcc"
	"pgssi/internal/storage"
	"pgssi/internal/waitgraph"
	"pgssi/internal/wal"
	"pgssi/internal/wire"
	"pgssi/internal/workload"
)

// The direct probes time calls into one layer's public functions with
// nothing else running, single-goroutine. They say what the layer costs
// by itself for a transaction of the workload's shape; the passes say
// what it costs in context.

// exchange is one request and its response, as the wire would carry
// them.
type exchange struct {
	req  wire.Request
	resp wire.Response
}

// wireTap records the exchanges of the transactions run over it.
type wireTap struct {
	conn
	log []exchange
}

func (w *wireTap) Begin(level pgssi.IsolationLevel, readOnly, deferrable bool) (pgssi.Handle, pgssi.Status) {
	h, st := w.conn.Begin(level, readOnly, deferrable)
	var flags uint8
	if readOnly {
		flags |= wire.FlagReadOnly
	}
	w.log = append(w.log, exchange{wire.Request{Op: wire.OpBegin, Isolation: level, Flags: flags}, wire.Response{Status: st, Handle: h}})
	return h, st
}

func (w *wireTap) Get(h pgssi.Handle, table, key string) ([]byte, pgssi.Status) {
	v, st := w.conn.Get(h, table, key)
	w.log = append(w.log, exchange{wire.Request{Op: wire.OpGet, Handle: h, Table: table, Key: key}, wire.Response{Status: st, Value: v, Found: st.OK()}})
	return v, st
}

func (w *wireTap) Put(h pgssi.Handle, table, key string, value []byte) pgssi.Status {
	st := w.conn.Put(h, table, key, value)
	w.log = append(w.log, exchange{wire.Request{Op: wire.OpPut, Handle: h, Table: table, Key: key, Value: value}, wire.Response{Status: st}})
	return st
}

func (w *wireTap) Scan(h pgssi.Handle, table, lo, hi string, limit int) ([]pgssi.KV, pgssi.Status) {
	rows, st := w.conn.Scan(h, table, lo, hi, limit)
	w.log = append(w.log, exchange{wire.Request{Op: wire.OpScan, Handle: h, Table: table, Key: lo, Hi: hi, Limit: uint32(limit)}, wire.Response{Status: st, Rows: rows}})
	return rows, st
}

func (w *wireTap) Commit(h pgssi.Handle) pgssi.Status {
	st := w.conn.Commit(h)
	w.log = append(w.log, exchange{wire.Request{Op: wire.OpCommit, Handle: h}, wire.Response{Status: st}})
	return st
}

func (w *wireTap) Rollback(h pgssi.Handle) pgssi.Status {
	st := w.conn.Rollback(h)
	w.log = append(w.log, exchange{wire.Request{Op: wire.OpRollback, Handle: h}, wire.Response{Status: st}})
	return st
}

// wireCost is what the codec does per transaction.
type wireCost struct {
	codecUs, bytes, roundTrips float64
}

// probeWire runs the workload's own transactions in process through a
// tap, then replays the recorded requests and responses through the
// codec and framing on a buffer: both directions, both ends.
func (e *engine) probeWire() (wireCost, error) {
	const txns = 200
	tap := &wireTap{conn: e.db.NewSession()}
	pcg := rand.NewPCG(0, 0)
	t := txn{cn: tap, level: e.p.level, rng: rand.New(pcg), check: true}
	for n := uint64(0); n < txns; n++ {
		e.serials[0]++
		t.serial = e.serials[0]
		pcg.Seed(e.p.seed, timedFirst+n)
		if st := e.ld.attempt(&t); !st.OK() {
			return wireCost{}, fmt.Errorf("wire probe transaction %d: %v", n, st)
		}
	}
	var buf bytes.Buffer
	var enc, frame []byte
	var nbytes int64
	replay := func() error {
		nbytes = 0
		for i := range tap.log {
			x := &tap.log[i]
			enc = wire.AppendRequest(enc[:0], &x.req)
			if err := wire.WriteFrame(&buf, enc); err != nil {
				return err
			}
			nbytes += int64(buf.Len())
			body, err := wire.ReadFrame(&buf, frame)
			if err != nil {
				return err
			}
			frame = body[:0]
			if _, err := wire.DecodeRequest(body); err != nil {
				return err
			}
			enc = wire.AppendResponse(enc[:0], &x.resp)
			if err := wire.WriteFrame(&buf, enc); err != nil {
				return err
			}
			nbytes += int64(buf.Len())
			if body, err = wire.ReadFrame(&buf, frame); err != nil {
				return err
			}
			frame = body[:0]
			if _, err := wire.DecodeResponse(body); err != nil {
				return err
			}
		}
		return nil
	}
	var rounds int
	begin := time.Now()
	for rounds == 0 || time.Since(begin) < e.p.probe {
		if err := replay(); err != nil {
			return wireCost{}, fmt.Errorf("wire probe: %w", err)
		}
		rounds++
	}
	return wireCost{
		codecUs:    us(time.Since(begin)) / float64(rounds*txns),
		bytes:      float64(nbytes) / txns,
		roundTrips: float64(len(tap.log)) / txns,
	}, nil
}

// probeCore times the lock manager alone on a transaction of the
// workload's shape: Begin, reads CheckReads, writes CheckWrites, Commit,
// in microseconds per transaction.
func probeCore(p params) float64 {
	mv := mvcc.NewManager()
	mgr := core.NewManager(mv, core.Config{})
	defer mgr.Close()
	const rowsPerPage = 64
	rng := rand.New(rand.NewPCG(p.seed, 1))
	keys := make([]string, p.spec.rows)
	for i := range keys {
		keys[i] = workload.LoadKey(i)
	}
	var n int
	begin := time.Now()
	for n == 0 || time.Since(begin) < p.probe {
		xid := mv.Begin()
		x, _ := mgr.Begin(xid, mv.TakeSnapshot, false, false)
		// Reads are consecutive rows, as a scan's are; for the two or
		// four reads of the point workloads it makes no difference.
		lo := rng.IntN(p.spec.rows)
		var err error
		for i := 0; i < p.spec.reads && err == nil; i++ {
			k := (lo + i) % p.spec.rows
			err = mgr.CheckRead(x, table, int64(k/rowsPerPage), keys[k], nil, false)
		}
		for i := 0; i < p.spec.writes && err == nil; i++ {
			k := rng.IntN(p.spec.rows)
			err = mgr.CheckWrite(x, table, int64(k/rowsPerPage), keys[k])
		}
		if err == nil {
			err = mgr.Commit(x, func() mvcc.SeqNo { return mv.Commit(xid) })
		}
		if err != nil {
			// Alone on the manager, nothing can conflict.
			panic(fmt.Sprintf("core probe: %v", err))
		}
		n++
	}
	return us(time.Since(begin)) / float64(n)
}

// probeMVCC times Begin + TakeSnapshot + Commit, in microseconds. The
// count is fixed because nothing truncates this manager's commit log.
func probeMVCC() float64 {
	mv := mvcc.NewManager()
	const n = 100_000
	begin := time.Now()
	for i := 0; i < n; i++ {
		xid := mv.Begin()
		mv.TakeSnapshot()
		mv.Commit(xid)
	}
	return us(time.Since(begin)) / n
}

// probeStorage builds a heap table and a B+-tree of the workload's size
// and times storage.Table.Get (ns per visible row) and btree.Tree.Range
// over 1000-key ranges (ns per key).
func probeStorage(p params) (getNs, rangeNsPerKey float64, err error) {
	mv := mvcc.NewManager()
	wg := waitgraph.New()
	tbl := storage.NewTable(table, storage.Config{})
	tree := btree.New()
	keys := make([]string, p.spec.rows)
	xid := mv.Begin()
	snap := mv.TakeSnapshot()
	for i := range keys {
		keys[i] = workload.LoadKey(i)
		if _, err := tbl.Insert(keys[i], value16(0), xid, 0, snap, mv, wg); err != nil {
			return 0, 0, fmt.Errorf("storage probe: insert: %w", err)
		}
		tree.Insert(keys[i], "")
	}
	mv.Commit(xid)
	snap = mv.TakeSnapshot()
	rng := rand.New(rand.NewPCG(p.seed, 2))

	var n int
	begin := time.Now()
	for n == 0 || time.Since(begin) < p.probe {
		for i := 0; i < 1000; i++ {
			if res := tbl.Get(keys[rng.IntN(len(keys))], snap, mvcc.InvalidTxID, mv); res.Tuple == nil {
				return 0, 0, fmt.Errorf("storage probe: preloaded row not visible")
			}
		}
		n += 1000
	}
	getNs = float64(time.Since(begin).Nanoseconds()) / float64(n)

	span := min(1000, len(keys))
	n = 0
	begin = time.Now()
	for n == 0 || time.Since(begin) < p.probe {
		lo := rng.IntN(len(keys) - span + 1)
		hi := ""
		if lo+span < len(keys) {
			hi = keys[lo+span]
		}
		got := 0
		tree.Range(keys[lo], hi, nil, func(string, string) bool { got++; return true })
		if got != span {
			return 0, 0, fmt.Errorf("btree probe: range returned %d keys, want %d", got, span)
		}
		n += got
	}
	rangeNsPerKey = float64(time.Since(begin).Nanoseconds()) / float64(n)
	return getNs, rangeNsPerKey, nil
}

// probeWALAppend times one committer alone on a durable log with the
// workload's configuration: Append of a one-Put commit record and the
// wait for the flush that covers it. Median, in microseconds.
func probeWALAppend(p params) (float64, error) {
	dir := filepath.Join(p.outDir, "data-walprobe")
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	cfg := p.dbConfig()
	l, err := wal.OpenDir(dir, wal.Config{SegmentSize: cfg.WALSegmentSize, Fsync: cfg.FsyncMode, GroupWindow: cfg.WALGroupWindow})
	if err != nil {
		return 0, err
	}
	var durs []time.Duration
	begin := time.Now()
	for seq := uint64(1); len(durs) == 0 || time.Since(begin) < p.probe; seq++ {
		rec := wal.Record{Seq: mvcc.SeqNo(seq), Xid: mvcc.TxID(seq),
			Ops: []wal.Op{{Table: table, Key: workload.LoadKey(int(seq)), Value: value16(seq)}}}
		t0 := time.Now()
		if err := l.Append(rec).Wait(); err != nil {
			l.Close()
			return 0, fmt.Errorf("wal probe: %w", err)
		}
		durs = append(durs, time.Since(t0))
	}
	if err := l.Close(); err != nil {
		return 0, err
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return us(durs[len(durs)/2]), nil
}
