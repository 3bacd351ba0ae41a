package storage

import (
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"pgssi/internal/mvcc"
)

// Tests for the heap page itself: a seeded model of version chains that
// every read path must agree with, values that outlive the arena they
// were read from, a page that stays small under endless churn, and the
// page latch around inserts.

var slowHeap = flag.Bool("slow", false, "run TestHeapMatchesModel with its long budget (nightly CI)")

// modelEvent is one committed change of a key: its commit CSN and what it
// left, a value or a deletion.
type modelEvent struct {
	csn mvcc.SeqNo
	val string
	del bool
}

// modelPend is one write of an open transaction, made in subtransaction
// sub: a key's pending writes are a stack that a savepoint rollback pops.
type modelPend struct {
	sub int32
	val string
	del bool
}

// modelTx is an open transaction of the model: a writer, or a reader
// holding its snapshot.
type modelTx struct {
	xid     mvcc.TxID
	snap    *mvcc.Snapshot
	writer  bool
	sub     int32   // the subtransaction writes are made in
	saves   []int32 // open savepoints, innermost last
	pending map[string][]modelPend
}

// heapModel is the reference the heap is checked against: every key's
// committed history, and the open transactions.
type heapModel struct {
	h       *harness
	keys    []string
	history map[string][]modelEvent
	open    []*modelTx
	nextSub int32
}

// visible is what tx must read for key: its own newest pending write, or
// else the newest committed change its snapshot sees.
func (m *heapModel) visible(tx *modelTx, key string) (string, bool) {
	if p := tx.pending[key]; len(p) > 0 {
		top := p[len(p)-1]
		return top.val, !top.del
	}
	return m.committed(tx.snap, key)
}

// committed is the newest committed change of key snap sees.
func (m *heapModel) committed(snap *mvcc.Snapshot, key string) (string, bool) {
	ev := m.history[key]
	for i := len(ev) - 1; i >= 0; i-- {
		if snap.SeesCommitted(ev[i].csn) {
			return ev[i].val, !ev[i].del
		}
	}
	return "", false
}

// lockedByOther reports whether another open transaction has written key
// (so a write by tx would block on it).
func (m *heapModel) lockedByOther(tx *modelTx, key string) bool {
	for _, o := range m.open {
		if o != tx && len(o.pending[key]) > 0 {
			return true
		}
	}
	return false
}

// expectWrite is the outcome the heap's write rules give tx's write of
// key: Update and Delete need a visible row and no change committed since
// tx's snapshot; Insert needs no visible row and no live version committed
// since.
func (m *heapModel) expectWrite(tx *modelTx, key string, insert bool) error {
	_, vis := m.visible(tx, key)
	if p := tx.pending[key]; len(p) > 0 {
		switch {
		case insert && vis:
			return ErrDuplicateKey
		case !insert && !vis:
			return ErrNotFound
		}
		return nil
	}
	ev := m.history[key]
	var last *modelEvent
	if len(ev) > 0 {
		last = &ev[len(ev)-1]
	}
	concurrent := last != nil && !tx.snap.SeesCommitted(last.csn)
	if insert {
		if vis || concurrent && !last.del {
			return ErrDuplicateKey
		}
		return nil
	}
	switch {
	case concurrent:
		return ErrWriteConflict
	case !vis:
		return ErrNotFound
	}
	return nil
}

// step applies one random operation to the heap and to the model.
func (m *heapModel) step(t *testing.T, rng *rand.Rand, n int) string {
	h := m.h
	var writers []*modelTx
	for _, o := range m.open {
		if o.writer {
			writers = append(writers, o)
		}
	}
	r := rng.IntN(100)
	switch {
	case r < 72 && r >= 8 && len(writers) == 0:
		r = 0 // no writer to write with: begin one
	case r < 84 && r >= 72 && len(m.open) == 0:
		return "skip"
	}
	switch {
	case r < 8:
		if len(m.open) >= 5 {
			return "skip"
		}
		xid := h.mgr.Begin()
		tx := &modelTx{xid: xid, snap: h.mgr.TakeSnapshot(), writer: rng.IntN(3) > 0 || len(writers) == 0, pending: map[string][]modelPend{}}
		m.open = append(m.open, tx)
		return fmt.Sprintf("begin %d writer=%v at %d", xid, tx.writer, tx.snap.SeqNo)
	case r < 60:
		tx := writers[rng.IntN(len(writers))]
		key := m.keys[rng.IntN(len(m.keys))]
		if m.lockedByOther(tx, key) {
			return "skip"
		}
		// Values of every length from empty up, each write's its own.
		val := ""
		if rng.IntN(8) > 0 {
			val = strings.Repeat("v", rng.IntN(24)) + fmt.Sprint(n)
		}
		var err error
		op := []string{"insert", "insert", "update", "update", "update", "delete"}[rng.IntN(6)]
		want := m.expectWrite(tx, key, op == "insert")
		switch op {
		case "insert":
			_, err = h.tbl.Insert(key, []byte(val), tx.xid, tx.sub, tx.snap, h.mgr, h.wg)
		case "update":
			_, err = h.tbl.Update(key, []byte(val), tx.xid, tx.sub, tx.snap, h.mgr, h.wg, nil)
		case "delete":
			_, err = h.tbl.Delete(key, tx.xid, tx.sub, tx.snap, h.mgr, h.wg, nil)
		}
		if !errors.Is(err, want) {
			t.Fatalf("step %d: %s %q by %d: got %v, want %v\n%s", n, op, key, tx.xid, err, want, h.tbl.DescribeRow(key, h.mgr))
		}
		if op == "delete" {
			val = ""
		}
		if err == nil {
			tx.pending[key] = append(tx.pending[key], modelPend{sub: tx.sub, val: val, del: op == "delete"})
		}
		return fmt.Sprintf("%s %q=%q by %d sub %d: %v", op, key, val, tx.xid, tx.sub, err)
	case r < 66:
		tx := writers[rng.IntN(len(writers))]
		m.nextSub++
		tx.saves = append(tx.saves, m.nextSub)
		tx.sub = m.nextSub
		return fmt.Sprintf("savepoint %d in %d", tx.sub, tx.xid)
	case r < 72:
		tx := writers[rng.IntN(len(writers))]
		if len(tx.saves) == 0 {
			return "skip"
		}
		at := rng.IntN(len(tx.saves))
		s := tx.saves[at]
		tx.saves = tx.saves[:at+1]
		for key, p := range tx.pending {
			if i := slices.IndexFunc(p, func(w modelPend) bool { return w.sub >= s }); i >= 0 {
				h.tbl.UndoSubxact(key, tx.xid, s)
				tx.pending[key] = p[:i]
			}
		}
		// Writes after the rollback belong to the savepoint, again.
		m.nextSub++
		tx.sub = m.nextSub
		tx.saves[at] = tx.sub
		return fmt.Sprintf("rollback to %d in %d", s, tx.xid)
	case r < 84:
		i := rng.IntN(len(m.open))
		tx := m.open[i]
		m.open = slices.Delete(m.open, i, i+1)
		if rng.IntN(4) == 0 {
			// Abort, in the engine's order: undo the write set, then
			// publish the abort.
			for key := range tx.pending {
				h.tbl.UndoSubxact(key, tx.xid, 0)
			}
			h.mgr.Abort(tx.xid)
			return fmt.Sprintf("abort %d", tx.xid)
		}
		csn := h.mgr.Commit(tx.xid)
		for key, p := range tx.pending {
			if len(p) > 0 {
				top := p[len(p)-1]
				m.history[key] = append(m.history[key], modelEvent{csn: csn, val: top.val, del: top.del})
			}
		}
		return fmt.Sprintf("commit %d at %d", tx.xid, csn)
	case r < 92:
		return fmt.Sprintf("horizon %d", h.mgr.OldestSnapshot())
	case r < 96:
		hz := h.mgr.OldestSnapshot()
		return fmt.Sprintf("vacuum at %d removed %d", hz, h.tbl.Vacuum(hz, h.mgr))
	default:
		hz := h.mgr.OldestSnapshot()
		return fmt.Sprintf("truncate at %d: floor %d", hz, h.mgr.AutoTruncate(hz))
	}
}

// check reads every key through every read path for every open
// transaction and compares with the model.
func (m *heapModel) check(t *testing.T, n int, op string) {
	h := m.h
	fail := func(tx *modelTx, how, key string, got []byte, gotOK bool) {
		want, ok := m.visible(tx, key)
		t.Fatalf("step %d (%s): %s of %q by %d at %d: got %q (present %v), want %q (present %v)\n%s",
			n, op, how, key, tx.xid, tx.snap.SeqNo, got, gotOK, want, ok, h.tbl.DescribeRow(key, h.mgr))
	}
	for _, tx := range m.open {
		self := mvcc.InvalidTxID
		if tx.writer {
			self = tx.xid
		}
		want := map[string]string{}
		for _, key := range m.keys {
			val, ok := m.visible(tx, key)
			if ok {
				want[key] = val
			}
			if res := h.tbl.Get(key, tx.snap, self, h.mgr); (res.Tuple != nil) != ok || string(res.Tuple) != val {
				fail(tx, "Get", key, res.Tuple, res.Tuple != nil)
			}
			var got []byte
			h.tbl.Read(key, tx.snap, self, h.mgr, nil, true, func(res ReadResult) error {
				got = res.Tuple
				return nil
			})
			if (got != nil) != ok || string(got) != val {
				fail(tx, "Read", key, got, got != nil)
			}
		}
		compare := func(how string, got map[string]string) {
			for _, key := range m.keys {
				g, gok := got[key]
				if w, wok := want[key]; gok != wok || g != w {
					fail(tx, how, key, []byte(g), gok)
				}
			}
		}
		for _, tracked := range []bool{false, true} {
			got := map[string]string{}
			registered := map[string]bool{}
			var onPage func(int64, []string) error
			if tracked {
				onPage = func(_ int64, keys []string) error {
					for _, k := range keys {
						registered[k] = true
					}
					return nil
				}
			}
			err := h.tbl.Scan("", "", tx.snap, self, h.mgr, nil, onPage, func(lf *Leaf) (bool, error) {
				for i, v := range lf.Vals {
					if v != nil {
						got[lf.Keys[i]] = string(v)
					}
				}
				return true, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			compare(fmt.Sprintf("Scan (tracked %v)", tracked), got)
			if tracked && len(registered) != len(got) {
				t.Fatalf("step %d: tracked scan registered %d rows, delivered %d", n, len(registered), len(got))
			}
		}
	}
}

// TestHeapMatchesModel interleaves, from a seed, inserts, updates and
// deletes of open transactions (some holding savepoints), savepoint
// rollbacks (UndoSubxact), commits and aborts (each after the rollback's
// undo pass), horizon moves (which drive prune-on-write),
// Vacuum and commit-log truncation, with readers holding snapshots across
// it all. Keys span three heap pages, whose headers and arenas fill and
// compact many times over. Every write's outcome must be the one the
// model's rules give, and after every step every key's value, for every
// open transaction, must be the model's through Get, Read and both kinds
// of Scan. -slow runs four times the seeds at five times the steps.
func TestHeapMatchesModel(t *testing.T) {
	seeds, steps := 3, 500
	if *slowHeap {
		seeds, steps = 12, 2500
	}
	for seed := range seeds {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(seed), 53))
			m := &heapModel{h: newHarness(t), history: map[string][]modelEvent{}}
			for i := range 3*TuplesPerPage - 40 {
				m.keys = append(m.keys, fmt.Sprintf("k%03d", i))
			}
			rng.Shuffle(len(m.keys), func(i, j int) { m.keys[i], m.keys[j] = m.keys[j], m.keys[i] })
			// Most keys start loaded, so most writes find a row.
			load := m.h.begin()
			for _, k := range m.keys[:len(m.keys)*3/4] {
				if err := m.h.insert(load, k, "loaded "+k); err != nil {
					t.Fatal(err)
				}
			}
			csn := m.h.mgr.Commit(load.xid)
			for _, k := range m.keys[:len(m.keys)*3/4] {
				m.history[k] = []modelEvent{{csn: csn, val: "loaded " + k}}
			}
			var trail []string
			for n := range steps {
				op := m.step(t, rng, n)
				if trail = append(trail, op); len(trail) > 12 {
					trail = trail[1:]
				}
				m.check(t, n, strings.Join(trail, "; "))
			}
		})
	}
}

// TestValueSurvivesCompaction: a value read from a page stays intact
// while the page's versions churn through many compactions, after its
// own version is gone from the page.
func TestValueSurvivesCompaction(t *testing.T) {
	h := newHarness(t)
	seed := h.begin()
	for _, k := range []string{"a", "b"} {
		if err := h.insert(seed, k, "first value of "+k); err != nil {
			t.Fatal(err)
		}
	}
	h.mgr.Commit(seed.xid)
	r := h.begin()
	kept := h.tbl.Get("a", r.snap, r.xid, h.mgr).Tuple
	want := string(kept)
	h.mgr.Commit(r.xid)

	tid, _, _ := h.tbl.index.Lookup("a", nil)
	pg := h.tbl.page(tid)
	arenas := map[*byte]bool{}
	for i := range 300 {
		h.commitUpdate(t, []string{"a", "b"}[i%2], fmt.Sprintf("value %d", i))
		h.mgr.OldestSnapshot()
		pg.latch.RLock()
		arenas[unsafe.SliceData(pg.arena)] = true
		pg.latch.RUnlock()
	}
	if len(h.chain("a")) > 2 {
		t.Fatalf("a's chain is %d versions long: the horizon did not trim it", len(h.chain("a")))
	}
	if len(arenas) < 5 {
		t.Fatalf("the page's arena was replaced %d times in 300 updates, want compactions", len(arenas)-1)
	}
	if string(kept) != want {
		t.Fatalf("a value read before %d compactions changed from %q to %q", len(arenas)-1, want, kept)
	}
}

// TestHeapChurnStaysBounded updates one row 100 000 times, committing
// each update and moving the horizon after it: the row's page must stay
// within a page's worth of headers (TuplesPerPage) and of arena (1 KiB,
// what 64 of its 16-byte values take), its chain within two versions.
func TestHeapChurnStaysBounded(t *testing.T) {
	h := newHarness(t)
	seed := h.begin()
	if err := h.insert(seed, "hot", "0000000000000000"); err != nil {
		t.Fatal(err)
	}
	h.mgr.Commit(seed.xid)
	tid, _, _ := h.tbl.index.Lookup("hot", nil)
	pg := h.tbl.page(tid)
	maxHdrs, maxArena := 0, 0
	for i := range 100000 {
		h.commitUpdate(t, "hot", fmt.Sprintf("%016d", i))
		h.mgr.OldestSnapshot()
		pg.latch.RLock()
		maxHdrs, maxArena = max(maxHdrs, cap(pg.hdrs)), max(maxArena, cap(pg.arena))
		pg.latch.RUnlock()
	}
	t.Logf("100 000 updates: at most %d headers and %d arena bytes", maxHdrs, maxArena)
	if maxHdrs > TuplesPerPage || maxArena > 1024 {
		t.Fatalf("one churning row grew its page to %d headers and %d arena bytes, want <= %d and <= 1024", maxHdrs, maxArena, TuplesPerPage)
	}
	if n := len(h.chain("hot")); n > 2 {
		t.Fatalf("chain of %d versions behind a moving horizon, want <= 2", n)
	}
}

// TestInsertWaitsForPageLatch: an insert changes its page's headers, so it
// must wait while a reader holds the page latched — here a serializable
// point read parked in its callback, where it registers its SIREAD lock.
func TestInsertWaitsForPageLatch(t *testing.T) {
	h := newHarness(t)
	seed := h.begin()
	if err := h.insert(seed, "a", "1"); err != nil {
		t.Fatal(err)
	}
	h.mgr.Commit(seed.xid)
	r := h.begin()
	inside, release := make(chan struct{}), make(chan struct{})
	go h.tbl.Read("a", r.snap, r.xid, h.mgr, nil, true, func(ReadResult) error {
		close(inside)
		<-release
		return nil
	})
	<-inside
	w := h.begin()
	done := make(chan error)
	go func() { done <- h.insert(w, "b", "2") }() // "b" gets the next slot of a's page
	select {
	case err := <-done:
		t.Fatalf("insert on a page held by a reader went ahead (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if h.pageOf("b") != h.pageOf("a") {
		t.Fatalf("b is on page %d, a on %d", h.pageOf("b"), h.pageOf("a"))
	}
}
