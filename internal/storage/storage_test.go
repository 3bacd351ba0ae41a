package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pgssi/internal/mvcc"
	"pgssi/internal/trace"
	"pgssi/internal/waitgraph"
)

type harness struct {
	t   *testing.T
	mgr *mvcc.Manager
	tbl *Table
	wg  *waitgraph.Graph
}

func newHarness(t *testing.T) *harness {
	return &harness{t: t, mgr: mvcc.NewManager(), tbl: NewTable("t", Config{}), wg: waitgraph.New()}
}

type txn struct {
	xid  mvcc.TxID
	snap *mvcc.Snapshot
}

func (h *harness) begin() *txn {
	xid := h.mgr.Begin()
	return &txn{xid: xid, snap: h.mgr.TakeSnapshot()}
}

func (h *harness) insert(tx *txn, key, val string) error {
	_, err := h.tbl.Insert(key, []byte(val), tx.xid, 0, tx.snap, h.mgr, h.wg)
	return err
}

func (h *harness) update(tx *txn, key, val string) error {
	_, err := h.tbl.Update(key, []byte(val), tx.xid, 0, tx.snap, h.mgr, h.wg, nil)
	return err
}

// pageOf returns the heap page key's row lives on (the key must have a
// slot).
func (h *harness) pageOf(key string) int64 {
	row, _, _ := h.tbl.index.Lookup(key, nil)
	return row.page
}

func (h *harness) get(tx *txn, key string) (string, bool) {
	res := h.tbl.Get(key, tx.snap, tx.xid, h.mgr)
	if res.Tuple == nil {
		return "", false
	}
	return string(res.Tuple.Value), true
}

func TestInsertVisibleAfterCommitOnly(t *testing.T) {
	h := newHarness(t)
	w := h.begin()
	if err := h.insert(w, "a", "1"); err != nil {
		t.Fatal(err)
	}
	// Own write visible to self.
	if v, ok := h.get(w, "a"); !ok || v != "1" {
		t.Fatalf("own write invisible: %q %v", v, ok)
	}
	// Invisible to a concurrent reader.
	r := h.begin()
	if _, ok := h.get(r, "a"); ok {
		t.Fatal("uncommitted insert visible to concurrent snapshot")
	}
	h.mgr.Commit(w.xid)
	// Still invisible to the old snapshot.
	if _, ok := h.get(r, "a"); ok {
		t.Fatal("commit after snapshot must stay invisible")
	}
	// Visible to a new snapshot.
	r2 := h.begin()
	if v, ok := h.get(r2, "a"); !ok || v != "1" {
		t.Fatalf("committed insert invisible: %q %v", v, ok)
	}
}

func TestConflictOutReportsConcurrentWriter(t *testing.T) {
	h := newHarness(t)
	seed := h.begin()
	if err := h.insert(seed, "a", "1"); err != nil {
		t.Fatal(err)
	}
	h.mgr.Commit(seed.xid)

	r := h.begin()
	w := h.begin()
	if err := h.update(w, "a", "2"); err != nil {
		t.Fatal(err)
	}
	h.mgr.Commit(w.xid)

	res := h.tbl.Get("a", r.snap, r.xid, h.mgr)
	if res.Tuple == nil || string(res.Tuple.Value) != "1" {
		t.Fatalf("reader must still see old version, got %v", res.Tuple)
	}
	found := false
	for _, x := range res.ConflictOut {
		if x == w.xid {
			found = true
		}
	}
	if !found {
		t.Fatalf("conflict-out must name the concurrent writer %d, got %v", w.xid, res.ConflictOut)
	}
}

func TestFirstUpdaterWins(t *testing.T) {
	h := newHarness(t)
	seed := h.begin()
	_ = h.insert(seed, "a", "1")
	h.mgr.Commit(seed.xid)

	t1 := h.begin()
	t2 := h.begin()
	if err := h.update(t1, "a", "t1"); err != nil {
		t.Fatal(err)
	}
	h.mgr.Commit(t1.xid)
	// t2's snapshot predates t1's commit: first-updater-wins.
	if err := h.update(t2, "a", "t2"); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("want ErrWriteConflict, got %v", err)
	}
}

func TestWriterBlocksOnInProgressHolderThenConflicts(t *testing.T) {
	h := newHarness(t)
	seed := h.begin()
	_ = h.insert(seed, "a", "1")
	h.mgr.Commit(seed.xid)

	t1 := h.begin()
	t2 := h.begin()
	if err := h.update(t1, "a", "t1"); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		close(started)
		errCh <- h.update(t2, "a", "t2")
	}()
	<-started
	h.mgr.Commit(t1.xid)
	if err := <-errCh; !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("blocked writer must fail after holder commits, got %v", err)
	}
}

func TestWriterProceedsAfterHolderAborts(t *testing.T) {
	h := newHarness(t)
	seed := h.begin()
	_ = h.insert(seed, "a", "1")
	h.mgr.Commit(seed.xid)

	t1 := h.begin()
	t2 := h.begin()
	if err := h.update(t1, "a", "t1"); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- h.update(t2, "a", "t2") }()
	h.mgr.Abort(t1.xid)
	if err := <-errCh; err != nil {
		t.Fatalf("writer must proceed after holder aborts: %v", err)
	}
	h.mgr.Commit(t2.xid)
	r := h.begin()
	if v, _ := h.get(r, "a"); v != "t2" {
		t.Fatalf("value = %q, want t2", v)
	}
}

func TestDeadlockDetectedOnTupleWaits(t *testing.T) {
	h := newHarness(t)
	seed := h.begin()
	_ = h.insert(seed, "a", "1")
	_ = h.insert(seed, "b", "1")
	h.mgr.Commit(seed.xid)

	t1 := h.begin()
	t2 := h.begin()
	if err := h.update(t1, "a", "x"); err != nil {
		t.Fatal(err)
	}
	if err := h.update(t2, "b", "x"); err != nil {
		t.Fatal(err)
	}
	// t1 waits for b (held by t2); t2 then waits for a (held by t1):
	// one of them must observe the deadlock.
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); errs <- h.update(t1, "b", "y") }()
	go func() { defer wg.Done(); errs <- h.update(t2, "a", "y") }()
	// One waits forever unless the other is killed: simulate the
	// engine aborting the deadlock victim.
	var sawDeadlock bool
	select {
	case err := <-errs:
		if errors.Is(err, ErrDeadlock) {
			sawDeadlock = true
		}
	}
	if !sawDeadlock {
		t.Fatal("expected a deadlock error from one waiter")
	}
	// Abort both so the remaining waiter wakes.
	h.mgr.Abort(t1.xid)
	h.mgr.Abort(t2.xid)
	wg.Wait()
}

func TestDeleteAndReinsert(t *testing.T) {
	h := newHarness(t)
	seed := h.begin()
	_ = h.insert(seed, "a", "1")
	h.mgr.Commit(seed.xid)

	d := h.begin()
	if _, err := h.tbl.Delete("a", d.xid, 0, d.snap, h.mgr, h.wg, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.get(d, "a"); ok {
		t.Fatal("own delete must hide the row")
	}
	h.mgr.Commit(d.xid)

	i := h.begin()
	if err := h.insert(i, "a", "2"); err != nil {
		t.Fatalf("re-insert after committed delete: %v", err)
	}
	h.mgr.Commit(i.xid)
	r := h.begin()
	if v, _ := h.get(r, "a"); v != "2" {
		t.Fatalf("value = %q, want 2", v)
	}
}

func TestDuplicateInsertRejected(t *testing.T) {
	h := newHarness(t)
	seed := h.begin()
	_ = h.insert(seed, "a", "1")
	h.mgr.Commit(seed.xid)
	w := h.begin()
	if err := h.insert(w, "a", "2"); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("want ErrDuplicateKey, got %v", err)
	}
	// Insert of a key committed by a concurrent txn also fails.
	early := h.begin()
	w2 := h.begin()
	_ = h.insert(w2, "b", "1")
	h.mgr.Commit(w2.xid)
	if err := h.insert(early, "b", "2"); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("concurrent duplicate: want ErrDuplicateKey, got %v", err)
	}
}

func TestUpdateMissingKey(t *testing.T) {
	h := newHarness(t)
	w := h.begin()
	if err := h.update(w, "nope", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestSubxactUndoRestoresPreviousState(t *testing.T) {
	h := newHarness(t)
	seed := h.begin()
	_ = h.insert(seed, "a", "base")
	h.mgr.Commit(seed.xid)

	tx := h.begin()
	if _, err := h.tbl.Update("a", []byte("sub"), tx.xid, 1, tx.snap, h.mgr, h.wg, nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := h.get(tx, "a"); v != "sub" {
		t.Fatalf("value = %q, want sub", v)
	}
	h.tbl.UndoSubxact("a", tx.xid, 1)
	if v, _ := h.get(tx, "a"); v != "base" {
		t.Fatalf("after undo, value = %q, want base", v)
	}
	// The write lock must be released: another txn can update after we
	// commit nothing on that key.
	h.mgr.Commit(tx.xid)
	o := h.begin()
	if err := h.update(o, "a", "other"); err != nil {
		t.Fatalf("update after undo: %v", err)
	}
}

func TestForEachVisibility(t *testing.T) {
	h := newHarness(t)
	seed := h.begin()
	for i := 0; i < 20; i++ {
		_ = h.insert(seed, fmt.Sprintf("k%02d", i), "v")
	}
	h.mgr.Commit(seed.xid)
	w := h.begin()
	_ = h.insert(w, "uncommitted", "v")
	r := h.begin()
	n := 0
	h.tbl.ForEach(r.snap, r.xid, h.mgr, func(tu *Tuple) bool { n++; return true })
	if n != 20 {
		t.Fatalf("visible rows = %d, want 20", n)
	}
	h.mgr.Abort(w.xid)
}

func TestVacuumRemovesDeadVersions(t *testing.T) {
	h := newHarness(t)
	seed := h.begin()
	_ = h.insert(seed, "a", "0")
	h.mgr.Commit(seed.xid)
	for i := 0; i < 10; i++ {
		w := h.begin()
		if err := h.update(w, "a", fmt.Sprintf("%d", i)); err != nil {
			t.Fatal(err)
		}
		h.mgr.Commit(w.xid)
	}
	removed := h.tbl.Vacuum(h.mgr.OldestSnapshot(), h.mgr)
	if removed < 9 {
		t.Fatalf("vacuum removed %d versions, want >= 9", removed)
	}
	r := h.begin()
	if v, _ := h.get(r, "a"); v != "9" {
		t.Fatalf("value after vacuum = %q, want 9", v)
	}
}

func TestPageAssignmentAdvances(t *testing.T) {
	h := newHarness(t)
	w := h.begin()
	pages := map[int64]bool{}
	for i := 0; i < TuplesPerPage*3; i++ {
		wr, err := h.tbl.Insert(fmt.Sprintf("k%04d", i), nil, w.xid, 0, w.snap, h.mgr, h.wg)
		if err != nil {
			t.Fatal(err)
		}
		pages[wr.Page] = true
	}
	if len(pages) < 3 {
		t.Fatalf("expected at least 3 heap pages, got %d", len(pages))
	}
}

// TestRowKeepsItsPage: the heap page is the slot's, given at the key's
// first insert; an update, a delete followed by a re-insert, and a
// rolled-back write all leave the row where it was, and every write
// reports that page.
func TestRowKeepsItsPage(t *testing.T) {
	h := newHarness(t)
	seed := h.begin()
	for i := 0; i < 3*TuplesPerPage; i++ {
		if err := h.insert(seed, fmt.Sprintf("k%04d", i), "v0"); err != nil {
			t.Fatal(err)
		}
	}
	h.mgr.Commit(seed.xid)
	const updated, reinserted, rolledBack = "k0010", "k0070", "k0130"
	home := map[string]int64{}
	for _, k := range []string{updated, reinserted, rolledBack} {
		home[k] = h.pageOf(k)
	}
	if home[updated] == home[reinserted] || home[reinserted] == home[rolledBack] {
		t.Fatalf("test rows share pages: %v", home)
	}
	wrote := func(what, key string, wr WriteResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s %s: %v", what, key, err)
		}
		if wr.Page != home[key] || h.pageOf(key) != home[key] {
			t.Fatalf("%s %s: write reports page %d, row is on %d, was on %d", what, key, wr.Page, h.pageOf(key), home[key])
		}
	}
	for i := 0; i < 5; i++ {
		w := h.begin()
		wr, err := h.tbl.Update(updated, []byte("v"), w.xid, 0, w.snap, h.mgr, h.wg, nil)
		wrote("update", updated, wr, err)
		h.mgr.Commit(w.xid)
	}
	w := h.begin()
	wr, err := h.tbl.Delete(reinserted, w.xid, 0, w.snap, h.mgr, h.wg, nil)
	wrote("delete", reinserted, wr, err)
	h.mgr.Commit(w.xid)
	w = h.begin()
	wr, err = h.tbl.Insert(reinserted, []byte("again"), w.xid, 0, w.snap, h.mgr, h.wg)
	wrote("re-insert", reinserted, wr, err)
	h.mgr.Commit(w.xid)

	w = h.begin()
	wr, err = h.tbl.Update(rolledBack, []byte("never"), w.xid, 0, w.snap, h.mgr, h.wg, nil)
	wrote("update (to be rolled back)", rolledBack, wr, err)
	h.tbl.UndoSubxact(rolledBack, w.xid, 0)
	h.mgr.Abort(w.xid)
	w = h.begin()
	wr, err = h.tbl.Update(rolledBack, []byte("after"), w.xid, 0, w.snap, h.mgr, h.wg, nil)
	wrote("update after rollback", rolledBack, wr, err)
	h.mgr.Commit(w.xid)

	// Readers are told the same page, whichever version they see.
	r := h.begin()
	for k, page := range home {
		if res := h.tbl.Get(k, r.snap, r.xid, h.mgr); res.Tuple == nil || res.Page != page {
			t.Fatalf("Get(%s) reports page %d (tuple %v), want %d", k, res.Page, res.Tuple, page)
		}
	}
	// A key first inserted now goes on the tail page, past the loaded ones.
	w = h.begin()
	wr, err = h.tbl.Insert("k0010x", nil, w.xid, 0, w.snap, h.mgr, h.wg)
	if err != nil || wr.Page <= home[rolledBack] {
		t.Fatalf("fresh key placed on page %d (%v), want one past %d", wr.Page, err, home[rolledBack])
	}
}

// --- per-page read latch (latch.go) ---

// TestReadLatchExcludesWriter proves the mutual exclusion the latch
// exists for: while a reader's callback is running, a writer of the same
// page cannot stamp the version — its Update completes only after the
// callback returns.
func TestReadLatchExcludesWriter(t *testing.T) {
	h := newHarness(t)
	w := h.begin()
	if err := h.insert(w, "a", "1"); err != nil {
		t.Fatal(err)
	}
	h.mgr.Commit(w.xid)

	r := h.begin()
	inCallback := make(chan struct{})
	releaseReader := make(chan struct{})
	readerDone := make(chan struct{})
	writerDone := make(chan struct{})

	go func() {
		defer close(readerDone)
		h.tbl.Read("a", r.snap, r.xid, h.mgr, nil, true, func(res ReadResult) error {
			if res.Tuple == nil {
				t.Error("reader saw no tuple")
				return nil
			}
			close(inCallback)
			<-releaseReader
			return nil
		})
	}()

	<-inCallback
	u := h.begin()
	go func() {
		defer close(writerDone)
		if err := h.update(u, "a", "2"); err != nil {
			t.Errorf("update: %v", err)
		}
	}()

	// The writer must not complete while the reader holds the latch.
	// (Safe direction: a tardy scheduler can only make the timeout arm
	// win, never the failure arm.)
	select {
	case <-writerDone:
		t.Fatal("writer completed while reader's callback held the page latch")
	case <-time.After(50 * time.Millisecond):
	}
	close(releaseReader)
	<-readerDone
	<-writerDone
}

// TestWriteCheckRunsUnderLatch verifies the write side: the check
// callback observes the already-stamped version, runs before Update
// returns, and excludes readers of the page until it finishes.
func TestWriteCheckRunsUnderLatch(t *testing.T) {
	h := newHarness(t)
	w := h.begin()
	if err := h.insert(w, "a", "1"); err != nil {
		t.Fatal(err)
	}
	h.mgr.Commit(w.xid)

	u := h.begin()
	inCheck := make(chan struct{})
	releaseWriter := make(chan struct{})
	writerDone := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		_, err := h.tbl.Update("a", []byte("2"), u.xid, 0, u.snap, h.mgr, h.wg, func(wr WriteResult) error {
			close(inCheck)
			<-releaseWriter
			return nil
		})
		if err != nil {
			t.Errorf("update: %v", err)
		}
	}()

	<-inCheck
	r := h.begin()
	go func() {
		defer close(readerDone)
		h.tbl.Read("a", r.snap, r.xid, h.mgr, nil, true, func(ReadResult) error { return nil })
	}()
	select {
	case <-readerDone:
		t.Fatal("reader completed while the writer's check held the page latch")
	case <-time.After(50 * time.Millisecond):
	}
	close(releaseWriter)
	<-writerDone
	<-readerDone
	// The reader, having waited out the latch, sees the writer's
	// in-progress stamp and invisible new version: every conflict-out
	// entry names the writer.
	res := h.tbl.Get("a", r.snap, r.xid, h.mgr)
	if res.Tuple == nil || len(res.ConflictOut) == 0 {
		t.Fatalf("post-latch read should report the writer as conflict out, got %+v", res)
	}
	for _, xid := range res.ConflictOut {
		if xid != u.xid {
			t.Fatalf("conflict out names %d, want writer %d", xid, u.xid)
		}
	}
}

// TestWriteCheckErrorPropagates verifies a failing check surfaces as the
// write's error while leaving the stamp for the caller's abort path.
func TestWriteCheckErrorPropagates(t *testing.T) {
	h := newHarness(t)
	w := h.begin()
	if err := h.insert(w, "a", "1"); err != nil {
		t.Fatal(err)
	}
	h.mgr.Commit(w.xid)

	u := h.begin()
	boom := errors.New("boom")
	if _, err := h.tbl.Update("a", []byte("2"), u.xid, 0, u.snap, h.mgr, h.wg, func(WriteResult) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("check error not propagated: %v", err)
	}
	// Aborting the writer reclaims the stamp.
	h.mgr.Abort(u.xid)
	r := h.begin()
	if v, ok := h.get(r, "a"); !ok || v != "1" {
		t.Fatalf("row not restored after aborted checked write: %q %v", v, ok)
	}
}

// TestOnReadHookFires verifies hook placement: between the visibility
// check and the callback.
func TestOnReadHookFires(t *testing.T) {
	var events []string
	cfg := Config{Trace: func(ev trace.Event) {
		events = append(events, "hook:"+ev.Table+"/"+ev.Key)
	}}
	h := &harness{t: t, mgr: mvcc.NewManager(), tbl: NewTable("t", cfg), wg: waitgraph.New()}
	w := h.begin()
	if err := h.insert(w, "a", "1"); err != nil {
		t.Fatal(err)
	}
	h.mgr.Commit(w.xid)
	r := h.begin()
	h.tbl.Read("a", r.snap, r.xid, h.mgr, nil, true, func(ReadResult) error {
		events = append(events, "callback")
		return nil
	})
	if len(events) != 2 || events[0] != "hook:t/a" || events[1] != "callback" {
		t.Fatalf("unexpected event order: %v", events)
	}
}
