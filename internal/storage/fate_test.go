package storage

import (
	"errors"
	"fmt"
	"testing"

	"pgssi/internal/mvcc"
)

// Tests for settled visibility (fates cached on versions) and for the
// places chains are tidied now that readers no longer do it: rollback,
// the next write, and modify's trim below the published horizon.

// version is a copy of one version of a row, as chain reads it.
type version struct {
	header
	Value []byte
}

// chain returns copies of key's version chain, newest first.
func (h *harness) chain(key string) []version {
	tid, _, _ := h.tbl.index.Lookup(key, nil)
	if tid == 0 {
		return nil
	}
	pg := h.tbl.page(tid)
	pg.latch.RLock()
	defer pg.latch.RUnlock()
	var vs []version
	for i := pg.line[tid.slot()]; i != none; i = pg.hdrs[i].older {
		vs = append(vs, version{header: pg.hdrs[i], Value: pg.value(i)})
	}
	return vs
}

func (h *harness) commitUpdate(t *testing.T, key, val string) mvcc.TxID {
	t.Helper()
	w := h.begin()
	if err := h.update(w, key, val); err != nil {
		t.Fatal(err)
	}
	h.mgr.Commit(w.xid)
	return w.xid
}

// TestFatesSurviveLogTruncation: once a reader has settled a version, no
// later state of the commit log changes what it reads — not truncation
// of the committed entry (the CSN is still needed by an older snapshot's
// comparison), not the dropping of an aborted tombstone (which, asked
// afresh, would resolve "committed long ago").
func TestFatesSurviveLogTruncation(t *testing.T) {
	h := newHarness(t)
	seed := h.begin()
	_ = h.insert(seed, "a", "base")
	_ = h.insert(seed, "b", "base")
	h.mgr.Commit(seed.xid)

	// An aborted update of b whose versions are never unlinked (no
	// rollback pass, no later write): the stamped-and-abandoned case.
	ab := h.begin()
	if err := h.update(ab, "b", "aborted"); err != nil {
		t.Fatal(err)
	}
	h.mgr.Abort(ab.xid)

	old := h.begin() // pins a snapshot from before the next commit
	h.commitUpdate(t, "a", "new")

	// First readers settle the fates.
	late := h.begin()
	if v, _ := h.get(late, "a"); v != "new" {
		t.Fatalf("late reader sees a=%q, want new", v)
	}
	if v, _ := h.get(old, "a"); v != "base" {
		t.Fatalf("old reader sees a=%q, want base", v)
	}
	if v, ok := h.get(late, "b"); !ok || v != "base" {
		t.Fatalf("aborted update must read as not-happened, got %q %v", v, ok)
	}
	for _, v := range h.chain("a") {
		if v.minFate < fateCommitted {
			t.Fatalf("version %q of a not settled after being read: fate %d", v.Value, v.minFate)
		}
	}
	bs := h.chain("b")
	if len(bs) != 2 || bs[0].minFate != fateAborted || bs[1].maxFate != fateAborted {
		t.Fatalf("aborted head / aborted xmax of b not settled: %+v", bs)
	}

	// Now take the log away: everything below the next xid, committed
	// entries and aborted tombstones alike.
	floor := h.mgr.NextXID()
	h.mgr.Abort(old.xid) // the log cannot be truncated under an active xid...
	h.mgr.Abort(late.xid)
	h.mgr.AutoTruncate(h.mgr.OldestSnapshot())
	h.mgr.TruncateLog(floor)
	h.mgr.DropAbortedBelow(floor)
	if st, _ := h.mgr.Status(ab.xid); st != mvcc.StatusCommitted {
		t.Fatalf("precondition: the dropped aborted xid should now resolve committed from the log, got %v", st)
	}

	// ...but the snapshots themselves are just CSNs: reading with them
	// again must give the same answers, from the cache alone.
	if v, _ := h.get(old, "a"); v != "base" {
		t.Fatalf("after truncation old snapshot sees a=%q, want base", v)
	}
	if v, _ := h.get(late, "a"); v != "new" {
		t.Fatalf("after truncation late snapshot sees a=%q, want new", v)
	}
	for _, r := range []*txn{old, late, h.begin()} {
		if v, ok := h.get(r, "b"); !ok || v != "base" {
			t.Fatalf("after the tombstone was dropped the aborted update of b became visible: %q %v", v, ok)
		}
	}
}

// TestFateNeverOutlivesUndo: clearing or overwriting an xmax resets its
// cached fate, so a fate settled for one stamper is never read for the
// next.
func TestFateNeverOutlivesUndo(t *testing.T) {
	h := newHarness(t)
	seed := h.begin()
	_ = h.insert(seed, "a", "base")
	h.mgr.Commit(seed.xid)

	// Stamper 1 aborts without unlinking; a reader settles "aborted".
	s1 := h.begin()
	if _, err := h.tbl.Delete("a", s1.xid, 0, s1.snap, h.mgr, h.wg, nil); err != nil {
		t.Fatal(err)
	}
	h.mgr.Abort(s1.xid)
	r := h.begin()
	if _, ok := h.get(r, "a"); !ok {
		t.Fatal("aborted delete must read as not deleted")
	}
	if v := h.chain("a")[0]; v.maxFate != fateAborted {
		t.Fatalf("aborted xmax not settled: %d", v.maxFate)
	}

	// Stamper 2 deletes in a subtransaction: the write path clears the
	// aborted stamp, stamps its own, and the fate must be unknown again.
	s2 := h.begin()
	if _, err := h.tbl.Delete("a", s2.xid, 1, s2.snap, h.mgr, h.wg, nil); err != nil {
		t.Fatal(err)
	}
	if v := h.chain("a")[0]; v.xmax != s2.xid || v.maxFate != fateUnknown {
		t.Fatalf("restamp kept a stale fate: xmax=%d fate=%d", v.xmax, v.maxFate)
	}
	if _, ok := h.get(s2, "a"); ok {
		t.Fatal("own delete must hide the row")
	}
	// Savepoint rollback: stamp cleared, fate cleared, row back.
	h.tbl.UndoSubxact("a", s2.xid, 1)
	if v := h.chain("a")[0]; v.xmax != 0 || v.maxFate != fateUnknown {
		t.Fatalf("undo left xmax=%d fate=%d", v.xmax, v.maxFate)
	}
	if v, ok := h.get(s2, "a"); !ok || v != "base" {
		t.Fatalf("after savepoint rollback the row reads %q %v, want base", v, ok)
	}

	// Stamper 2 deletes again and commits; a reader settles "committed";
	// nothing may read that as the fate of a later stamp either.
	if _, err := h.tbl.Delete("a", s2.xid, 0, s2.snap, h.mgr, h.wg, nil); err != nil {
		t.Fatal(err)
	}
	h.mgr.Commit(s2.xid)
	if _, ok := h.get(h.begin(), "a"); ok {
		t.Fatal("committed delete must hide the row from later snapshots")
	}
	if _, ok := h.get(r, "a"); !ok {
		t.Fatal("committed delete must not hide the row from an earlier snapshot")
	}
}

// TestRollbackAndFailedWriteReadAsNotDeleted: the three ways a delete or
// update can fail to happen — full rollback (UndoSubxact from 0), a
// savepoint rollback, and a write whose check failed after the stamp
// (never undone, never in a write set) — all leave a row that reads as
// live, and that the next writer can take.
func TestRollbackAndFailedWriteReadAsNotDeleted(t *testing.T) {
	for _, how := range []string{"rollback", "savepoint", "failed-check"} {
		t.Run(how, func(t *testing.T) {
			h := newHarness(t)
			seed := h.begin()
			_ = h.insert(seed, "a", "base")
			h.mgr.Commit(seed.xid)

			w := h.begin()
			boom := errors.New("doomed")
			switch how {
			case "rollback":
				if err := h.update(w, "a", "w"); err != nil {
					t.Fatal(err)
				}
				h.tbl.UndoSubxact("a", w.xid, 0)
				if n := len(h.chain("a")); n != 1 {
					t.Fatalf("rollback left %d versions", n)
				}
				h.mgr.Abort(w.xid)
			case "savepoint":
				if _, err := h.tbl.Update("a", []byte("w"), w.xid, 3, w.snap, h.mgr, h.wg, nil); err != nil {
					t.Fatal(err)
				}
				h.tbl.UndoSubxact("a", w.xid, 3)
				h.mgr.Commit(w.xid) // the rest of the transaction commits
			case "failed-check":
				_, err := h.tbl.Update("a", []byte("w"), w.xid, 0, w.snap, h.mgr, h.wg, func(WriteResult) error { return boom })
				if !errors.Is(err, boom) {
					t.Fatal(err)
				}
				h.mgr.Abort(w.xid) // stamp and version stay behind
				if n := len(h.chain("a")); n != 2 {
					t.Fatalf("expected the abandoned version to still be linked, chain has %d", n)
				}
			}
			r := h.begin()
			if v, ok := h.get(r, "a"); !ok || v != "base" {
				t.Fatalf("row reads %q %v, want base", v, ok)
			}
			n := 0
			h.tbl.ForEach(r.snap, r.xid, h.mgr, func(_ string, v []byte) bool { n++; return string(v) == "base" })
			if n != 1 {
				t.Fatalf("scan sees %d rows, want 1", n)
			}
			// The next writer takes the row and, being a write, tidies it.
			h.commitUpdate(t, "a", "next")
			if c := h.chain("a"); len(c) != 2 || string(c[0].Value) != "next" || string(c[1].Value) != "base" {
				t.Fatalf("next write left chain %v", c)
			}
		})
	}
}

// TestTrimOnWriteRespectsPinnedSnapshot: while a reader is pinned, a
// thousand updates of its row may trim nothing it can see; once it is
// gone, the very next update cuts the chain down to the superseded
// version and its replacement.
func TestTrimOnWriteRespectsPinnedSnapshot(t *testing.T) {
	h := newHarness(t)
	seed := h.begin()
	_ = h.insert(seed, "a", "v0")
	h.mgr.Commit(seed.xid)
	h.commitUpdate(t, "a", "pinned")

	r := h.begin()
	for i := 0; i < 1000; i++ {
		h.commitUpdate(t, "a", fmt.Sprintf("u%d", i))
		h.mgr.AutoTruncate(h.mgr.OldestSnapshot()) // what the reclaimer does: publish the horizon
		if i%100 == 0 {
			if v, ok := h.get(r, "a"); !ok || v != "pinned" {
				t.Fatalf("after %d updates the pinned reader sees %q %v", i+1, v, ok)
			}
		}
	}
	if v, ok := h.get(r, "a"); !ok || v != "pinned" {
		t.Fatalf("pinned reader sees %q %v", v, ok)
	}
	// Everything older than what the pinned reader sees was trimmed long
	// ago; everything newer had to stay.
	if c := h.chain("a"); len(c) != 1001 || string(c[len(c)-1].Value) != "pinned" {
		t.Fatalf("chain under a pinned reader: %d versions, oldest %q; want 1001 ending at the pinned one", len(c), c[len(c)-1].Value)
	}
	h.mgr.Abort(r.xid)
	h.mgr.AutoTruncate(h.mgr.OldestSnapshot())
	h.commitUpdate(t, "a", "after")
	if c := h.chain("a"); len(c) > 2 {
		t.Fatalf("first update after the reader finished left %d versions, want <= 2", len(c))
	}
	if v, _ := h.get(h.begin(), "a"); v != "after" {
		t.Fatalf("value after trim = %q", v)
	}
}

// TestVacuumEmptiesDeadRowKeepsSlot: a fully dead row loses its versions
// but keeps its index slot, and the key can be inserted again.
func TestVacuumEmptiesDeadRowKeepsSlot(t *testing.T) {
	h := newHarness(t)
	seed := h.begin()
	_ = h.insert(seed, "a", "1")
	h.mgr.Commit(seed.xid)
	d := h.begin()
	if _, err := h.tbl.Delete("a", d.xid, 0, d.snap, h.mgr, h.wg, nil); err != nil {
		t.Fatal(err)
	}
	h.mgr.Commit(d.xid)
	if removed := h.tbl.Vacuum(h.mgr.OldestSnapshot(), h.mgr); removed != 1 {
		t.Fatalf("vacuum removed %d versions, want 1", removed)
	}
	if c := h.chain("a"); len(c) != 0 || h.tbl.Len() != 1 {
		t.Fatalf("after vacuum: %d versions, %d slots; want 0 and 1", len(c), h.tbl.Len())
	}
	i := h.begin()
	if err := h.insert(i, "a", "2"); err != nil {
		t.Fatal(err)
	}
	h.mgr.Commit(i.xid)
	if v, _ := h.get(h.begin(), "a"); v != "2" {
		t.Fatalf("reinserted value = %q", v)
	}
}
