package storage

import (
	"errors"
	"fmt"
	"testing"

	"pgssi/internal/mvcc"
)

// Tests for settled visibility (fates cached on versions), for writes
// that did not happen leaving nothing behind (rollback, savepoint
// rollback, a failed check), and for modify's trim below the published
// horizon.

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
// of the committed entry, whose CSN an older snapshot's comparison still
// needs.
func TestFatesSurviveLogTruncation(t *testing.T) {
	h := newHarness(t)
	seed := h.begin()
	_ = h.insert(seed, "a", "base")
	h.mgr.Commit(seed.xid)

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
	for _, v := range h.chain("a") {
		if v.minFate < fateCommitted {
			t.Fatalf("version %q of a not settled after being read: fate %d", v.Value, v.minFate)
		}
	}

	// Now take the log away: everything below the next xid.
	h.mgr.Abort(old.xid) // the log cannot be truncated under an active xid...
	h.mgr.Abort(late.xid)
	if floor := h.mgr.AutoTruncate(h.mgr.OldestSnapshot()); floor != h.mgr.NextXID() || h.mgr.LogSize() != 0 {
		t.Fatalf("precondition: truncation left floor %d and %d entries", floor, h.mgr.LogSize())
	}

	// ...but the snapshots themselves are just CSNs: reading with them
	// again must give the same answers, from the cache alone.
	if v, _ := h.get(old, "a"); v != "base" {
		t.Fatalf("after truncation old snapshot sees a=%q, want base", v)
	}
	if v, _ := h.get(late, "a"); v != "new" {
		t.Fatalf("after truncation late snapshot sees a=%q, want new", v)
	}
}

// TestRollbackAndFailedWriteReadAsNotDeleted: the three ways a delete or
// update can fail to happen — full rollback (UndoSubxact from 0), a
// savepoint rollback, and a write whose check failed after the stamp
// (taken back by the write itself) — all leave the row as it was: one
// version, unstamped, that reads as live and that the next writer takes.
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
				h.mgr.Abort(w.xid) // nothing to undo: the write took itself back
			}
			if c := h.chain("a"); len(c) != 1 || c[0].xmax != 0 || string(c[0].Value) != "base" {
				t.Fatalf("the write that did not happen left chain %v", c)
			}
			r := h.begin()
			if v, ok := h.get(r, "a"); !ok || v != "base" {
				t.Fatalf("row reads %q %v, want base", v, ok)
			}
			if keys, vals := scanAll(t, h, r, nil); len(keys) != 1 || vals[0] != "base" {
				t.Fatalf("scan sees %v = %v, want a = base", keys, vals)
			}
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
