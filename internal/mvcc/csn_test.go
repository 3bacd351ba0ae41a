package mvcc

import (
	"sync"
	"sync/atomic"
	"testing"

	"pgssi/internal/trace"
)

// Tests in this file cover the CSN snapshot scheme's edges: the
// commit-publication window, Status below the
// truncation floor, own-xid visibility, CSN monotonicity under
// concurrency, done-channel wakeup ordering and AutoTruncate's horizon.
// A few tests keep a "csn" subtest, the name they ran under while a
// second snapshot representation existed, so their results still compare
// with archived runs.

func TestOwnXIDNeverVisible(t *testing.T) {
	t.Run("csn", func(t *testing.T) {
		m := NewManager()
		self := m.Begin()
		if m.TakeSnapshot().Sees(self) {
			t.Fatal("snapshot must not see the caller's own in-progress xid")
		}
	})
}

// TestStatusBelowFloorAfterTruncation pins the truncated-region
// contract: absent committed entries resolve committed with an unknown
// seq, and a fresh snapshot sees them. Aborted xids left no entry to
// truncate: the log is empty once the floor passes them all.
func TestStatusBelowFloorAfterTruncation(t *testing.T) {
	t.Run("csn", func(t *testing.T) {
		m := NewManager()
		var committed []TxID
		for i := 0; i < 6; i++ {
			x := m.Begin()
			if i%2 == 0 {
				m.Commit(x)
				committed = append(committed, x)
			} else {
				m.Abort(x)
			}
		}
		if floor := m.AutoTruncate(m.OldestSnapshot()); floor != m.NextXID() {
			t.Fatalf("floor after truncation = %d, want %d", floor, m.NextXID())
		}
		for _, x := range committed {
			if st, seq := m.Status(x); st != StatusCommitted || seq != InvalidSeqNo {
				t.Fatalf("truncated committed xid %d: status %v seq %d, want committed/invalid", x, st, seq)
			}
			if !m.IsCommitted(x) {
				t.Fatalf("truncated committed xid %d must stay committed", x)
			}
		}
		if m.LogSize() != 0 {
			t.Fatalf("log size after truncation = %d, want 0", m.LogSize())
		}
		snap := m.TakeSnapshot()
		for _, x := range committed {
			if !snap.Sees(x) {
				t.Fatalf("truncated committed xid %d invisible to a fresh snapshot", x)
			}
		}
	})
}

// TestAutoTruncateFloorMonotone: a pass at a lower horizon than an
// earlier one leaves the floor and the log as they are.
func TestAutoTruncateFloorMonotone(t *testing.T) {
	m := NewManager()
	for i := 0; i < 4; i++ {
		m.Commit(m.Begin())
	}
	floor := m.AutoTruncate(2) // commits 1 and 2 are at or below the horizon
	if floor != 3 || m.LogSize() != 2 {
		t.Fatalf("floor %d, log size %d; want 3 and 2", floor, m.LogSize())
	}
	if got := m.AutoTruncate(1); got != floor || m.LogSize() != 2 {
		t.Fatalf("a lower horizon moved the floor to %d (log size %d)", got, m.LogSize())
	}
	if st, _ := m.Status(1); st != StatusCommitted {
		t.Fatalf("status below floor = %v, want committed", st)
	}
}

// TestAbortLeavesNoEntry: an abort is forgotten at once, with no
// truncation pass and while an older open transaction holds the floor
// down: the log holds only what is still running.
func TestAbortLeavesNoEntry(t *testing.T) {
	m := NewManager()
	pin := m.Begin()
	for i := 0; i < 1000; i++ {
		x := m.Begin()
		done := m.Done(x)
		m.Abort(x)
		<-done
		if st, _ := m.Status(x); st != StatusAborted {
			t.Fatalf("aborted xid %d above the floor reports %v", x, st)
		}
	}
	if n := m.LogSize(); n != 1 {
		t.Fatalf("after 1000 aborts under an open transaction the log holds %d entries, want 1", n)
	}
	m.Abort(pin)
	if n := m.LogSize(); n != 0 {
		t.Fatalf("log holds %d entries, want 0", n)
	}
}

// TestAutoTruncateHorizon: AutoTruncate must not pass the oldest active
// xid, nor a commit some active transaction's snapshot does not include.
func TestAutoTruncateHorizon(t *testing.T) {
	m := NewManager()
	a := m.Begin()
	m.Commit(a)

	// pin began after a's commit: a is truncatable.
	pin := m.Begin()
	pinSnap := m.TakeSnapshot()

	// b commits after pin's snapshot: NOT truncatable while pin lives.
	b := m.Begin()
	m.Commit(b)

	m.AutoTruncate(m.OldestSnapshot())
	if st, _ := m.Status(a); st != StatusCommitted {
		t.Fatalf("a should remain committed, got %v", st)
	}
	if m.lookup(a) != nil {
		t.Fatal("a (committed below every active snapshot) should be truncated")
	}
	if m.lookup(b) == nil {
		t.Fatal("b (committed after an active snapshot) must not be truncated")
	}
	if pinSnap.Sees(b) {
		t.Fatal("pin's snapshot must not see b")
	}
	if !pinSnap.Sees(a) {
		t.Fatal("pin's snapshot must see a, truncated or not")
	}

	// Once pin finishes and a fresh transaction (whose snapshot covers
	// b) is the oldest active, b becomes truncatable; pin, aborted, has
	// no entry at all.
	c := m.Begin()
	m.Abort(pin)
	m.AutoTruncate(m.OldestSnapshot())
	if m.lookup(b) != nil {
		t.Fatal("b should be truncated once every active snapshot covers it")
	}
	if m.lookup(pin) != nil {
		t.Fatal("aborted pin kept a commit-log entry")
	}
	if st, _ := m.Status(b); st != StatusCommitted {
		t.Fatalf("truncated b reports %v, want committed", st)
	}
	_ = c
}

// TestAutoTruncateStopsAtActiveXID: an old active transaction pins the
// floor even when everything around it committed.
func TestAutoTruncateStopsAtActiveXID(t *testing.T) {
	m := NewManager()
	old := m.Begin() // xid 1, stays active
	for i := 0; i < 10; i++ {
		m.Commit(m.Begin())
	}
	m.AutoTruncate(m.OldestSnapshot())
	if got := TxID(m.logFloor.Load()); got != old {
		t.Fatalf("floor = %d, want pinned at active xid %d", got, old)
	}
	m.Commit(old)
	m.AutoTruncate(m.OldestSnapshot())
	if got, want := TxID(m.logFloor.Load()), m.NextXID(); got != want {
		t.Fatalf("floor after drain = %d, want %d", got, want)
	}
	if m.LogSize() != 0 {
		t.Fatalf("log size after full truncation = %d, want 0", m.LogSize())
	}
}

// TestCSNMonotonicUnderConcurrency hammers Commit/Abort from many
// goroutines and asserts the commit sequence is assigned without gaps
// visible to snapshots, strictly monotone, and wrap-free: at quiesce,
// CurrentSeq equals the number of commits, and every published CSN was
// observed exactly once.
func TestCSNMonotonicUnderConcurrency(t *testing.T) {
	m := NewManager()
	const workers = 8
	const perWorker = 400
	var commits atomic.Int64
	seqs := make([]atomic.Int64, workers*perWorker+1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var last SeqNo
			for i := 0; i < perWorker; i++ {
				x := m.Begin()
				if (i+w)%3 == 0 {
					m.Abort(x)
					continue
				}
				seq := m.Commit(x)
				if seq <= last {
					t.Errorf("commit seq %d not above this goroutine's previous %d", seq, last)
					return
				}
				last = seq
				commits.Add(1)
				seqs[seq].Add(1)
			}
		}(w)
	}
	wg.Wait()
	if got, want := m.CurrentSeq(), SeqNo(commits.Load()); got != want {
		t.Fatalf("published seq %d != commit count %d", got, want)
	}
	for s := SeqNo(1); s <= m.CurrentSeq(); s++ {
		if n := seqs[s].Load(); n != 1 {
			t.Fatalf("seq %d assigned %d times", s, n)
		}
	}
	if m.ActiveCount() != 0 {
		t.Fatalf("active = %d, want 0", m.ActiveCount())
	}
}

// TestDoneClosesOnlyAfterCommitVisible pins the wakeup ordering: a
// waiter woken by Done(xid) must find the commit published — a snapshot
// taken at wakeup sees it, and Status resolves it committed with a CSN
// at or below that snapshot's.
func TestDoneClosesOnlyAfterCommitVisible(t *testing.T) {
	t.Run("csn", func(t *testing.T) {
		m := NewManager()
		for i := 0; i < 200; i++ {
			x := m.Begin()
			done := m.Done(x)
			errc := make(chan string, 1)
			go func() {
				<-done
				snap := m.TakeSnapshot()
				st, seq := m.Status(x)
				switch {
				case st != StatusCommitted:
					errc <- "woken waiter saw status " + st.String()
				case seq > snap.SeqNo:
					errc <- "woken waiter's snapshot predates the commit"
				case !snap.Sees(x):
					errc <- "woken waiter's snapshot does not see the commit"
				default:
					errc <- ""
				}
			}()
			m.Commit(x)
			if msg := <-errc; msg != "" {
				t.Fatalf("iteration %d: %s", i, msg)
			}
		}
	})
}

// TestCSNPublicationWindowFenced parks a committer at the CSNPublish
// point, just before its CSN assignment and commit-log publication, and
// proves the fence: a snapshot taken there excludes the commit entirely —
// before AND after publication — while a snapshot taken after the commit
// completes includes it. The mutation table's "CSN assigned before
// publication" entry (mutants_test.go) parks the committer between the
// two instead, and the same snapshot then resolves the commit first
// in-progress, then committed.
func TestCSNPublicationWindowFenced(t *testing.T) {
	inWindow := make(chan struct{})
	release := make(chan struct{})
	var armed atomic.Bool
	m := New(Config{Trace: func(ev trace.Event) {
		if ev.Point == trace.CSNPublish && armed.CompareAndSwap(true, false) {
			close(inWindow)
			<-release
		}
	}})
	x := m.Begin()
	armed.Store(true)
	committed := make(chan SeqNo, 1)
	go func() { committed <- m.Commit(x) }()

	<-inWindow
	snap := m.TakeSnapshot()
	if snap.Sees(x) {
		t.Fatal("snapshot in the publication window must not see the unpublished commit")
	}
	close(release)
	seq := <-committed

	// The SAME snapshot still excludes the commit after publication:
	// all or nothing.
	if snap.Sees(x) {
		t.Fatal("fenced snapshot changed its mind after publication (torn snapshot)")
	}
	if seq != SeqNo(1) || snap.SeqNo >= seq {
		t.Fatalf("window snapshot CSN %d should predate the commit CSN %d", snap.SeqNo, seq)
	}
	if after := m.TakeSnapshot(); !after.Sees(x) {
		t.Fatal("post-commit snapshot must see the commit")
	}
}
