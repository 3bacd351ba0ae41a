package mvcc

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestBeginAssignsIncreasingXIDs(t *testing.T) {
	m := NewManager()
	a, b, c := m.Begin(), m.Begin(), m.Begin()
	if !(a < b && b < c) {
		t.Fatalf("xids not increasing: %d %d %d", a, b, c)
	}
	if a == InvalidTxID {
		t.Fatal("first xid must not be the invalid id")
	}
}

func TestSnapshotExcludesInProgress(t *testing.T) {
	m := NewManager()
	a := m.Begin()
	snap := m.TakeSnapshot()
	if snap.Sees(a) {
		t.Fatal("snapshot must not see in-progress transaction")
	}
	m.Commit(a)
	if snap.Sees(a) {
		t.Fatal("old snapshot must not see a commit that happened after it")
	}
	snap2 := m.TakeSnapshot()
	if !snap2.Sees(a) {
		t.Fatal("new snapshot must see the committed transaction")
	}
}

func TestSnapshotExcludesFutureXIDs(t *testing.T) {
	m := NewManager()
	snap := m.TakeSnapshot()
	b := m.Begin()
	m.Commit(b)
	if snap.Sees(b) {
		t.Fatal("snapshot must not see transactions started after it")
	}
}

func TestAbortedNeverVisible(t *testing.T) {
	m := NewManager()
	a := m.Begin()
	m.Abort(a)
	snap := m.TakeSnapshot()
	if snap.Sees(a) {
		t.Fatal("aborted transaction must never be visible")
	}
	if st, _ := m.Status(a); st != StatusAborted {
		t.Fatalf("status = %v, want aborted", st)
	}
}

func TestCommitSeqsAreStrictlyIncreasing(t *testing.T) {
	m := NewManager()
	var last SeqNo
	for i := 0; i < 100; i++ {
		x := m.Begin()
		seq := m.Commit(x)
		if seq <= last {
			t.Fatalf("commit seq %d not greater than previous %d", seq, last)
		}
		last = seq
	}
}

func TestSnapshotSeqNoOrdersCommits(t *testing.T) {
	m := NewManager()
	a := m.Begin()
	seqA := m.Commit(a)
	snap := m.TakeSnapshot()
	b := m.Begin()
	seqB := m.Commit(b)
	if !(seqA <= snap.SeqNo) {
		t.Fatal("a committed before the snapshot")
	}
	if seqB <= snap.SeqNo {
		t.Fatal("b committed after the snapshot")
	}
}

func TestDoneChannelClosesOnFinish(t *testing.T) {
	m := NewManager()
	a := m.Begin()
	done := m.Done(a)
	select {
	case <-done:
		t.Fatal("done closed before finish")
	default:
	}
	m.Commit(a)
	<-done // must not hang

	// Done of a finished transaction is already closed.
	<-m.Done(a)
}

func TestOldestActiveXID(t *testing.T) {
	m := NewManager()
	a := m.Begin()
	b := m.Begin()
	if got := m.OldestActiveXID(); got != a {
		t.Fatalf("oldest = %d, want %d", got, a)
	}
	m.Commit(a)
	if got := m.OldestActiveXID(); got != b {
		t.Fatalf("oldest = %d, want %d", got, b)
	}
	m.Commit(b)
	if got := m.OldestActiveXID(); got != m.NextXID() {
		t.Fatalf("oldest with none active = %d, want next xid %d", got, m.NextXID())
	}
}

// TestAutoTruncateDropsCommitted: a pass whose horizon covers the first
// five commits drops exactly their entries.
func TestAutoTruncateDropsCommitted(t *testing.T) {
	m := NewManager()
	var xids []TxID
	for i := 0; i < 10; i++ {
		x := m.Begin()
		m.Commit(x)
		xids = append(xids, x)
	}
	_, seq := m.Status(xids[4])
	m.AutoTruncate(seq)
	if m.LogSize() != 5 {
		t.Fatalf("log size = %d, want 5", m.LogSize())
	}
	// Truncated xids report committed.
	if st, _ := m.Status(xids[0]); st != StatusCommitted {
		t.Fatalf("truncated xid status = %v, want committed", st)
	}
}

// TestAttachLeavesWithRecord: what the layer above attaches to a record
// is found by one lookup, walked with the active set while the
// transaction runs, kept after its commit and forgotten with the record,
// at truncation or abort.
func TestAttachLeavesWithRecord(t *testing.T) {
	m := NewManager()
	a, b, c := m.Begin(), m.Begin(), m.Begin()
	m.Attach(a, "a")
	m.Attach(b, "b")
	if got := len(m.ActiveOwners(nil)); got != 2 {
		t.Fatalf("%d active owners, want 2", got)
	}
	seq := m.Commit(a)
	if o, s := m.Attached(a); o != "a" || s != seq {
		t.Fatalf("Attached(a) = %v, %d after commit, want a, %d", o, s, seq)
	}
	if got := m.ActiveOwners(nil); len(got) != 1 || got[0] != "b" {
		t.Fatalf("active owners %v after a committed, want [b]", got)
	}
	m.Abort(b)
	m.Attach(b, "late") // dropped with the record
	m.Commit(c)
	if got := m.Owners(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("owners %v, want [a]", got)
	}
	m.AutoTruncate(m.OldestSnapshot())
	if o, s := m.Attached(a); o != nil || s != InvalidSeqNo || len(m.Owners()) != 0 {
		t.Fatalf("Attached(a) = %v, %d after truncation, want nothing", o, s)
	}
}

func TestConcurrentBeginCommit(t *testing.T) {
	m := NewManager()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				x := m.Begin()
				if j%2 == 0 {
					m.Commit(x)
				} else {
					m.Abort(x)
				}
			}
		}()
	}
	wg.Wait()
	if m.ActiveCount() != 0 {
		t.Fatalf("active = %d, want 0", m.ActiveCount())
	}
}

// Property: against a model that records the step at which each
// transaction committed, every snapshot held sees exactly the
// transactions that committed before it was taken. The random op
// sequence begins, commits and aborts transactions, has open
// transactions take snapshots that they hold while others finish, and
// truncates the commit log at the horizon between steps; after every
// step each held snapshot, and one taken now, is checked against every
// xid ever assigned, except aborted xids below the truncation floor:
// nothing may ask about those (see Abort). A snapshot is held only while
// the transaction that took it is open, since only an open transaction
// pins the horizon (see the package comment).
func TestQuickSnapshotVisibility(t *testing.T) {
	type held struct {
		owner TxID
		snap  *Snapshot
		at    int // the step it was taken at
	}
	f := func(ops []uint8) bool {
		m := NewManager()
		var xids, open []TxID
		committedAt := map[TxID]int{}
		aborted := map[TxID]bool{}
		var snaps []held
		pick := func(op uint8) int { return int(op/5) % len(open) }
		finish := func(i int) TxID {
			x := open[i]
			open = slices.Delete(open, i, i+1)
			snaps = slices.DeleteFunc(snaps, func(h held) bool { return h.owner == x })
			return x
		}
		for step, op := range ops {
			switch op % 5 {
			case 0:
				x := m.Begin()
				xids = append(xids, x)
				open = append(open, x)
			case 1:
				if len(open) > 0 {
					x := finish(pick(op))
					m.Commit(x)
					committedAt[x] = step
				}
			case 2:
				if len(open) > 0 {
					x := finish(pick(op))
					m.Abort(x)
					aborted[x] = true
				}
			case 3:
				if len(open) > 0 {
					snaps = append(snaps, held{open[pick(op)], m.TakeSnapshot(), step})
				}
			case 4:
				m.AutoTruncate(m.OldestSnapshot())
			}
			now := held{snap: m.TakeSnapshot(), at: step + 1}
			for _, h := range append(snaps, now) {
				for _, x := range xids {
					if aborted[x] && x < TxID(m.logFloor.Load()) {
						continue
					}
					at, committed := committedAt[x]
					if want := committed && at < h.at; h.snap.Sees(x) != want {
						t.Logf("after step %d: snapshot taken at step %d sees xid %d = %v, want %v", step, h.at, x, !want, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
