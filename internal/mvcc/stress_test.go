package mvcc

import (
	"sync"
	"sync/atomic"
	"testing"
)

// commitPair is one recently committed transaction.
type commitPair struct {
	xid TxID
	seq SeqNo
}

// commitRing is a fixed-size ring of recently committed (xid, seq)
// pairs, shared between committer and snapshotter goroutines.
type commitRing struct {
	mu      sync.Mutex
	entries [256]commitPair
	n       int
}

func (r *commitRing) push(xid TxID, seq SeqNo) {
	r.mu.Lock()
	r.entries[r.n%len(r.entries)] = commitPair{xid, seq}
	r.n++
	r.mu.Unlock()
}

func (r *commitRing) sample(buf []commitPair) []commitPair {
	r.mu.Lock()
	n := r.n
	if n > len(r.entries) {
		n = len(r.entries)
	}
	buf = append(buf[:0], r.entries[:n]...)
	r.mu.Unlock()
	return buf
}

// TestSnapshotCommitTruncateStress races TakeSnapshot against
// Commit/Abort and reclaimer-style AutoTruncate across commit-log
// partitions, asserting the CSN invariant both ways: a snapshot must see
// every xid whose commit CSN is at or below its own CSN (truncated or
// not), and must never see one whose commit CSN is above it, an aborted
// xid, or an in-progress xid. Run with -race.
//
// Every snapshot checked here is pinned by an active transaction for
// the duration of its use, per the truncation contract (see the mvcc
// package comment): AutoTruncate's horizon covers exactly the snapshots
// of active transactions, the only kind the engine ever holds. An early
// version of this test took unpinned snapshots and duly watched
// truncation resolve post-snapshot commits as "committed long ago".
func TestSnapshotCommitTruncateStress(t *testing.T) {
	t.Run("csn", func(t *testing.T) {
		m := NewManager()
		const committers = 4
		const snapshotters = 3
		perWorker := 250
		if testing.Short() {
			perWorker = 60
		}
		var ring commitRing
		var stop atomic.Bool
		var commitWG, auxWG sync.WaitGroup

		for w := 0; w < committers; w++ {
			commitWG.Add(1)
			go func(w int) {
				defer commitWG.Done()
				for i := 0; i < perWorker && !t.Failed(); i++ {
					// pin holds the iteration's snapshots in the
					// truncation horizon.
					pin := m.Begin()
					x := m.Begin()
					if (i+w)%4 == 0 {
						// An in-progress xid must be invisible to a
						// snapshot taken now.
						if m.TakeSnapshot().Sees(x) {
							t.Errorf("snapshot sees in-progress xid %d", x)
						}
						m.Abort(x)
						if m.TakeSnapshot().Sees(x) {
							t.Errorf("aborted xid %d visible", x)
						}
						m.Abort(pin)
						continue
					}
					// A snapshot taken before the commit must never
					// see it...
					before := m.TakeSnapshot()
					seq := m.Commit(x)
					if before.Sees(x) {
						t.Errorf("pre-commit snapshot sees xid %d", x)
					}
					// ...and one taken after always does.
					if after := m.TakeSnapshot(); !after.Sees(x) {
						t.Errorf("post-commit snapshot misses xid %d (seq %d, snap %d)", x, seq, after.SeqNo)
					}
					m.Abort(pin)
					ring.push(x, seq)
				}
			}(w)
		}

		for w := 0; w < snapshotters; w++ {
			auxWG.Add(1)
			go func() {
				defer auxWG.Done()
				var buf []commitPair
				for !stop.Load() && !t.Failed() {
					pin := m.Begin()
					snap := m.TakeSnapshot()
					buf = ring.sample(buf)
					for _, e := range buf {
						if e.seq <= snap.SeqNo {
							if !snap.Sees(e.xid) {
								t.Errorf("snapshot CSN %d treats committed xid %d (seq %d) as in-progress", snap.SeqNo, e.xid, e.seq)
							}
						} else if snap.Sees(e.xid) {
							t.Errorf("snapshot CSN %d sees future commit %d (seq %d)", snap.SeqNo, e.xid, e.seq)
						}
					}
					m.Abort(pin)
				}
			}()
		}

		// The reclaimer stand-in: advance the truncation floor
		// continuously while snapshots and commits race it.
		auxWG.Add(1)
		go func() {
			defer auxWG.Done()
			for !stop.Load() {
				m.AutoTruncate(m.OldestSnapshot())
			}
		}()

		commitWG.Wait()
		stop.Store(true)
		auxWG.Wait()

		if m.ActiveCount() != 0 {
			t.Fatalf("active = %d, want 0", m.ActiveCount())
		}
		// Everything is finished: the floor can reach the frontier, and
		// a final snapshot sees every committed xid.
		m.AutoTruncate(m.OldestSnapshot())
		final := m.TakeSnapshot()
		for _, e := range ring.sample(nil) {
			if !final.Sees(e.xid) {
				t.Fatalf("final snapshot misses committed xid %d", e.xid)
			}
		}
	})
}
