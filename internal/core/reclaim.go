package core

import (
	"sync"
	"sync/atomic"

	"pgssi/internal/mvcc"
	"pgssi/internal/trace"
)

// Epoch-based deferred reclamation of committed-transaction state.
//
// Commit used to run ClearOldPredicateLocks (§6.1) and summarization
// (§6.2) inside its critical section: every commit paid an O(active)
// horizon scan plus a sweep of all lock-table partitions' dummy tags
// while holding the global SSI mutex. Both now run here, off the commit
// path. The scheme is a classic epoch reclaimer:
//
//   - the global epoch is the MVCC commit-sequence counter;
//   - a transaction pins the epoch of its snapshot from its mvcc.Begin,
//     which records the counter before the SSI Begin takes the snapshot;
//   - a committed transaction retires at epoch CommitSeq, entering the
//     retire queue (Manager.retired, kept sorted by commit seq);
//   - once the horizon — mvcc.Manager.OldestSnapshot, the minimum pinned
//     epoch, the same value that truncates the commit log and trims the
//     heap — passes a retired transaction's commit seq, no present or
//     future snapshot can observe it: its SIREAD locks and graph edges
//     are dropped and it is detached from its commit-log record. The
//     same pass truncates the commit log at that horizon
//     (mvcc.AutoTruncate), and with it the summaries that transactions
//     summarized earlier left in their records (§6.2). This is
//     PostgreSQL's keying of §6.1 cleanup to SxactGlobalXmin.
//
// The reclaimer goroutine is spawned lazily when a wake finds work and
// exits as soon as the queue is drained, so an idle Manager holds no
// goroutine and a quiesced one can be garbage collected. Retirement
// wakes it every reclaimBatch commits (amortizing the horizon scan)
// and on any commit that leaves no transaction active; aborts wake it
// directly because an abort can be what advances the horizon;
// transactions below Serializable wake it every reclaimBatch finishes
// for the commit log's sake (FinishedOutside). ReclaimNow runs a
// synchronous pass for tests and quiesce points. Summarization stays
// synchronous on overflow pressure
// (lifecycle.go) — the §6.2 memory bound must hold even if the
// reclaimer is starved.

// reclaimBatch is how many retirements accumulate between background
// reclaim passes.
const reclaimBatch = 64

// reclaimer tracks the lazily-spawned background pass.
type reclaimer struct {
	mu      sync.Mutex //ssi:lock level=15 name=core.reclaimer
	running bool
	pending bool
	// closed permanently disables background passes (Manager.Close):
	// wakeReclaimer becomes a no-op and a running loop exits at its
	// next iteration. idle is broadcast whenever running goes false.
	closed bool
	idle   *sync.Cond
	// passMu serializes whole reclaim passes: a pass pops retired
	// entries and then drops their state in separate critical sections,
	// and without pass-level mutual exclusion ReclaimNow could return
	// while a concurrent background pass still holds popped entries it
	// has not dropped yet.
	passMu sync.Mutex //ssi:lock level=10 name=core.reclaimPass
	// outside counts FinishedOutside calls.
	outside atomic.Uint64

	// The scratch below is reused pass after pass, so a pass that frees
	// little also allocates nothing. victims holds the transactions one
	// pass pops from the retire queue or sweeps; guarded by passMu.
	// byPart queues the (target, holder) pairs of a batched lock
	// release per partition (collectLocksLocked); guarded by
	// Manager.mu, under which every batched release — the reclaimer's,
	// Abort's, a safe snapshot's — runs.
	victims []*Xact
	byPart  [][]removal
	// passHorizon is the highest horizon a reclaim pass has run at
	// (written under passMu). summarizeOnPressure skips its pass while
	// the horizon has not moved past it (see there).
	passHorizon atomic.Uint64
}

// FinishedOutside tells the reclaimer that a transaction the lock
// manager never saw — one below Serializable — has committed or
// aborted. Such a transaction retires nothing here, but it leaves a
// commit-log entry that only a reclaim pass truncates
// (mvcc.AutoTruncate), and a process that runs nothing but those would
// never start one. It also holds the horizon while it runs, so, like a
// serializable commit, one that leaves no transaction active wakes the
// reclaimer, as does every reclaimBatch-th call; the caller waits for
// nothing.
func (m *Manager) FinishedOutside() {
	if m.rec.outside.Add(1)%reclaimBatch == 0 || m.mvcc.ActiveCount() == 0 {
		m.wakeReclaimer()
	}
}

// wakeReclaimer requests a background pass, spawning the goroutine if
// none is running (with Config.ReclaimInline, it runs the pass itself).
// After Close it is a no-op.
func (m *Manager) wakeReclaimer() {
	r := &m.rec
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	if m.cfg.ReclaimInline {
		r.mu.Unlock()
		m.reclaimPass()
		return
	}
	r.pending = true
	if !r.running {
		r.running = true
		go m.reclaimLoop()
	}
	r.mu.Unlock()
}

func (m *Manager) reclaimLoop() {
	for {
		r := &m.rec
		r.mu.Lock()
		if !r.pending || r.closed {
			r.pending = false
			r.running = false
			if r.idle != nil {
				r.idle.Broadcast()
			}
			r.mu.Unlock()
			return
		}
		r.pending = false
		r.mu.Unlock()
		m.reclaimPass()
	}
}

// Close stops the background reclaimer permanently: it waits for any
// running pass to finish, prevents new spawns, and runs one final
// synchronous pass so everything already reclaimable is dropped. Part of
// DB.Close's quiesce; in-process users who Open a DB and discard it
// without Close merely leave an idle (lazily-spawned, already-exited)
// reclaimer behind, but a server must stop it deterministically.
func (m *Manager) Close() {
	r := &m.rec
	r.mu.Lock()
	r.closed = true
	if r.idle == nil {
		r.idle = sync.NewCond(&r.mu)
	}
	for r.running {
		r.idle.Wait()
	}
	r.mu.Unlock()
	m.ReclaimNow()
}

// ReclaimNow runs one synchronous reclamation pass: everything whose
// epoch has passed the horizon is dropped before it returns. Tests call
// it at quiesce points; it is also safe to call concurrently with a
// running background pass.
func (m *Manager) ReclaimNow() {
	m.reclaimPass()
}

// reclaimPass drops every retired transaction no active snapshot can
// observe, expires dummy locks on the same horizon, runs the §6.1
// only-read-only-transactions sweep when it applies, and then advances
// the MVCC commit-log truncation floor — all at one horizon, computed
// once per pass by mvcc.Manager.OldestSnapshot over the transactions of
// every isolation level.
//
// The horizon is computed before taking mu, and a pass may stall
// between the two; a stale horizon is merely conservative. It never
// exceeds the commit sequence current when OldestSnapshot returned it,
// so a transaction that commits later — even one that began and
// committed while the pass stalled — commits above it and stays
// retired.
func (m *Manager) reclaimPass() {
	m.reclaimAt(m.mvcc.OldestSnapshot())
}

// reclaimAt is reclaimPass at a horizon the caller computed.
func (m *Manager) reclaimAt(horizon mvcc.SeqNo) {
	m.reclaimGraphPass(horizon)
	// Outside every SSI lock: AutoTruncate takes only mvcc-internal
	// (leaf) locks, but there is no reason to hold m.mu across it.
	m.mvcc.AutoTruncate(horizon)
}

// sweepWanted reports whether the §6.1 only-read-only-transactions
// sweep applies and has not run since a read/write transaction last
// began or committed.
func (m *Manager) sweepWanted() bool {
	return m.rwActive.Load() == 0 && !m.cfg.DisableReadOnlyOpt && !m.roSweepValid.Load()
}

func (m *Manager) reclaimGraphPass(horizon mvcc.SeqNo) {
	m.rec.passMu.Lock()
	defer m.rec.passMu.Unlock()

	m.trace(trace.ReclaimScan, mvcc.InvalidTxID)

	m.mu.Lock()
	defer m.mu.Unlock()

	// Pop the reclaimable prefix into the pass's scratch and close the
	// gap in place: the queue keeps its array from pass to pass.
	m.retireMu.Lock()
	cut := 0
	for cut < len(m.retired) && m.retired[cut].CommitSeq <= horizon {
		cut++
	}
	victims := append(m.rec.victims[:0], m.retired[:cut]...)
	n := copy(m.retired, m.retired[cut:])
	clear(m.retired[n:])
	m.retired = m.retired[:n]
	m.retireMu.Unlock()

	m.dropCommittedBatchLocked(victims)
	m.stats.CleanedXacts += int64(len(victims))
	m.expireDummyLocksLocked(horizon)
	if uint64(horizon) > m.rec.passHorizon.Load() {
		m.rec.passHorizon.Store(uint64(horizon))
	}

	// §6.1: with only read-only transactions active, no future write can
	// conflict with a committed transaction's reads, and a committed
	// transaction's conflict-in list can only matter if an active
	// read/write transaction writes something it read — which cannot
	// happen. The sweep stays valid until a read/write transaction
	// begins or commits (roSweepValid is cleared there).
	if m.sweepWanted() {
		// Which retired transactions the sweep may strip is fixed BEFORE
		// rwActive is read again, here under m.mu. Then every
		// transaction concurrent with a swept C that could write what C
		// read is accounted for: one still counted at the recheck stops
		// the sweep; one that finished before the recheck made its
		// writes' probes while C's locks were in the table; and one
		// counted after the recheck was counted by a Begin after C
		// retired, and takes its snapshot after that, so its snapshot
		// is at or above C's commit and it is not concurrent with C.
		// Nothing here relies on writers waiting for m.mu — CheckWrite's
		// probe does not take it.
		m.retireMu.Lock()
		victims = append(victims[:0], m.retired...)
		m.retireMu.Unlock()
		if m.rwActive.Load() == 0 {
			for _, c := range victims {
				m.collectLocksLocked(c)
			}
			m.flushRemovalsLocked()
			for _, c := range victims {
				for r := range c.inConflicts {
					r.edgeMu.Lock()
					delete(r.outConflicts, c)
					r.edgeMu.Unlock()
				}
				c.edgeMu.Lock()
				c.inConflicts = nil
				c.edgeMu.Unlock()
			}
			m.roSweepValid.Store(true)
		}
	}
	clear(victims)
	m.rec.victims = victims[:0]
}

// retire inserts a committed transaction into the retire queue, keeping
// it sorted by commit sequence (commits arrive nearly in order, so the
// insertion point is almost always the tail). It returns the queue
// length so callers can apply pressure policies.
func (m *Manager) retire(x *Xact) int {
	m.retireMu.Lock()
	i := len(m.retired)
	for i > 0 && m.retired[i-1].CommitSeq > x.CommitSeq {
		i--
	}
	m.retired = append(m.retired, nil)
	copy(m.retired[i+1:], m.retired[i:])
	m.retired[i] = x
	n := len(m.retired)
	m.retireMu.Unlock()
	return n
}

// afterCommit runs a committed transaction's deferred lifecycle work,
// outside every lock: retire-queue pressure handling and reclaimer
// wake-ups. Besides the batch wake, a commit that leaves the system
// quiescent (no active MVCC transaction) always wakes the reclaimer —
// otherwise a burst of fewer than reclaimBatch commits followed by
// idleness would retain its transactions, SIREAD locks, and expired
// dummy locks indefinitely.
func (m *Manager) afterCommit(retiredLen int) {
	if retiredLen > m.cfg.MaxCommittedXacts {
		m.summarizeOnPressure()
		return
	}
	if retiredLen%reclaimBatch == 0 || m.mvcc.ActiveCount() == 0 {
		m.wakeReclaimer()
	}
}

// summarizeOnPressure enforces the §6.2 memory bound synchronously: it
// first reclaims whatever the horizon already allows (mirroring the old
// cleanup-then-summarize order, so reclaimable transactions are not
// needlessly summarized), then folds the oldest retired transactions
// into the dummy OldCommitted transaction until the queue is back
// within budget.
//
// The reclaim pass is skipped when the horizon has not moved past the
// last pass's and the §6.1 sweep does not apply, which is every commit
// behind a pinned horizon. Such a pass would find nothing: the last one
// popped every transaction that had retired at or below the horizon,
// expired every dummy lock at or below it and truncated the commit log
// there, and a transaction that commits later commits above it. (One
// that took its commit sequence at or below the horizon but retired
// after that pop stays queued until the horizon moves: a summarisation
// of it is conservative, never unsound.)
func (m *Manager) summarizeOnPressure() {
	if h := m.mvcc.OldestSnapshot(); uint64(h) > m.rec.passHorizon.Load() || m.sweepWanted() {
		m.reclaimAt(h)
	}
	// The victims are dequeued under m.mu (not just retireMu), so a
	// transaction never sits dequeued-but-unsummarized outside that
	// mutex, where the §6.1 sweep could miss it.
	m.mu.Lock()
	defer m.mu.Unlock()
	// The queue is resliced past the victims rather than copied: the
	// survivors stay where they are, and the next retire's append moves
	// them only when the array is full, so a commit under a pinned
	// horizon costs the same however many transactions are retained.
	m.retireMu.Lock()
	over := max(len(m.retired)-m.cfg.MaxCommittedXacts, 0)
	victims := m.retired[:over:over]
	m.retired = m.retired[over:]
	m.retireMu.Unlock()
	for _, c := range victims {
		m.summarizeLocked(c)
	}
	// The array still references the victims' slots until it is
	// reallocated; clear them so the summarized transactions can be
	// collected.
	clear(victims)
}
