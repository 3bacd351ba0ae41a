package pgssi

import (
	"fmt"

	"pgssi/internal/core"
	"pgssi/internal/mvcc"
	"pgssi/internal/trace"
	"pgssi/internal/wal"
)

// Tx is a transaction. A Tx must be used from one goroutine at a time
// (concurrency comes from running many transactions, not from sharing
// one). Every Tx must be finished with Commit, Rollback, or the
// two-phase-commit calls; transactions that fail any operation with a
// serialization failure remain rollback-only and their Commit fails.
type Tx struct {
	db    *DB
	xid   mvcc.TxID
	level IsolationLevel
	// snap is the transaction snapshot; nil for ReadCommitted and
	// SerializableS2PL, which use per-statement snapshots.
	snap *mvcc.Snapshot
	// x is the SSI bookkeeping, non-nil only for Serializable.
	x *core.Xact

	// writes is the write set as a log: one entry per successful
	// Insert, Update or Delete, oldest first, for own-write detection
	// (owns), savepoint rollback and abort (one walk each), and the
	// commit record (one pass). A transaction that writes nothing
	// allocates nothing for it. byKey indexes the log by key, to each
	// key's newest entry: it is built the first time a key's newest
	// entry is asked for (by owns, or by a commit record that must skip
	// superseded entries) on a log longer than ownsScanMax — a shorter
	// one is scanned backwards — kept up to date by recordWrite from
	// then on, and dropped by a savepoint rollback that shortens the
	// log.
	writes []write
	byKey  map[writeKey]int
	// rewrote records that some write superseded the transaction's own
	// earlier write of its key (storage.WriteResult.Rewrite): only then
	// does the log hold a key twice, and only then does the commit
	// record skip entries.
	rewrote  bool
	readOnly bool

	// savepoints is the stack of active savepoints; subSeq issues
	// subtransaction IDs (§7.3).
	savepoints []savepoint
	subSeq     int32

	done     bool
	prepared bool
	// joiner is set while the transaction counts in db.walJoiners.
	joiner bool
	// replicaSafe is stamped by Replica.BeginReadOnly while it holds the
	// replica's apply mutex: true iff the snapshot was taken exactly at a
	// safe-snapshot marker. Replica transactions have no SSI state (x is
	// nil), so OnSafeSnapshot reports safety through this flag instead.
	replicaSafe bool
	// prepSt is the SSI state Prepare persisted (Serializable only); a
	// pointer, as two-phase commit is rare. (The flags above share
	// subSeq's word and rewrote shares readOnly's, which keeps Tx in a
	// 128-byte allocation size class.)
	prepSt *core.PreparedState
	// walPend is the commit record on its way from walPrepare to
	// publishCommit.
	walPend *wal.Pending
}

// write is one entry of a transaction's write log: the version it left
// for key (value, or a delete) and the subtransaction that wrote it.
type write struct {
	table, key string
	subID      int32
	deleted    bool
	value      []byte
}

type writeKey struct{ table, key string }

// ownsScanMax is the longest write log owns scans instead of indexing.
const ownsScanMax = 16

type savepoint struct {
	name  string
	subID int32
}

// Begin starts a transaction. With Deferrable+ReadOnly+Serializable it
// blocks until a safe snapshot is available (§4.3) and returns a
// transaction that runs entirely without SSI overhead and cannot abort.
func (db *DB) Begin(opts TxOptions) (*Tx, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	// A poisoned log can never acknowledge another commit: refuse new
	// transactions up front (ErrWALPoisoned) instead of letting each one
	// run to a durability wait that is guaranteed to fail.
	if db.log != nil {
		if perr := db.log.PoisonErr(); perr != nil {
			return nil, fmt.Errorf("%w: %v", ErrWALPoisoned, perr)
		}
	}
	if opts.Deferrable {
		if !opts.ReadOnly || opts.Isolation != Serializable {
			return nil, fmt.Errorf("pgssi: DEFERRABLE requires a SERIALIZABLE READ ONLY transaction")
		}
		if db.cfg.DisableReadOnlyOpt {
			return nil, ErrNoSafeSnapshots
		}
		return db.beginDeferrable()
	}
	tx := &Tx{
		db:       db,
		xid:      db.mvcc.Begin(),
		level:    opts.Isolation,
		readOnly: opts.ReadOnly,
	}
	switch opts.Isolation {
	case Serializable:
		tx.x, tx.snap = db.ssi.Begin(tx.xid, db.mvcc.TakeSnapshot, opts.ReadOnly, false)
	case RepeatableRead:
		tx.snap = db.mvcc.TakeSnapshot()
	case ReadCommitted, SerializableS2PL:
		// Per-statement snapshots.
	default:
		db.mvcc.Abort(tx.xid)
		return nil, fmt.Errorf("pgssi: unknown isolation level %v", opts.Isolation)
	}
	db.joinWAL(tx)
	return tx, nil
}

// beginDeferrable implements BEGIN TRANSACTION READ ONLY, DEFERRABLE:
// take a snapshot, wait for all concurrent read/write transactions to
// finish, and retry with a fresh snapshot if any of them rendered it
// unsafe (§4.3).
func (db *DB) beginDeferrable() (*Tx, error) {
	for {
		xid := db.mvcc.Begin()
		x, snap := db.ssi.Begin(xid, db.mvcc.TakeSnapshot, true, true)
		if db.ssi.SafeVerdict(x) {
			return &Tx{
				db:       db,
				xid:      xid,
				level:    Serializable,
				readOnly: true,
				snap:     snap,
				x:        x,
			}, nil
		}
		db.ssi.Abort(x)
		db.mvcc.Abort(xid)
	}
}

// ID returns the transaction's xid (diagnostics only).
func (tx *Tx) ID() uint64 { return uint64(tx.xid) }

// Isolation returns the transaction's isolation level.
func (tx *Tx) Isolation() IsolationLevel { return tx.level }

// OnSafeSnapshot reports whether a Serializable read-only transaction is
// currently running on a safe snapshot (no SSI overhead, cannot abort).
// On a primary this is the SSI layer's verdict; on a replica it reports
// whether the snapshot was taken exactly at a safe-snapshot marker.
func (tx *Tx) OnSafeSnapshot() bool {
	return tx.replicaSafe || (tx.x != nil && tx.x.Safe())
}

// settled reports whether Commit is certain to succeed: the transaction
// is read-only, open and not prepared, and either runs below
// Serializable or is on a safe snapshot (§4.2) without having been
// doomed. A read-only commit has no WAL record to fail, and the
// pre-commit check passes a safe transaction that is not doomed. Safety
// matters because an unsafe read-only transaction can still be doomed:
// a prepared pivot that cannot abort hands its fate to an active T1
// (§7.1).
//
// It is monotone until Commit: safety never reverts, and a transaction
// on a safe snapshot has dropped its conflict edges and takes no new
// ones (core.Manager.markSafeLocked), so nothing can doom it afterwards.
// That is also why safety is read before the doom flag: a doom that
// precedes safety is visible once safety is.
func (tx *Tx) settled() bool {
	if !tx.readOnly || tx.done || tx.prepared {
		return false
	}
	switch tx.level {
	case RepeatableRead, ReadCommitted:
		return true
	case Serializable:
		return tx.OnSafeSnapshot() && !tx.x.Doomed()
	default:
		return false
	}
}

// snapshot returns the snapshot for the next statement.
func (tx *Tx) snapshot() *mvcc.Snapshot {
	if tx.snap != nil {
		return tx.snap
	}
	return tx.db.mvcc.TakeSnapshot()
}

// currentSubID returns the subtransaction ID writes are tagged with.
func (tx *Tx) currentSubID() int32 {
	if n := len(tx.savepoints); n > 0 {
		return tx.savepoints[n-1].subID
	}
	return 0
}

// inSubxact reports whether an unreleased savepoint scope is open, which
// disables the drop-SIREAD-on-own-write optimization (§7.3).
func (tx *Tx) inSubxact() bool { return len(tx.savepoints) > 0 }

// owns reports whether the transaction holds a live own-write of key.
func (tx *Tx) owns(table, key string) bool {
	i := tx.newest(table, key)
	return i >= 0 && !tx.writes[i].deleted
}

// newest returns the index of key's newest write-log entry, or -1. A log
// of at most ownsScanMax entries without an index is scanned backwards;
// a longer one is indexed first.
func (tx *Tx) newest(table, key string) int {
	if tx.byKey == nil {
		if len(tx.writes) <= ownsScanMax {
			for i := len(tx.writes) - 1; i >= 0; i-- {
				if w := &tx.writes[i]; w.key == key && w.table == table {
					return i
				}
			}
			return -1
		}
		tx.indexWrites()
	}
	if i, ok := tx.byKey[writeKey{table, key}]; ok {
		return i
	}
	return -1
}

// indexWrites builds byKey from the log.
func (tx *Tx) indexWrites() {
	tx.byKey = make(map[writeKey]int, len(tx.writes))
	for i, w := range tx.writes {
		tx.byKey[writeKey{w.table, w.key}] = i
	}
}

// recordWrite appends a write-log entry; rewrite is the heap's
// storage.WriteResult.Rewrite for the write.
func (tx *Tx) recordWrite(table, key string, value []byte, deleted, rewrite bool) {
	if tx.byKey != nil {
		tx.byKey[writeKey{table, key}] = len(tx.writes)
	}
	tx.writes = append(tx.writes, write{
		table:   table,
		key:     key,
		subID:   tx.currentSubID(),
		deleted: deleted,
		value:   value,
	})
	tx.rewrote = tx.rewrote || rewrite
}

// checkUsable validates the transaction state for a new statement.
func (tx *Tx) checkUsable(write bool) error {
	if tx.done {
		return ErrTxDone
	}
	if tx.prepared {
		return ErrPrepared
	}
	if write && tx.readOnly {
		return ErrReadOnlyTx
	}
	return nil
}

// Commit finishes the transaction. Under Serializable the pre-commit
// serialization check may fail, in which case the transaction is rolled
// back and a serialization failure is returned: retry the transaction.
//
// With a WAL installed, Commit returns only after the transaction's
// record is durable per the log's fsync mode: the record is encoded
// before the commit-sequence assignment, its log position is reserved
// under db.walMu right after the publication (see recovery.go), and the
// committer then waits for the group-commit fsync that covers it.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	if tx.prepared {
		return ErrPrepared
	}
	pend, perr := tx.db.walPrepare(tx)
	if perr != nil {
		// The WAL cannot accept the commit record (e.g. oversize):
		// abort before publication, so the commit is neither visible
		// nor acknowledged.
		tx.rollbackLocked()
		return perr
	}
	switch tx.level {
	case Serializable:
		err := tx.db.ssi.Commit(tx.x, func() mvcc.SeqNo {
			return tx.db.publishCommit(tx)
		})
		if err != nil {
			tx.rollbackLocked()
			return serializationFailure("pre-commit dangerous structure check")
		}
	case RepeatableRead, ReadCommitted:
		tx.db.publishCommit(tx)
		tx.db.ssi.FinishedOutside()
	case SerializableS2PL:
		tx.db.publishCommit(tx)
		tx.db.s2pl.ReleaseAll(tx.xid)
		tx.db.ssi.FinishedOutside()
	}
	tx.done = true
	return pend.Wait()
}

// Rollback aborts the transaction. Rolling back a finished transaction
// returns ErrTxDone; rolling back a prepared transaction is done with
// RollbackPrepared.
func (tx *Tx) Rollback() error {
	if tx.done {
		return ErrTxDone
	}
	if tx.prepared {
		return ErrPrepared
	}
	tx.rollbackLocked()
	return nil
}

func (tx *Tx) rollbackLocked() {
	// Undo before Abort: every version this transaction made or stamped
	// is in its write log (a write enters it before anything can fail,
	// and a heap write whose check failed took itself back), so once the
	// loop ends no version names tx.xid. mvcc.Abort forgets the xid on
	// the strength of that: nothing may ask about it afterwards. A
	// blocked writer wakes to a clean row.
	for i := range tx.writes {
		w := &tx.writes[i]
		if ti, err := tx.db.table(w.table); err == nil {
			ti.heap.UndoSubxact(w.key, tx.xid, 0)
		}
	}
	tx.db.mvcc.Abort(tx.xid)
	tx.db.leaveWAL(tx)
	if tx.x != nil {
		tx.db.ssi.Abort(tx.x)
	} else {
		tx.db.ssi.FinishedOutside()
	}
	if tx.level == SerializableS2PL {
		tx.db.s2pl.ReleaseAll(tx.xid)
	}
	tx.done = true
	tx.db.emitAbortSafePoint()
}

// publishCommit makes tx's commit visible (mvcc.Commit) and appends its
// record to the WAL, if there is one, in commit-sequence order.
//
// For a transaction with a record, the sequence assignment and the
// enqueue happen inside one db.walMu critical section: walMu is taken
// BEFORE mvcc.Commit, so two committers cannot publish in one order and
// append in the other, and an observer holding walMu that sees
// ActiveCount()==0 knows every assigned sequence's commit record is
// already in the log (every logging committer enqueues before releasing
// walMu; no-write commits append nothing). That invariant is what makes
// the safe-snapshot markers emitted by maybeEmitMarkerLocked sound, it
// keeps the log consistent with Stream.SubscribeFrom's resume contract
// (a replica resuming after sequence S must never find a commit ≤ S
// appended later), and — because a transaction that read this one's
// writes must take walMu to log anything — it puts the log in
// dependency order (recovery.go).
//
// Commits without a record skip walMu around mvcc.Commit entirely and
// only take it afterwards if they may have made the system quiescent and
// owe the stream a marker.
func (db *DB) publishCommit(tx *Tx) mvcc.SeqNo {
	if tx.walPend == nil {
		seq := db.mvcc.Commit(tx.xid)
		db.leaveWAL(tx)
		if db.log != nil && db.mvcc.ActiveCount() == 0 {
			db.walMu.Lock()
			db.maybeEmitMarkerLocked()
			db.walMu.Unlock()
		}
		return seq
	}
	db.walMu.Lock()
	defer db.walMu.Unlock()
	seq := db.mvcc.Commit(tx.xid)
	// Leave first, and silently: the enqueue rings the flusher, which
	// must find this transaction's record in the queue and the
	// transaction itself no longer among those worth waiting for.
	if tx.joiner {
		tx.joiner = false
		db.walJoiners.Add(-1)
	}
	if f := db.hooks.Trace; f != nil {
		f(trace.Event{Point: trace.WALEnqueue, XID: uint64(tx.xid), Seq: uint64(seq)})
	}
	db.log.Enqueue(tx.walPend, seq)
	db.maybeEmitMarkerLocked()
	return seq
}

// maybeEmitMarkerLocked appends a safe-snapshot marker at the current
// commit sequence to the WAL if the system is quiescent and no marker at
// or past that sequence was already emitted. Caller holds db.walMu, on a
// DB with a log; walMu makes the markerSeq check-and-advance atomic
// with the append: marker sequences in the log never decrease, and a
// marker is always appended after every commit record it covers (see
// publishCommit's ordering invariant). markerSeq is only written here,
// under walMu, so a plain store suffices.
//
// The marker is valid even if no-write commits advanced the sequence
// past the last logged record: a transaction beginning after this
// quiescent instant takes a snapshot at or past seq, so no
// rw-antidependency can reach out of the marker's snapshot (§7.2).
func (db *DB) maybeEmitMarkerLocked() {
	if db.mvcc.ActiveCount() != 0 {
		return
	}
	seq := db.mvcc.CurrentSeq()
	if seq == 0 {
		return
	}
	if uint64(seq) > db.markerSeq.Load() {
		db.markerSeq.Store(uint64(seq))
		// Nobody waits for a marker: it is written in order and becomes
		// durable with the next commit's sync.
		db.log.AppendNoWait(wal.Record{Seq: seq, SafeSnapshot: true})
	}
	// Every quiescent instant is a legal checkpoint point — including
	// one whose marker was deduplicated above (the marker at seq is
	// already in the log, which is all the checkpoint needs).
	db.maybeStartCheckpointLocked(uint64(seq))
}

// emitAbortSafePoint emits a safe-snapshot marker when an abort leaves
// the system quiescent. A snapshot is safe once every concurrent
// transaction has completed — committed or aborted (§7.2). Without
// this, a commit trailed by a doomed concurrent transaction (the
// serialization-failure loser, say) never gets its marker, and a
// replica's wait-for-safe blocks until unrelated write traffic shows
// up. The unlocked pre-checks keep the common abort cheap; the
// authoritative check-and-append runs under walMu so a stale marker can
// never be appended after a newer commit or marker.
func (db *DB) emitAbortSafePoint() {
	if db.log == nil {
		return
	}
	if db.mvcc.ActiveCount() != 0 {
		return
	}
	if uint64(db.mvcc.CurrentSeq()) <= db.markerSeq.Load() && !db.checkpointWanted() {
		// No marker owed and no checkpoint wanted: skip the walMu
		// section entirely (the common abort).
		return
	}
	db.walMu.Lock()
	db.maybeEmitMarkerLocked()
	db.walMu.Unlock()
}

// Savepoint establishes a savepoint with the given name, starting a new
// subtransaction scope (§7.3).
func (tx *Tx) Savepoint(name string) error {
	if err := tx.checkUsable(false); err != nil {
		return err
	}
	tx.subSeq++
	tx.savepoints = append(tx.savepoints, savepoint{name: name, subID: tx.subSeq})
	return nil
}

// ReleaseSavepoint releases name and any savepoints nested inside it,
// merging their effects into the enclosing scope.
func (tx *Tx) ReleaseSavepoint(name string) error {
	if err := tx.checkUsable(false); err != nil {
		return err
	}
	for i := len(tx.savepoints) - 1; i >= 0; i-- {
		if tx.savepoints[i].name == name {
			tx.savepoints = tx.savepoints[:i]
			return nil
		}
	}
	return fmt.Errorf("%w: %q", ErrNoSavepoint, name)
}

// RollbackToSavepoint discards all changes made since the savepoint was
// established, releasing the write locks those changes held. SIREAD
// locks acquired in the subtransaction are retained, because data read
// inside it may have been externalized (§7.3). The savepoint itself
// remains established, as in SQL.
func (tx *Tx) RollbackToSavepoint(name string) error {
	if err := tx.checkUsable(false); err != nil {
		return err
	}
	idx := -1
	for i := len(tx.savepoints) - 1; i >= 0; i-- {
		if tx.savepoints[i].name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("%w: %q", ErrNoSavepoint, name)
	}
	sp := tx.savepoints[idx]
	// One walk: undo what each entry of the scope left in the heap
	// (UndoSubxact is idempotent, so a key written twice in the scope
	// costs a second no-op call) and keep the entries from before it.
	keep := tx.writes[:0]
	for _, w := range tx.writes {
		if w.subID < sp.subID {
			keep = append(keep, w)
		} else if ti, err := tx.db.table(w.table); err == nil {
			ti.heap.UndoSubxact(w.key, tx.xid, sp.subID)
		}
	}
	if len(keep) < len(tx.writes) {
		clear(tx.writes[len(keep):])
		tx.writes = keep
		tx.byKey = nil
	}
	tx.savepoints = tx.savepoints[:idx+1]
	return nil
}
