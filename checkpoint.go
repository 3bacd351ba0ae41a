package pgssi

import (
	"fmt"

	"pgssi/internal/mvcc"
	"pgssi/internal/wal"
)

// Checkpointing: bound the log — on disk or in memory — by folding the
// database state at a safe-snapshot marker into a checkpoint file, then
// GCing every segment fully covered by it
// (wal.DurableLog.WriteCheckpoint).
//
// The trigger runs inside the safe-snapshot marker path
// (maybeEmitMarkerLocked, under db.walMu at a quiescent instant), which
// is what makes the checkpoint sequence sound: the marker at seq C
// guarantees no read/write transaction spans C, so a snapshot taken at
// that instant — while still holding walMu, before any later commit can
// publish — captures exactly the state a replica or recovery replaying
// through C must reach. The snapshot is pinned by an ordinary read-only
// transaction so vacuum cannot reclaim the versions the checkpoint
// writer is about to stream, and the writing happens on a background
// goroutine so the primary keeps serving.

// Checkpoint-writer batching: row images are packed into multi-op
// records so one huge table does not produce one huge frame (the frame
// cap is wal.MaxRecordSize) nor one frame per row.
const (
	ckptBatchOps   = 1024
	ckptBatchBytes = 1 << 20
)

// Checkpoint writes a checkpoint of the WAL at the next safe-snapshot
// point and garbage-collects every log segment fully covered by it,
// blocking until the checkpoint is durable (or has failed). If a
// checkpoint is already in flight its result is shared; if nothing has
// committed since the last checkpoint, that checkpoint's info is
// returned without writing a new one. Returns an error if the DB has no
// WAL (neither OpenDir nor AttachWAL) or nothing has ever committed.
func (db *DB) Checkpoint() (wal.CheckpointInfo, error) {
	if db.log == nil {
		return wal.CheckpointInfo{}, fmt.Errorf("pgssi: checkpoint requires a WAL (OpenDir or AttachWAL)")
	}
	if db.closed.Load() {
		return wal.CheckpointInfo{}, ErrClosed
	}
	if db.mvcc.CurrentSeq() == 0 {
		return wal.CheckpointInfo{}, fmt.Errorf("pgssi: nothing to checkpoint (no commits)")
	}
	ch := make(chan ckptResult, 1)
	db.ckptMu.Lock()
	db.ckptWaiters = append(db.ckptWaiters, ch)
	db.ckptMu.Unlock()
	// Nudge: if the system is quiescent right now, the marker path fires
	// the trigger immediately; otherwise the next quiescent instant
	// (every commit and abort re-checks) starts the checkpoint.
	db.walMu.Lock()
	db.maybeEmitMarkerLocked()
	db.walMu.Unlock()
	res := <-ch
	return res.info, res.err
}

// checkpointWanted reports whether a quiescent instant should start (or
// resolve) a checkpoint. Used by the abort path's cheap pre-check, which
// would otherwise skip the walMu section when no marker is owed.
func (db *DB) checkpointWanted() bool {
	if db.closed.Load() {
		return false
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	return db.checkpointWantedLocked()
}

// checkpointWantedLocked reports whether no checkpoint is running and one
// is wanted: a manual waiter is parked, or the size trigger has tripped.
// Caller holds db.ckptMu, on a DB with a log.
func (db *DB) checkpointWantedLocked() bool {
	return !db.ckptRunning && (len(db.ckptWaiters) > 0 || db.cfg.CheckpointEvery > 0 &&
		db.log.Stats().BytesWritten-db.ckptLastBytes >= db.cfg.CheckpointEvery)
}

// maybeStartCheckpointLocked is the checkpoint trigger. Caller holds
// db.walMu and has established the quiescent instant at commit sequence
// seq (a safe-snapshot marker at seq is in the log). If a checkpoint is
// wanted and none is running, it pins the snapshot HERE — under walMu,
// so no later commit can publish before the pin exists — and hands the
// writing to a background goroutine.
func (db *DB) maybeStartCheckpointLocked(seq uint64) {
	if db.closed.Load() {
		// Catches a waiter that registered after Close's own drain: no
		// further quiescent instant will come, so fail it here.
		db.failCheckpointWaiters(ErrClosed)
		return
	}
	db.ckptMu.Lock()
	if !db.checkpointWantedLocked() {
		db.ckptMu.Unlock()
		return
	}
	if seq <= db.ckptLastSeq {
		// Nothing has committed since the last checkpoint: it already
		// captures this state, so resolve the manual waiters with it
		// rather than writing a byte-identical successor (the wal layer
		// would reject the duplicate sequence anyway).
		waiters := db.ckptWaiters
		db.ckptWaiters = nil
		db.ckptMu.Unlock()
		info, ok := db.log.CheckpointInfo()
		res := ckptResult{info: info}
		if !ok {
			res.err = wal.ErrNoCheckpoint
		}
		for _, w := range waiters {
			w <- res
		}
		return
	}
	db.ckptRunning = true
	db.ckptMu.Unlock()

	// Pin the marker's snapshot with an ordinary read-only transaction.
	// Begin under walMu is safe (walMu precedes the mvcc locks in the
	// lock order) and necessary: once walMu is released a later commit
	// could publish, and a snapshot taken then would no longer be the
	// marker's.
	tx, err := db.Begin(TxOptions{Isolation: RepeatableRead, ReadOnly: true})
	if err != nil {
		db.finishCheckpoint(wal.CheckpointInfo{}, err, false)
		return
	}
	db.ckptWriter.Add(1)
	go db.runCheckpoint(seq, tx)
}

// runCheckpoint streams the pinned snapshot into a checkpoint file and
// GCs covered segments (wal.DurableLog.WriteCheckpoint), then releases
// the pin and resolves every parked waiter.
func (db *DB) runCheckpoint(seq uint64, tx *Tx) {
	defer db.ckptWriter.Done()
	info, err := db.writeCheckpointRecords(seq, tx)
	// Update the watermarks BEFORE releasing the pin: the Rollback below
	// re-enters the marker path (the pin was the last active
	// transaction), and the trigger must see the finished checkpoint —
	// otherwise it would immediately start another.
	db.finishCheckpoint(info, err, err == nil)
	tx.Rollback()
}

// writeCheckpointRecords drives wal.DurableLog.WriteCheckpoint: schema
// records first, then every table's visible rows at the pinned
// snapshot, packed into batched multi-op records.
func (db *DB) writeCheckpointRecords(seq uint64, tx *Tx) (wal.CheckpointInfo, error) {
	names := db.tableNames()
	return db.log.WriteCheckpoint(mvcc.SeqNo(seq), func(emit func(wal.Record) error) error {
		for _, name := range names {
			if err := emit(wal.Record{CreateTable: name}); err != nil {
				return err
			}
		}
		for _, name := range names {
			var ops []wal.Op
			var batch int
			flush := func() error {
				if len(ops) == 0 {
					return nil
				}
				err := emit(wal.Record{Ops: ops})
				ops, batch = nil, 0
				return err
			}
			var emitErr error
			serr := tx.Scan(name, "", "", func(key string, value []byte) bool {
				ops = append(ops, wal.Op{Table: name, Key: key, Value: value})
				batch += len(key) + len(value)
				if len(ops) >= ckptBatchOps || batch >= ckptBatchBytes {
					emitErr = flush()
				}
				return emitErr == nil
			})
			if emitErr != nil {
				return emitErr
			}
			if serr != nil {
				return serr
			}
			if err := flush(); err != nil {
				return err
			}
		}
		return nil
	})
}

// finishCheckpoint publishes a checkpoint attempt's outcome: on success
// the watermarks advance; on failure with no manual waiter the byte
// watermark still advances so the size trigger cannot hot-loop retrying
// a persistently failing (e.g. poisoned) log — the next attempt waits
// for another CheckpointEvery bytes or an explicit DB.Checkpoint. All
// parked waiters are resolved either way.
func (db *DB) finishCheckpoint(info wal.CheckpointInfo, err error, ok bool) {
	db.ckptMu.Lock()
	if ok {
		db.ckptLastSeq = uint64(info.Seq)
	}
	db.ckptLastBytes = db.log.Stats().BytesWritten
	waiters := db.ckptWaiters
	db.ckptWaiters = nil
	db.ckptRunning = false
	db.ckptMu.Unlock()
	for _, w := range waiters {
		w <- ckptResult{info: info, err: err}
	}
}

// failCheckpointWaiters resolves every parked DB.Checkpoint waiter with
// err. Close calls it so a waiter parked on a database that will never
// see another quiescent instant does not block forever.
func (db *DB) failCheckpointWaiters(err error) {
	db.ckptMu.Lock()
	waiters := db.ckptWaiters
	db.ckptWaiters = nil
	db.ckptMu.Unlock()
	for _, w := range waiters {
		w <- ckptResult{err: err}
	}
}

// CheckpointInfo reports the WAL's newest checkpoint, if any.
func (db *DB) CheckpointInfo() (wal.CheckpointInfo, bool) {
	if db.log == nil {
		return wal.CheckpointInfo{}, false
	}
	return db.log.CheckpointInfo()
}
