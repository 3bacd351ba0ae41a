package pgssi

import (
	"errors"
	"fmt"

	"pgssi/internal/mvcc"
	"pgssi/internal/wal"
)

// WAL wiring: OpenDir recovery on the way in, and the commit path's
// append-before-acknowledge on the way out.
//
// The commit path is split in two:
//
//   - walPrepare (committer goroutine, outside all locks) encodes the
//     transaction's record with a placeholder sequence number and keeps
//     it on the Tx. A record the log could never accept fails the commit
//     here, before anything is published.
//   - publishCommit (tx.go) publishes the commit and, still holding
//     db.walMu, stamps the assigned CSN into the record and enqueues it
//     (Enqueue reserves the record's log position); Commit then waits
//     for the group-commit fsync that covers it (Pending.Wait) before it
//     returns — the durability contract: an acknowledged commit survives
//     a crash. A durability failure is returned to the committer: the
//     commit is visible in memory, but the log is poisoned and every
//     later commit fails the same way.
//
// walMu orders the enqueues in commit-sequence order, which implies
// dependency order: a transaction that read this one's writes can only
// log after taking walMu, which this one holds from before its commit
// became visible until after its record is queued. So every log prefix
// is dependency-closed, and recovery of any prefix yields a
// transaction-consistent state. A transaction that aborts (including on
// an SSI pre-commit failure) never reaches publishCommit, so its record
// goes nowhere.

// OpenDir opens a database backed by a durable WAL in dir, running crash
// recovery first: the newest complete checkpoint (if any) is loaded, then
// the surviving post-checkpoint log records are replayed into storage (in
// log order, stopping at the first torn or corrupt record — see
// docs/wal.md) before the DB accepts traffic. Tables recorded in the log
// are recreated automatically; secondary indexes are not logged and must
// be recreated by the caller after OpenDir, before loading.
func OpenDir(dir string, cfg Config) (*DB, error) { return openDir(dir, cfg, testHooks{}) }

func openDir(dir string, cfg Config, h testHooks) (*DB, error) {
	db := open(cfg, h)
	wl, err := wal.OpenDir(dir, wal.Config{
		SegmentSize: cfg.WALSegmentSize,
		Fsync:       cfg.FsyncMode,
		GroupWindow: cfg.WALGroupWindow,
		FS:          h.WALFS,
		Joiners:     func() int { return int(db.walJoiners.Load()) },
	})
	if err != nil {
		db.Close()
		return nil, err
	}
	// Load the checkpoint, then replay the suffix, both before installing
	// the log on the DB: replayed transactions run down the ordinary
	// commit path, and with db.log still nil they do not re-log
	// themselves.
	replay := func(rec wal.Record) error { return applyRecord(db, rec, true) }
	ckpt, err := wl.ReplayCheckpoint(replay)
	if errors.Is(err, wal.ErrNoCheckpoint) {
		err = nil
	}
	if err == nil {
		err = wl.Replay(replay)
	}
	if err != nil {
		wl.Close()
		db.Close()
		return nil, fmt.Errorf("pgssi: WAL recovery: %w", err)
	}
	// Seed the engine's sequence state from the recovered log position.
	// Replay runs replayed commits through the ordinary commit path, so
	// the CSN counter already moved — but with a checkpoint the counter
	// only counted the replayed suffix, leaving it below the recovered
	// high-water mark; a new commit would then reuse a logged CSN.
	db.mvcc.AdvanceSeq(mvcc.SeqNo(wl.RecoveredMaxSeq()))
	db.markerSeq.Store(wl.RecoveredMarkerSeq())
	db.recoveredRecords = ckpt.Records + wl.RecoveredRecords()
	// Seed the checkpoint trigger's watermarks so a reopened database
	// does not immediately re-checkpoint state the recovered checkpoint
	// already covers.
	if info, ok := wl.CheckpointInfo(); ok {
		db.ckptLastSeq = uint64(info.Seq)
	}
	db.ckptLastBytes = wl.Stats().BytesWritten
	db.log = wl
	return db, nil
}

// applyRecord folds one log record — recovered from a checkpoint or the
// log, or streamed to a replica — into db through the ordinary commit
// path: a schema record creates its table (unless a redelivery finds it
// there), and a commit record is applied as one snapshot-isolation
// transaction, so a replayed prefix is exactly the state those
// transactions produced. A commit record carries each key the
// transaction wrote once, with its final version, in the order of each
// key's last write (buildWALRecord): a bulk load's ascending keys are
// replayed ascending, and each Put of a new key — an Update miss, then
// an Insert — lands on the index's right edge (internal/btree). A key
// both inserted and deleted in one transaction logs a delete for a row
// never seen, so ErrNotFound is the one tolerable outcome of a delete.
// createTables recreates a table a commit record names but no schema
// record made (a log written before schema logging, or a commit that
// raced CreateTable's record), so recovery loses no row; a replica
// instead fails, and halts, on such a record.
func applyRecord(db *DB, rec wal.Record, createTables bool) error {
	switch {
	case rec.SafeSnapshot:
		return nil
	case rec.CreateTable != "":
		if _, err := db.table(rec.CreateTable); err == nil {
			return nil
		}
		return db.CreateTable(rec.CreateTable)
	}
	tx, err := db.Begin(TxOptions{Isolation: RepeatableRead})
	if err != nil {
		return err
	}
	for _, op := range rec.Ops {
		if _, err = db.table(op.Table); err != nil && createTables {
			err = db.CreateTable(op.Table)
		}
		if err == nil && op.Delete {
			if err = tx.Delete(op.Table, op.Key); errors.Is(err, ErrNotFound) {
				err = nil
			}
		} else if err == nil {
			err = tx.Put(op.Table, op.Key, op.Value)
		}
		if err != nil {
			tx.Rollback()
			return err
		}
	}
	return tx.Commit()
}

// walPrepare encodes tx's commit record ahead of the commit-sequence
// assignment and keeps it on tx for publishCommit. Returns (nil, nil) —
// nothing will be logged — when the DB has no WAL or the transaction
// wrote nothing. A record the log cannot accept (its frame would exceed
// wal.MaxRecordSize, which recovery could never read back) fails here,
// BEFORE the commit is published: the transaction must abort rather
// than commit unlogged.
func (db *DB) walPrepare(tx *Tx) (*wal.Pending, error) {
	if db.log == nil || len(tx.writes) == 0 {
		return nil, nil
	}
	p := db.log.PrepareRecord(db.buildWALRecord(tx))
	if err := p.Err(); err != nil {
		return nil, fmt.Errorf("pgssi: commit record: %w", err)
	}
	tx.walPend = p
	return p, nil
}

// buildWALRecord assembles tx's commit record from its write log in one
// pass: each written key's final version, once, in the order of each
// key's last write. Only a transaction that superseded its own write
// (tx.rewrote) has entries to skip.
func (db *DB) buildWALRecord(tx *Tx) wal.Record {
	rec := wal.Record{Xid: tx.xid, Ops: make([]wal.Op, 0, len(tx.writes))}
	for i := range tx.writes {
		w := &tx.writes[i]
		if tx.rewrote && tx.newest(w.table, w.key) != i {
			continue
		}
		rec.Ops = append(rec.Ops, wal.Op{
			Table:  w.table,
			Key:    w.key,
			Value:  w.value,
			Delete: w.deleted,
		})
	}
	return rec
}

// walValidate checks that tx's writes can be logged at all (the frame
// size cap), without encoding anything. Prepare calls it so
// a transaction that could never be made durable is rejected before the
// transaction manager records a yes-vote — CommitPrepared must not be
// the first place the oversize surfaces.
func (db *DB) walValidate(tx *Tx) error {
	if db.log == nil || len(tx.writes) == 0 {
		return nil
	}
	if err := wal.ValidateRecord(db.buildWALRecord(tx)); err != nil {
		return fmt.Errorf("pgssi: commit record: %w", err)
	}
	return nil
}

// joinWAL counts tx among the transactions a log flush may be held back
// for (wal.Config.Joiners): one that may yet write and commit. A declared
// read-only transaction never logs, and only a FsyncBatch log ever holds
// a flush back.
func (db *DB) joinWAL(tx *Tx) {
	if db.log != nil && !tx.readOnly && db.log.FsyncMode() == wal.FsyncBatch {
		tx.joiner = true
		db.walJoiners.Add(1)
	}
}

// leaveWAL ends what joinWAL began for a transaction that ends without
// a record — nothing written, rolled back, or prepared (its commit is
// the transaction manager's to time) — and tells the log when the last
// one has left: a flush held back for them has nobody left to wait for.
// A transaction with a record leaves in publishCommit.
func (db *DB) leaveWAL(tx *Tx) {
	if !tx.joiner {
		return
	}
	tx.joiner = false
	if db.walJoiners.Add(-1) == 0 {
		db.log.JoinersDrained()
	}
}

// WALRecoveredRecords reports how many records OpenDir recovered:
// checkpoint records plus the replayed post-checkpoint log suffix (0 for
// a fresh directory or a non-durable DB).
func (db *DB) WALRecoveredRecords() int {
	return db.recoveredRecords
}

// WALStats returns the WAL's counters (zero value for a DB without
// one). Stats.Appends/Stats.Fsyncs is the group-commit amortization
// ratio.
func (db *DB) WALStats() wal.Stats {
	if db.log == nil {
		return wal.Stats{}
	}
	return db.log.Stats()
}

// DurableWAL returns the WAL — OpenDir's, or the one AttachWAL
// installed — or nil if the DB has none. It is the one accessor:
// replicas follow it directly (it implements wal.Source), and the
// server's replication endpoints serve it.
func (db *DB) DurableWAL() *wal.DurableLog { return db.log }
