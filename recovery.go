package pgssi

import (
	"errors"
	"fmt"

	"pgssi/internal/mvcc"
	"pgssi/internal/wal"
)

// Durable WAL wiring: OpenDir recovery on the way in, and the commit
// path's append-before-acknowledge on the way out.
//
// The commit path is split in two:
//
//   - walPrepare (committer goroutine, outside all locks) encodes the
//     transaction's record with a placeholder sequence number and keeps
//     it on the Tx. A record the log could never accept fails the commit
//     here, before anything is published.
//   - publishCommit (tx.go) publishes the commit and, still holding
//     db.walMu, stamps the assigned CSN into the record and enqueues it
//     (Enqueue reserves the record's log position); walFinish then waits
//     for the group-commit fsync that covers it before Commit returns —
//     the durability contract: an acknowledged commit survives a crash.
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
	// commit path, and with db.durable still nil they do not re-log
	// themselves.
	ckptRecords, err := db.loadCheckpoint(wl)
	if err != nil {
		wl.Close()
		db.Close()
		return nil, fmt.Errorf("pgssi: checkpoint load: %w", err)
	}
	if err := db.replayWAL(wl); err != nil {
		wl.Close()
		db.Close()
		return nil, fmt.Errorf("pgssi: WAL replay: %w", err)
	}
	// Seed the engine's sequence state from the recovered log position.
	// Replay runs replayed commits through the ordinary commit path, so
	// the CSN counter already moved — but with a checkpoint the counter
	// only counted the replayed suffix, leaving it below the recovered
	// high-water mark; a new commit would then reuse a logged CSN.
	db.mvcc.AdvanceSeq(mvcc.SeqNo(wl.RecoveredMaxSeq()))
	db.markerSeq.Store(wl.RecoveredMarkerSeq())
	db.recoveredRecords = ckptRecords + wl.RecoveredRecords()
	// Seed the checkpoint trigger's watermarks so a reopened database
	// does not immediately re-checkpoint state the recovered checkpoint
	// already covers.
	if info, ok := wl.CheckpointInfo(); ok {
		db.ckptLastSeq = uint64(info.Seq)
	}
	db.ckptLastBytes = wl.Stats().BytesWritten
	db.durable = wl
	return db, nil
}

// loadCheckpoint folds the newest complete checkpoint's records into the
// (empty) database, returning how many records it applied (0 if no
// checkpoint exists).
func (db *DB) loadCheckpoint(wl *wal.DurableLog) (int, error) {
	info, err := wl.ReplayCheckpoint(db.applyRecoveredRecord)
	if errors.Is(err, wal.ErrNoCheckpoint) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return info.Records, nil
}

// replayWAL applies every recovered post-checkpoint record to the
// database. Each commit record is applied as one snapshot-isolation
// transaction, so a replayed prefix is exactly the state those
// transactions produced.
func (db *DB) replayWAL(wl *wal.DurableLog) error {
	return wl.Replay(db.applyRecoveredRecord)
}

// applyRecoveredRecord folds one recovered record (from a checkpoint or
// the log suffix) into storage through the ordinary commit path.
func (db *DB) applyRecoveredRecord(rec wal.Record) error {
	switch {
	case rec.SafeSnapshot:
		return nil
	case rec.CreateTable != "":
		if _, err := db.table(rec.CreateTable); err == nil {
			return nil
		}
		return db.CreateTable(rec.CreateTable)
	default:
		tx, err := db.Begin(TxOptions{Isolation: RepeatableRead})
		if err != nil {
			return err
		}
		for _, op := range rec.Ops {
			if _, terr := db.table(op.Table); terr != nil {
				// A pre-schema-logging log, or a table whose
				// create-table record was cut off with its tail:
				// recreate it so the row data is not lost.
				if cerr := db.CreateTable(op.Table); cerr != nil {
					tx.Rollback()
					return cerr
				}
			}
			if op.Delete {
				if derr := tx.Delete(op.Table, op.Key); derr != nil && !errors.Is(derr, ErrNotFound) {
					tx.Rollback()
					return derr
				}
			} else if perr := tx.Put(op.Table, op.Key, op.Value); perr != nil {
				tx.Rollback()
				return perr
			}
		}
		return tx.Commit()
	}
}

// walPrepare encodes tx's commit record ahead of the commit-sequence
// assignment and keeps it on tx for publishCommit. Returns (nil, nil) —
// nothing will be logged — when the WAL is not durable or the
// transaction wrote nothing. A record the log cannot accept (its frame
// would exceed wal.MaxRecordSize, which recovery could never read back)
// fails here, BEFORE the commit is published: the transaction must
// abort rather than commit in memory only.
func (db *DB) walPrepare(tx *Tx) (*wal.Pending, error) {
	if db.durable == nil || len(tx.writes) == 0 {
		return nil, nil
	}
	p := db.durable.PrepareRecord(db.buildWALRecord(tx))
	if err := p.Err(); err != nil {
		return nil, fmt.Errorf("pgssi: commit record: %w", err)
	}
	tx.walPend = p
	return p, nil
}

// buildWALRecord assembles tx's commit record from its write set.
func (db *DB) buildWALRecord(tx *Tx) wal.Record {
	rec := wal.Record{Xid: tx.xid}
	for wk, vs := range tx.writes {
		last := vs[len(vs)-1]
		rec.Ops = append(rec.Ops, wal.Op{
			Table:  wk.table,
			Key:    wk.key,
			Value:  last.value,
			Delete: last.deleted,
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
	if db.durable == nil || len(tx.writes) == 0 {
		return nil
	}
	if err := wal.ValidateRecord(db.buildWALRecord(tx)); err != nil {
		return fmt.Errorf("pgssi: commit record: %w", err)
	}
	return nil
}

// joinWAL counts tx among the transactions a log flush may be held back
// for (wal.Config.Joiners): one that may yet write and commit. A declared
// read-only transaction never logs, and a database without a durable log
// has no flush to hold.
func (db *DB) joinWAL(tx *Tx) {
	if db.durable != nil && !tx.readOnly {
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
		db.durable.JoinersDrained()
	}
}

// walFinish completes the durable commit path after the MVCC commit
// published: wait out the group-commit fsync covering tx's record (the
// safe-snapshot marker, if the commit left the system quiescent, was
// already emitted by publishCommit; markers are never waited on). A
// durability failure is returned to the committer — the commit is
// visible in memory, but the log is poisoned and every later commit
// will fail the same way.
func (db *DB) walFinish(pend *wal.Pending) error {
	if pend == nil {
		return nil
	}
	return pend.Wait()
}

// WALRecoveredRecords reports how many records OpenDir recovered:
// checkpoint records plus the replayed post-checkpoint log suffix (0 for
// a fresh directory or a non-durable DB).
func (db *DB) WALRecoveredRecords() int {
	return db.recoveredRecords
}

// WALStats returns the durable WAL's counters (zero value for a
// non-durable DB). Stats.Appends/Stats.Fsyncs is the group-commit
// amortization ratio.
func (db *DB) WALStats() wal.Stats {
	if db.durable == nil {
		return wal.Stats{}
	}
	return db.durable.Stats()
}

// DurableWAL returns the on-disk WAL, or nil if the DB was not opened
// with one. Replicas subscribe to it directly (it implements
// wal.Stream).
func (db *DB) DurableWAL() *wal.DurableLog { return db.durable }
