package pgssi

import (
	"fmt"

	"pgssi/internal/mvcc"
)

// Two-phase commit (§7.1). PREPARE TRANSACTION makes a transaction's
// fate durable without making its effects visible; COMMIT PREPARED is
// then guaranteed to succeed. Under SSI the pre-commit serialization
// check runs at prepare time, because a prepared transaction can never be
// chosen as an abort victim; the transaction's SIREAD locks are part of
// the persisted state and survive crash recovery, with conservative
// conflict flags replacing the lost dependency graph.

// Prepare performs the first phase of two-phase commit under the global
// identifier gid. After Prepare the transaction accepts no further
// operations; finish it with DB.CommitPrepared or DB.RollbackPrepared.
// Under Serializable, a failed pre-commit check rolls the transaction
// back and returns a serialization failure.
func (tx *Tx) Prepare(gid string) error {
	if tx.done {
		return ErrTxDone
	}
	if tx.prepared {
		return ErrPrepared
	}
	if tx.level == SerializableS2PL {
		return fmt.Errorf("pgssi: two-phase commit is not supported under S2PL")
	}
	tx.db.prepMu.Lock()
	if _, dup := tx.db.prepared[gid]; dup {
		tx.db.prepMu.Unlock()
		return fmt.Errorf("pgssi: prepared transaction %q already exists", gid)
	}
	tx.db.prepMu.Unlock()
	if err := tx.db.walValidate(tx); err != nil {
		// The WAL can never accept this transaction's commit record
		// (oversize), so a yes-vote would be a lie: roll back now.
		tx.rollbackLocked()
		return err
	}
	if tx.x != nil {
		st, err := tx.db.ssi.Prepare(tx.x)
		if err != nil {
			tx.rollbackLocked()
			return serializationFailure("pre-prepare dangerous structure check")
		}
		tx.prepSt = &st
	}
	tx.prepared = true
	// Its commit is now the transaction manager's to time, not ours: no
	// log flush should be held back for it.
	tx.db.leaveWAL(tx)
	tx.db.prepMu.Lock()
	tx.db.prepared[gid] = tx
	tx.db.prepMu.Unlock()
	return nil
}

// takePrepared removes and returns the prepared transaction gid.
func (db *DB) takePrepared(gid string) (*Tx, error) {
	db.prepMu.Lock()
	defer db.prepMu.Unlock()
	tx, ok := db.prepared[gid]
	if !ok {
		return nil, fmt.Errorf("pgssi: no prepared transaction %q", gid)
	}
	delete(db.prepared, gid)
	return tx, nil
}

// CommitPrepared commits the prepared transaction gid. It cannot fail
// with a serialization error: the check already ran at Prepare.
func (db *DB) CommitPrepared(gid string) error {
	tx, err := db.takePrepared(gid)
	if err != nil {
		return err
	}
	pend, perr := db.walPrepare(tx)
	if perr != nil {
		// Unreachable when Prepare validated the record (the write set
		// is frozen after Prepare); restore the prepared entry so the
		// transaction manager can still decide its fate.
		db.prepMu.Lock()
		db.prepared[gid] = tx
		db.prepMu.Unlock()
		return perr
	}
	if tx.x != nil {
		if err := db.ssi.CommitPrepared(tx.x, func() mvcc.SeqNo {
			return db.publishCommit(tx)
		}); err != nil {
			return err
		}
	} else {
		db.publishCommit(tx)
		db.ssi.FinishedOutside()
	}
	tx.done = true
	tx.prepared = false
	return pend.Wait()
}

// RollbackPrepared rolls back the prepared transaction gid (a user or
// transaction-manager decision; SSI itself never aborts a prepared
// transaction).
func (db *DB) RollbackPrepared(gid string) error {
	tx, err := db.takePrepared(gid)
	if err != nil {
		return err
	}
	tx.prepared = false
	tx.rollbackLocked()
	return nil
}

// PreparedTransactions returns the global identifiers of transactions in
// the prepared state.
func (db *DB) PreparedTransactions() []string {
	db.prepMu.Lock()
	defer db.prepMu.Unlock()
	gids := make([]string, 0, len(db.prepared))
	for gid := range db.prepared {
		gids = append(gids, gid)
	}
	return gids
}

// SimulateCrashRecovery models a crash and restart with prepared
// transactions on disk: every prepared transaction's in-memory SSI state
// (its dependency graph edges) is discarded and rebuilt from the
// persisted lock list, with the conservative assumption of §7.1 that it
// has rw-antidependencies both in and out. Active non-prepared
// transactions must have been finished first — a real crash would have
// killed them.
func (db *DB) SimulateCrashRecovery() error {
	db.prepMu.Lock()
	defer db.prepMu.Unlock()
	if n := db.mvcc.ActiveCount(); n != len(db.prepared) {
		return fmt.Errorf("pgssi: %d active transactions but %d prepared; finish others before simulating a crash", n, len(db.prepared))
	}
	for _, tx := range db.prepared {
		if tx.x == nil {
			continue
		}
		db.ssi.Abort(tx.x)
		tx.x = db.ssi.RecoverPrepared(*tx.prepSt, tx.snap.SeqNo)
	}
	return nil
}
