package pgssi

import (
	"errors"
	"fmt"

	"pgssi/internal/core"
	"pgssi/internal/storage"
	"pgssi/internal/waitgraph"
)

// Sentinel errors returned by the engine. Use errors.Is to test for them;
// IsSerializationFailure additionally groups every retryable concurrency
// failure the way PostgreSQL's SQLSTATE 40001 does.
var (
	// ErrSerialization reports that the transaction was aborted to
	// preserve serializability (SSI dangerous structure, snapshot
	// isolation first-updater-wins conflict, or deadlock victim).
	// Retrying the transaction is expected to succeed; under SSI the
	// safe-retry rules of §5.4 guarantee the retry cannot fail with
	// the same conflict except in the two-phase-commit corner case.
	ErrSerialization = errors.New("pgssi: could not serialize access due to read/write dependencies among transactions")
	// ErrWriteConflict and ErrDeadlock name the two causes of
	// ErrSerialization that plain snapshot isolation already has:
	// first-updater-wins rejected a write because a concurrent
	// transaction changed the same row and committed, or the transaction
	// was the victim of a lock-wait deadlock. An error matching either
	// also matches ErrSerialization; a serialization failure matching
	// neither is a dangerous-structure abort, the failures SSI adds and
	// §8.2 of the paper counts.
	ErrWriteConflict = errors.New("pgssi: concurrent update")
	ErrDeadlock      = errors.New("pgssi: deadlock detected")
	// ErrNotFound reports that the key has no visible version.
	ErrNotFound = errors.New("pgssi: key not found")
	// ErrDuplicateKey reports an insert of an existing key.
	ErrDuplicateKey = errors.New("pgssi: duplicate key")
	// ErrTxDone reports use of a finished transaction.
	ErrTxDone = errors.New("pgssi: transaction has already been committed or rolled back")
	// ErrReadOnlyTx reports a write attempted in a READ ONLY transaction.
	ErrReadOnlyTx = errors.New("pgssi: cannot execute write in a read-only transaction")
	// ErrNoTable reports an operation against an unknown table.
	ErrNoTable = errors.New("pgssi: no such table")
	// ErrNoIndex reports an operation against an unknown index.
	ErrNoIndex = errors.New("pgssi: no such index")
	// ErrPrepared reports an operation invalid on a prepared transaction.
	ErrPrepared = errors.New("pgssi: transaction is prepared")
	// ErrNoSavepoint reports a rollback to an unknown savepoint.
	ErrNoSavepoint = errors.New("pgssi: no such savepoint")
	// ErrClosed reports an operation against a closed DB.
	ErrClosed = errors.New("pgssi: database is closed")
	// ErrInvalidHandle reports a session operation on an unknown
	// transaction handle.
	ErrInvalidHandle = errors.New("pgssi: invalid transaction handle")
	// ErrRetriesExhausted reports that RunTx gave up after its bounded
	// number of serialization-failure retries. It wraps the last
	// failure, so IsSerializationFailure still reports true — the
	// caller may apply its own, slower retry policy.
	ErrRetriesExhausted = errors.New("pgssi: transaction retries exhausted")
	// ErrNoSafeSnapshots reports a DEFERRABLE Begin on a database whose
	// Config.DisableReadOnlyOpt turns safe snapshots off: no snapshot
	// could ever be proven safe, so the wait would never end.
	ErrNoSafeSnapshots = errors.New("pgssi: DEFERRABLE needs safe snapshots, which DisableReadOnlyOpt turns off")
	// ErrWALPoisoned reports that the durable WAL has taken a sticky
	// flush failure: no commit can be made durable until the directory
	// is reopened, so Begin refuses new transactions with this error
	// rather than letting them run toward a guaranteed-failing commit.
	ErrWALPoisoned = errors.New("pgssi: durable WAL poisoned, durability lost")
)

// IsSerializationFailure reports whether err is a retryable concurrency
// failure: an SSI serialization failure, a snapshot-isolation write
// conflict, or a deadlock abort. Applications (or a retry middleware, as
// §3 assumes) should retry the transaction.
func IsSerializationFailure(err error) bool {
	return errors.Is(err, ErrSerialization)
}

// serializationError wraps a concrete cause in ErrSerialization.
type serializationError struct {
	cause string
	// kind is the more specific sentinel the error also matches
	// (ErrWriteConflict, ErrDeadlock), or nil.
	kind error
}

func (e *serializationError) Error() string {
	return fmt.Sprintf("%v (%s)", ErrSerialization, e.cause)
}

func (e *serializationError) Is(target error) bool {
	return target == ErrSerialization || (e.kind != nil && target == e.kind)
}

func serializationFailure(cause string) error {
	return &serializationError{cause: cause}
}

// retriesExhaustedError is returned by RunTx when the bounded retry loop
// gives up; it matches both ErrRetriesExhausted and (via the wrapped
// last failure) ErrSerialization.
type retriesExhaustedError struct {
	attempts int
	last     error
}

func (e *retriesExhaustedError) Error() string {
	return fmt.Sprintf("%v after %d attempts: %v", ErrRetriesExhausted, e.attempts, e.last)
}

func (e *retriesExhaustedError) Is(target error) bool { return target == ErrRetriesExhausted }

func (e *retriesExhaustedError) Unwrap() error { return e.last }

// mapStorageErr converts storage-layer errors into engine errors.
func mapStorageErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, storage.ErrNotFound):
		return ErrNotFound
	case errors.Is(err, storage.ErrDuplicateKey):
		return ErrDuplicateKey
	case errors.Is(err, storage.ErrWriteConflict):
		return &serializationError{cause: "concurrent update", kind: ErrWriteConflict}
	case errors.Is(err, waitgraph.ErrDeadlock):
		return &serializationError{cause: "deadlock detected", kind: ErrDeadlock}
	case errors.Is(err, core.ErrSerializationFailure):
		return serializationFailure("rw-antidependency dangerous structure")
	default:
		return err
	}
}
