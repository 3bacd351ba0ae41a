package pgssi

import (
	"errors"
	"sync"
)

// Status is the session layer's typed result code. The handle-based
// Session API reports every expected transactional outcome — including
// serialization failures, which in-process callers see as Go errors —
// as a Status, so transports can carry it as a single byte and clients
// can branch on it without string matching (the way PostgreSQL clients
// branch on SQLSTATE). The numeric values are part of the wire protocol
// (docs/protocol.md) and must not be renumbered.
//
//ssi:enum
type Status uint8

// Status codes. StatusNetwork is client-side only: it is never sent on
// the wire and reports a transport failure on the connection (the
// wire.Client keeps the underlying error).
const (
	StatusOK Status = iota
	StatusNotFound
	StatusSerializationFailure
	StatusDuplicateKey
	StatusTxDone
	StatusReadOnlyTx
	StatusNoTable
	StatusNoIndex
	StatusNoSavepoint
	StatusPrepared
	StatusInvalidHandle
	StatusInvalidRequest
	StatusShuttingDown
	StatusInternal
	StatusNetwork
	StatusNotSafe
	StatusReplicaHalted
	StatusNoReplication
	// StatusDurabilityLost reports a poisoned durable WAL: the server's
	// log took a sticky flush failure, no commit can be made durable,
	// and Begin refuses new transactions until the operator restarts
	// the process (reopening the directory).
	StatusDurabilityLost
	// StatusSeqTruncated reports a replication resume position below
	// the primary's checkpoint GC floor: the records needed to resume
	// were garbage-collected, and the subscriber must re-seed from a
	// checkpoint (FetchCheckpoint) instead of resuming.
	StatusSeqTruncated
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusNotFound:
		return "not found"
	case StatusSerializationFailure:
		return "serialization failure"
	case StatusDuplicateKey:
		return "duplicate key"
	case StatusTxDone:
		return "transaction done"
	case StatusReadOnlyTx:
		return "read-only transaction"
	case StatusNoTable:
		return "no such table"
	case StatusNoIndex:
		return "no such index"
	case StatusNoSavepoint:
		return "no such savepoint"
	case StatusPrepared:
		return "transaction is prepared"
	case StatusInvalidHandle:
		return "invalid transaction handle"
	case StatusInvalidRequest:
		return "invalid request"
	case StatusShuttingDown:
		return "shutting down"
	case StatusInternal:
		return "internal error"
	case StatusNetwork:
		return "network error"
	case StatusNotSafe:
		return "not at a safe snapshot"
	case StatusReplicaHalted:
		return "replica halted"
	case StatusNoReplication:
		return "replication unavailable"
	case StatusDurabilityLost:
		return "durability lost (WAL poisoned)"
	case StatusSeqTruncated:
		return "resume position truncated by checkpoint GC"
	default:
		return "unknown status"
	}
}

// OK reports whether the status is StatusOK.
func (s Status) OK() bool { return s == StatusOK }

// Retryable reports whether the status is a retryable concurrency
// failure: retry the whole transaction in a new handle.
func (s Status) Retryable() bool { return s == StatusSerializationFailure }

// Err converts the status back into the engine's sentinel error space
// (nil for StatusOK), so status-based callers can reuse error-based
// helpers like IsSerializationFailure.
func (s Status) Err() error {
	switch s {
	case StatusOK:
		return nil
	case StatusNotFound:
		return ErrNotFound
	case StatusSerializationFailure:
		return ErrSerialization
	case StatusDuplicateKey:
		return ErrDuplicateKey
	case StatusTxDone:
		return ErrTxDone
	case StatusReadOnlyTx:
		return ErrReadOnlyTx
	case StatusNoTable:
		return ErrNoTable
	case StatusNoIndex:
		return ErrNoIndex
	case StatusNoSavepoint:
		return ErrNoSavepoint
	case StatusPrepared:
		return ErrPrepared
	case StatusInvalidHandle:
		return ErrInvalidHandle
	case StatusShuttingDown:
		return ErrClosed
	case StatusNotSafe:
		return ErrNotSafePoint
	case StatusReplicaHalted:
		return ErrReplicaHalted
	case StatusDurabilityLost:
		return ErrWALPoisoned
	default:
		return errors.New("pgssi: " + s.String())
	}
}

// StatusOf maps an engine error to its Status (StatusOK for nil,
// StatusInternal for errors outside the sentinel set).
func StatusOf(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case IsSerializationFailure(err):
		return StatusSerializationFailure
	case errors.Is(err, ErrNotFound):
		return StatusNotFound
	case errors.Is(err, ErrDuplicateKey):
		return StatusDuplicateKey
	case errors.Is(err, ErrTxDone):
		return StatusTxDone
	case errors.Is(err, ErrReadOnlyTx):
		return StatusReadOnlyTx
	case errors.Is(err, ErrNoTable):
		return StatusNoTable
	case errors.Is(err, ErrNoIndex):
		return StatusNoIndex
	case errors.Is(err, ErrNoSavepoint):
		return StatusNoSavepoint
	case errors.Is(err, ErrPrepared):
		return StatusPrepared
	case errors.Is(err, ErrInvalidHandle):
		return StatusInvalidHandle
	case errors.Is(err, ErrNotSafePoint):
		return StatusNotSafe
	case errors.Is(err, ErrReplicaHalted):
		return StatusReplicaHalted
	case errors.Is(err, ErrWALPoisoned):
		return StatusDurabilityLost
	case errors.Is(err, ErrClosed):
		return StatusShuttingDown
	default:
		return StatusInternal
	}
}

// Handle names a transaction within a Session. Handles are never reused
// within a session; operations on an unknown handle return
// StatusInvalidHandle.
type Handle uint64

// KV is one row of a scan result.
type KV struct {
	Key   string
	Value []byte
}

// Session is the transport-agnostic session layer: a handle-based facade
// over DB/Tx whose operations report outcomes as Status codes instead of
// Go errors. It is the surface a network front-end serves (cmd/pgssid
// speaks exactly this API over TCP; internal/wire carries it) and is
// equally usable in process — the load driver's key-value job
// (internal/workload) runs against either.
//
// A Session may hold any number of concurrent transactions, one per
// handle. The Session itself is safe for concurrent use; each individual
// handle must be driven by one goroutine at a time (the usual Tx rule).
type Session struct {
	// begin and ddl are the session's only couplings to its backing
	// store: a primary session begins transactions on the DB directly,
	// while a replica session (Replica.NewSession) maps Begin onto
	// safe-snapshot read-only transactions and refuses DDL. Everything
	// else in the session layer is handle bookkeeping over *Tx, which is
	// identical on both.
	begin func(TxOptions) (*Tx, error)
	ddl   func(name string) error

	mu   sync.Mutex //ssi:lock level=10 name=pgssi.session
	next Handle
	txs  map[Handle]*Tx
}

// NewSession returns a new session over the database.
func (db *DB) NewSession() *Session {
	return &Session{begin: db.Begin, ddl: db.CreateTable, txs: make(map[Handle]*Tx)}
}

// lookup resolves a handle.
func (s *Session) lookup(h Handle) (*Tx, Status) {
	s.mu.Lock()
	tx, ok := s.txs[h]
	s.mu.Unlock()
	if !ok {
		return nil, StatusInvalidHandle
	}
	return tx, StatusOK
}

// drop removes a finished handle.
func (s *Session) drop(h Handle) {
	s.mu.Lock()
	delete(s.txs, h)
	s.mu.Unlock()
}

// Begin starts a transaction and returns its handle. The deferrable
// flag requires level == Serializable and readOnly (as in BEGIN
// TRANSACTION READ ONLY, DEFERRABLE) and may block until a safe
// snapshot is available.
//
// Handles are numbered by request: the k-th Begin a session is asked for
// is handle k, and a refused Begin uses up its number too. A client that
// issues its Begins one after another can therefore name a transaction
// before the answer to its Begin arrives (wire.Client does). A refusal
// outside the sentinel set (a malformed request, such as DEFERRABLE
// without SERIALIZABLE READ ONLY) is StatusInvalidRequest.
func (s *Session) Begin(level IsolationLevel, readOnly, deferrable bool) (Handle, Status) {
	tx, err := s.begin(TxOptions{Isolation: level, ReadOnly: readOnly, Deferrable: deferrable})
	if err != nil {
		s.SkipHandle()
		if st := StatusOf(err); st != StatusInternal {
			return 0, st
		}
		return 0, StatusInvalidRequest
	}
	s.mu.Lock()
	s.next++
	h := s.next
	s.txs[h] = tx
	s.mu.Unlock()
	return h, StatusOK
}

// SkipHandle uses up the next handle number without beginning anything:
// a front-end that refuses a Begin before it reaches the session (a
// draining server) calls it to keep the numbering Begin describes.
func (s *Session) SkipHandle() {
	s.mu.Lock()
	s.next++
	s.mu.Unlock()
}

// Get returns the value of key in table, or StatusNotFound.
func (s *Session) Get(h Handle, table, key string) ([]byte, Status) {
	tx, st := s.lookup(h)
	if !st.OK() {
		return nil, st
	}
	v, err := tx.Get(table, key)
	return v, StatusOf(err)
}

// Put upserts key in table (see Tx.Put).
func (s *Session) Put(h Handle, table, key string, value []byte) Status {
	tx, st := s.lookup(h)
	if !st.OK() {
		return st
	}
	return StatusOf(tx.Put(table, key, value))
}

// Insert adds a new row; StatusDuplicateKey if a visible row exists.
func (s *Session) Insert(h Handle, table, key string, value []byte) Status {
	tx, st := s.lookup(h)
	if !st.OK() {
		return st
	}
	return StatusOf(tx.Insert(table, key, value))
}

// Update replaces an existing row; StatusNotFound if there is none.
func (s *Session) Update(h Handle, table, key string, value []byte) Status {
	tx, st := s.lookup(h)
	if !st.OK() {
		return st
	}
	return StatusOf(tx.Update(table, key, value))
}

// Delete removes the visible version of key.
func (s *Session) Delete(h Handle, table, key string) Status {
	tx, st := s.lookup(h)
	if !st.OK() {
		return st
	}
	return StatusOf(tx.Delete(table, key))
}

// ScanEach calls fn for up to limit visible rows with lo <= key < hi in
// key order (hi == "" means unbounded, limit <= 0 means unlimited). On
// any status but StatusOK the scan has no result and the caller discards
// whatever fn saw. value is the engine's own copy of the row: fn may
// keep it but must not modify it.
func (s *Session) ScanEach(h Handle, table, lo, hi string, limit int, fn func(key string, value []byte)) Status {
	tx, st := s.lookup(h)
	if !st.OK() {
		return st
	}
	n := 0
	return StatusOf(tx.Scan(table, lo, hi, func(k string, v []byte) bool {
		fn(k, v)
		n++
		return limit <= 0 || n < limit
	}))
}

// Scan is ScanEach collected into a slice.
func (s *Session) Scan(h Handle, table, lo, hi string, limit int) ([]KV, Status) {
	var rows []KV
	st := s.ScanEach(h, table, lo, hi, limit, func(k string, v []byte) {
		rows = append(rows, KV{Key: k, Value: v})
	})
	if !st.OK() {
		return nil, st
	}
	return rows, StatusOK
}

// Settled reports whether h names an open read-only transaction whose
// Commit cannot fail: one below Serializable, or one on a safe snapshot
// (§4.2) that was not doomed first. Once true it stays true until the
// handle finishes, so a front-end may promise the outcome of Commit
// before it is asked for (the wire protocol's settled flag).
func (s *Session) Settled(h Handle) bool {
	tx, st := s.lookup(h)
	return st.OK() && tx.settled()
}

// Commit finishes the transaction and releases its handle. On
// StatusSerializationFailure the transaction has been rolled back and
// the handle released: retry with a fresh Begin.
func (s *Session) Commit(h Handle) Status {
	tx, st := s.lookup(h)
	if !st.OK() {
		return st
	}
	err := tx.Commit()
	// The handle is released on every outcome except "still usable"
	// states (a prepared transaction keeps its handle until the 2PC
	// resolution APIs are used in process).
	if err == nil || IsSerializationFailure(err) || errors.Is(err, ErrTxDone) {
		s.drop(h)
	}
	return StatusOf(err)
}

// Rollback aborts the transaction and releases its handle.
func (s *Session) Rollback(h Handle) Status {
	tx, st := s.lookup(h)
	if !st.OK() {
		return st
	}
	err := tx.Rollback()
	if err == nil || errors.Is(err, ErrTxDone) {
		s.drop(h)
	}
	return StatusOf(err)
}

// Savepoint establishes a savepoint in the transaction.
func (s *Session) Savepoint(h Handle, name string) Status {
	tx, st := s.lookup(h)
	if !st.OK() {
		return st
	}
	return StatusOf(tx.Savepoint(name))
}

// ReleaseSavepoint releases a savepoint.
func (s *Session) ReleaseSavepoint(h Handle, name string) Status {
	tx, st := s.lookup(h)
	if !st.OK() {
		return st
	}
	return StatusOf(tx.ReleaseSavepoint(name))
}

// RollbackToSavepoint rolls back to a savepoint.
func (s *Session) RollbackToSavepoint(h Handle, name string) Status {
	tx, st := s.lookup(h)
	if !st.OK() {
		return st
	}
	return StatusOf(tx.RollbackToSavepoint(name))
}

// CreateTable creates a table (DDL is not transactional; the handle
// argument is absent on purpose). Replica sessions refuse it with
// StatusReadOnlyTx: schema arrives via the replication stream.
func (s *Session) CreateTable(name string) Status {
	err := s.ddl(name)
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, ErrReadOnlyTx):
		return StatusReadOnlyTx
	case errors.Is(err, ErrClosed):
		return StatusShuttingDown
	default:
		// The primary's only other failure mode today: duplicate table.
		return StatusDuplicateKey
	}
}

// Open returns the number of transactions currently open in the session.
// The server's graceful drain uses it to decide when a connection is
// quiescent.
func (s *Session) Open() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.txs)
}

// Close rolls back every open transaction and releases all handles. The
// session remains usable (a connection reset, not a shutdown).
func (s *Session) Close() {
	s.mu.Lock()
	txs := make([]*Tx, 0, len(s.txs))
	for _, tx := range s.txs {
		txs = append(txs, tx)
	}
	s.txs = make(map[Handle]*Tx)
	s.mu.Unlock()
	for _, tx := range txs {
		tx.Rollback()
	}
}
