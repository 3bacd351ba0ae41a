// Package pgssi is a multiversion transactional storage engine with a
// true SERIALIZABLE isolation level implemented via Serializable Snapshot
// Isolation, reproducing "Serializable Snapshot Isolation in PostgreSQL"
// (Ports & Grittner, VLDB 2012).
//
// The engine provides four isolation levels mirroring the paper's
// landscape: ReadCommitted, RepeatableRead (plain snapshot isolation,
// PostgreSQL's pre-9.1 "SERIALIZABLE"), Serializable (SSI), and
// SerializableS2PL (the strict two-phase locking baseline of §8).
//
// A quick taste:
//
//	db := pgssi.Open(pgssi.Config{})
//	db.CreateTable("doctors")
//	tx, _ := db.Begin(pgssi.TxOptions{Isolation: pgssi.Serializable})
//	v, err := tx.Get("doctors", "alice")
//	...
//	err = tx.Commit() // may return a serialization failure: retry
//
// Transactions aborted with a serialization failure
// (IsSerializationFailure(err)) should simply be retried; see RunTx.
//
// Besides the error-based Tx API above, the engine exposes a
// transport-agnostic session layer: DB.NewSession returns a Session, a
// handle-based facade (begin/get/scan/put/delete/commit/rollback by
// transaction handle) that reports outcomes as typed Status codes
// instead of Go errors. The session layer is what a network front-end
// serves — cmd/pgssid speaks it over TCP using the length-prefixed
// binary protocol of internal/wire (see docs/protocol.md), and
// internal/wire.Client is a remote Session with the same method set —
// and the open-loop load generator (internal/workload, cmd/pgload)
// drives either implementation interchangeably.
//
// A DB that is no longer needed should be shut down with Close, which
// quiesces the background epoch reclaimer and rejects new transactions.
package pgssi

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pgssi/internal/btree"
	"pgssi/internal/core"
	"pgssi/internal/mvcc"
	"pgssi/internal/s2pl"
	"pgssi/internal/storage"
	"pgssi/internal/trace"
	"pgssi/internal/waitgraph"
	"pgssi/internal/wal"
)

// IsolationLevel selects a transaction's concurrency control regime.
type IsolationLevel int

// Isolation levels.
const (
	// Serializable is SSI: snapshot isolation plus runtime detection
	// of dangerous structures (the paper's contribution). The default.
	Serializable IsolationLevel = iota
	// RepeatableRead is plain snapshot isolation — what PostgreSQL
	// called SERIALIZABLE before 9.1.
	RepeatableRead
	// ReadCommitted takes a fresh snapshot before every statement.
	ReadCommitted
	// SerializableS2PL provides serializability with strict two-phase
	// locking, the comparison baseline of §8.
	SerializableS2PL
)

// String implements fmt.Stringer.
func (l IsolationLevel) String() string {
	switch l {
	case Serializable:
		return "serializable"
	case RepeatableRead:
		return "repeatable read"
	case ReadCommitted:
		return "read committed"
	case SerializableS2PL:
		return "serializable (2PL)"
	default:
		return fmt.Sprintf("IsolationLevel(%d)", int(l))
	}
}

// TxOptions configure Begin.
type TxOptions struct {
	Isolation IsolationLevel
	// ReadOnly declares the transaction READ ONLY. Serializable
	// read-only transactions benefit from the §4 optimizations.
	ReadOnly bool
	// Deferrable, with ReadOnly and Serializable, makes Begin block
	// until a safe snapshot is available (§4.3); the transaction then
	// runs entirely free of SSI overhead and cannot abort.
	Deferrable bool
}

// Config configures a DB. The zero value is a sensible in-memory
// configuration.
type Config struct {
	// IODelay, if nonzero, simulates a storage device: each heap page
	// access that misses the simulated buffer cache sleeps this long.
	// Together with CacheMissRatio it reproduces the paper's
	// disk-bound benchmark configuration (Figure 5b).
	IODelay time.Duration
	// CacheMissRatio is the probability in [0,1] that a page access
	// pays IODelay.
	CacheMissRatio float64

	// MaxPredicateLocks bounds the SIREAD lock table; beyond it, locks
	// are promoted to relation granularity (graceful degradation, §6).
	MaxPredicateLocks int
	// MaxCommittedXacts bounds fully-tracked committed transactions;
	// beyond it the oldest is summarized (§6.2).
	MaxCommittedXacts int
	// PromoteTupleToPage and PromotePageToRel are the per-transaction
	// granularity-promotion thresholds (§5.2.1).
	PromoteTupleToPage int
	PromotePageToRel   int
	// Partitions is the number of hash partitions for the SIREAD lock
	// table (PostgreSQL's NUM_PREDICATELOCK_PARTITIONS analogue).
	// Rounded up to a power of two; defaults to 16. Set to 1 to
	// reproduce a single-mutex lock table for comparison.
	Partitions int

	// DisableReadOnlyOpt turns off the §4 read-only optimizations
	// (the "SSI no r/o opt" series in Figures 4 and 5).
	DisableReadOnlyOpt bool

	// FsyncMode selects how commit acknowledgement relates to fsync
	// when the durable WAL is open: FsyncBatch (default) syncs before
	// acknowledging and holds a flush back while another open
	// transaction could still commit into it, FsyncAlways never holds
	// one back, FsyncOff never waits for the disk (contention
	// benchmarks).
	FsyncMode FsyncMode
	// WALSegmentSize is the durable WAL's segment rotation threshold
	// (default wal.DefaultSegmentSize).
	WALSegmentSize int64
	// WALGroupWindow is the cap on how long a FsyncBatch flush is held
	// back for open transactions (default wal.DefaultGroupWindow). A
	// commit with nobody to wait for never waits.
	WALGroupWindow time.Duration
	// CheckpointEvery, if positive, checkpoints the durable WAL (and
	// GCs fully-covered segments) roughly every CheckpointEvery bytes of
	// log growth, at the next safe-snapshot point after the threshold is
	// crossed. Zero means checkpoints happen only via DB.Checkpoint.
	CheckpointEvery int64
}

// FsyncMode re-exports wal.FsyncMode for Config.
type FsyncMode = wal.FsyncMode

// Fsync modes (see wal.FsyncMode).
const (
	FsyncBatch  = wal.FsyncBatch
	FsyncAlways = wal.FsyncAlways
	FsyncOff    = wal.FsyncOff
)

// testHooks are the engine's test-only seams: the §3.3.1 ablation, the
// trace function the interleaving harnesses park transactions with, a
// fault-injecting filesystem and an inline reclaimer. The engine's fences
// have no switch: the mutation table (mutants_test.go) reopens each in a
// copy of the source. Open and OpenDir leave them zero; only tests set
// them (export_test.go).
type testHooks struct {
	// DisableCommitOrderingOpt turns off the commit-ordering
	// optimization of §3.3.1 (ablation: original SSI abort rule).
	DisableCommitOrderingOpt bool
	// Trace receives the interleaving events of core, mvcc and storage
	// (internal/trace).
	Trace trace.Func
	// WALFS overrides the durable WAL's filesystem; nil means the OS
	// filesystem.
	WALFS wal.FS
	// ReclaimInline runs the SSI layer's reclaim passes on the goroutine
	// that asks for one (core.Config.ReclaimInline), so that a history
	// run on one goroutine replays exactly.
	ReclaimInline bool
}

// IndexKeyFunc derives a secondary-index key from a row; ok=false skips
// indexing the row (partial index).
type IndexKeyFunc func(key string, value []byte) (indexKey string, ok bool)

type secondaryIndex struct {
	name string
	tree *btree.Tree[string]
	fn   IndexKeyFunc
}

type tableInfo struct {
	name string
	// heap holds the rows, in the leaves of the primary B+-tree it owns:
	// the tree indexes every key ever inserted (dead rows are filtered
	// by visibility), with stable leaf pages for SIREAD gap locking.
	heap *storage.Table
	// pkName is the lock-target relation name of the primary index.
	pkName string
	mu     sync.RWMutex //ssi:lock level=25 name=pgssi.table
	second map[string]*secondaryIndex
}

// DB is the database engine.
type DB struct {
	cfg    Config
	hooks  testHooks
	closed atomic.Bool
	mvcc   *mvcc.Manager
	ssi    *core.Manager
	s2pl   *s2pl.Manager
	wg     *waitgraph.Graph

	mu     sync.RWMutex //ssi:lock level=20 name=pgssi.tables
	tables map[string]*tableInfo

	prepMu   sync.Mutex //ssi:lock level=30 name=pgssi.prepared
	prepared map[string]*Tx

	// walMu orders log appends with commit publication: a committer
	// with writes holds it across mvcc.Commit AND the append (see
	// publishCommit), so records land in the log in commit-sequence
	// order and safe-snapshot markers are only emitted after every
	// commit record they cover. Lock order: ssi locks → walMu → mvcc
	// shard locks → wal log locks; nothing takes walMu while holding a
	// lock later in that chain.
	walMu sync.Mutex //ssi:lock level=40 name=pgssi.wal
	// markerSeq is the highest commit sequence a safe-snapshot marker
	// has been emitted at. Only written by maybeEmitMarkerLocked under
	// walMu (the unlocked loads are pre-checks), which keeps marker
	// sequences in the log monotone.
	markerSeq atomic.Uint64

	// log is the write-ahead log, nil for a database without one: on
	// disk for OpenDir (see recovery.go), or whatever AttachWAL
	// installed before the first transaction. Never changes afterwards.
	log *wal.DurableLog
	// walJoiners counts the transactions that could still commit into a
	// log flush being gathered: begun on a FsyncBatch log, not declared
	// read-only, not yet published, rolled back or prepared. The log
	// reads it (wal.Config.Joiners) to decide whether a flush is worth
	// holding back; see joinWAL/leaveWAL in recovery.go.
	walJoiners atomic.Int64

	// recoveredRecords is the OpenDir recovery count: checkpoint records
	// plus the replayed log suffix. Written once before the DB accepts
	// traffic.
	recoveredRecords int

	// Checkpoint trigger state (see checkpoint.go). ckptMu guards the
	// waiter list, the single-flight flag, and the last-checkpoint
	// watermarks. Lock order: walMu → ckptMu → wal log locks (the
	// trigger runs inside the marker path and reads log.Stats under
	// it); it is never held across checkpoint I/O — the checkpoint
	// itself is written by a background goroutine (runCheckpoint).
	ckptMu        sync.Mutex //ssi:lock level=45 name=pgssi.ckpt
	ckptWaiters   []chan ckptResult
	ckptRunning   bool
	ckptLastSeq   uint64
	ckptLastBytes int64
	// ckptWriter counts the background checkpoint writer, so Close can
	// wait for it: it creates and removes files, and a directory that is
	// reopened must have nobody left working in it.
	ckptWriter sync.WaitGroup
}

// ckptResult resolves a DB.Checkpoint waiter.
type ckptResult struct {
	info wal.CheckpointInfo
	err  error
}

// Open creates an empty database.
func Open(cfg Config) *DB { return open(cfg, testHooks{}) }

func open(cfg Config, h testHooks) *DB {
	m := mvcc.New(mvcc.Config{Trace: h.Trace})
	return &DB{
		cfg:   cfg,
		hooks: h,
		mvcc:  m,
		ssi: core.NewManager(m, core.Config{
			MaxPredicateLocks:        cfg.MaxPredicateLocks,
			MaxCommittedXacts:        cfg.MaxCommittedXacts,
			PromoteTupleToPage:       cfg.PromoteTupleToPage,
			PromotePageToRel:         cfg.PromotePageToRel,
			Partitions:               cfg.Partitions,
			DisableCommitOrderingOpt: h.DisableCommitOrderingOpt,
			DisableReadOnlyOpt:       cfg.DisableReadOnlyOpt,
			Trace:                    h.Trace,
			ReclaimInline:            h.ReclaimInline,
		}),
		s2pl:     s2pl.NewManager(),
		wg:       waitgraph.New(),
		tables:   make(map[string]*tableInfo),
		prepared: make(map[string]*Tx),
	}
}

// CreateTable creates a table with a primary B+-tree index over its keys.
// Creating an existing table is an error. With a WAL installed, the
// creation is logged (and made durable) before CreateTable returns, so
// a restart or a replica rebuilds the schema before applying row changes
// (secondary indexes are not logged; recreate them after OpenDir).
func (db *DB) CreateTable(name string) error {
	db.mu.Lock()
	if _, ok := db.tables[name]; ok {
		db.mu.Unlock()
		return fmt.Errorf("pgssi: table %q already exists", name)
	}
	db.tables[name] = &tableInfo{
		name: name,
		heap: storage.NewTable(name, storage.Config{
			IODelay:        db.cfg.IODelay,
			CacheMissRatio: db.cfg.CacheMissRatio,
			Trace:          db.hooks.Trace,
		}),
		pkName: "i." + name + ".pk",
		second: make(map[string]*secondaryIndex),
	}
	db.mu.Unlock()
	if db.log != nil {
		if err := db.log.Append(wal.Record{Seq: db.mvcc.CurrentSeq(), CreateTable: name}).Wait(); err != nil {
			// The creation never became durable (closed or poisoned
			// log): undo the in-memory entry so the failure is not
			// followed by a lying "already exists" on retry. A
			// concurrent writer that raced into the table loses it too
			// — its commit fails on the same poisoned log.
			db.mu.Lock()
			delete(db.tables, name)
			db.mu.Unlock()
			return fmt.Errorf("pgssi: create table %q: %w", name, err)
		}
	}
	return nil
}

// CreateIndex adds a secondary index named idx on table, keyed by fn.
// Entries are stored as fn(row) + "\x00" + primary key, so non-unique
// index keys are supported. The table must currently be empty of
// committed rows (create indexes before loading, as the benchmarks do).
func (db *DB) CreateIndex(table, idx string, fn IndexKeyFunc) error {
	ti, err := db.table(table)
	if err != nil {
		return err
	}
	ti.mu.Lock()
	defer ti.mu.Unlock()
	if _, ok := ti.second[idx]; ok {
		return fmt.Errorf("pgssi: index %q already exists on %q", idx, table)
	}
	ti.second[idx] = &secondaryIndex{name: "i." + table + "." + idx, tree: btree.New(), fn: fn}
	return nil
}

func (db *DB) table(name string) (*tableInfo, error) {
	db.mu.RLock()
	ti, ok := db.tables[name]
	db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return ti, nil
}

func (ti *tableInfo) index(name string) (*secondaryIndex, error) {
	ti.mu.RLock()
	si, ok := ti.second[name]
	ti.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q on %q", ErrNoIndex, name, ti.name)
	}
	return si, nil
}

// secondaries returns the table's secondary indexes.
func (ti *tableInfo) secondaries() []*secondaryIndex {
	ti.mu.RLock()
	defer ti.mu.RUnlock()
	out := make([]*secondaryIndex, 0, len(ti.second))
	for _, si := range ti.second {
		out = append(out, si)
	}
	return out
}

// SSIStats returns the SSI manager's counters.
func (db *DB) SSIStats() core.Stats { return db.ssi.Stats() }

// CommitLogSize returns the number of entries currently retained in the
// MVCC commit log (observability: bounded by the epoch reclaimer's
// background truncation and, for non-serializable workloads, by Vacuum).
func (db *DB) CommitLogSize() int { return db.mvcc.LogSize() }

// AttachWAL installs log as the database's write-ahead log, enabling
// log-shipping replication (§7.2) and checkpoints: commit records and
// safe-snapshot markers go to it, and a schema record is logged first
// for every table that already exists. It must be called before the
// first transaction, on a database opened without a log (Open, not
// OpenDir); wal.NewLog makes an in-memory one. The database owns the log
// from then on: Close closes it.
func (db *DB) AttachWAL(log *wal.DurableLog) error {
	if db.log != nil {
		return fmt.Errorf("pgssi: AttachWAL: the database already has a log")
	}
	if db.mvcc.CurrentSeq() != 0 || db.mvcc.ActiveCount() != 0 {
		return fmt.Errorf("pgssi: AttachWAL after the first transaction")
	}
	for _, name := range db.tableNames() {
		if err := log.Append(wal.Record{CreateTable: name}).Wait(); err != nil {
			return fmt.Errorf("pgssi: AttachWAL: %w", err)
		}
	}
	db.log = log
	return nil
}

// tableNames returns the names of the tables, sorted.
func (db *DB) tableNames() []string {
	db.mu.RLock()
	names := make([]string, 0, len(db.tables))
	for name := range db.tables {
		names = append(names, name)
	}
	db.mu.RUnlock()
	sort.Strings(names)
	return names
}

// CurrentSeq returns the newest assigned commit sequence number: the
// primary's position in its own history, against which a replica's
// lag is measured.
func (db *DB) CurrentSeq() uint64 { return uint64(db.mvcc.CurrentSeq()) }

// RunTx's retry loop.
const (
	// runTxAttempts bounds the attempts of one RunTx. Generous — under
	// SSI's safe-retry rules an immediate retry usually succeeds — but
	// finite, so a pathological conflict cycle surfaces as
	// ErrRetriesExhausted instead of spinning unbounded.
	runTxAttempts = 64
	// runTxBackoff is the base of the jittered exponential backoff
	// between attempts, and maxRetryBackoff its cap.
	runTxBackoff    = 50 * time.Microsecond
	maxRetryBackoff = 10 * time.Millisecond
)

// RunTx runs fn in a transaction with the given options, retrying on
// serialization failures — the "middleware layer that automatically
// retries transactions" the paper assumes (§3). fn may be invoked
// multiple times; it must not keep side effects across attempts. Any
// other error rolls back and is returned.
//
// The retry loop is bounded (runTxAttempts, 64) with jittered
// exponential backoff between attempts (50 µs doubling to 10 ms); on
// exhaustion it returns an error matching both ErrRetriesExhausted and
// ErrSerialization.
func (db *DB) RunTx(opts TxOptions, fn func(tx *Tx) error) error {
	for attempts := 1; ; attempts++ {
		tx, err := db.Begin(opts)
		if err != nil {
			return err
		}
		err = fn(tx)
		if err == nil {
			err = tx.Commit()
			if err == nil {
				return nil
			}
		} else {
			tx.Rollback()
		}
		if !IsSerializationFailure(err) {
			return err
		}
		if attempts >= runTxAttempts {
			return &retriesExhaustedError{attempts: attempts, last: err}
		}
		// Exponential backoff with ±50% jitter, capped: spreads a
		// conflicting herd apart without parking anyone for long.
		d := min(runTxBackoff<<uint(min(attempts-1, 20)), maxRetryBackoff)
		time.Sleep(d/2 + rand.N(d))
	}
}

// Close shuts the database down: new transactions are rejected with
// ErrClosed, the SSI epoch reclaimer is stopped (after a final
// synchronous reclamation pass, so a quiesced DB retains no background
// goroutine), and the WAL is flushed and closed. In-flight transactions
// may still commit or roll back, but their deferred cleanup is not
// reclaimed, and a commit with writes fails on the closed log; drain
// them first (as cmd/pgssid's graceful shutdown does). Close is
// idempotent.
func (db *DB) Close() error {
	if !db.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Stop the reclaimer: waits for a running background pass to finish
	// and prevents new spawns, then runs one final synchronous pass so
	// everything already reclaimable is dropped.
	db.ssi.Close()
	if db.log == nil {
		return nil
	}
	// Emit a final safe-snapshot marker if the system is quiescent and
	// one is owed (a replica consuming the log can then serve
	// serializable reads up to the shutdown point, §7.2).
	db.walMu.Lock()
	db.maybeEmitMarkerLocked()
	db.walMu.Unlock()
	// Flush and close the log: the final flush syncs even in FsyncOff
	// mode, so a cleanly closed database is durable regardless of fsync
	// policy. Commits still in flight past this point fail their
	// durability wait with wal.ErrClosed. Parked DB.Checkpoint waiters
	// are failed too — a closed database will never reach another
	// quiescent instant to serve them. An in-flight checkpoint writer
	// finishes or fails against the closed log; Close returns only when
	// it has, so that the directory can be reopened at once. (No writer
	// can start from here on: the trigger runs under walMu and checks
	// db.closed, which was set before the walMu section above.)
	err := db.log.Close()
	db.failCheckpointWaiters(ErrClosed)
	db.ckptWriter.Wait()
	return err
}

// Vacuum removes dead tuple versions no longer visible to any possible
// snapshot. It is the explicit full sweep; in normal running, chains are
// kept short where they are written (see internal/storage). It cuts at
// the engine's one horizon (mvcc.Manager.OldestSnapshot), so a version
// an open transaction's snapshot still reads is kept.
func (db *DB) Vacuum() int {
	horizon := db.mvcc.OldestSnapshot()
	removed := 0
	db.mu.RLock()
	tables := make([]*tableInfo, 0, len(db.tables))
	for _, ti := range db.tables {
		tables = append(tables, ti)
	}
	db.mu.RUnlock()
	for _, ti := range tables {
		removed += ti.heap.Vacuum(horizon, db.mvcc)
	}
	db.mvcc.AutoTruncate(horizon)
	return removed
}
