// Package core implements Serializable Snapshot Isolation as described in
// "Serializable Snapshot Isolation in PostgreSQL" (Ports & Grittner, VLDB
// 2012). It is the analogue of PostgreSQL's predicate.c: a lock manager
// holding only SIREAD locks at tuple / page / relation granularity, and
// per-transaction tracking of rw-antidependencies with dangerous-structure
// detection.
//
// The package provides:
//
//   - SIREAD lock acquisition with multigranularity promotion (§5.2.1);
//   - rw-antidependency flagging from both directions: write-after-read
//     via the SIREAD table, read-after-write via MVCC conflict-out data
//     supplied by the storage layer (§5.2);
//   - dangerous-structure detection with the commit-ordering optimization
//     (§3.3.1) and the read-only snapshot ordering rule (Theorem 3, §4.1);
//   - safe-retry victim selection (§5.4);
//   - safe snapshots and deferrable transactions (§4.2, §4.3);
//   - bounded memory via aggressive cleanup of committed transactions and
//     summarization into a dummy transaction plus, per summarized xid,
//     its earliest out-conflict commit (§6);
//   - two-phase commit support with conservative recovery (§7.1).
//
// Concurrency control is decomposed along the lines §8 of the paper
// suggests once the single SerializableXactHashLock becomes the
// bottleneck:
//
//   - the SIREAD lock table is sharded into Config.Partitions hash
//     partitions (partition.go), so per-read lock acquisition never
//     takes a global mutex;
//   - a transaction's SSI state hangs off its record in internal/mvcc's
//     sharded commit log, the one table keyed by xid: a read/write Begin
//     attaches it there without a global mutex, and a commit with no
//     conflict edges or safety watchers commits under only its own
//     per-transaction edge lock;
//   - cleanup and summarization of committed transactions run in an
//     epoch-based background reclaimer (reclaim.go), off the commit
//     critical section, at internal/mvcc's one oldest-snapshot horizon;
//   - Manager.mu remains only as the conflict-graph mutex: conflict
//     flagging, dangerous-structure traversal, the pre-commit check of
//     edge-bearing transactions, and read-only safety registration
//     serialize there.
//
// The full lock-ordering rule is documented in partition.go.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pgssi/internal/mvcc"
	"pgssi/internal/trace"
)

// ErrSerializationFailure is returned when a transaction must abort to
// preserve serializability (a dangerous structure of two adjacent
// rw-antidependencies was detected and this transaction was chosen as the
// victim). The transaction can be retried; the safe-retry rules of §5.4
// guarantee an immediate retry will not fail with the same conflict,
// except in the two-phase-commit case described in §7.1.
var ErrSerializationFailure = errors.New("could not serialize access due to read/write dependencies among transactions")

// Level is a predicate-lock granularity.
type Level int8

// Granularities, coarsest first. Writers check each level in this order
// (coarsest to finest), which §5.2.1 notes is required for correctness
// with concurrent granularity promotion.
const (
	LevelRelation Level = iota
	LevelPage
	LevelTuple
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelRelation:
		return "relation"
	case LevelPage:
		return "page"
	case LevelTuple:
		return "tuple"
	default:
		return fmt.Sprintf("Level(%d)", int8(l))
	}
}

// Target names a lockable object: a relation, a page of a relation, or a
// tuple (identified by key, qualified by the page holding the version
// that was read). Index gap locks are page-level targets whose Rel is the
// index name.
type Target struct {
	Rel   string
	Level Level
	Page  int64
	Key   string
}

// String implements fmt.Stringer.
func (t Target) String() string {
	switch t.Level {
	case LevelRelation:
		return fmt.Sprintf("%s", t.Rel)
	case LevelPage:
		return fmt.Sprintf("%s/p%d", t.Rel, t.Page)
	default:
		return fmt.Sprintf("%s/p%d/%q", t.Rel, t.Page, t.Key)
	}
}

// RelationTarget returns the relation-granularity target for rel.
func RelationTarget(rel string) Target {
	return Target{Rel: rel, Level: LevelRelation}
}

// PageTarget returns the page-granularity target for (rel, page).
func PageTarget(rel string, page int64) Target {
	return Target{Rel: rel, Level: LevelPage, Page: page}
}

// TupleTarget returns the tuple-granularity target for key on (rel, page).
func TupleTarget(rel string, page int64, key string) Target {
	return Target{Rel: rel, Level: LevelTuple, Page: page, Key: key}
}

// Config tunes the SSI manager. The zero value is usable; unset limits
// get generous defaults.
type Config struct {
	// MaxPredicateLocks bounds the SIREAD lock table. When an
	// acquisition would exceed it, the acquiring transaction's locks on
	// the target relation are promoted to relation granularity,
	// trading precision for space (graceful degradation, §6).
	MaxPredicateLocks int
	// MaxCommittedXacts bounds the number of committed transactions
	// tracked in full. Beyond it, the oldest committed transaction is
	// summarized into the dummy OldCommitted transaction (§6.2).
	MaxCommittedXacts int
	// PromoteTupleToPage is the number of tuple locks on one page a
	// transaction may hold before they are consolidated into a single
	// page lock.
	PromoteTupleToPage int
	// PromotePageToRel is the number of page locks on one relation a
	// transaction may hold before promotion to a relation lock.
	PromotePageToRel int
	// DisableCommitOrderingOpt turns off the commit-ordering
	// optimization of §3.3.1 (ablation A1): every dangerous structure
	// aborts, regardless of commit order.
	DisableCommitOrderingOpt bool
	// DisableReadOnlyOpt turns off the §4 read-only optimizations
	// (ablation A2, the "SSI no r/o opt" series in Figures 4 and 5):
	// no snapshot-ordering filter, no safe snapshots.
	DisableReadOnlyOpt bool
	// Partitions is the number of hash partitions the SIREAD lock
	// table is divided into, the analogue of PostgreSQL's
	// NUM_PREDICATELOCK_PARTITIONS. Rounded up to a power of two;
	// defaults to 16.
	// Set to 1 to reproduce the single-mutex table.
	Partitions int

	// Trace, if non-nil, receives the Begin, PreCommit and WriteProbe
	// events (internal/trace). Test-only; it must not call back into the
	// Manager.
	Trace trace.Func
	// ReclaimInline runs each reclaim pass a wake-up asks for on the
	// waking goroutine, before the call that woke it returns, instead of
	// on the background reclaimer: with it a single-goroutine history
	// runs the same way every time. Test-only.
	ReclaimInline bool
}

func (c Config) withDefaults() Config {
	if c.MaxPredicateLocks <= 0 {
		c.MaxPredicateLocks = 1 << 20
	}
	if c.MaxCommittedXacts <= 0 {
		c.MaxCommittedXacts = 1 << 14
	}
	if c.PromoteTupleToPage <= 0 {
		c.PromoteTupleToPage = 16
	}
	if c.PromotePageToRel <= 0 {
		c.PromotePageToRel = 32
	}
	if c.Partitions <= 0 {
		c.Partitions = 16
	}
	// Round up to a power of two so partition selection is a mask.
	n := 1
	for n < c.Partitions {
		n <<= 1
	}
	c.Partitions = n
	return c
}

// Stats are cumulative counters exposed for benchmarks and tests.
type Stats struct {
	LocksAcquired      int64
	LocksCurrent       int64
	LocksPeak          int64
	TuplePromotions    int64
	PagePromotions     int64
	CapacityPromotions int64
	ConflictsFlagged   int64
	DangerousAborts    int64
	SelfAborts         int64
	VictimAborts       int64
	Summarized         int64
	SafeSnapshots      int64
	ImmediatelySafe    int64
	CleanedXacts       int64
}

// Xact is the SSI bookkeeping for one serializable transaction —
// PostgreSQL's SERIALIZABLEXACT. Conflict-graph state (the edge maps,
// watch maps, and lifecycle flags below) follows the edge-lock protocol
// documented in partition.go: mutations hold Manager.mu AND the owning
// transaction's edgeMu; reads hold either. Lock bookkeeping is guarded
// by lockMu; the atomic fields are noted below.
type Xact struct {
	// XID is the MVCC transaction ID.
	XID mvcc.TxID
	// SnapshotSeq is the commit-sequence counter value when the
	// transaction took its snapshot. Transaction T committed before
	// this snapshot iff T.CommitSeq <= SnapshotSeq. It is assigned
	// during Begin and immutable afterwards; nothing reads another
	// transaction's before its Begin has returned.
	SnapshotSeq mvcc.SeqNo
	// CommitSeq is assigned at commit; zero while running. Written
	// under edgeMu (markCommittedLocked).
	CommitSeq mvcc.SeqNo

	declaredRO bool
	deferrable bool
	wrote      bool
	committed  bool
	prepared   bool
	aborted    bool
	// doomed marks the transaction as chosen for abort; its next
	// operation or its commit will fail with ErrSerializationFailure.
	// It is set only under the Manager's mutex but read atomically by
	// the mutex-free read path; the pre-commit check, which runs under
	// the mutex (or the edge lock on the conflict-free fast path), is
	// the authoritative observation.
	doomed atomic.Bool
	// safe marks a read-only transaction running on a safe snapshot:
	// it takes no SIREAD locks and cannot abort (§4.2). It is atomic
	// so the engine's hot paths can check it without the SSI mutex.
	safe atomic.Bool

	// edgeMu is the transaction's edge lock. It guards the maps and
	// flags above and below against the conflict-free commit fast path,
	// which runs without Manager.mu: every mutation of this
	// transaction's edge/watch maps or its committed/aborted/prepared
	// flags holds both Manager.mu and edgeMu, while the fast path's
	// eligibility check and commit transition hold only edgeMu. A
	// thread not holding Manager.mu may hold at most ONE edge lock (its
	// own); holding several requires Manager.mu (see partition.go).
	edgeMu sync.Mutex //ssi:lock level=30 name=core.edge multi=under:core.ssi
	// inConflicts holds transactions R with an rw-antidependency
	// R → this (R read an object this transaction wrote).
	inConflicts map[*Xact]struct{}
	// outConflicts holds transactions W with this → W (this
	// transaction read an object W wrote).
	outConflicts map[*Xact]struct{}
	// summaryConflictIn records that some summarized committed
	// transaction had an rw-conflict in to this one; the identity no
	// longer matters (§6.2).
	summaryConflictIn bool
	// earliestOutConflictCommit is the commit sequence number of the
	// earliest-committing transaction this one has a conflict out to,
	// including summarized and cleaned-up ones (§6.1). Zero if no out
	// conflict has committed.
	earliestOutConflictCommit mvcc.SeqNo

	// lockMu guards the transaction's own lock bookkeeping below. It
	// nests inside Manager.mu and outside the partition mutexes (see
	// partition.go for the full ordering rule).
	lockMu sync.Mutex //ssi:lock level=40 name=core.txnLocks
	// locks is this transaction's SIREAD lock set together with its
	// promotion counters: the tuple locks acquired per (rel, page) —
	// zero means x holds no tuple lock on the page — and the page
	// locks acquired per relation (lockset.go). A point transaction's
	// fits inside the Xact.
	locks lockSet
	// lockingDone bars further lock acquisition: set when the
	// transaction finishes, is summarized, or moves onto a safe
	// snapshot. Structural propagation (PageSplit) bypasses it, since
	// committed transactions' existing locks must still follow splits.
	lockingDone bool
	// batchTargets and batchParts are AcquireTupleLockBatch's working
	// storage, kept between calls.
	batchTargets []Target
	batchParts   []uint64

	// possibleUnsafe, on a read-only transaction, is the set of
	// concurrent read/write transactions whose fate determines whether
	// this snapshot is safe (§4.2). Guarded like the edge maps.
	possibleUnsafe map[*Xact]struct{}
	// watchingROs, on a read/write transaction, is the set of
	// read-only transactions that listed it in possibleUnsafe.
	// Guarded like the edge maps.
	watchingROs map[*Xact]struct{}
	// safeCh is closed once the safe/unsafe verdict for a read-only
	// transaction's snapshot is known.
	safeCh chan struct{}
	// unsafe is the verdict (valid once safeCh is closed).
	unsafe bool
}

// ReadOnly reports whether the transaction is known read-only: either
// declared so, or finished without writing (§4.1's definition).
func (x *Xact) ReadOnly() bool {
	return x.declaredRO || ((x.committed || x.aborted) && !x.wrote)
}

// Safe reports whether the transaction is running on a safe snapshot.
func (x *Xact) Safe() bool { return x.safe.Load() }

// Doomed reports whether the transaction has been chosen for abort: its
// next operation or its commit fails with ErrSerializationFailure.
func (x *Xact) Doomed() bool { return x.doomed.Load() }

// markCommittedLocked flips the transaction to committed with the given
// sequence number. Caller holds x.edgeMu (the flags are read under edge
// locks by conflict flaggers racing the commit fast path).
func (x *Xact) markCommittedLocked(seq mvcc.SeqNo) {
	x.committed = true
	x.prepared = false
	x.CommitSeq = seq
}

// Manager is the SSI state machine shared by all serializable
// transactions of one database.
type Manager struct {
	// mu is the conflict-graph mutex: it guards rw-antidependency
	// flagging, dangerous-structure traversal, the pre-commit check of
	// edge-bearing transactions, read-only safety registration and
	// resolution, and stats. Transaction lifecycle is NOT globally
	// serialized here any more: Begin attaches its Xact to its
	// commit-log record under that record's shard lock, and
	// conflict-free commits use only their own Xact.edgeMu. The SIREAD
	// lock table lives in the hash partitions.
	mu   sync.Mutex //ssi:lock level=20 name=core.ssi
	cfg  Config
	mvcc *mvcc.Manager

	// parts is the partitioned SIREAD lock table (see partition.go);
	// partMask selects a shard from a target hash (len(parts) is a
	// power of two).
	parts    []lockPartition
	partMask uint64

	// rwActive counts the serializable transactions not declared
	// read-only that have begun and not yet committed or aborted
	// (prepared ones included): the §6.1 sweep runs only at zero.
	rwActive atomic.Int64

	// roSweepValid records that the §6.1 only-read-only-transactions
	// sweep has already run and no read/write transaction has begun
	// or committed since. Atomic: cleared by Begin without mu.
	roSweepValid atomic.Bool

	// retireMu guards retired, the queue of committed transactions
	// awaiting epoch reclamation (reclaim.go), sorted by CommitSeq.
	retireMu sync.Mutex //ssi:lock level=30 name=core.retire
	retired  []*Xact

	// oldCommitted is the dummy transaction that absorbs summarized
	// transactions' SIREAD locks (§6.2). The per-target latest commit
	// seq of absorbed holders lives in each partition's dummySeqs;
	// dummyTargets counts those entries over all partitions, so a
	// reclaim pass skips the partition sweep when there are none.
	// Guarded by mu, which every dummy-lock change holds.
	oldCommitted *Xact
	dummyTargets int

	// rec is the background reclaimer's bookkeeping (reclaim.go).
	rec reclaimer

	// byXID is inXIDOrder's scratch, reused call after call; guarded by
	// mu.
	byXID []*Xact

	// stats holds the counters maintained under mu; the lock-path
	// counters below are atomics because the lock path does not take
	// mu. Stats() assembles the full picture.
	stats              Stats
	locksAcquired      atomic.Int64
	locksCurrent       atomic.Int64
	locksPeak          atomic.Int64
	tuplePromotions    atomic.Int64
	pagePromotions     atomic.Int64
	capacityPromotions atomic.Int64
}

// NewManager returns an SSI manager layered over the given MVCC manager.
func NewManager(m *mvcc.Manager, cfg Config) *Manager {
	cfg = cfg.withDefaults()
	mgr := &Manager{
		cfg:      cfg,
		mvcc:     m,
		parts:    newLockPartitions(cfg.Partitions),
		partMask: uint64(cfg.Partitions - 1),
	}
	mgr.oldCommitted = &Xact{committed: true}
	mgr.rec.byPart = make([][]removal, cfg.Partitions)
	return mgr
}

// Stats returns a snapshot of the cumulative counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	st := m.stats
	m.mu.Unlock()
	st.LocksAcquired = m.locksAcquired.Load()
	st.LocksCurrent = m.locksCurrent.Load()
	st.LocksPeak = m.locksPeak.Load()
	if st.LocksPeak < st.LocksCurrent {
		// The peak CAS trails the gauge increment; keep the
		// gauge ≤ peak invariant in the snapshot.
		st.LocksPeak = st.LocksCurrent
	}
	st.TuplePromotions = m.tuplePromotions.Load()
	st.PagePromotions = m.pagePromotions.Load()
	st.CapacityPromotions = m.capacityPromotions.Load()
	return st
}

// LockCount returns the number of SIREAD lock (target, holder) pairs
// currently in the table, including the dummy transaction's. It counts
// the table itself rather than reporting the LocksCurrent gauge, so
// counter drift cannot go unnoticed (tests assert the two agree).
func (m *Manager) LockCount() int {
	n := 0
	for i := range m.parts {
		p := &m.parts[i]
		p.mu.Lock()
		n += p.locks.len()
		p.mu.Unlock()
	}
	return n
}

// TrackedXacts returns the number of transactions attached to
// commit-log records: running read/write ones and committed ones the
// retire queue still holds. Exposed for memory-bound tests; run
// ReclaimNow first to get a post-quiescence count.
func (m *Manager) TrackedXacts() int {
	n, _ := m.countAttached()
	return n
}

// SummaryTableSize returns the number of summarized transactions whose
// commit-log records still hold their summary.
func (m *Manager) SummaryTableSize() int {
	_, n := m.countAttached()
	return n
}

func (m *Manager) countAttached() (xacts, summaries int) {
	for _, o := range m.mvcc.Owners() {
		switch o.(type) {
		case *Xact:
			xacts++
		case summary:
			summaries++
		}
	}
	return xacts, summaries
}

// trace fires the trace seam at a lifecycle point, if one is set.
func (m *Manager) trace(p trace.Point, xid mvcc.TxID) {
	if f := m.cfg.Trace; f != nil {
		f(trace.Event{Point: p, XID: uint64(xid)})
	}
}

// Begin registers a serializable transaction with the given xid. snapFn
// is invoked to take the transaction's snapshot. The caller has begun
// xid in the MVCC layer already, which pins the reclaim horizon
// (mvcc.Manager.OldestSnapshot) at or below the snapshot taken here.
//
// The common (read/write or undeclared) path takes no global mutex. It
// attaches the transaction to its commit-log record and counts it in
// rwActive BEFORE taking the snapshot, which the read-only safety scan
// relies on (see registerROWatchesLocked).
//
// Declared read-only transactions (with the §4 optimizations enabled)
// take the fenced path under the conflict-graph mutex: the snapshot and
// the safety-watcher registration must be one atomic step with respect
// to read/write commits, or a commit in between could escape the §4.2
// bookkeeping. Begin records the set of concurrent read/write
// serializable transactions whose fates decide snapshot safety; if there
// are none, the snapshot is immediately safe.
func (m *Manager) Begin(xid mvcc.TxID, snapFn func() *mvcc.Snapshot, readOnly, deferrable bool) (*Xact, *mvcc.Snapshot) {
	x := &Xact{
		XID:        xid,
		declaredRO: readOnly,
		deferrable: deferrable,
	}
	if readOnly && !m.cfg.DisableReadOnlyOpt {
		return x, m.beginReadOnly(x, snapFn)
	}
	m.attachXact(x)
	m.trace(trace.Begin, xid)
	snap := snapFn()
	x.SnapshotSeq = snap.SeqNo
	if !readOnly {
		m.roSweepValid.Store(false)
	} else {
		// DisableReadOnlyOpt: the verdict is always "unsafe"; there is
		// no channel to close because none was created.
		x.unsafe = true
	}
	return x, snap
}

// beginReadOnly is the Begin path for declared read-only transactions
// with the §4 optimizations enabled: the snapshot and the safety-watcher
// registration are one m.mu critical section (§4.2).
func (m *Manager) beginReadOnly(x *Xact, snapFn func() *mvcc.Snapshot) *mvcc.Snapshot {
	x.safeCh = make(chan struct{})
	m.mu.Lock()
	snap := snapFn()
	x.SnapshotSeq = snap.SeqNo
	m.trace(trace.Begin, x.XID)
	m.registerROWatchesLocked(x)
	m.mu.Unlock()
	return snap
}

// registerROWatchesLocked records, for read-only transaction x, the set
// of concurrent read/write transactions whose fates decide whether x's
// snapshot is safe (§4.2). Caller holds m.mu and took x's snapshot under
// it.
//
// One walk of the commit log's active sets finds them all, and it never
// visits a committed transaction the log retains. A read/write T that
// can make x unsafe took its snapshot before x's (S_T < S_x): with
// S_T >= S_x, every transaction that committed before x's snapshot is
// visible to T, so T has no rw-conflict out to one. T attached itself to
// its record before taking its snapshot, hence before x's; one that
// has begun and not yet attached will take its snapshot after x's. If T
// is still running when the walk reaches it, it is watched. If T
// committed after x's snapshot, it committed on the edge-lock fast path:
// every other commit takes m.mu, which x has held since its snapshot.
// The fast path requires earliestOutConflictCommit == 0, and every write
// of that field holds m.mu, so T committed with no committed conflict
// out, and one it gains later commits after T, hence after x's
// snapshot: T cannot make x unsafe, and the walk skips it, as it skips
// aborted transactions. Transactions declared read-only attach nothing
// and cannot decide x's safety. The argument needs the snapshot and this
// walk in one m.mu critical section (beginReadOnly): the mutation
// table's "read-only Begin unfenced" entry (mutants_test.go) splits
// them, and TestLifecycleReadOnlyBeginWindow catches it.
func (m *Manager) registerROWatchesLocked(x *Xact) {
	var buf [16]any
	for _, o := range m.mvcc.ActiveOwners(buf[:0]) {
		c := o.(*Xact)
		c.edgeMu.Lock()
		if !c.committed && !c.aborted {
			if x.possibleUnsafe == nil {
				x.possibleUnsafe = make(map[*Xact]struct{})
			}
			x.possibleUnsafe[c] = struct{}{}
			if c.watchingROs == nil {
				c.watchingROs = make(map[*Xact]struct{})
			}
			c.watchingROs[x] = struct{}{}
		}
		c.edgeMu.Unlock()
	}
	if len(x.possibleUnsafe) == 0 {
		m.markSafeLocked(x)
		m.stats.ImmediatelySafe++
	}
}

// markSafeLocked transitions a read-only transaction onto a safe
// snapshot: it drops all SSI state and runs as plain snapshot isolation
// from here on. Caller holds m.mu but no edge locks.
func (m *Manager) markSafeLocked(x *Xact) {
	if x.safe.Load() {
		return
	}
	x.safe.Store(true)
	x.unsafe = false
	m.stats.SafeSnapshots++
	// Release SIREAD locks and conflict edges: a transaction on a safe
	// snapshot can never be part of a dangerous structure.
	m.releaseLocksLocked(x)
	for w := range x.outConflicts {
		w.edgeMu.Lock()
		delete(w.inConflicts, x)
		w.edgeMu.Unlock()
	}
	x.edgeMu.Lock()
	x.outConflicts = nil
	x.edgeMu.Unlock()
	if x.safeCh != nil {
		close(x.safeCh)
	}
}

// markUnsafeLocked records the "unsafe snapshot" verdict. Caller holds
// m.mu but no edge locks.
func (m *Manager) markUnsafeLocked(x *Xact) {
	if x.safe.Load() || x.unsafe {
		return
	}
	x.unsafe = true
	m.unwatchLocked(x)
	if x.safeCh != nil {
		close(x.safeCh)
	}
}

// unwatchLocked detaches read-only x from every read/write transaction
// whose fate it was waiting on (§4.2). Caller holds m.mu but no edge
// locks.
func (m *Manager) unwatchLocked(x *Xact) {
	for rw := range x.possibleUnsafe {
		rw.edgeMu.Lock()
		delete(rw.watchingROs, x)
		rw.edgeMu.Unlock()
	}
	x.edgeMu.Lock()
	x.possibleUnsafe = nil
	x.edgeMu.Unlock()
}

// releaseWatchersLocked tells every read-only transaction watching x
// that x has finished (§4.2). unsafeAt is the commit sequence number
// of the earliest transaction a committed, writing x had a conflict out
// to (0 if none, or if x aborted or wrote nothing): a watcher whose
// snapshot came after it is unsafe. A watcher that has no writer left
// to wait on is otherwise safe. Caller holds m.mu but no edge locks.
func (m *Manager) releaseWatchersLocked(x *Xact, unsafeAt mvcc.SeqNo) {
	for ro := range x.watchingROs {
		ro.edgeMu.Lock()
		delete(ro.possibleUnsafe, x)
		undecided := len(ro.possibleUnsafe) == 0 && !ro.unsafe && !ro.safe.Load()
		ro.edgeMu.Unlock()
		if unsafeAt != 0 && unsafeAt <= ro.SnapshotSeq {
			m.markUnsafeLocked(ro)
			continue
		}
		if undecided {
			m.markSafeLocked(ro)
		}
	}
	x.edgeMu.Lock()
	x.watchingROs = nil
	x.edgeMu.Unlock()
}

// SafeVerdict blocks until the safety of x's snapshot is decided and
// returns true if the snapshot is safe. Deferrable transactions call this
// before running any query (§4.3); it is also used by tests.
func (m *Manager) SafeVerdict(x *Xact) bool {
	if x.safeCh != nil {
		<-x.safeCh
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return x.safe.Load()
}

// VerdictKnown reports whether the safety verdict for x is already
// decided, without blocking.
func (m *Manager) VerdictKnown(x *Xact) bool {
	if x.safeCh == nil {
		return true
	}
	select {
	case <-x.safeCh:
		return true
	default:
		return false
	}
}
