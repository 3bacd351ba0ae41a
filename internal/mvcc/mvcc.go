// Package mvcc implements the multiversion concurrency control substrate
// that PostgreSQL's SSI implementation builds on: transaction identifiers,
// snapshots, a commit log recording running and committed transactions,
// and monotonically increasing commit sequence numbers (CSNs).
//
// Commit sequence numbers are central to the SSI machinery in
// internal/core: the commit-ordering optimization (§3.3.1 of the paper)
// and the read-only snapshot ordering rule (§4.1) both compare the order
// in which transactions committed, and safe-snapshot detection compares a
// transaction's commit against another's snapshot time.
//
// # Snapshots
//
// A snapshot is CSN-based, the direction PostgreSQL's own CSN-snapshot
// work takes to shrink ProcArrayLock: a snapshot is nothing but the
// value of the commit-sequence counter at the instant it was taken, and
// "xid is visible" means "xid's commit CSN is known and <= the snapshot
// CSN" — a lookup in a sharded commit log. Taking a snapshot is a single
// atomic load; Begin and Commit touch only one commit-log shard plus a
// handful of atomics; no global mutex exists on any lifecycle path.
//
// Commit makes CSN assignment and commit-log publication one atomic step
// for snapshotters by performing both inside the commit-log shard's
// critical section: a commit locks its shard, increments the CSN counter,
// and writes (xid → CSN, committed) before unlocking. A snapshot is a
// plain atomic read of the counter; if it reads a CSN at or above some
// commit's, that commit's counter increment already happened inside the
// committer's critical section, so any subsequent commit-log lookup —
// which takes the shard's read lock — serializes behind the publication
// and resolves the commit. A reader can at worst block momentarily on the
// shard of a mid-publication commit; it can never observe the
// assigned-but-unpublished state. The trace seam's CSNPublish point
// (internal/trace, Config.Trace) lets a test park a committer just before
// that step; the mutation table's "CSN assigned before publication" entry
// (mutants_test.go) moves the increment out of the critical section, and
// the harnesses parked there catch the torn snapshot that follows.
//
// # One horizon
//
// OldestSnapshot is the engine's only answer to "what is the oldest
// snapshot any transaction holds or will take?": the minimum begin-time
// CSN over the active transactions, at every isolation level, or the
// current CSN when none is active. A commit at or below it is visible to
// every present and future snapshot. Everything that reclaims old state
// cuts there: the SSI reclaimer frees committed transactions (§6.1, the
// way PostgreSQL keys its cleanup to SxactGlobalXmin), AutoTruncate drops
// commit-log entries, the heap's write path trims version chains (via the
// published Horizon), and the engine's Vacuum sweeps them. The SSI
// layer's per-transaction state lives in the commit-log records (Attach),
// its §6.2 summaries included, so truncation forgets it with the fate.
//
// # Commit-log truncation
//
// The log holds records of in-progress and committed transactions, the
// latter until truncation drops them; an abort leaves none. Abort
// deletes its transaction's record at once: the engine undoes every
// write an aborting transaction made before it calls Abort, so no heap
// version names an aborted xid and nothing asks about it afterwards
// (an absent xid at or above the floor resolves aborted all the same).
// AutoTruncate runs on the epoch reclaimer's background passes
// (internal/core/reclaim.go); transactions at every isolation level wake
// it. A committed entry may be dropped once (a) its xid is below every
// active transaction's xid and (b) its commit CSN is at or below the
// horizon — then every present or future snapshot already includes it,
// and Status/Sees resolve absent xids below the floor as "committed long
// ago". A snapshot taken outside a transaction is not covered by the
// horizon: callers must hold it only while an active transaction that
// began before it pins the horizon.
package mvcc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pgssi/internal/trace"
)

// TxID identifies a transaction. The zero value is invalid (never
// assigned), mirroring PostgreSQL's InvalidTransactionId.
type TxID uint64

// InvalidTxID is the zero, never-assigned transaction ID.
const InvalidTxID TxID = 0

// SeqNo is a commit sequence number (CSN). Sequence numbers are assigned
// from a single counter at commit time, so comparing two SeqNos orders
// the commits. The zero value means "not committed" / "no sequence
// number".
type SeqNo uint64

// InvalidSeqNo is the zero, never-assigned commit sequence number.
const InvalidSeqNo SeqNo = 0

// Status is the state of a transaction as recorded in the commit log.
type Status int8

// Transaction states.
const (
	StatusInProgress Status = iota
	StatusCommitted
	StatusAborted
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusInProgress:
		return "in-progress"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("Status(%d)", int8(s))
	}
}

// Config tunes a Manager. The zero value is the production configuration.
type Config struct {
	// Trace, if non-nil, receives the CSNPublish events (internal/trace).
	// Test-only; it must not call back into lifecycle methods of the
	// same Manager.
	Trace trace.Func
}

// logPartitions is the number of hash shards in the commit log (a power
// of two, so shard selection is a mask).
const logPartitions = 64

// Snapshot is a consistent view of the database: the published
// commit-sequence counter value at the instant it was taken. Visibility
// is resolved against the Manager's commit log; transactions that commit
// after the snapshot was taken are never seen.
type Snapshot struct {
	// SeqNo is the value of the commit-sequence counter when the
	// snapshot was taken. A transaction T committed before this
	// snapshot iff T's commit SeqNo <= this value.
	SeqNo SeqNo
	// m is the Manager whose commit log resolves visibility lookups.
	m *Manager
}

// Sees reports whether xid committed before the snapshot was taken: its
// commit is known and its CSN is at or below the snapshot's. An
// in-progress or aborted xid, the caller's own included, is never seen.
func (s *Snapshot) Sees(xid TxID) bool {
	st, seq := s.m.Status(xid)
	return st == StatusCommitted && s.SeesCommitted(seq)
}

// SeesCommitted reports whether a transaction already known committed,
// with commit sequence number seq (InvalidSeqNo when unknown because the
// entry was truncated below the log floor — then the commit predates
// every live snapshot), is visible to the snapshot. It is the fast path
// for callers that just resolved the fate via Manager.Status: it answers
// from seq alone instead of paying a second commit-log lookup.
func (s *Snapshot) SeesCommitted(seq SeqNo) bool {
	return seq == InvalidSeqNo || seq <= s.SeqNo
}

// txRecord is a commit-log entry: one transaction's fate, its commit CSN
// once assigned, the CSN-counter value observed when it began (the pin
// OldestSnapshot is computed from), the done channel writers block on,
// and what the layer above attached (Attach). Fields are guarded by the
// owning shard's mutex; done is closed exactly once, after the commit is
// published (or on abort, when the record is deleted).
type txRecord struct {
	status    Status
	commitSeq SeqNo
	beginSeq  SeqNo
	done      chan struct{}
	owner     any
}

// logShard is one shard of the commit log plus the active subset of its
// transactions.
type logShard struct {
	mu     sync.RWMutex //ssi:lock level=40 name=mvcc.logShard
	recs   map[TxID]*txRecord
	active map[TxID]struct{}
	// nactive is len(active), changed with it under mu and read without
	// mu by ActiveOwners, which skips a shard it reads empty.
	nactive atomic.Int32
}

// Manager assigns transaction IDs, takes snapshots, and records
// transaction fates in an in-memory commit log (PostgreSQL's clog).
// It also provides per-transaction done channels so that writers can
// block waiting for a tuple lock holder to finish, the way PostgreSQL
// blocks on a transaction's xid lock.
//
// Lock levels (all leaves with respect to the engine's locks, see
// internal/core/partition.go): truncMu serializes truncations and orders
// before beginMu, which orders before one logShard.mu. No global mutex
// exists on any lifecycle path.
type Manager struct {
	cfg       Config
	shards    []logShard
	shardMask uint64

	// lastXID is the most recently assigned transaction ID.
	lastXID atomic.Uint64
	// assignedSeq is the CSN counter. Commits increment it inside their
	// commit-log shard's critical section (see the package comment), so
	// every commit whose CSN a snapshot has observed is resolvable in
	// the log by the time the snapshot can look it up.
	assignedSeq atomic.Uint64
	// logFloor is the lowest xid that may still have a commit-log
	// entry; absent entries below it are known committed.
	logFloor atomic.Uint64
	// activeCount counts in-progress transactions.
	activeCount atomic.Int64
	// horizon is the highest value OldestSnapshot has returned (see
	// Horizon); it only rises.
	horizon atomic.Uint64

	// truncMu serializes AutoTruncate passes. The mutexes are
	// level-ordered (trunc < begin < logShard) and ssilint
	// machine-checks that order; the canonical table is in
	// docs/invariants.md.
	truncMu sync.Mutex //ssi:lock level=10 name=mvcc.trunc
	// truncVictims is AutoTruncate's list of entries to delete, reused
	// from pass to pass. Guarded by truncMu.
	truncVictims []TxID

	// beginMu fences Begin's xid-assignment→shard-registration window.
	// Begin holds it SHARED across both steps, so Begins never block
	// each other; OldestActiveXID takes it exclusively for one instant
	// before reading lastXID, which guarantees every xid at or below
	// the bound it reads is registered (a Begin preempted between
	// assignment and registration would otherwise be invisible to the
	// scan while holding an xid below the bound, and truncation floors
	// derived from the scan could pass an active transaction).
	beginMu sync.RWMutex //ssi:lock level=20 name=mvcc.begin
}

// New returns a Manager with the given configuration. The first assigned
// transaction ID is 1.
func New(cfg Config) *Manager {
	m := &Manager{
		cfg:       cfg,
		shards:    make([]logShard, logPartitions),
		shardMask: logPartitions - 1,
	}
	for i := range m.shards {
		m.shards[i].recs = make(map[TxID]*txRecord)
		m.shards[i].active = make(map[TxID]struct{})
	}
	m.logFloor.Store(1)
	return m
}

// NewManager returns a Manager with the default (CSN-snapshot)
// configuration.
func NewManager() *Manager {
	return New(Config{})
}

func (m *Manager) shard(xid TxID) *logShard {
	return &m.shards[uint64(xid)&m.shardMask]
}

// trace fires the trace seam, if one is set.
func (m *Manager) trace(p trace.Point, xid TxID) {
	if f := m.cfg.Trace; f != nil {
		f(trace.Event{Point: p, XID: uint64(xid)})
	}
}

// lookup returns xid's commit-log record, or nil.
func (m *Manager) lookup(xid TxID) *txRecord {
	sh := m.shard(xid)
	sh.mu.RLock()
	rec := sh.recs[xid]
	sh.mu.RUnlock()
	return rec
}

// Begin assigns a new transaction ID and marks it in progress. It
// touches one commit-log shard and two atomics; no global mutex.
func (m *Manager) Begin() TxID {
	m.beginMu.RLock()
	xid := TxID(m.lastXID.Add(1))
	rec := &txRecord{
		status: StatusInProgress,
		// The begin-time CSN pins the horizon (OldestSnapshot): any
		// snapshot this transaction takes reads the counter at or after
		// this load, so commits at or below it are visible to every
		// snapshot the transaction will ever hold.
		beginSeq: SeqNo(m.assignedSeq.Load()),
		done:     make(chan struct{}),
	}
	sh := m.shard(xid)
	sh.mu.Lock()
	sh.recs[xid] = rec
	sh.active[xid] = struct{}{}
	sh.nactive.Add(1)
	sh.mu.Unlock()
	m.beginMu.RUnlock()
	m.activeCount.Add(1)
	return xid
}

// TakeSnapshot returns a snapshot of the transactions visible right now.
// The snapshot excludes all in-progress transactions, including the
// caller's own xid if it has one; storage-level visibility checks treat a
// transaction's own writes specially. It is a single atomic load of the
// CSN counter.
func (m *Manager) TakeSnapshot() *Snapshot {
	return &Snapshot{SeqNo: SeqNo(m.assignedSeq.Load()), m: m}
}

// finishableLocked returns xid's record if it can be committed or
// aborted, panicking (like the pre-CSN implementation) otherwise. Caller
// holds the shard's mutex.
func finishableLocked(sh *logShard, xid TxID, op string) *txRecord {
	rec := sh.recs[xid]
	if rec == nil || rec.status != StatusInProgress {
		sh.mu.Unlock()
		panic(fmt.Sprintf("mvcc: %s of non-active transaction %d", op, xid))
	}
	return rec
}

// Commit marks xid committed, assigns it the next commit sequence number,
// and wakes any waiters. It returns the assigned sequence number.
//
// Ordering: inside the commit-log shard's single critical
// section, validate the record, increment the CSN counter, AND publish
// (xid → CSN, committed); then close the done channel. That atomicity is
// what makes a snapshot all-or-nothing: a snapshot whose CSN covers this
// commit observed the counter increment, so its commit-log lookup —
// behind the shard's read lock — cannot run before the record write in
// the same critical section (see the package comment).
func (m *Manager) Commit(xid TxID) SeqNo {
	sh := m.shard(xid)
	m.trace(trace.CSNPublish, xid)
	sh.mu.Lock()
	rec := finishableLocked(sh, xid, "Commit")
	seq := SeqNo(m.assignedSeq.Add(1))
	rec.status = StatusCommitted
	rec.commitSeq = seq
	delete(sh.active, xid)
	sh.nactive.Add(-1)
	sh.mu.Unlock()
	m.activeCount.Add(-1)
	close(rec.done)
	return seq
}

// Abort marks xid aborted, wakes any waiters and forgets xid: its
// record is deleted, and a later Status resolves it as absent. The
// caller must already have undone every write xid made, so that no heap
// version names it (the engine's rollback does, in that order); a
// waiter that fetched the done channel before the delete still holds it.
func (m *Manager) Abort(xid TxID) {
	sh := m.shard(xid)
	sh.mu.Lock()
	rec := finishableLocked(sh, xid, "Abort")
	delete(sh.active, xid)
	delete(sh.recs, xid)
	sh.nactive.Add(-1)
	sh.mu.Unlock()
	m.activeCount.Add(-1)
	close(rec.done)
}

// Status returns the recorded fate of xid and, if committed, its commit
// sequence number. An absent xid below the truncation floor is reported
// committed with an unknown (zero) sequence number, one at or above it
// aborted. An aborted xid is absent from its Abort on, so once the floor
// passes it, it too reads committed: callers ask only about xids a heap
// version names, and by then none does (see Abort).
func (m *Manager) Status(xid TxID) (Status, SeqNo) {
	sh := m.shard(xid)
	sh.mu.RLock()
	rec := sh.recs[xid]
	var st Status
	var seq SeqNo
	if rec != nil {
		st, seq = rec.status, rec.commitSeq
	}
	sh.mu.RUnlock()
	if rec == nil {
		if xid < TxID(m.logFloor.Load()) {
			return StatusCommitted, InvalidSeqNo
		}
		return StatusAborted, InvalidSeqNo
	}
	return st, seq
}

// IsCommitted reports whether xid committed.
func (m *Manager) IsCommitted(xid TxID) bool {
	st, _ := m.Status(xid)
	return st == StatusCommitted
}

// Attach stores owner in xid's record for the layer above: the SSI layer
// keeps each serializable transaction's state there, and mvcc never
// looks inside it. A nil owner detaches. A record that Abort or
// truncation already dropped stays dropped, and owner with it.
func (m *Manager) Attach(xid TxID, owner any) {
	sh := m.shard(xid)
	sh.mu.Lock()
	if rec := sh.recs[xid]; rec != nil {
		rec.owner = owner
	}
	sh.mu.Unlock()
}

// Attached returns what Attach last stored in xid's record, with xid's
// commit sequence number (InvalidSeqNo while it runs), in one lookup.
// Both are zero once the record is gone.
func (m *Manager) Attached(xid TxID) (any, SeqNo) {
	sh := m.shard(xid)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if rec := sh.recs[xid]; rec != nil {
		return rec.owner, rec.commitSeq
	}
	return nil, InvalidSeqNo
}

// ActiveOwners appends to buf the owner attached to each in-progress
// transaction's record, and returns it. It visits only the active sets,
// however many committed records the log retains, and skips a shard it
// reads empty without locking it: a transaction it misses there had not
// returned from Begin, so it attaches after the walk read that shard.
func (m *Manager) ActiveOwners(buf []any) []any {
	for i := range m.shards {
		sh := &m.shards[i]
		if sh.nactive.Load() == 0 {
			continue
		}
		sh.mu.RLock()
		for xid := range sh.active {
			if o := sh.recs[xid].owner; o != nil {
				buf = append(buf, o)
			}
		}
		sh.mu.RUnlock()
	}
	return buf
}

// Owners returns the owner attached to every record, committed ones
// included.
func (m *Manager) Owners() []any {
	var buf []any
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for _, rec := range sh.recs {
			if rec.owner != nil {
				buf = append(buf, rec.owner)
			}
		}
		sh.mu.RUnlock()
	}
	return buf
}

// Done returns a channel that is closed when xid commits or aborts.
// If xid has already finished, the returned channel is already closed.
// The channel closes only after the commit is fully visible: a
// TakeSnapshot after Done(xid) is closed by Commit yields a snapshot
// that Sees xid.
func (m *Manager) Done(xid TxID) <-chan struct{} {
	if rec := m.lookup(xid); rec != nil {
		return rec.done
	}
	closed := make(chan struct{})
	close(closed)
	return closed
}

// ActiveCount returns the number of in-progress transactions.
func (m *Manager) ActiveCount() int {
	return int(m.activeCount.Load())
}

// ActivePins returns each in-progress transaction's begin-time CSN, the
// value it holds OldestSnapshot at (at or below its snapshot's CSN).
func (m *Manager) ActivePins() map[TxID]SeqNo {
	pins := make(map[TxID]SeqNo, m.activeCount.Load())
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for xid := range sh.active {
			pins[xid] = sh.recs[xid].beginSeq
		}
		sh.mu.RUnlock()
	}
	return pins
}

// CurrentSeq returns the current value of the commit-sequence counter:
// the CSN a snapshot taken right now would carry.
func (m *Manager) CurrentSeq() SeqNo {
	return SeqNo(m.assignedSeq.Load())
}

// AdvanceSeq raises the commit-sequence counter to at least seq.
// Recovery calls it after replaying a log whose records carry sequence
// numbers the fresh Manager has never assigned — without it, new commits
// would reuse recovered CSNs and corrupt snapshot visibility. Safe to
// call concurrently with commits; the counter never moves backwards.
func (m *Manager) AdvanceSeq(seq SeqNo) {
	raise(&m.assignedSeq, uint64(seq))
}

// NextXID returns the next transaction ID that will be assigned.
func (m *Manager) NextXID() TxID {
	return TxID(m.lastXID.Load()) + 1
}

// OldestActiveXID returns the lowest in-progress xid, or the next xid to
// be assigned if no transaction is active. The SSI layer uses this to
// decide when committed-transaction state can be cleaned up. The answer
// can be stale the moment it returns, but only upward: the returned
// bound never passes an active xid, because the begin fence below
// excludes mid-flight Begins at the instant the bound is read — a Begin
// racing this scan either completed its registration before the fence
// (and is seen by the scan) or assigns an xid above the bound.
func (m *Manager) OldestActiveXID() TxID {
	m.beginMu.Lock()
	oldest := TxID(m.lastXID.Load()) + 1
	m.beginMu.Unlock()
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for xid := range sh.active {
			if xid < oldest {
				oldest = xid
			}
		}
		sh.mu.RUnlock()
	}
	return oldest
}

// OldestSnapshot returns the horizon: the minimum begin-time CSN over the
// active transactions, or the current CSN if none is active, raised to
// the highest value an earlier call returned. Every snapshot any active
// transaction holds (or will take) has a CSN at or above it, so a commit
// at or below it is visible to every present and future snapshot. The
// result is also published for Horizon. Safe to call concurrently with
// everything else.
func (m *Manager) OldestSnapshot() SeqNo {
	// Read the fallback bound before the scan. Unlike OldestActiveXID,
	// no begin fence is needed: a Begin this scan misses takes its
	// snapshot after registering, hence after this load, so that
	// snapshot's CSN is at or above the bound read here and covers
	// everything the horizon admits.
	min := SeqNo(m.assignedSeq.Load())
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for xid := range sh.active {
			if rec := sh.recs[xid]; rec != nil && rec.beginSeq < min {
				min = rec.beginSeq
			}
		}
		sh.mu.RUnlock()
	}
	// A Begin the scan caught between reading its begin-time CSN and
	// taking its snapshot can make a later call compute less than an
	// earlier one; the earlier value still holds (that snapshot will be
	// taken after it), so the horizon never retreats.
	return SeqNo(raise(&m.horizon, uint64(min)))
}

// raise lifts a to at least v and returns its value afterwards.
func raise(a *atomic.Uint64, v uint64) uint64 {
	for {
		cur := a.Load()
		if cur >= v {
			return cur
		}
		if a.CompareAndSwap(cur, v) {
			return v
		}
	}
}

// Horizon returns the highest horizon OldestSnapshot has returned
// (InvalidSeqNo before the first call), without scanning. The heap's
// write path trims version chains with it (storage.Table), which is why
// it is published at all; a stale reading is merely conservative.
func (m *Manager) Horizon() SeqNo {
	return SeqNo(m.horizon.Load())
}

// autoTruncateScanCap bounds how many xids one AutoTruncate pass
// examines, so a reclaimer tick after a long truncation-free stretch
// does linear work in bounded chunks.
const autoTruncateScanCap = 1 << 16

// maxKeptTruncVictims bounds the victim list AutoTruncate keeps for its
// next pass.
const maxKeptTruncVictims = 4096

// AutoTruncate advances the commit-log truncation floor as far as
// horizon, a value OldestSnapshot returned, allows and applies it,
// returning the new floor. It is called by the engine's epoch reclaimer
// on its background passes; it is safe to call concurrently with
// everything else.
//
// The floor stops at the oldest active xid, at any committed entry whose
// CSN is above horizon (a small-xid transaction that
// committed late: some active snapshot may not include it yet), and
// after autoTruncateScanCap entries. Absent xids (already truncated, or
// aborted) are skipped. Only the entries the scan just proved
// reclaimable are deleted, so a background pass perturbs concurrent
// shard traffic as little as possible.
func (m *Manager) AutoTruncate(horizon SeqNo) TxID {
	m.truncMu.Lock()
	defer m.truncMu.Unlock()
	limit := m.OldestActiveXID()
	start := TxID(m.logFloor.Load())
	floor := start
	victims := m.truncVictims[:0]
scan:
	for scanned := 0; floor < limit && scanned < autoTruncateScanCap; scanned++ {
		// Field reads are safe unlocked here: every xid below limit is
		// registered and finished (OldestActiveXID's begin fence rules
		// out an unregistered in-flight xid below it), the record's
		// fields quiesced before the finishing critical section
		// released the shard mutex, and lookup's read lock ordered
		// this goroutine after that release.
		rec := m.lookup(floor)
		if rec != nil {
			switch {
			case rec.status == StatusCommitted && rec.commitSeq <= horizon:
				// Visible to every present and future snapshot.
				victims = append(victims, floor)
			default:
				// In-progress (cannot happen below the oldest active
				// xid, but be conservative) or committed above the
				// horizon: stop here.
				break scan
			}
		}
		floor++
	}
	if floor == start {
		return start
	}
	// Raise the floor before deleting: a concurrent Status
	// that misses a just-deleted record re-reads the floor and resolves
	// it committed.
	m.logFloor.Store(uint64(floor))
	for _, xid := range victims {
		sh := m.shard(xid)
		sh.mu.Lock()
		delete(sh.recs, xid)
		sh.mu.Unlock()
	}
	if cap(victims) <= maxKeptTruncVictims {
		m.truncVictims = victims[:0]
	}
	return floor
}

// LogSize returns the number of entries currently in the commit log.
func (m *Manager) LogSize() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		n += len(sh.recs)
		sh.mu.RUnlock()
	}
	return n
}
