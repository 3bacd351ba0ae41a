// Package trace is the engine's one instrumentation seam. The layers with
// a window worth observing — internal/core's transaction lifecycle and
// write probe, internal/mvcc's commit publication and internal/storage's
// read path —
// each carry a single Func in their Config and call it at the Points
// below. The seam is nil outside tests, and every call site checks for
// nil before it builds an Event, so an unset seam costs a branch and
// allocates nothing.
//
// A Func runs on the traced goroutine, at some points inside a critical
// section (see each Point). It may block — that is how the deterministic
// interleaving harnesses park a transaction inside a window — but it must
// not call back into the layer that fired it.
package trace

// Point names where an Event fired.
type Point uint8

// Trace points.
const (
	// Begin fires in internal/core during a serializable Begin: for a
	// read/write Begin, after registration and before the snapshot is
	// taken; for a fenced read-only Begin, between the snapshot and the
	// safety-watcher registration, inside the critical section (with
	// DisableLifecycleFencing, inside the reopened window between them).
	// XID is the new transaction.
	Begin Point = iota + 1
	// PreCommit fires in internal/core between a serializable
	// transaction's passing pre-commit check and its commit-sequence
	// assignment, inside the commit critical section (outside it with
	// DisableLifecycleFencing). XID is the committer.
	PreCommit
	// CSNPublish fires in internal/mvcc at a commit's CSN
	// assignment→publication window, with no Manager lock held. Fenced, the window is degenerate: the event fires
	// immediately before the atomic assignment+publication step and Seq is
	// 0. With DisableCSNFencing it fires inside the reopened window and Seq
	// is the assigned CSN.
	CSNPublish
	// Read fires in internal/storage on every heap read of a key, after
	// the MVCC visibility check and before the caller's callback (where
	// the SIREAD lock is inserted). A latched read fires it with the page
	// latch held, so a reader parked there excludes writers to the page;
	// with DisableReadLatch it fires in the open detection window the
	// latch exists to close. Table and Key name the row, XID the reader.
	Read
	// WriteProbe fires in internal/core before each level of a
	// serializable write's mutex-free SIREAD probe (CheckWrite), finest
	// first, with the row's page latch held exclusively and no core
	// lock. XID is the writer; Table, Key and Seq name the target about
	// to be probed: its relation, its key (tuple level only) and its
	// granularity as a core.Level (2 tuple, 1 page, 0 relation).
	WriteProbe
	// ReclaimScan fires in internal/core during a reclaim pass, after the
	// pass has computed its horizon and before it takes the conflict-graph
	// mutex, with only the pass mutex held. XID is zero.
	ReclaimScan
)

// Event is one traced occurrence. Fields its Point does not define are
// zero.
type Event struct {
	Point Point
	XID   uint64
	Seq   uint64
	Table string
	Key   string
}

// Func receives the events of one database.
type Func func(Event)
