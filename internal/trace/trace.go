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
	// taken; for a read-only Begin, between the snapshot and the
	// safety-watcher registration, inside the one critical section that
	// holds both. The mutation entry "read-only Begin unfenced"
	// (mutants_test.go) splits that section here. XID is the new
	// transaction.
	Begin Point = iota + 1
	// PreCommit fires in internal/core between a serializable
	// transaction's passing pre-commit check and its commit-sequence
	// assignment, inside the commit critical section that holds both.
	// The mutation entry "Commit unfenced" runs the check and the
	// assignment in two critical sections with this point between them.
	// XID is the committer.
	PreCommit
	// CSNPublish fires in internal/mvcc immediately before a commit's
	// CSN assignment and commit-log publication, which are one step under
	// the commit-log shard's mutex; no Manager lock is held. XID is the
	// committer and Seq is 0. The mutation entry "CSN assigned before
	// publication" assigns the CSN first and fires this point between the
	// assignment and the publication.
	CSNPublish
	// Read fires in internal/storage on every heap read of a key, after
	// the MVCC visibility check and before the caller's callback (where
	// the SIREAD lock is inserted). A latched read fires it with the page
	// latch held, so a reader parked there excludes writers to the page.
	// The mutation entries "Table.Read unlatched", "batch read
	// unlatched" and "write unlatched" each drop one side of the latch,
	// which opens the detection window here. Table and Key name the row,
	// XID the reader.
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
