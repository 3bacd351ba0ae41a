// Package wal implements the engine's write-ahead log: a logical log of
// committed transactions (plus safe-snapshot markers and schema records)
// with log-shipping subscriptions, modelling PostgreSQL's streaming
// replication (§7.2 of the paper — the stream carries the markers that
// identify safe snapshots, so replicas can run serializable read-only
// transactions without tracking read dependencies).
//
// There is one implementation, DurableLog (durable.go): CRC-framed
// segment files with group-commit fsync batching, checkpoints that bound
// the log, and crash recovery; docs/wal.md is the normative format. It
// runs on an FS: the OS filesystem (OpenDir), or a MemFS for a log that
// lives in memory and survives nothing (NewLog, DB.AttachWAL).
//
// Records are appended in commit-sequence order: the engine serializes
// each commit's publication with its log append under one mutex (pgssi's
// publishCommit), so a transaction that observed another's writes always
// appears later in the log, and a safe-snapshot marker always follows
// every commit record it covers. Recovery replaying a prefix of the log
// therefore always reconstructs a dependency-closed prefix of the
// committed history, and a subscriber resuming from its newest applied
// commit sequence (SubscribeFrom) never misses an earlier commit
// appended late.
package wal

import (
	"errors"

	"pgssi/internal/mvcc"
)

// Op is one logical change within a committed transaction.
type Op struct {
	Table  string
	Key    string
	Value  []byte
	Delete bool
}

// Record is one WAL entry: a transaction's commit (Ops non-empty), a
// safe-snapshot marker, or a schema record (CreateTable non-empty).
type Record struct {
	// Seq is the commit sequence number on the master; markers and
	// schema records carry the sequence number of the last commit they
	// follow.
	Seq mvcc.SeqNo
	// Xid is the committing transaction's id (diagnostics and recovery
	// tracing; zero for markers and schema records).
	Xid mvcc.TxID
	// Ops are the transaction's writes in apply order.
	Ops []Op
	// SafeSnapshot marks a point in the stream at which no read/write
	// serializable transaction was in flight on the master: a replica
	// snapshot taken exactly here is safe (§4.2, §7.2).
	SafeSnapshot bool
	// CreateTable, when non-empty, records the creation of a table, so
	// recovery and replicas can rebuild the schema before applying row
	// changes.
	CreateTable string
}

// Source is a log a consumer follows and re-seeds from: the DurableLog
// in process, or internal/wire's ReplicaSource over TCP.
//
// SubscribeFrom returns a channel that first replays the log's existing
// records after a commit-sequence position and then streams new ones,
// plus a cancel function that detaches the subscription and closes the
// channel. It delivers commit records with Seq > after and marker/schema
// records with Seq >= after. The asymmetry follows from how positions
// are stamped — commit CSNs are unique, so a commit the subscriber
// already applied is never redelivered, while markers and schema records
// carry the sequence number of the last commit they follow and so may
// share it; a marker at the resume boundary is redelivered rather than
// dropped (losing it could hide a safe point forever; reapplying it is
// idempotent). SubscribeFrom(0) replays the whole log. A closed channel
// means "subscribe again and catch up". The error sorts a refused
// subscription: ErrSeqTruncated (re-seed from the checkpoint),
// ErrNoStream (stop: retrying is futile), anything else transient.
//
// ReplayCheckpoint streams the newest checkpoint's records (schema
// records first, then row-image commit records, all stamped with the
// checkpoint sequence) through fn and returns its info, or
// ErrNoCheckpoint. After seeding, resume with SubscribeFrom(info.Seq).
type Source interface {
	SubscribeFrom(after mvcc.SeqNo) (<-chan Record, func(), error)
	ReplayCheckpoint(fn func(Record) error) (CheckpointInfo, error)
}

// ErrSeqTruncated reports a SubscribeFrom position that falls below the
// log's GC floor: the records needed to resume from there were
// garbage-collected by a checkpoint. A consumer must re-seed from a
// checkpoint (ReplayCheckpoint) instead of resuming — the gap is real
// and can never be filled by waiting or retrying.
var ErrSeqTruncated = errors.New("wal: position truncated by checkpoint GC")

// ErrNoStream reports a source that has no log to follow (a primary
// without a WAL, or a replica asked to cascade): no amount of retrying
// changes that, so a consumer stops and surfaces it.
var ErrNoStream = errors.New("wal: source serves no log stream")

// ErrNoCheckpoint reports that a Source has no checkpoint to replay (the
// log has never checkpointed, or the primary serves none).
var ErrNoCheckpoint = errors.New("wal: no checkpoint")

// CheckpointInfo describes one checkpoint: the safe-snapshot commit
// sequence it captures and how many data records (schema + row images)
// it holds.
type CheckpointInfo struct {
	Seq     mvcc.SeqNo
	Records int
}

// deliverFrom reports whether rec belongs in a subscription resuming
// after commit-sequence position `after` (see Source.SubscribeFrom).
func deliverFrom(rec Record, after mvcc.SeqNo) bool {
	if rec.SafeSnapshot || rec.CreateTable != "" {
		return rec.Seq >= after
	}
	return rec.Seq > after
}

// subscriberBuffer is the per-subscriber fan-out buffer. A subscriber
// that falls this many records behind the appender is disconnected (its
// channel is closed) rather than allowed to block appends: an appender
// must never be stalled by a slow or dead subscriber, because the append
// happens inside the commit critical section.
const subscriberBuffer = 1024

// NewLog returns an empty in-memory log: a DurableLog on a MemFS of its
// own, in FsyncOff mode with 1 MiB segments. Nothing survives the
// process; checkpoints bound its memory as they bound a disk log's
// segments.
func NewLog() *DurableLog {
	l, err := OpenDir("/wal", Config{FS: NewMemFS(), Fsync: FsyncOff, SegmentSize: 1 << 20})
	if err != nil {
		panic(err) // an empty MemFS has nothing to fail on
	}
	return l
}

// forwardRecords pumps a backlog and then a live channel into out,
// stopping when done closes or the live channel is closed (producer gone
// or subscriber disconnected for falling behind). Live records that do
// not pass the resume filter (a master behind the subscriber's position)
// are dropped rather than delivered out of order.
func forwardRecords(backlog []Record, live <-chan Record, out chan<- Record, done <-chan struct{}, after mvcc.SeqNo) {
	defer close(out)
	for _, r := range backlog {
		select {
		case out <- r:
		case <-done:
			return
		}
	}
	for {
		select {
		case r, ok := <-live:
			if !ok {
				return
			}
			if !deliverFrom(r, after) {
				continue
			}
			select {
			case out <- r:
			case <-done:
				return
			}
		case <-done:
			return
		}
	}
}
