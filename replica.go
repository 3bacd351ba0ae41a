package pgssi

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pgssi/internal/mvcc"
	"pgssi/internal/wal"
)

// Replica is a log-shipping standby (§7.2): it applies the master's WAL
// records into its own MVCC storage and serves read-only transactions.
// Serializable read-only transactions on the replica are only allowed on
// safe snapshots, identified by markers in the log stream — exactly the
// design the paper proposes for lifting PostgreSQL 9.1's restriction.
// Weaker-isolation (snapshot) reads are allowed at any applied position,
// matching "they can simply run at a weaker isolation level".
//
// The record source may be in process (a wal.DurableLog: DB.DurableWAL,
// on disk or in memory) or remote (internal/wire's ReplicaSource,
// streaming from a pgssid master over TCP). The schema arrives in the
// stream as schema records. When the source's channel closes —
// the subscriber fell behind the fan-out buffer, the master restarted,
// or the network dropped — the replica re-subscribes from its applied
// commit-sequence position and catches up; records it already applied
// are never applied twice (wal.Source.SubscribeFrom's contract, plus
// boundary dedup here for the marker/schema records that share a
// sequence number with the commit they follow).
//
// An apply error is fatal to the replica: the apply loop halts, the
// error is recorded, and every subsequent BeginReadOnly, AppliedRecords,
// WaitApplied, and session Begin reports it. A replica that cannot
// apply the stream has diverged from the master; continuing to serve
// "safe" snapshots from it would be silent corruption.
type Replica struct {
	db     *DB
	src    wal.Source
	stopCh chan struct{}
	done   chan struct{}

	mu         sync.Mutex //ssi:lock level=15 name=pgssi.replica
	cond       *sync.Cond
	applied    int    // records applied
	safeAt     int    // applied position of the last safe-snapshot marker
	appliedSeq uint64 // commit sequence of the newest applied record
	safeSeq    uint64 // commit sequence at the last safe-snapshot marker
	err        error  // first fatal failure (apply error, or a source without a log); the replica is halted once set
	stopped    bool
}

// ErrNotSafePoint is returned by BeginReadOnly(WaitSafe: false) when the
// replica's applied position is not currently a safe snapshot.
var ErrNotSafePoint = errors.New("pgssi: replica is not at a safe snapshot point")

// ErrReplicaHalted wraps the failure that halted the replica — the
// first apply error, or a source that serves no log (wal.ErrNoStream):
// the replica has stopped applying the stream and refuses to serve until
// rebuilt.
var ErrReplicaHalted = errors.New("pgssi: replica halted")

// ReplicaTxOptions configure a replica read-only transaction.
type ReplicaTxOptions struct {
	// Serializable requests true serializability; the transaction must
	// run on a safe snapshot.
	Serializable bool
	// WaitSafe makes Begin block until the next safe-snapshot marker
	// arrives (like a DEFERRABLE transaction); otherwise Begin fails
	// with ErrNotSafePoint if the current position is not safe.
	WaitSafe bool
}

// NewReplica creates a standby that replays log: a wal.DurableLog
// (DB.DurableWAL) or a network source (wire's ReplicaSource). Tables are
// created as their schema records arrive. A fresh replica on an
// uncheckpointed stream catches up from the beginning of the log; when
// the source's history has been truncated by checkpoint GC
// (wal.ErrSeqTruncated) the replica seeds itself from the source's
// newest checkpoint instead and resumes from the checkpoint sequence.
func NewReplica(log wal.Source) *Replica {
	r := &Replica{
		db:     Open(Config{}),
		src:    log,
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	go r.run()
	return r
}

// run drives the subscribe / apply / re-subscribe cycle until the
// replica is closed or halts. Each re-subscription
// resumes from the applied commit-sequence position, so a dropped
// source (network partition, master restart, fan-out overflow) costs
// only the records not yet applied.
func (r *Replica) run() {
	defer close(r.done)
	backoff := time.Millisecond
	for attempt := 0; ; attempt++ {
		r.mu.Lock()
		if r.stopped || r.err != nil {
			r.mu.Unlock()
			return
		}
		after := mvcc.SeqNo(r.appliedSeq)
		before := r.applied
		r.mu.Unlock()

		ch, cancel, serr := r.src.SubscribeFrom(after)
		switch {
		case serr == nil:
			alive := r.applyLoop(ch, attempt > 0)
			cancel()
			if !alive {
				return
			}
		case errors.Is(serr, wal.ErrSeqTruncated):
			// The source GC'd the records between our position and its
			// checkpoint: the gap is real and waiting cannot fill it.
			// Re-seed from the source's checkpoint and resume from the
			// checkpoint sequence (also the fresh-replica bootstrap path
			// against a primary whose early segments are long gone).
			if rerr := r.reseed(); rerr != nil {
				r.halt(fmt.Errorf("%w: re-seed after truncated resume: %v", ErrReplicaHalted, rerr))
				return
			}
			backoff = time.Millisecond
			continue
		case errors.Is(serr, wal.ErrNoStream):
			// The source has no log to follow (a primary without a WAL):
			// halt with the error surfaced instead of retrying forever
			// while looking healthy.
			r.halt(fmt.Errorf("%w: source refused replication: %w", ErrReplicaHalted, serr))
			return
		}
		// Any other refusal is transient, like a channel that closed: the
		// source is gone or dropped us. Back off (resetting whenever the
		// last attempt made progress) and retry.
		r.mu.Lock()
		progressed := r.applied > before
		r.mu.Unlock()
		if progressed {
			backoff = time.Millisecond
		}
		select {
		case <-r.stopCh:
			return
		case <-time.After(backoff):
		}
		if backoff < time.Second {
			backoff *= 2
		}
	}
}

// halt records err as the replica's fatal failure, unless one is
// already recorded, and wakes everyone waiting on it.
func (r *Replica) halt(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// reseed rebuilds the replica's engine from the source's newest
// checkpoint: a fresh engine is loaded off to the side (readers keep
// serving the old state), then swapped in under r.mu with the applied
// position advanced to the checkpoint sequence. The checkpoint sits on
// a safe-snapshot marker by construction, so the seeded position is
// immediately safe for serializable reads.
func (r *Replica) reseed() error {
	db := Open(Config{})
	applied := 0
	info, err := r.src.ReplayCheckpoint(func(rec wal.Record) error {
		if rec.SafeSnapshot {
			return nil
		}
		applied++
		return applyRecord(db, rec, false)
	})
	if err != nil {
		db.Close()
		return err
	}
	r.mu.Lock()
	if r.stopped || r.err != nil {
		r.mu.Unlock()
		db.Close()
		return nil // the run loop exits on its next check
	}
	old := r.db
	r.db = db
	r.applied += applied
	r.safeAt = r.applied
	r.appliedSeq = uint64(info.Seq)
	r.safeSeq = uint64(info.Seq)
	r.cond.Broadcast()
	r.mu.Unlock()
	// Readers that began on the old engine finish on its frozen state;
	// Close only rejects new transactions.
	old.Close()
	return nil
}

// applyLoop applies records in order until the channel closes (returns
// true: caller should re-subscribe) or the replica stops or halts
// (returns false). Each transaction record is applied as a local
// snapshot-isolation transaction, giving replica readers MVCC snapshots
// for free, just as WAL replay on a PostgreSQL standby maintains MVCC
// state. resume marks a re-subscription: boundary records that share
// the resume sequence and were already applied are deduplicated.
func (r *Replica) applyLoop(ch <-chan wal.Record, resume bool) bool {
	for {
		var rec wal.Record
		var ok bool
		select {
		case rec, ok = <-ch:
			if !ok {
				return true
			}
		case <-r.stopCh:
			return false
		}

		r.mu.Lock()
		if r.stopped || r.err != nil {
			r.mu.Unlock()
			return false
		}
		if resume && r.duplicateLocked(rec) {
			r.mu.Unlock()
			continue
		}
		// A failed apply means the replica has diverged: it halts rather
		// than keep serving. r.mu serializes the apply against
		// snapshot-taking readers.
		if !rec.SafeSnapshot {
			if err := applyRecord(r.db, rec, false); err != nil {
				r.err = fmt.Errorf("%w: record seq %d: %v", ErrReplicaHalted, rec.Seq, err)
				r.cond.Broadcast()
				r.mu.Unlock()
				return false
			}
		}
		r.applied++
		switch {
		case rec.SafeSnapshot:
			// A marker certifies a safe snapshot only at or past
			// everything applied so far: a stale marker (sequence below
			// an applied commit, or below the last safe point — possible
			// only from a reordered or misbehaving source, since the
			// primary emits markers monotonically after the commits they
			// cover) must not declare this position safe or regress
			// safeSeq. It is counted as applied but otherwise ignored.
			if s := uint64(rec.Seq); s >= r.appliedSeq && s >= r.safeSeq {
				r.safeAt = r.applied
				r.safeSeq = s
			}
		case rec.CreateTable != "":
			// Schema records carry the sequence of the last commit they
			// follow, stamped outside the commit ordering; they must not
			// advance the resume position (see below).
		default:
			// Only commit records advance appliedSeq — the resume
			// position handed to SubscribeFrom. Markers and schema
			// records may carry sequences ahead of the last applied
			// commit record (read-only commits consume sequence numbers
			// without emitting records); advancing the resume position on
			// them would filter out commits the replica never applied.
			if s := uint64(rec.Seq); s > r.appliedSeq {
				r.appliedSeq = s
			}
		}
		r.cond.Broadcast()
		r.mu.Unlock()
	}
}

// duplicateLocked reports whether rec is a resume-boundary redelivery:
// SubscribeFrom must redeliver marker/schema records that share the
// resume sequence (they may postdate what the replica has applied), so
// a reconnecting replica sees the ones it already handled again.
// Commits are never duplicated (unique CSNs, filtered by Seq > after).
// Caller holds r.mu.
func (r *Replica) duplicateLocked(rec wal.Record) bool {
	if rec.SafeSnapshot {
		// Already marked safe at this sequence: re-marking is a no-op.
		return uint64(rec.Seq) <= r.safeSeq && r.applied == r.safeAt && r.applied > 0
	}
	if rec.CreateTable != "" {
		if uint64(rec.Seq) > r.appliedSeq {
			return false
		}
		_, err := r.db.table(rec.CreateTable)
		return err == nil
	}
	return false
}

// BeginReadOnly starts a read-only transaction on the replica. With
// Serializable it runs only on a safe snapshot: if the replica is not at
// a marker, it waits for the next one (WaitSafe) or fails
// (ErrNotSafePoint). The returned transaction is an ordinary snapshot
// transaction — a safe snapshot needs no SSI tracking, which is the whole
// point (§4.2). A halted replica fails every begin with the recorded
// apply error (errors.Is(err, ErrReplicaHalted)).
func (r *Replica) BeginReadOnly(opts ReplicaTxOptions) (*Tx, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return nil, r.err
	}
	if r.stopped {
		return nil, fmt.Errorf("pgssi: replica stopped: %w", ErrClosed)
	}
	if opts.Serializable {
		if r.applied != r.safeAt || r.applied == 0 {
			if !opts.WaitSafe {
				return nil, ErrNotSafePoint
			}
			for (r.applied != r.safeAt || r.applied == 0) && !r.stopped && r.err == nil {
				r.cond.Wait()
			}
			if r.err != nil {
				return nil, r.err
			}
			if r.stopped {
				return nil, fmt.Errorf("pgssi: replica stopped: %w", ErrClosed)
			}
		}
	}
	// r.mu is held: no record can be applied between the safety check
	// and the snapshot, so the snapshot lands exactly on the marker.
	tx, err := r.db.Begin(TxOptions{Isolation: RepeatableRead, ReadOnly: true})
	if err != nil {
		return nil, err
	}
	tx.replicaSafe = r.applied == r.safeAt && r.applied > 0
	return tx, nil
}

// NewSession returns a session serving this replica: Begin maps onto
// BeginReadOnly (Serializable requires a safe snapshot; the deferrable
// flag selects WaitSafe), non-read-only transactions are refused with
// ErrReadOnlyTx, and DDL is refused — schema arrives via the stream.
// It is the session a replica-mode pgssid serves to its clients.
func (r *Replica) NewSession() *Session {
	return &Session{
		begin: func(opts TxOptions) (*Tx, error) {
			if !opts.ReadOnly {
				return nil, fmt.Errorf("pgssi: replica is read-only: %w", ErrReadOnlyTx)
			}
			return r.BeginReadOnly(ReplicaTxOptions{
				Serializable: opts.Isolation == Serializable,
				WaitSafe:     opts.Deferrable,
			})
		},
		ddl: func(string) error {
			return fmt.Errorf("pgssi: replica is read-only: %w", ErrReadOnlyTx)
		},
		txs: make(map[Handle]*Tx),
	}
}

// AppliedRecords returns how many WAL records have been applied, and the
// apply error if the replica has halted — a halted replica's count is
// frozen at the divergence point and must not be mistaken for lag.
func (r *Replica) AppliedRecords() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied, r.err
}

// AppliedSeq returns the commit sequence number of the newest applied
// record: the replica's durable position in the master's history, from
// which its lag is read. Unlike the applied-record count it is
// comparable across reconnects and master restarts.
func (r *Replica) AppliedSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.appliedSeq
}

// SafeSeq returns the commit sequence number at the last safe-snapshot
// marker: the position serializable read-only transactions run at.
func (r *Replica) SafeSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.safeSeq
}

// Err returns the apply error that halted the replica, or nil.
func (r *Replica) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// WaitApplied blocks until at least n records have been applied,
// returning early with the apply error if the replica halts first.
func (r *Replica) WaitApplied(n int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.applied < n && !r.stopped && r.err == nil {
		r.cond.Wait()
	}
	if r.err != nil {
		return r.err
	}
	if r.applied < n {
		return fmt.Errorf("pgssi: replica stopped: %w", ErrClosed)
	}
	return nil
}

// Close detaches the replica from the log and shuts its engine down.
func (r *Replica) Close() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	r.cond.Broadcast()
	r.mu.Unlock()
	close(r.stopCh)
	<-r.done
	r.db.Close()
}
