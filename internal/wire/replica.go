package wire

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"pgssi"
	"pgssi/internal/mvcc"
	"pgssi/internal/wal"
)

// ReplicaSource is a network-backed wal.Source: each subscription dials
// a pgssid master, issues OpReplicate with the resume position, and
// decodes the resulting stream of record frames. It is the source a
// replica-mode pgssid (or an in-process pgssi.NewReplica) attaches to.
//
// Failure handling is deliberately dumb: a dial, protocol, or decode
// failure is returned, or — once streaming — just closes the
// subscription channel (optionally noted via Logf). The consumer
// (pgssi.Replica) treats both as "re-subscribe from the applied
// position with backoff", so reconnect-and-catch-up logic lives in
// exactly one place and a flaky network looks the same as a slow
// subscriber being dropped by the fan-out. The handshake's refusals map
// to the errors the consumer sorts on: a primary that has no WAL stream
// (StatusNoReplication) can never feed a replica, and is reported as
// wal.ErrNoStream, on which pgssi.Replica halts instead of retrying
// forever while looking healthy.
type ReplicaSource struct {
	// Addr is the master's TCP address.
	Addr string
	// DialTimeout bounds connection establishment and the OpReplicate
	// handshake; zero means no deadline. No read deadline applies to
	// the stream itself — an idle stream is a quiet master, not a
	// failure.
	DialTimeout time.Duration
	// Logf, if non-nil, receives a line per failed subscription attempt
	// (transient and permanent alike), so an operator can see why a
	// replica is not advancing.
	Logf func(format string, args ...any)
}

func (s *ReplicaSource) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// SubscribeFrom implements wal.Source: it streams records after the
// given commit sequence (the master's log applies the filter
// server-side). The cancel function closes the connection, which ends
// the channel. A handshake the primary answers with StatusSeqTruncated —
// the resume position fell below its checkpoint GC floor — is reported
// as wal.ErrSeqTruncated, so the consumer can re-seed from a checkpoint
// (ReplayCheckpoint) instead of retrying a gap that can never fill.
func (s *ReplicaSource) SubscribeFrom(after mvcc.SeqNo) (<-chan wal.Record, func(), error) {
	conn, br, err := s.handshake(&Request{Op: OpReplicate, AfterSeq: uint64(after)}, "replication subscribe")
	if err != nil {
		return nil, nil, err
	}

	out := make(chan wal.Record, 64)
	done := make(chan struct{})
	go func() {
		defer close(out)
		defer conn.Close()
		var buf []byte
		for {
			body, err := ReadFrame(br, buf)
			if err != nil {
				return
			}
			rec, err := wal.DecodeRecordBody(body)
			if err != nil {
				return
			}
			buf = body[:0]
			select {
			case out <- rec:
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			close(done)
			// Unblock a reader parked in ReadFrame.
			conn.Close()
		})
	}
	return out, cancel, nil
}

// handshake dials the primary and issues one stream-hijacking request
// (OpReplicate or OpFetchCheckpoint), returning the connection with its
// deadline cleared once the primary acknowledged StatusOK. Refusals map
// to the sentinel errors the consumer branches on: StatusNoReplication
// becomes wal.ErrNoStream, StatusSeqTruncated wal.ErrSeqTruncated,
// StatusNotFound wal.ErrNoCheckpoint.
func (s *ReplicaSource) handshake(req *Request, what string) (net.Conn, *bufio.Reader, error) {
	var d net.Dialer
	d.Timeout = s.DialTimeout
	conn, err := d.Dial("tcp", s.Addr)
	if err != nil {
		s.logf("%s %s: %v", what, s.Addr, err)
		return nil, nil, err
	}
	if s.DialTimeout > 0 {
		conn.SetDeadline(time.Now().Add(s.DialTimeout))
	}
	if err := WriteFrame(conn, AppendRequest(nil, req)); err != nil {
		s.logf("%s %s: handshake write: %v", what, s.Addr, err)
		conn.Close()
		return nil, nil, err
	}
	br := bufio.NewReader(conn)
	body, err := ReadFrame(br, nil)
	if err != nil {
		s.logf("%s %s: handshake read: %v", what, s.Addr, err)
		conn.Close()
		return nil, nil, err
	}
	resp, err := DecodeResponse(body)
	if err != nil || resp.Status != pgssi.StatusOK {
		conn.Close()
		switch {
		case err == nil && resp.Status == pgssi.StatusNoReplication:
			// The primary exists and answered: it has no WAL stream.
			// No amount of retrying changes that.
			s.logf("%s %s: primary refused replication: it emits no WAL stream", what, s.Addr)
			return nil, nil, fmt.Errorf("wire: primary %s refused replication: %w", s.Addr, wal.ErrNoStream)
		case err == nil && resp.Status == pgssi.StatusSeqTruncated:
			s.logf("%s %s: resume position truncated by checkpoint GC", what, s.Addr)
			return nil, nil, fmt.Errorf("wire: primary %s: %w", s.Addr, wal.ErrSeqTruncated)
		case err == nil && resp.Status == pgssi.StatusNotFound:
			s.logf("%s %s: primary has no checkpoint", what, s.Addr)
			return nil, nil, fmt.Errorf("wire: primary %s: %w", s.Addr, wal.ErrNoCheckpoint)
		default:
			s.logf("%s %s: handshake response: status=%v err=%v", what, s.Addr, resp.Status, err)
			return nil, nil, fmt.Errorf("wire: %s %s: status=%v err=%v", what, s.Addr, resp.Status, err)
		}
	}
	conn.SetDeadline(time.Time{})
	return conn, br, nil
}

// ReplayCheckpoint implements wal.Source over the network: it
// fetches the primary's newest checkpoint (OpFetchCheckpoint) and feeds
// each record through fn. The stream is complete only when the
// safe-snapshot terminator arrives (its sequence is the checkpoint
// sequence); a connection that ends before it is a torn transfer and is
// reported as an error, never as a short checkpoint.
func (s *ReplicaSource) ReplayCheckpoint(fn func(wal.Record) error) (wal.CheckpointInfo, error) {
	conn, br, err := s.handshake(&Request{Op: OpFetchCheckpoint}, "checkpoint fetch")
	if err != nil {
		return wal.CheckpointInfo{}, err
	}
	defer conn.Close()
	var buf []byte
	var info wal.CheckpointInfo
	for {
		body, err := ReadFrame(br, buf)
		if err != nil {
			return wal.CheckpointInfo{}, fmt.Errorf("wire: checkpoint stream from %s ended before terminator: %w", s.Addr, err)
		}
		rec, err := wal.DecodeRecordBody(body)
		if err != nil {
			return wal.CheckpointInfo{}, fmt.Errorf("wire: checkpoint stream from %s: %w", s.Addr, err)
		}
		buf = body[:0]
		if rec.SafeSnapshot {
			info.Seq = rec.Seq
			return info, nil
		}
		info.Records++
		if err := fn(rec); err != nil {
			return wal.CheckpointInfo{}, err
		}
	}
}
