// Checkpoints bound the log. WriteCheckpoint captures the engine's
// state at a safe-snapshot marker into a checkpoint file and
// garbage-collects every segment whose records all fall at or below the
// checkpoint sequence. Recovery then
// loads the checkpoint and replays only the post-checkpoint suffix of
// the log (docs/wal.md, "Checkpoints and log truncation").
//
// A checkpoint file is named by the 16-digit zero-padded checkpoint
// sequence with the .ckpt extension and framed exactly like a segment:
// a 17-byte header (magic "PGSSICKP", version, seq), then CRC-framed
// records — schema records first, then row-image commit records, all
// stamped with the checkpoint sequence — terminated by a safe-snapshot
// footer frame carrying the same sequence. The footer is the
// completeness witness: a checkpoint whose last decodable frame is not
// that footer is torn and discarded at open, exactly like a torn
// record. There is no rename on the FS surface, so the footer plays the
// role an atomic rename would.
//
// Segments are removed only after the checkpoint file AND the log
// through the checkpoint seq are durable, so a crash at any point leaves
// either the previous checkpoint (with its segments intact) or the new
// one, never a state that needs records the disk no longer holds. Open
// picks the newest checkpoint whose footer is intact; nothing else
// records which one is current.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"path/filepath"
	"strconv"
	"strings"

	"pgssi/internal/mvcc"
)

const (
	ckptMagic      = "PGSSICKP"
	ckptHeaderSize = 8 + 1 + 8 // magic + version + seq
)

func ckptName(seq uint64) string { return fmt.Sprintf("%016d.ckpt", seq) }

func parseCkptName(name string) (uint64, bool) {
	base, ok := strings.CutSuffix(name, ".ckpt")
	if !ok || len(base) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(base, 10, 64)
	if err != nil || seq == 0 {
		return 0, false
	}
	return seq, true
}

func encodeCkptHeader(seq uint64) []byte {
	hdr := make([]byte, ckptHeaderSize)
	copy(hdr, ckptMagic)
	hdr[8] = FormatVersion
	binary.BigEndian.PutUint64(hdr[9:17], seq)
	return hdr
}

// readCkptHeader validates a checkpoint header against the sequence
// encoded in the file's name.
func readCkptHeader(r io.Reader, wantSeq uint64) error {
	var hdr [ckptHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("%w: checkpoint header: %v", ErrTruncated, err)
	}
	if string(hdr[:8]) != ckptMagic {
		return fmt.Errorf("%w: bad checkpoint magic", ErrBadRecord)
	}
	if hdr[8] != FormatVersion {
		return fmt.Errorf("%w: %d", ErrBadVersion, hdr[8])
	}
	if seq := binary.BigEndian.Uint64(hdr[9:17]); seq != wantSeq {
		return fmt.Errorf("%w: checkpoint header seq %d, file name says %d", ErrBadRecord, seq, wantSeq)
	}
	return nil
}

// scanCheckpoint validates one checkpoint file: it is complete iff the
// header is valid and every frame decodes cleanly through a final
// safe-snapshot footer whose sequence matches the header, with nothing
// after it. Returns the data-record count. Like scanSegment, content
// problems are incompleteness, never errors.
func scanCheckpoint(fs FS, path string, seq uint64) (nrecs int, complete bool) {
	f, err := fs.Open(path)
	if err != nil {
		return 0, false
	}
	defer f.Close()
	if err := readCkptHeader(f, seq); err != nil {
		return 0, false
	}
	var buf []byte
	sawFooter := false
	for {
		body, err := readFrame(f, buf)
		if err == io.EOF {
			return nrecs, sawFooter
		}
		if err != nil {
			return nrecs, false
		}
		rec, err := decodeRecord(body)
		if err != nil || sawFooter {
			return nrecs, false
		}
		buf = body
		if rec.SafeSnapshot {
			if uint64(rec.Seq) != seq {
				return nrecs, false
			}
			sawFooter = true
			continue
		}
		nrecs++
	}
}

// readCheckpointRecords streams a validated checkpoint's data records
// (not the footer) from f, the open file at path, through fn. Unlike
// scanCheckpoint this treats damage as an error: callers only read
// checkpoints recovery has validated.
func readCheckpointRecords(f File, path string, seq uint64, fn func(Record) error) (int, error) {
	if err := readCkptHeader(f, seq); err != nil {
		return 0, err
	}
	var buf []byte
	n := 0
	for {
		body, err := readFrame(f, buf)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, fmt.Errorf("wal: checkpoint %s: %w", filepath.Base(path), err)
		}
		rec, err := decodeRecord(body)
		if err != nil {
			return n, fmt.Errorf("wal: checkpoint %s: %w", filepath.Base(path), err)
		}
		buf = body
		if rec.SafeSnapshot {
			continue
		}
		if err := fn(rec); err != nil {
			return n, err
		}
		n++
	}
}

// WriteCheckpoint captures a snapshot-consistent image of the database
// at the safe-snapshot commit sequence seq. fill streams the image —
// schema records first, then row-image commit records, all batched by
// the caller under MaxRecordSize — through emit; it runs on the calling
// goroutine against the caller's marker-pinned read-only transaction,
// so the primary keeps serving while the checkpoint streams out.
//
// Durability ordering: the checkpoint file is written, fsynced, and its
// directory entry made durable first; then SyncBarrier proves the log
// itself is durable through seq (and not poisoned); only then is the GC
// set — the longest prefix of sealed segments whose records all fall at
// or below seq — removed. The in-memory GC floor is raised before the
// files vanish, so no new subscription can start below the floor while
// its segments disappear; a subscriber already reading a removed
// segment gets a closed stream (loud), never a silent gap.
func (l *DurableLog) WriteCheckpoint(seq mvcc.SeqNo, fill func(emit func(Record) error) error) (CheckpointInfo, error) {
	var info CheckpointInfo
	if seq == 0 {
		return info, fmt.Errorf("wal: checkpoint at sequence 0")
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return info, ErrClosed
	}
	if err := l.flushErr; err != nil {
		l.mu.Unlock()
		return info, err
	}
	if uint64(seq) <= l.ckptSeq {
		prev := l.ckptSeq
		l.mu.Unlock()
		return info, fmt.Errorf("wal: checkpoint seq %d not beyond previous checkpoint %d", seq, prev)
	}
	l.mu.Unlock()

	path := filepath.Join(l.dir, ckptName(uint64(seq)))
	f, err := l.fs.Create(path)
	if err != nil {
		return info, err
	}
	nrecs := 0
	werr := func() error {
		if _, err := f.Write(encodeCkptHeader(uint64(seq))); err != nil {
			return err
		}
		emit := func(rec Record) error {
			if rec.SafeSnapshot {
				return fmt.Errorf("wal: checkpoint data record cannot be a marker")
			}
			rec.Seq = seq
			if err := ValidateRecord(rec); err != nil {
				return err
			}
			if _, err := f.Write(encodeFrame(rec)); err != nil {
				return err
			}
			nrecs++
			return nil
		}
		if err := fill(emit); err != nil {
			return err
		}
		// The footer is the completeness witness; without it the file is
		// torn and recovery discards it.
		if _, err := f.Write(encodeFrame(Record{Seq: seq, SafeSnapshot: true})); err != nil {
			return err
		}
		return f.Sync()
	}()
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		l.fs.Remove(path)
		return info, werr
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return info, err
	}

	// The checkpoint is durable. Before anything at or below seq may be
	// GC'd, the log itself must be durable through seq — the barrier
	// also surfaces a poisoned log before any segment is touched.
	if err := l.SyncBarrier(); err != nil {
		return info, err
	}

	// GC set: the longest prefix of sealed segments whose records all
	// fall at or below seq. Sealed segments' lastSeq is exact (rotate
	// publishes it at seal time); the current segment is never taken.
	l.mu.Lock()
	var gc []segMeta
	for i := 0; i+1 < len(l.segs); i++ {
		if l.segs[i].lastSeq > uint64(seq) {
			break
		}
		gc = append(gc, l.segs[i])
	}
	floor := l.floorSeq
	for _, s := range gc {
		if s.lastSeq > floor {
			floor = s.lastSeq
		}
	}
	oldCkpt := l.ckptPath
	l.mu.Unlock()

	// Raise the floor and drop the GC'd metas before touching the
	// files: no new subscription can start below the floor while its
	// segments vanish.
	l.mu.Lock()
	gcSet := make(map[uint64]bool, len(gc))
	for _, s := range gc {
		gcSet[s.index] = true
	}
	keep := make([]segMeta, 0, len(l.segs))
	for _, s := range l.segs {
		if !gcSet[s.index] {
			keep = append(keep, s)
		}
	}
	l.segs = keep
	l.floorSeq = floor
	l.ckptSeq = uint64(seq)
	l.ckptPath = path
	l.ckptRecords = nrecs
	l.stats.Checkpoints++
	l.stats.SegmentsGCed += int64(len(gc))
	l.mu.Unlock()

	for _, s := range gc {
		if err := l.fs.Remove(s.path); err != nil {
			return info, fmt.Errorf("wal: GC segment %s: %w", filepath.Base(s.path), err)
		}
	}
	if oldCkpt != "" && oldCkpt != path {
		if err := l.fs.Remove(oldCkpt); err != nil {
			return info, fmt.Errorf("wal: removing superseded checkpoint: %w", err)
		}
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return info, err
	}
	info = CheckpointInfo{Seq: seq, Records: nrecs}
	return info, nil
}

// CheckpointInfo reports the newest checkpoint the log holds, if any.
func (l *DurableLog) CheckpointInfo() (CheckpointInfo, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ckptPath == "" {
		return CheckpointInfo{}, false
	}
	return CheckpointInfo{Seq: mvcc.SeqNo(l.ckptSeq), Records: l.ckptRecords}, true
}

// ReplayCheckpoint implements Source: it streams the newest
// checkpoint's data records through fn. ErrNoCheckpoint if the log has
// never checkpointed.
func (l *DurableLog) ReplayCheckpoint(fn func(Record) error) (CheckpointInfo, error) {
	l.mu.Lock()
	path, seq := l.ckptPath, l.ckptSeq
	l.mu.Unlock()
	for {
		if path == "" {
			return CheckpointInfo{}, ErrNoCheckpoint
		}
		f, err := l.fs.Open(path)
		if err == nil {
			n, err := readCheckpointRecords(f, path, seq, fn)
			f.Close()
			if err != nil {
				return CheckpointInfo{}, err
			}
			return CheckpointInfo{Seq: mvcc.SeqNo(seq), Records: n}, nil
		}
		// The file is opened outside l.mu, so a concurrent WriteCheckpoint
		// may have installed a newer checkpoint and removed this one
		// since path was read. It moves ckptPath before the removal:
		// replay the newer checkpoint instead.
		l.mu.Lock()
		stale := l.ckptPath != path
		path, seq = l.ckptPath, l.ckptSeq
		l.mu.Unlock()
		if !stale || !errors.Is(err, iofs.ErrNotExist) {
			return CheckpointInfo{}, err
		}
	}
}
