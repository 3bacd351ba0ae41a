// DurableLog: the on-disk WAL. Records are appended to numbered,
// zero-filled segment files with CRC-framed records (encoding.go),
// committers group-commit onto a shared data-only sync (flush.go), and
// OpenDir recovers by scanning segments and truncating at the first
// damaged record. docs/wal.md is the normative format and recovery
// description.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pgssi/internal/mvcc"
)

// FsyncMode selects how commit acknowledgement relates to fsync.
type FsyncMode int

const (
	// FsyncBatch (the default) syncs before acknowledging, and holds a
	// flush back — for at most the group window — only while a
	// transaction is open that could still add its commit to the batch.
	FsyncBatch FsyncMode = iota
	// FsyncAlways never holds a flush back. Still group-commits:
	// committers that arrive during a sync share the next one.
	FsyncAlways
	// FsyncOff writes records asynchronously and never syncs (except on
	// Close). Commit acknowledgement does not wait for the disk at all —
	// preserved for the contention benchmarks, where fsync latency would
	// drown the effect being measured.
	FsyncOff
)

func (m FsyncMode) String() string {
	switch m {
	case FsyncAlways:
		return "always"
	case FsyncBatch:
		return "batch"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncMode(%d)", int(m))
}

// ParseFsyncMode parses "always", "batch", or "off".
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "batch":
		return FsyncBatch, nil
	case "off":
		return FsyncOff, nil
	}
	return FsyncBatch, fmt.Errorf("wal: unknown fsync mode %q (want always, batch, or off)", s)
}

const (
	walMagic          = "PGSSIWAL"
	segmentHeaderSize = 8 + 1 + 8 // magic + version + index

	// DefaultSegmentSize is the rotation threshold for segment files.
	DefaultSegmentSize = 16 << 20
	// DefaultGroupWindow is the longest a FsyncBatch flush waits for
	// open transactions to commit into its batch.
	DefaultGroupWindow = 200 * time.Microsecond
)

// ErrClosed is returned for appends after Close.
var ErrClosed = errors.New("wal: log closed")

// Config configures a DurableLog.
type Config struct {
	// SegmentSize is the rotation threshold; DefaultSegmentSize if zero.
	SegmentSize int64
	// Fsync is the acknowledgement/fsync policy.
	Fsync FsyncMode
	// GroupWindow caps how long a FsyncBatch flush waits for joiners;
	// DefaultGroupWindow if zero.
	GroupWindow time.Duration
	// Joiners reports how many transactions are open that could still
	// add a record somebody waits on. While it is positive a FsyncBatch
	// flush is held back (see gather); the owner calls JoinersDrained
	// when it falls to zero. Nil means nobody can join: a standalone
	// log never waits. Called without any log lock held.
	Joiners func() int
	// FS overrides the filesystem; nil means the OS filesystem. Tests
	// inject a FaultFS here.
	FS FS
}

// Pending is a record encoded ahead of its commit-sequence assignment,
// and then the committer's handle on the flush that covers it. The
// engine prepares it outside all locks, then Enqueue patches the final
// sequence number in and reserves the log position — the only work done
// inside the engine's commit ordering critical section — and the flush
// queue holds it until its batch is on disk: its encoded frame (what the
// flusher writes), its decoded form (what subscribers receive), and done,
// closed when the batch's write and sync have completed — nil if nobody
// waits for this record (FsyncOff, AppendNoWait). A barrier has no
// frame: it writes nothing, but its done closes only after the batch
// covering everything enqueued before it is on disk (SyncBarrier).
type Pending struct {
	frame    []byte
	rec      Record
	err      error         // set at PrepareRecord for records that must not be logged
	done     chan struct{} // closed when the covering flush completed; nil: nothing to wait for
	flushErr error         // that flush's error, or why Enqueue refused the record
}

// Err reports whether the record was rejected at PrepareRecord (e.g.
// ErrRecordTooLarge). Callers should check it before entering the
// commit critical section: a rejected record never reaches the log, so
// the commit should fail before it is published, not after.
func (p *Pending) Err() error { return p.err }

// Wait blocks until the enqueued record is durable per the log's fsync
// mode. It must only be called after Enqueue, by the goroutine that
// called it; a nil Pending (nothing was logged) waits for nothing.
func (p *Pending) Wait() error {
	if p == nil {
		return nil
	}
	if p.done != nil {
		<-p.done
	}
	return p.flushErr
}

func (p *Pending) barrier() bool { return p.frame == nil }

// segMeta describes one segment file. size is the published length in
// bytes (header included): everything at or below it has been fully
// written by a completed flush, so concurrent readers may read up to it
// while the flusher appends beyond. lastSeq is the highest record
// sequence in the segment; for sealed segments it is exact (published
// at rotation), for the current segment it trails the flush and is
// never used (GC only considers sealed segments).
type segMeta struct {
	index   uint64
	path    string
	size    int64
	lastSeq uint64
}

// DurableLog is a WAL persisted to segment files. See the package
// comment and docs/wal.md.
type DurableLog struct {
	dir string
	cfg Config
	fs  FS

	mu        sync.Mutex //ssi:lock level=10 name=wal.durable
	segs      []segMeta  // all segments, published sizes
	pending   []*Pending // enqueued, not yet grabbed by the flusher
	waiters   int        // entries of pending with a done channel: a batch syncs iff it has one
	inflight  []*Pending // grabbed by the flusher, not yet published
	subs      []chan Record
	closed    bool
	flushErr  error // sticky: first write/sync failure poisons the log
	stats     Stats
	recovered int

	// Checkpoint state, under mu. floorSeq is the GC floor: every
	// record with sequence at or below it has been (or may have been)
	// garbage-collected; SubscribeFrom below it must not pretend to
	// resume. ckptPath/ckptSeq/ckptRecords describe the newest complete
	// checkpoint.
	floorSeq    uint64
	ckptSeq     uint64
	ckptPath    string
	ckptRecords int

	// Recovery high-water marks, set once by OpenDir (the engine seeds
	// its sequence counters from them before accepting traffic).
	recoveredMaxSeq    uint64
	recoveredMarkerSeq uint64

	// poisonedFlag mirrors flushErr != nil without taking mu, so the
	// engine can refuse Begin on a poisoned log cheaply.
	poisonedFlag atomic.Bool

	// wake is the flusher's doorbell, rung (ring: a send that never
	// blocks) by whatever may have given it something to do: Enqueue,
	// SyncBarrier, JoinersDrained, the gather watchdog, Close. It holds
	// one token, so a ring while the flusher is busy is not lost; the
	// flusher re-reads the state it cares about after every token, so a
	// stale one costs a look. watch arms the gather watchdog, which
	// reads gatherEnd (nanoseconds since epoch) and gathering; the two
	// done channels are closed when flusher and watchdog have exited.
	// See flush.go.
	wake         chan struct{}
	watch        chan struct{}
	epoch        time.Time
	gatherEnd    atomic.Int64
	gathering    atomic.Bool
	flusherDone  chan struct{}
	watchdogDone chan struct{}

	// Flusher-private state (Close's once the flusher has exited). cur
	// is SegmentSize bytes long on disk, zeros from curSize on.
	cur        File
	curIndex   uint64
	curSize    int64
	curLastSeq uint64
	filled     []segMeta  // segments rotated away during the current batch
	batch      Stats      // the current batch's share of the counters
	spare      []*Pending // the last batch's array, emptied: the next queue fills it
}

// Stats is a snapshot of the log's counters. Appends/Fsyncs is the
// group-commit amortization ratio.
type Stats struct {
	Appends int64
	// Flushes counts turns of the flusher, Batches those that reached
	// the disk (a poisoned log still turns), UnsyncedBatches those of
	// them written without a sync because nobody waited.
	Flushes         int64
	Batches         int64
	UnsyncedBatches int64
	// Fsyncs counts every sync issued, of files and of the directory;
	// SyncNanos is the time the per-batch data syncs took.
	Fsyncs    int64
	SyncNanos int64
	Segments  int
	// BytesWritten is log content (frames and segment headers);
	// BytesPreallocated the zeros segments were filled with.
	BytesWritten      int64
	BytesPreallocated int64
	// GatherWaits counts flushes held back for open transactions:
	// GatherCutShort of them went ahead when the last one finished,
	// GatherExpired at the window's cap. GatherNanos is the time held.
	GatherWaits    int64
	GatherCutShort int64
	GatherExpired  int64
	GatherNanos    int64
	// Poisoned reports a sticky flush failure: no further append can
	// succeed until the directory is reopened.
	Poisoned bool
	// Checkpoints and SegmentsGCed count completed checkpoints and the
	// segments they removed; CheckpointSeq and GCFloorSeq are the
	// newest checkpoint's sequence and the current GC floor.
	Checkpoints   int64
	SegmentsGCed  int64
	CheckpointSeq uint64
	GCFloorSeq    uint64
}

// OpenDir opens (creating if necessary) the WAL in dir and recovers it:
// segments are scanned in order and the log is truncated at the first
// torn, corrupt, or otherwise undecodable record — that record and
// everything after it (including any later segments) is discarded.
// Records surviving recovery can then be read with Replay before new
// appends begin.
func OpenDir(dir string, cfg Config) (*DurableLog, error) {
	if cfg.FS == nil {
		cfg.FS = osFS{}
	}
	if cfg.SegmentSize <= segmentHeaderSize {
		cfg.SegmentSize = DefaultSegmentSize
	}
	if cfg.GroupWindow <= 0 {
		cfg.GroupWindow = DefaultGroupWindow
	}
	l := &DurableLog{dir: dir, cfg: cfg, fs: cfg.FS}

	if err := l.fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	names, err := l.fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type cand struct {
		index uint64
		name  string
	}
	var cands []cand
	var ckpts []cand // checkpoint files, keyed by their seq
	for _, n := range names {
		if idx, ok := parseSegName(n); ok {
			cands = append(cands, cand{idx, n})
		} else if seq, ok := parseCkptName(n); ok {
			ckpts = append(ckpts, cand{seq, n})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].index < cands[j].index })
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i].index < ckpts[j].index })

	// Choose the newest COMPLETE checkpoint (torn ones are discarded
	// like torn records, older ones are superseded): the checkpoint
	// file's own footer is the source of truth.
	for i := len(ckpts) - 1; i >= 0; i-- {
		c := ckpts[i]
		path := filepath.Join(dir, c.name)
		if l.ckptPath == "" {
			if n, complete := scanCheckpoint(l.fs, path, c.index); complete {
				l.ckptSeq, l.ckptPath, l.ckptRecords = c.index, path, n
				continue
			}
		}
		if err := l.fs.Remove(path); err != nil {
			return nil, fmt.Errorf("wal: removing stale checkpoint %s: %w", c.name, err)
		}
	}
	// The GC floor after a restart is the checkpoint sequence itself:
	// precise per-segment floors do not survive the process, and any
	// resume at or below the checkpoint can be answered from the
	// checkpoint anyway.
	if l.ckptPath != "" {
		l.floorSeq = l.ckptSeq
		l.recoveredMaxSeq = l.ckptSeq
		// The checkpoint sits on a safe-snapshot marker by construction.
		l.recoveredMarkerSeq = l.ckptSeq
	}

	damaged := false
	for i, c := range cands {
		path := filepath.Join(dir, c.name)
		// Once damage is found — or a segment index gap makes later
		// segments unreachable — everything after the damage point is
		// discarded.
		if damaged || (i > 0 && c.index != cands[i-1].index+1) {
			damaged = true
			if err := l.fs.Remove(path); err != nil {
				return nil, fmt.Errorf("wal: removing unreachable segment %s: %w", c.name, err)
			}
			continue
		}
		good, lastSeq, segDamaged, err := l.scanSegment(path, c.index)
		if err != nil {
			return nil, err
		}
		if segDamaged {
			damaged = true
			if good <= segmentHeaderSize {
				// Not even a valid header survived: nothing usable here.
				if err := l.fs.Remove(path); err != nil {
					return nil, fmt.Errorf("wal: removing damaged segment %s: %w", c.name, err)
				}
				continue
			}
			if err := l.fs.Truncate(path, good); err != nil {
				return nil, fmt.Errorf("wal: truncating damaged segment %s: %w", c.name, err)
			}
		}
		l.segs = append(l.segs, segMeta{index: c.index, path: path, size: good, lastSeq: lastSeq})
	}

	if len(l.segs) == 0 {
		// Continue the index sequence past every segment file seen on
		// disk (even damaged ones recovery removed): reusing an index
		// could collide with a removed segment whose directory entry
		// resurfaces after a power loss.
		idx := uint64(1)
		if len(cands) > 0 {
			idx = cands[len(cands)-1].index + 1
		}
		f, err := l.createSegment(idx)
		if err != nil {
			return nil, err
		}
		l.cur, l.curIndex, l.curSize, l.curLastSeq = f, idx, segmentHeaderSize, l.recoveredMaxSeq
		l.segs = append(l.segs, segMeta{index: idx, path: l.segPath(idx), size: segmentHeaderSize, lastSeq: l.recoveredMaxSeq})
	} else {
		// The last segment ends at its good prefix (a damaged one was cut
		// there above, a cleanly closed one is exact-length). Fill it
		// back up with zeros before appending: whatever lay beyond the
		// prefix — a whole frame behind a torn one, say — is gone from
		// the disk before a new record can line up with it.
		last := l.segs[len(l.segs)-1]
		f, err := l.fs.OpenWrite(last.path)
		if err == nil {
			if err = l.zeroFill(f, last.size); err != nil {
				f.Close()
			}
		}
		if err != nil {
			return nil, err
		}
		l.cur, l.curIndex, l.curSize, l.curLastSeq = f, last.index, last.size, last.lastSeq
	}
	// Make the directory's metadata durable before accepting traffic:
	// recovery may have removed or truncated segments, and a fresh open
	// created one — none of those entries survive a power loss until
	// the directory itself is fsynced.
	if err := l.fs.SyncDir(dir); err != nil {
		l.cur.Close()
		return nil, err
	}
	l.batch.Fsyncs++
	l.settleStatsLocked() // nobody else has the log yet
	l.startFlusher()
	return l, nil
}

// RecoveredRecords reports how many records survived recovery at OpenDir.
func (l *DurableLog) RecoveredRecords() int { return l.recovered }

// Dir returns the directory the log lives in.
func (l *DurableLog) Dir() string { return l.dir }

// FS returns the filesystem the log lives on (a *MemFS for NewLog).
func (l *DurableLog) FS() FS { return l.fs }

// FsyncMode returns the log's acknowledgement/fsync policy.
func (l *DurableLog) FsyncMode() FsyncMode { return l.cfg.Fsync }

func (l *DurableLog) segPath(index uint64) string {
	return filepath.Join(l.dir, segName(index))
}

func segName(index uint64) string { return fmt.Sprintf("%016d.wal", index) }

func parseSegName(name string) (uint64, bool) {
	base, ok := strings.CutSuffix(name, ".wal")
	if !ok || len(base) != 16 {
		return 0, false
	}
	idx, err := strconv.ParseUint(base, 10, 64)
	if err != nil || idx == 0 {
		return 0, false
	}
	return idx, true
}

func encodeSegHeader(index uint64) []byte {
	hdr := make([]byte, segmentHeaderSize)
	copy(hdr, walMagic)
	hdr[8] = FormatVersion
	binary.BigEndian.PutUint64(hdr[9:17], index)
	return hdr
}

// readSegHeader validates a segment header against the index encoded in
// the file's name.
func readSegHeader(r io.Reader, wantIndex uint64) error {
	var hdr [segmentHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("%w: segment header: %v", ErrTruncated, err)
	}
	if string(hdr[:8]) != walMagic {
		return fmt.Errorf("%w: bad segment magic", ErrBadRecord)
	}
	if hdr[8] != FormatVersion {
		return fmt.Errorf("%w: %d", ErrBadVersion, hdr[8])
	}
	if idx := binary.BigEndian.Uint64(hdr[9:17]); idx != wantIndex {
		return fmt.Errorf("%w: segment header index %d, file name says %d", ErrBadRecord, idx, wantIndex)
	}
	return nil
}

// scanSegment validates one segment during recovery. It returns the
// offset up to which the segment is intact (segmentHeaderSize or less
// means nothing usable), the highest record sequence seen before the
// damage point, and whether any damage was found. Only failing to open
// the file is a hard error: all content problems are damage, by design —
// recovery must never panic or fail on a torn tail. As a side effect it
// accumulates the recovered-record count (records past the checkpoint,
// the ones Replay will deliver) and the recovery high-water marks.
func (l *DurableLog) scanSegment(path string, index uint64) (good int64, lastSeq uint64, damaged bool, err error) {
	f, err := l.fs.Open(path)
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()
	if err := readSegHeader(f, index); err != nil {
		return 0, 0, true, nil
	}
	good = segmentHeaderSize
	var buf []byte
	for {
		body, err := readFrame(f, buf)
		if err == io.EOF {
			return good, lastSeq, false, nil
		}
		if err != nil {
			return good, lastSeq, true, nil
		}
		rec, err := decodeRecord(body)
		if err != nil {
			return good, lastSeq, true, nil
		}
		good += int64(frameHeaderSize + len(body))
		buf = body
		if s := uint64(rec.Seq); s > lastSeq {
			lastSeq = s
		}
		if s := uint64(rec.Seq); s > l.recoveredMaxSeq {
			l.recoveredMaxSeq = s
		}
		if rec.SafeSnapshot && uint64(rec.Seq) > l.recoveredMarkerSeq {
			l.recoveredMarkerSeq = uint64(rec.Seq)
		}
		if deliverFrom(rec, mvcc.SeqNo(l.ckptSeq)) {
			l.recovered++
		}
	}
}

// readSegmentRecords streams the records of one recovered/published
// segment region ([0, limit) bytes of the file) through fn. Unlike
// scanSegment this treats damage as an error: callers only read regions
// recovery or a completed flush has validated.
func readSegmentRecords(fs FS, path string, index uint64, limit int64, fn func(Record) error) error {
	f, err := fs.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := readSegHeader(f, index); err != nil {
		return err
	}
	lr := io.LimitReader(f, limit-segmentHeaderSize)
	var buf []byte
	for {
		body, err := readFrame(lr, buf)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("wal: segment %s: %w", filepath.Base(path), err)
		}
		rec, err := decodeRecord(body)
		if err != nil {
			return fmt.Errorf("wal: segment %s: %w", filepath.Base(path), err)
		}
		if err := fn(rec); err != nil {
			return err
		}
		buf = body
	}
}

// Replay streams every record that survived recovery AND postdates the
// recovered checkpoint through fn, in log order: commits strictly after
// the checkpoint sequence, markers and schema records at or after it
// (the same boundary rule as SubscribeFrom — the caller loads the
// checkpoint itself via ReplayCheckpoint first). It must be called
// after OpenDir and before any appends.
func (l *DurableLog) Replay(fn func(Record) error) error {
	l.mu.Lock()
	segs := append([]segMeta(nil), l.segs...)
	after := mvcc.SeqNo(l.ckptSeq)
	l.mu.Unlock()
	for _, s := range segs {
		if s.size <= segmentHeaderSize {
			continue
		}
		err := readSegmentRecords(l.fs, s.path, s.index, s.size, func(rec Record) error {
			if !deliverFrom(rec, after) {
				return nil
			}
			return fn(rec)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// RecoveredMaxSeq is the highest record sequence recovery saw (the
// checkpoint sequence counts); the engine seeds its commit-sequence
// counter from it so post-recovery sequences never collide with
// on-disk ones.
func (l *DurableLog) RecoveredMaxSeq() uint64 { return l.recoveredMaxSeq }

// RecoveredMarkerSeq is the highest safe-snapshot marker sequence
// recovery saw (the checkpoint sequence counts: a checkpoint sits on a
// marker); the engine seeds its marker high-water mark from it so
// marker sequences in the stream never regress across a restart.
func (l *DurableLog) RecoveredMarkerSeq() uint64 { return l.recoveredMarkerSeq }

// PrepareRecord encodes rec into a Pending, ready for Enqueue. Safe to
// call with rec.Seq unset: Enqueue stamps the final sequence number.
//
// A record whose frame would exceed MaxRecordSize is rejected here
// (Pending.Err reports ErrRecordTooLarge) and will never be written:
// readFrame refuses such frames, so writing one would make an
// acknowledged commit — and everything after it — look like damage on
// recovery.
func (l *DurableLog) PrepareRecord(rec Record) *Pending {
	if err := ValidateRecord(rec); err != nil {
		return &Pending{rec: rec, err: err}
	}
	return &Pending{frame: encodeFrame(rec), rec: rec}
}

// Enqueue stamps seq into the prepared record and reserves its position
// in the log: the record joins the flush queue and is fanned out to
// subscribers. It is designed to be called inside the engine's commit
// ordering critical section — it only patches eight bytes, takes the
// log mutex, and appends to a slice; all encoding happened in
// PrepareRecord and all I/O happens on the flusher goroutine. Call
// p.Wait afterwards (outside the critical section) for durability.
func (l *DurableLog) Enqueue(p *Pending, seq mvcc.SeqNo) { l.enqueue(p, seq, true) }

func (l *DurableLog) enqueue(p *Pending, seq mvcc.SeqNo, wait bool) {
	if p.err != nil {
		// Rejected at PrepareRecord (oversize): the record must never
		// reach the log — recovery could not read it back. The caller
		// should have failed the commit on Pending.Err already; this is
		// the backstop that keeps the log recoverable regardless.
		p.flushErr = p.err
		return
	}
	patchSeq(p.frame, uint64(seq))
	p.rec.Seq = seq
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		p.flushErr = ErrClosed
		return
	}
	if l.flushErr != nil {
		p.flushErr = l.flushErr
		return
	}
	if wait && l.cfg.Fsync != FsyncOff {
		p.done = make(chan struct{})
		l.waiters++
	}
	l.pending = append(l.pending, p)
	l.stats.Appends++
	l.fanoutLocked(p.rec)
	if l.dueLocked() {
		l.ring()
	}
}

// Append encodes and enqueues a record whose sequence number is already
// known (schema records). The returned Pending's Wait returns when the
// record is durable (at once in FsyncOff mode).
func (l *DurableLog) Append(rec Record) *Pending {
	p := l.PrepareRecord(rec)
	l.Enqueue(p, rec.Seq)
	return p
}

// AppendNoWait is Append for a record nobody will wait for (safe-snapshot
// markers): it is written in order like any other, but earns no sync of
// its own — it becomes durable with the next record somebody does wait
// for, a SyncBarrier, or Close.
func (l *DurableLog) AppendNoWait(rec Record) {
	l.enqueue(l.PrepareRecord(rec), rec.Seq, false)
}

// fanoutLocked delivers r to every live subscriber with a send that
// never blocks: a subscriber whose buffer is full (it stopped draining,
// or died without cancelling) is disconnected — its channel closed — so
// the committer holding the publication critical section is never
// stalled by one (the replica treats a closed stream as "re-subscribe
// and catch up"). l.mu orders the closes against SubscribeFrom and
// cancel.
func (l *DurableLog) fanoutLocked(r Record) {
	live := l.subs[:0]
	for _, ch := range l.subs {
		select {
		case ch <- r:
			live = append(live, ch)
		default:
			close(ch)
		}
	}
	for i := len(live); i < len(l.subs); i++ {
		l.subs[i] = nil
	}
	l.subs = live
}

// SubscribeFrom implements Source: the channel replays the log's records
// past the resume position (from disk, plus any not yet flushed) and
// then streams new ones through the same filter. Cancel detaches and
// closes the channel; a subscriber that falls more than the fan-out
// buffer behind is disconnected (see fanoutLocked). A position below the
// GC floor cannot be resumed — the records are gone — and is refused
// with ErrSeqTruncated, never answered with a silent gap.
func (l *DurableLog) SubscribeFrom(after mvcc.SeqNo) (<-chan Record, func(), error) {
	ch := make(chan Record, subscriberBuffer)
	l.mu.Lock()
	if uint64(after) < l.floorSeq {
		floor := l.floorSeq
		l.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: resume after seq %d, GC floor %d", ErrSeqTruncated, after, floor)
	}
	segs := append([]segMeta(nil), l.segs...)
	mem := make([]Record, 0, len(l.inflight)+len(l.pending))
	for _, q := range l.inflight {
		if !q.barrier() && deliverFrom(q.rec, after) {
			mem = append(mem, q.rec)
		}
	}
	for _, q := range l.pending {
		if !q.barrier() && deliverFrom(q.rec, after) {
			mem = append(mem, q.rec)
		}
	}
	if l.closed {
		close(ch)
	} else {
		l.subs = append(l.subs, ch)
	}
	l.mu.Unlock()

	out := make(chan Record, 64)
	done := make(chan struct{})
	go func() {
		var backlog []Record
		for _, s := range segs {
			if s.size <= segmentHeaderSize {
				continue
			}
			err := readSegmentRecords(l.fs, s.path, s.index, s.size, func(r Record) error {
				if deliverFrom(r, after) {
					backlog = append(backlog, r)
				}
				return nil
			})
			if err != nil {
				// A published region failing to read back means the
				// disk is gone or the log poisoned; end the stream.
				close(out)
				return
			}
		}
		backlog = append(backlog, mem...)
		forwardRecords(backlog, ch, out, done, after)
	}()

	cancel := func() {
		l.mu.Lock()
		for i, s := range l.subs {
			if s == ch {
				l.subs = append(l.subs[:i], l.subs[i+1:]...)
				break
			}
		}
		l.mu.Unlock()
		close(done)
	}
	return out, cancel, nil
}

// SyncBarrier blocks until everything enqueued before it is flushed and
// fsynced (FsyncOff: flushed, not synced), returning the sticky flush
// error if the log is poisoned. Checkpointing uses it to prove the log
// durable through the checkpoint sequence before any segment is GC'd.
func (l *DurableLog) SyncBarrier() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if err := l.flushErr; err != nil {
		l.mu.Unlock()
		return err
	}
	p := &Pending{done: make(chan struct{})}
	l.pending = append(l.pending, p)
	l.waiters++
	l.ring()
	l.mu.Unlock()
	return p.Wait()
}

// PoisonErr reports the sticky flush error once the log is poisoned
// (nil otherwise). The fast path is one atomic load, so the engine can
// check it on every Begin.
func (l *DurableLog) PoisonErr() error {
	if !l.poisonedFlag.Load() {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushErr
}

// Close drains the flush queue and stops the flusher, then seals the
// current segment — trims it to its logical length and syncs it (even
// in FsyncOff mode: a clean shutdown is durable) — and closes it.
// Appends after Close fail with ErrClosed; subscriber streams end.
func (l *DurableLog) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.ring()
	l.mu.Unlock()
	// The flusher drains the queue and exits; only then may the
	// watchdog's channel close (a gather arms it).
	<-l.flusherDone
	close(l.watch)
	<-l.watchdogDone

	l.mu.Lock()
	err := l.flushErr
	if err == nil {
		err = l.seal(true)
		// FsyncOff rotations skip the directory fsync; a clean shutdown
		// settles the debt so every segment's entry is durable.
		if err == nil {
			if err = l.fs.SyncDir(l.dir); err == nil {
				l.batch.Fsyncs++
			}
		}
		l.settleStatsLocked()
	}
	if cerr := l.cur.Close(); err == nil {
		err = cerr
	}
	subs := l.subs
	l.subs = nil
	l.mu.Unlock()
	for _, ch := range subs {
		close(ch)
	}
	return err
}

// Stats returns a snapshot of the log's counters.
func (l *DurableLog) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.Segments = len(l.segs)
	s.Poisoned = l.flushErr != nil
	s.CheckpointSeq = l.ckptSeq
	s.GCFloorSeq = l.floorSeq
	return s
}
