// The flush path of the DurableLog: one persistent flusher that turns
// the queue into batches — at most one data-only sync each — and the
// rule for when a batch may wait for company. docs/wal.md ("Group
// commit") is the normative description and carries the
// argument that neither skipping the wait nor skipping a sync nobody
// waits for weakens "acknowledged ⇒ synced".
package wal

import (
	"time"
)

// zeros is what segments are filled with, a chunk at a time.
var zeros [1 << 20]byte

func (l *DurableLog) startFlusher() {
	l.epoch = time.Now()
	l.wake = make(chan struct{}, 1)
	l.watch = make(chan struct{}, 1)
	l.flusherDone = make(chan struct{})
	l.watchdogDone = make(chan struct{})
	go l.flusher()
	go l.watchdog()
}

// ring wakes the flusher without ever blocking: Enqueue rings inside
// the engine's commit ordering critical section.
func (l *DurableLog) ring() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// JoinersDrained tells the log that Config.Joiners has fallen to zero:
// a flush held back for them can go.
func (l *DurableLog) JoinersDrained() { l.ring() }

// lazyFlushFrames is how many frames an FsyncOff log queues before the
// flusher takes them. Nobody waits for those records, and subscribers
// are fed from the queue, so a flush per commit would only cost the
// committer a wake-up.
const lazyFlushFrames = 64

// dueLocked reports whether the queue is ready to flush: it holds
// anything, in a mode where somebody waits for its records; or, in
// FsyncOff, lazyFlushFrames of them, a SyncBarrier, or a Close to drain.
// Caller holds l.mu.
func (l *DurableLog) dueLocked() bool {
	return len(l.pending) > 0 && (l.cfg.Fsync != FsyncOff ||
		len(l.pending) >= lazyFlushFrames || l.waiters > 0 || l.closed)
}

// flusher is the single group-commit flusher, alive from OpenDir to
// Close: it parks on wake until the queue is due (dueLocked), and then
// takes the whole queue as one batch, writes it, syncs it if somebody
// waits, and releases the batch's waiters. Committers that enqueue while
// a batch is being synced pile up for the next one — that pile-up is
// the group commit.
func (l *DurableLog) flusher() {
	defer close(l.flusherDone)
	for {
		l.mu.Lock()
		for !l.dueLocked() {
			closed := l.closed
			l.mu.Unlock()
			if closed {
				return
			}
			<-l.wake
			l.mu.Lock()
		}
		hold := l.waiters > 0 && l.cfg.Fsync == FsyncBatch
		l.mu.Unlock()
		if hold {
			l.gather()
		}
		l.flush()
	}
}

// gather holds a FsyncBatch flush back while a transaction is open that
// could still commit into it — and not at all otherwise: with nobody to
// wait for, waiting buys nothing. It parks on wake, which every Enqueue
// and JoinersDrained rings, until Joiners reads zero or the group window
// has passed; the watchdog rings at the window's end, so the flusher
// itself never sleeps on a timer.
func (l *DurableLog) gather() {
	if l.cfg.Joiners == nil || l.cfg.Joiners() == 0 {
		return
	}
	start := time.Now()
	l.gatherEnd.Store(int64(start.Sub(l.epoch) + l.cfg.GroupWindow))
	l.gathering.Store(true)
	select {
	case l.watch <- struct{}{}:
	default: // still watching an earlier gather; it re-reads gatherEnd
	}
	l.batch.GatherWaits++
	for {
		<-l.wake
		if l.cfg.Joiners() == 0 {
			l.batch.GatherCutShort++
			break
		}
		if time.Since(start) >= l.cfg.GroupWindow {
			l.batch.GatherExpired++
			break
		}
	}
	l.gathering.Store(false)
	l.batch.GatherNanos += int64(time.Since(start))
}

// watchdog ends a gather at the group window's cap. Armed by gather, it
// sleeps on the kernel's timer (gatherSleep) towards the gather's end
// and rings when that has come. A gather cut short leaves it asleep; it
// wakes to find either no gather on, and goes back to waiting to be
// armed, or a later one, whose end it then reads. It sleeps a
// millisecond at most at a time, so a long window does not keep it —
// and Close, which waits for it — past the gather's end.
func (l *DurableLog) watchdog() {
	defer close(l.watchdogDone)
	for range l.watch {
		for l.gathering.Load() {
			d := time.Duration(l.gatherEnd.Load()) - time.Since(l.epoch)
			if d <= 0 {
				l.ring()
				break
			}
			gatherSleep(min(d, time.Millisecond))
		}
	}
}

// flush takes the queue as one batch, writes it, and releases its
// waiters.
func (l *DurableLog) flush() {
	l.mu.Lock()
	batch := l.pending
	// An FsyncOff log never syncs before Close: a SyncBarrier there
	// waits for the write alone.
	sync := l.waiters > 0 && l.cfg.Fsync != FsyncOff
	l.pending, l.waiters, l.spare = l.spare, 0, nil
	l.inflight = batch
	err := l.flushErr
	l.mu.Unlock()

	wrote := err == nil
	if wrote {
		err = l.writeBatch(batch, sync)
	}

	// Publish the batch's on-disk region and retire it from inflight in
	// ONE critical section: a SubscribeFrom snapshot must never see a record
	// both in a published segment region and in inflight (it would
	// deliver the record twice).
	l.mu.Lock()
	if wrote && err == nil {
		l.publishSizesLocked()
	}
	l.inflight = nil
	if err != nil && l.flushErr == nil {
		l.flushErr = err
		l.poisonedFlag.Store(true)
	}
	l.batch.Flushes++
	l.settleStatsLocked()
	l.mu.Unlock()

	for _, p := range batch {
		if p.done != nil {
			p.flushErr = err
			close(p.done)
		}
	}
	clear(batch)
	l.spare = batch[:0]
}

// settleStatsLocked moves what the flusher counted since the last call
// into the published counters.
func (l *DurableLog) settleStatsLocked() {
	s, b := &l.stats, &l.batch
	s.Flushes += b.Flushes
	s.Batches += b.Batches
	s.UnsyncedBatches += b.UnsyncedBatches
	s.Fsyncs += b.Fsyncs
	s.SyncNanos += b.SyncNanos
	s.BytesWritten += b.BytesWritten
	s.BytesPreallocated += b.BytesPreallocated
	s.GatherWaits += b.GatherWaits
	s.GatherCutShort += b.GatherCutShort
	s.GatherExpired += b.GatherExpired
	s.GatherNanos += b.GatherNanos
	*b = Stats{}
}

// writeBatch writes one batch of frames into the current segment, each
// at the segment's logical end, rotating as needed, and, if sync is
// set, makes them durable with one data-only sync. Runs on the
// flusher with exclusive access to cur/curIndex/curSize. It does NOT
// publish the new segment sizes: flush publishes them
// (publishSizesLocked) in the same l.mu critical section that clears
// l.inflight, so SubscribeFrom's disk-plus-inflight-plus-pending snapshot
// never double-counts a record.
func (l *DurableLog) writeBatch(batch []*Pending, sync bool) error {
	l.filled = l.filled[:0]
	l.batch.Batches++
	for _, q := range batch {
		if q.barrier() {
			// Barriers write nothing; their done closes with the batch's
			// sync like any other entry's.
			continue
		}
		if l.curSize+int64(len(q.frame)) > l.cfg.SegmentSize && l.curSize > segmentHeaderSize {
			if err := l.rotate(); err != nil {
				return err
			}
		}
		n, err := l.cur.WriteAt(q.frame, l.curSize)
		l.curSize += int64(n)
		l.batch.BytesWritten += int64(n)
		if err != nil {
			return err
		}
		if s := uint64(q.rec.Seq); s > l.curLastSeq {
			l.curLastSeq = s
		}
	}
	if !sync {
		// Nobody waits for anything in this batch (markers): it rides
		// with the next sync. FsyncOff never syncs, as before.
		if l.cfg.Fsync != FsyncOff {
			l.batch.UnsyncedBatches++
		}
		return nil
	}
	t0 := time.Now()
	if err := l.cur.Datasync(); err != nil {
		return err
	}
	l.batch.SyncNanos += int64(time.Since(t0))
	l.batch.Fsyncs++
	return nil
}

// publishSizesLocked exposes the regions writeBatch just wrote (filled
// segments' final sizes plus the current segment's new size) to readers.
// Caller holds l.mu and must clear l.inflight in the same critical
// section. Segments GC'd while the batch was in flight are simply no
// longer in l.segs — a GC'd segment's records were all at or below a
// checkpoint, so they predate this batch and there is nothing to
// publish for them.
func (l *DurableLog) publishSizesLocked() {
	for _, fm := range l.filled {
		for j := len(l.segs) - 1; j >= 0; j-- {
			if l.segs[j].index == fm.index {
				l.segs[j].size = fm.size
				l.segs[j].lastSeq = fm.lastSeq
				break
			}
		}
	}
	for j := len(l.segs) - 1; j >= 0; j-- {
		if l.segs[j].index == l.curIndex {
			l.segs[j].size = l.curSize
			l.segs[j].lastSeq = l.curLastSeq
			break
		}
	}
}

// seal cuts the current segment's zero tail off, so that a sealed
// segment is exactly its records, and (if sync) makes it durable — with
// a full sync: the length changed.
func (l *DurableLog) seal(sync bool) error {
	if err := l.fs.Truncate(l.segPath(l.curIndex), l.curSize); err != nil {
		return err
	}
	if !sync {
		return nil
	}
	if err := l.cur.Sync(); err != nil {
		return err
	}
	l.batch.Fsyncs++
	return nil
}

// rotate seals the current segment (syncing it unless FsyncOff) and
// starts the next one. Frames never span segments. The sealed segment
// is durable at its exact length before the next one exists, so
// recovery never finds a zero tail with a segment behind it.
func (l *DurableLog) rotate() error {
	syncing := l.cfg.Fsync != FsyncOff
	if err := l.seal(syncing); err != nil {
		return err
	}
	if err := l.cur.Close(); err != nil {
		return err
	}
	sealedIndex, sealedLastSeq := l.curIndex, l.curLastSeq
	l.filled = append(l.filled, segMeta{index: sealedIndex, size: l.curSize, lastSeq: sealedLastSeq})
	idx := l.curIndex + 1
	f, err := l.createSegment(idx)
	if err != nil {
		return err
	}
	l.cur, l.curIndex, l.curSize = f, idx, segmentHeaderSize
	l.batch.BytesWritten += segmentHeaderSize
	if syncing {
		// Persist the new segment's directory entry before any record
		// in it is acknowledged: syncing the file alone does not make
		// it reachable after a power loss — a lost entry would silently
		// drop the whole segment on recovery.
		if err := l.fs.SyncDir(l.dir); err != nil {
			return err
		}
		l.batch.Fsyncs++
	}
	l.mu.Lock()
	// Publish the sealed segment's exact lastSeq now (its size waits
	// for the batch's publish, but checkpoint GC needs sealed lastSeq
	// to be trustworthy the moment the segment stops growing).
	for j := len(l.segs) - 1; j >= 0; j-- {
		if l.segs[j].index == sealedIndex {
			l.segs[j].lastSeq = sealedLastSeq
			break
		}
	}
	l.segs = append(l.segs, segMeta{index: idx, path: l.segPath(idx), size: segmentHeaderSize, lastSeq: sealedLastSeq})
	l.mu.Unlock()
	return nil
}

// createSegment creates segment index at its full size: header, then
// zeros to SegmentSize, synced (zeroFill). Appending to it overwrites
// blocks the file already owns, which is what lets the per-batch sync
// be data-only.
func (l *DurableLog) createSegment(index uint64) (File, error) {
	f, err := l.fs.Create(l.segPath(index))
	if err != nil {
		return nil, err
	}
	if _, err = f.WriteAt(encodeSegHeader(index), 0); err == nil {
		err = l.zeroFill(f, segmentHeaderSize)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// zeroFill writes zeros from offset from to SegmentSize and syncs the
// file, length included (unless FsyncOff).
func (l *DurableLog) zeroFill(f File, from int64) error {
	for from < l.cfg.SegmentSize {
		n, err := f.WriteAt(zeros[:min(int64(len(zeros)), l.cfg.SegmentSize-from)], from)
		from += int64(n)
		l.batch.BytesPreallocated += int64(n)
		if err != nil {
			return err
		}
	}
	if l.cfg.Fsync == FsyncOff {
		return nil
	}
	if err := f.Sync(); err != nil {
		return err
	}
	l.batch.Fsyncs++
	return nil
}
