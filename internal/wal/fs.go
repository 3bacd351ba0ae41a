// Filesystem abstraction for the durable WAL, so the fault-injection
// tests can interpose on writes and fsyncs without touching the segment
// logic. Production always uses the OS filesystem (Config.FS == nil).
package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// File is the subset of *os.File the segment writer and readers need.
// Segments are written in place (WriteAt into a zero-filled file);
// checkpoint files are written front to back (Write).
type File interface {
	io.Reader
	io.Writer
	io.WriterAt
	io.Closer
	// Sync makes the file's data and metadata durable (fsync).
	Sync() error
	// Datasync makes the file's data durable, and of its metadata only
	// what reading that data back needs (fdatasync where the platform
	// has it, Sync elsewhere). Overwriting already-allocated blocks
	// changes no such metadata, which is what makes a commit's sync
	// data-only.
	Datasync() error
}

// FS is the filesystem surface the durable WAL runs on. All paths are
// absolute (the DurableLog joins its directory itself).
type FS interface {
	MkdirAll(dir string) error
	// ReadDir returns the file names (not paths) in dir.
	ReadDir(dir string) ([]string, error)
	// Create opens name for writing, creating or truncating it.
	Create(name string) (File, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	// OpenWrite opens an existing file for positioned writes (WriteAt).
	OpenWrite(name string) (File, error)
	Truncate(name string, size int64) error
	Remove(name string) error
	// SyncDir fsyncs the directory itself, making its entries (files
	// created or removed in it) durable. Creating and fsyncing a file
	// does not persist its directory entry; until SyncDir, a power loss
	// can make the file unreachable even though its data survived.
	SyncDir(dir string) error
}

// osFS is the production FS.
type osFS struct{}

// osFile is *os.File plus the data-only sync.
type osFile struct{ *os.File }

func (f osFile) Datasync() error { return datasync(f.File) }

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func osOpen(name string, flag int) (File, error) {
	f, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Create(name string) (File, error) {
	return osOpen(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC)
}

func (osFS) Open(name string) (File, error) { return osOpen(name, os.O_RDONLY) }

func (osFS) OpenWrite(name string) (File, error) { return osOpen(name, os.O_RDWR) }

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }
func (osFS) Remove(name string) error               { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// FaultFS is a test-only FS over the real filesystem that models the
// failure a write-ahead log exists to survive: data that was written but
// not synced is lost at a crash. Per file it opened for writing it
// tracks the length the last successful sync covered and, for every
// 512-byte sector overwritten since, what that sector held at the sync
// (the WAL writes its segments in place, into zero-filled files, so an
// unsynced write has something underneath it). Crash() puts the
// pre-images back and cuts the file to its synced length — exactly what
// the page cache loses when the machine dies; CrashKeeping does the
// same but lets a chosen subset of the unsynced sectors reach the
// platter, so a whole frame can survive beyond a torn one. Directory
// entries are modelled too: a file created but whose directory was not
// successfully SyncDir'd since is REMOVED at Crash() — a power loss can
// lose the entry of a freshly created file even when its data was
// synced, leaving the data unreachable. Syncs themselves (file and
// directory alike) can be made to silently disappear (DropFutureSyncs /
// DropSyncsAfter, modelling a dropped final fsync) or to fail
// (FailSyncs).
//
// FaultFS is the model of durability, so it never syncs the real file:
// the process does not die at Crash(), and what the real disk holds is
// of no interest. Two simplifications: Truncate is durable at once, and
// a write that extends a file is lost whole unless synced (no sector of
// it is kept: the length it needs never reached the disk).
//
// FaultFS must only be used from tests.
type FaultFS struct {
	mu sync.Mutex //ssi:lock level=30 name=wal.faultfs
	// files is the durability state of every file opened for writing,
	// by absolute path.
	files map[string]*faultState
	// newEntries tracks, per directory, files created since the last
	// successful SyncDir: their directory entries are volatile and lost
	// at Crash.
	newEntries map[string]map[string]bool
	// removed tracks, per directory, files removed since the last
	// successful SyncDir, with their durable content (what the platter
	// held). An unlink is a directory mutation like a create: until the
	// directory is fsynced, a power loss can leave the old entry — and
	// the file's durable data — in place, so Crash restores these.
	// Checkpoint GC's safety depends on this model: either the
	// removal's covering SyncDir succeeded (and so did the
	// checkpoint's, ordered before it), or the segments come back.
	removed map[string]map[string][]byte
	// allowSyncs is how many more syncs succeed before they are
	// silently dropped; -1 means unlimited.
	allowSyncs int64
	syncErr    error
	syncs      int64
}

// FaultSectorSize is the unit in which FaultFS loses or keeps unsynced
// writes at a crash.
const FaultSectorSize = 512

// faultState is what FaultFS knows of one file: size is its current
// length, durable the length the last successful sync covered, and pre
// the content at that sync of every sector below durable that has been
// overwritten since (clipped to durable).
type faultState struct {
	size    int64
	durable int64
	pre     map[int64][]byte
}

// savePreImages records, before [off, off+n) is overwritten, what the
// sectors it touches hold — once per sector and sync.
func (st *faultState) savePreImages(f *os.File, off, n int64) error {
	end := min(off+n, st.durable)
	for sec := off / FaultSectorSize; sec*FaultSectorSize < end; sec++ {
		if _, ok := st.pre[sec]; ok {
			continue
		}
		at := sec * FaultSectorSize
		buf := make([]byte, min(FaultSectorSize, st.durable-at))
		if _, err := f.ReadAt(buf, at); err != nil {
			return err
		}
		if st.pre == nil {
			st.pre = make(map[int64][]byte)
		}
		st.pre[sec] = buf
	}
	return nil
}

// durableImage turns the file's current content b into what the disk is
// sure to hold.
func (st *faultState) durableImage(b []byte) []byte {
	if int64(len(b)) > st.durable {
		b = b[:st.durable]
	}
	for sec, img := range st.pre {
		if at := sec * FaultSectorSize; at < int64(len(b)) {
			copy(b[at:], img)
		}
	}
	return b
}

// NewFaultFS returns a FaultFS with syncs working normally.
func NewFaultFS() *FaultFS {
	return &FaultFS{
		files:      make(map[string]*faultState),
		newEntries: make(map[string]map[string]bool),
		removed:    make(map[string]map[string][]byte),
		allowSyncs: -1,
	}
}

// DropFutureSyncs makes every subsequent sync a silent no-op: writes
// keep landing in the "page cache" (the real file) but are lost at
// Crash().
func (f *FaultFS) DropFutureSyncs() { f.DropSyncsAfter(0) }

// DropSyncsAfter lets the next n syncs succeed and silently drops every
// one after that.
func (f *FaultFS) DropSyncsAfter(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.allowSyncs = int64(n)
}

// FailSyncs makes every subsequent sync return err (nil restores normal
// operation).
func (f *FaultFS) FailSyncs(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncErr = err
}

// Syncs returns how many syncs were attempted (including dropped ones).
func (f *FaultFS) Syncs() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncs
}

// trySyncLocked counts one sync attempt and reports whether it takes
// effect: a failing sync returns the injected error, a dropped one
// (false, nil).
func (f *FaultFS) trySyncLocked() (bool, error) {
	f.syncs++
	if f.syncErr != nil {
		return false, f.syncErr
	}
	if f.allowSyncs == 0 {
		return false, nil
	}
	if f.allowSyncs > 0 {
		f.allowSyncs--
	}
	return true, nil
}

// Crash simulates a machine crash that loses every unsynced write. See
// CrashKeeping.
func (f *FaultFS) Crash() error { return f.CrashKeeping(nil) }

// CrashKeeping simulates a machine crash: files whose directory entry
// was never made durable (created with no successful SyncDir since) are
// removed outright — their data is unreachable, however much of it was
// synced; files unlinked with no successful SyncDir since come back
// with their durable content; and every other file this FS opened for
// writing gets the sectors overwritten since its last successful sync
// put back as they were and is cut to the length that sync covered —
// except the sectors keep(path, sector) selects, which hold what was
// last written to them: the disk wrote those and not the others. A nil
// keep keeps none. The caller must have stopped all writers first (the
// "process" is dead).
func (f *FaultFS) CrashKeeping(keep func(name string, sector int64) bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for dir, ents := range f.newEntries {
		for name := range ents {
			if err := os.Remove(name); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("wal: crash unlink %s: %w", filepath.Base(name), err)
			}
			delete(f.files, name)
		}
		delete(f.newEntries, dir)
	}
	for dir, ents := range f.removed {
		for name, content := range ents {
			if err := os.WriteFile(name, content, 0o644); err != nil {
				return fmt.Errorf("wal: crash restore %s: %w", filepath.Base(name), err)
			}
		}
		delete(f.removed, dir)
	}
	for name, st := range f.files {
		if len(st.pre) == 0 && st.size <= st.durable {
			continue
		}
		file, err := os.OpenFile(name, os.O_WRONLY, 0)
		if err != nil {
			return fmt.Errorf("wal: crash %s: %w", filepath.Base(name), err)
		}
		for sec, img := range st.pre {
			if keep != nil && keep(name, sec) {
				continue
			}
			if _, err = file.WriteAt(img, sec*FaultSectorSize); err != nil {
				break
			}
		}
		if err == nil {
			err = file.Truncate(st.durable)
		}
		file.Close()
		if err != nil {
			return fmt.Errorf("wal: crash %s: %w", filepath.Base(name), err)
		}
		st.size, st.pre = st.durable, nil
	}
	return nil
}

func (f *FaultFS) MkdirAll(dir string) error            { return osFS{}.MkdirAll(dir) }
func (f *FaultFS) ReadDir(dir string) ([]string, error) { return osFS{}.ReadDir(dir) }
func (f *FaultFS) Open(name string) (File, error)       { return osFS{}.Open(name) }

func (f *FaultFS) Truncate(name string, size int64) error {
	if err := (osFS{}).Truncate(name, size); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.files[name]
	if st == nil {
		return nil
	}
	st.size = size
	if st.durable > size {
		st.durable = size
		for sec, img := range st.pre {
			switch at := sec * FaultSectorSize; {
			case at >= size:
				delete(st.pre, sec)
			case at+int64(len(img)) > size:
				st.pre[sec] = img[:size-at]
			}
		}
	}
	return nil
}

func (f *FaultFS) Remove(name string) error {
	dir := filepath.Dir(name)
	b, err := os.ReadFile(name)
	if err != nil {
		return err
	}
	if err := (osFS{}).Remove(name); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	// If the file's own directory entry was durable, the unlink is
	// volatile until the next successful SyncDir, and Crash restores
	// the file's durable content. A file whose entry was never made
	// durable (still in newEntries) would not have survived a crash
	// anyway, so nothing is kept for it.
	if ents := f.newEntries[dir]; ents[name] {
		delete(ents, name)
	} else {
		if st := f.files[name]; st != nil {
			b = st.durableImage(b)
		}
		if f.removed[dir] == nil {
			f.removed[dir] = make(map[string][]byte)
		}
		f.removed[dir][name] = b
	}
	delete(f.files, name)
	return nil
}

// SyncDir makes the directory's entries durable, subject to the same
// drop/fail knobs as file syncs: a dropped SyncDir leaves every entry
// created since the last successful one volatile (lost at Crash).
func (f *FaultFS) SyncDir(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	ok, err := f.trySyncLocked()
	if ok {
		delete(f.newEntries, dir)
		delete(f.removed, dir)
	}
	return err
}

func (f *FaultFS) Create(name string) (File, error) {
	file, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.files[name] = &faultState{}
	dir := filepath.Dir(name)
	if f.newEntries[dir] == nil {
		f.newEntries[dir] = make(map[string]bool)
	}
	f.newEntries[dir][name] = true
	f.mu.Unlock()
	return &faultFile{fs: f, name: name, f: file}, nil
}

func (f *FaultFS) OpenWrite(name string) (File, error) {
	file, err := os.OpenFile(name, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	info, err := file.Stat()
	if err != nil {
		file.Close()
		return nil, err
	}
	f.mu.Lock()
	// Pre-existing contents (a recovered segment) are considered
	// durable: recovery already truncated to what survived.
	f.files[name] = &faultState{size: info.Size(), durable: info.Size()}
	f.mu.Unlock()
	return &faultFile{fs: f, name: name, f: file}, nil
}

// faultFile is a file opened for writing through a FaultFS. pos is the
// offset of the next Write.
type faultFile struct {
	fs   *FaultFS
	name string
	f    *os.File
	pos  int64
}

func (ff *faultFile) Read(p []byte) (int, error) { return ff.f.Read(p) }
func (ff *faultFile) Close() error               { return ff.f.Close() }

func (ff *faultFile) Write(p []byte) (int, error) {
	n, err := ff.WriteAt(p, ff.pos)
	ff.pos += int64(n)
	return n, err
}

func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	// A file removed while open is no longer tracked.
	st := ff.fs.files[ff.name]
	if st != nil {
		if err := st.savePreImages(ff.f, off, int64(len(p))); err != nil {
			return 0, err
		}
	}
	n, err := ff.f.WriteAt(p, off)
	if st != nil && n > 0 {
		st.size = max(st.size, off+int64(n))
	}
	return n, err
}

func (ff *faultFile) Sync() error {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	ok, err := ff.fs.trySyncLocked()
	if st := ff.fs.files[ff.name]; ok && st != nil {
		st.durable, st.pre = st.size, nil
	}
	return err
}

// Datasync is Sync: the model keeps no metadata a data-only sync could
// leave behind.
func (ff *faultFile) Datasync() error { return ff.Sync() }
