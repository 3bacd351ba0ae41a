package wal

import (
	"errors"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"sync"
)

// MemFS is a fault-free in-memory FS: a write is there to read at once,
// a sync does nothing, and nothing survives the process. NewLog runs a
// DurableLog on one, so an in-memory database has the same log as a
// durable one — segments, subscriptions, checkpoints and their GC, which
// bound its memory as they bound a disk.
//
// Each file has its own lock, so a subscriber reading a segment's
// published prefix never waits on the flusher writing past it. An open
// handle keeps its file's content after the name is removed, as an open
// descriptor keeps an unlinked file.
type MemFS struct {
	mu    sync.Mutex //ssi:lock level=40 name=wal.memfs
	dirs  map[string]bool
	files map[string]*memFile
}

// memFile is one file's content.
type memFile struct {
	mu   sync.RWMutex //ssi:lock level=50 name=wal.memfile
	data []byte
}

// NewMemFS returns an empty MemFS.
func NewMemFS() *MemFS {
	return &MemFS{dirs: make(map[string]bool), files: make(map[string]*memFile)}
}

// Bytes returns the total length of the files it holds.
func (m *MemFS) Bytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, f := range m.files {
		f.mu.RLock()
		n += int64(len(f.data))
		f.mu.RUnlock()
	}
	return n
}

func (m *MemFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for d := filepath.Clean(dir); !m.dirs[d]; d = filepath.Dir(d) {
		m.dirs[d] = true
	}
	return nil
}

func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[filepath.Clean(dir)] {
		return nil, &fs.PathError{Op: "open", Path: dir, Err: fs.ErrNotExist}
	}
	var names []string
	for name := range m.files {
		if filepath.Dir(name) == filepath.Clean(dir) {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

// file returns the file called name, or fs.ErrNotExist; create makes it
// (empty) first, in a directory that must exist, and remove unlinks it.
func (m *MemFS) file(op, name string, create, remove bool) (*memFile, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	f, ok := m.files[name]
	if create && m.dirs[filepath.Dir(name)] {
		f, ok = &memFile{}, true
		m.files[name] = f
	}
	if !ok {
		return nil, &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
	}
	if remove {
		delete(m.files, name)
	}
	return f, nil
}

func (m *MemFS) open(name string, create, write bool) (File, error) {
	f, err := m.file("open", name, create, false)
	if err != nil {
		return nil, err
	}
	return &memHandle{f: f, write: write}, nil
}

func (m *MemFS) Create(name string) (File, error)    { return m.open(name, true, true) }
func (m *MemFS) Open(name string) (File, error)      { return m.open(name, false, false) }
func (m *MemFS) OpenWrite(name string) (File, error) { return m.open(name, false, true) }

func (m *MemFS) Truncate(name string, size int64) error {
	f, err := m.file("truncate", name, false, false)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.resize(size)
	return nil
}

func (m *MemFS) Remove(name string) error {
	_, err := m.file("remove", name, false, true)
	return err
}

func (m *MemFS) SyncDir(dir string) error {
	_, err := m.ReadDir(dir)
	return err
}

// resize sets the file's length, zero-extending it. Caller holds f.mu.
// Growing past the capacity at least doubles it, so a file written
// front to back is copied O(1) times per byte.
func (f *memFile) resize(size int64) {
	if size > int64(cap(f.data)) {
		grown := make([]byte, size, max(size, 2*int64(cap(f.data))))
		copy(grown, f.data)
		f.data = grown
		return
	}
	old := len(f.data)
	f.data = f.data[:size]
	if int(size) > old {
		clear(f.data[old:])
	}
}

var errReadOnly = errors.New("wal: file opened read-only")

// memHandle is an open MemFS file; pos is the offset of the next Read
// or Write.
type memHandle struct {
	f     *memFile
	pos   int64
	write bool
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.f.mu.RLock()
	defer h.f.mu.RUnlock()
	if h.pos >= int64(len(h.f.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[h.pos:])
	h.pos += int64(n)
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	n, err := h.WriteAt(p, h.pos)
	h.pos += int64(n)
	return n, err
}

func (h *memHandle) WriteAt(p []byte, off int64) (int, error) {
	if !h.write {
		return 0, errReadOnly
	}
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	if end := off + int64(len(p)); end > int64(len(h.f.data)) {
		h.f.resize(end)
	}
	return copy(h.f.data[off:], p), nil
}

func (h *memHandle) Close() error    { return nil }
func (h *memHandle) Sync() error     { return nil }
func (h *memHandle) Datasync() error { return nil }
