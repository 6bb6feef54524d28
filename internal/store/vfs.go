package store

import (
	"io"
	"os"
	"path/filepath"
	"sync"
)

// File is the I/O surface the pager needs from a backing file. It is
// satisfied by *os.File (via osFile) for a store with a path and by
// memFile for an in-memory one; tests substitute deterministic files
// with crash injection to exercise the recovery path at every write and
// sync boundary.
type File interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Truncate(size int64) error
	Close() error
	Size() (int64, error)
}

// FS opens backing files by name, creating them when absent.
type FS interface {
	OpenFile(name string) (File, error)
}

// ArchiveFS extends FS with the directory operations WAL archiving
// needs: creating the archive directory, enumerating its segments, and
// pruning old ones. OSFS and the test filesystem (simfs) both implement
// it; enabling archiving on an FS without these operations is an open
// error, not a silent no-op.
type ArchiveFS interface {
	FS
	// MkdirAll ensures dir exists.
	MkdirAll(dir string) error
	// List returns the full paths of the files under dir, sorted.
	List(dir string) ([]string, error)
	// Remove deletes the named file.
	Remove(name string) error
}

// OSFS is the real filesystem.
type OSFS struct{}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// OpenFile opens or creates name read-write.
func (OSFS) OpenFile(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// MkdirAll ensures dir exists.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// List returns the full paths of the regular files under dir, sorted
// (os.ReadDir sorts by name).
func (OSFS) List(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		names = append(names, filepath.Join(dir, e.Name()))
	}
	return names, nil
}

// Remove deletes the named file.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// memFS holds the files of an in-memory store. It has no directory
// operations, so it cannot host a WAL archive.
type memFS map[string]*memFile

// OpenFile returns the named file, creating it empty when absent.
func (fs memFS) OpenFile(name string) (File, error) {
	f, ok := fs[name]
	if !ok {
		f = &memFile{}
		fs[name] = f
	}
	return f, nil
}

// memFile is a File held in a byte slice. Sync has nothing to flush, and
// Truncate keeps the slice's capacity for the log to grow back into.
type memFile struct {
	mu   sync.Mutex
	data []byte
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if end := int(off) + len(p); end > len(f.data) {
		f.data = append(f.data, make([]byte, end-len(f.data))...)
	}
	return copy(f.data[off:], p), nil
}

func (f *memFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if int(size) <= len(f.data) {
		f.data = f.data[:size]
	} else {
		f.data = append(f.data, make([]byte, int(size)-len(f.data))...)
	}
	return nil
}

func (f *memFile) Size() (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.data)), nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }
