// Package osal is the OS-Abstraction feature of the FAME-DBMS product
// line (Fig. 2): a minimal filesystem and storage-device interface with
// one implementation per platform target.
//
// The paper's targets are Linux, Win32 and NutOS (a deeply embedded
// operating system). We cannot run on the original hardware, so the
// targets are simulated: each Platform fixes the parameters that drive
// feature selection and non-functional properties — page size, RAM
// budget for caches, and the relative cost of durable writes. The Linux
// target can also be backed by a real directory for persistence tests.
package osal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Platform describes a simulated hardware/OS target of the product line.
type Platform struct {
	// Name is the feature name in the FAME-DBMS model: "Linux", "Win32"
	// or "NutOS".
	Name string
	// PageSize is the natural storage page size in bytes.
	PageSize int
	// RAMBudget is the memory available for data-management buffers in
	// bytes; the static allocator refuses to exceed it.
	RAMBudget int
	// SyncCost is a dimensionless relative cost of a durable sync,
	// used by the NFP estimator (flash on a sensor node is far slower
	// than a desktop disk cache).
	SyncCost int
}

// The three platform targets of Figure 2.
var (
	Linux = Platform{Name: "Linux", PageSize: 4096, RAMBudget: 16 << 20, SyncCost: 1}
	Win32 = Platform{Name: "Win32", PageSize: 4096, RAMBudget: 8 << 20, SyncCost: 2}
	NutOS = Platform{Name: "NutOS", PageSize: 512, RAMBudget: 32 << 10, SyncCost: 20}
)

// PlatformByName returns the platform for a feature name.
func PlatformByName(name string) (Platform, error) {
	switch name {
	case "Linux":
		return Linux, nil
	case "Win32":
		return Win32, nil
	case "NutOS":
		return NutOS, nil
	default:
		return Platform{}, fmt.Errorf("osal: unknown platform %q", name)
	}
}

// ErrNotExist is returned when opening a file that does not exist.
var ErrNotExist = errors.New("osal: file does not exist")

// File is a random-access storage file.
type File interface {
	io.ReaderAt
	io.WriterAt
	// Size returns the current file size in bytes.
	Size() (int64, error)
	// Truncate sets the file size.
	Truncate(size int64) error
	// Sync makes previous writes durable.
	Sync() error
	// Close releases the file. Writes after Close are errors.
	Close() error
}

// FS is the filesystem surface the DBMS uses.
type FS interface {
	// Open opens an existing file; ErrNotExist if missing.
	Open(name string) (File, error)
	// Create opens a file, creating it empty if missing (existing
	// content is preserved — the caller decides whether to truncate).
	Create(name string) (File, error)
	// Remove deletes a file. Removing a missing file is an error.
	Remove(name string) error
	// Rename atomically renames a file.
	Rename(oldName, newName string) error
	// List returns the names of all files, sorted.
	List() ([]string, error)
	// Stats returns cumulative I/O statistics.
	Stats() *Stats
}

// CopyFile copies srcName on src over dstName on dst, in 64 KiB
// chunks, and syncs the copy. The destination is truncated first, so a
// shorter source leaves none of the old content behind. src and dst
// may be the same filesystem.
func CopyFile(src FS, srcName string, dst FS, dstName string) error {
	in, err := src.Open(srcName)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := dst.Create(dstName)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := out.Truncate(0); err != nil {
		return err
	}
	size, err := in.Size()
	if err != nil {
		return err
	}
	buf := make([]byte, 64<<10)
	for off := int64(0); off < size; {
		n := len(buf)
		if rem := size - off; rem < int64(n) {
			n = int(rem)
		}
		if _, err := in.ReadAt(buf[:n], off); err != nil {
			return err
		}
		if _, err := out.WriteAt(buf[:n], off); err != nil {
			return err
		}
		off += int64(n)
	}
	return out.Sync()
}

// Stats counts I/O operations, for tests and the NFP measurement
// harness. Counters are not reset by Close.
type Stats struct {
	mu           sync.Mutex
	Reads        int64
	Writes       int64
	Syncs        int64
	BytesRead    int64
	BytesWritten int64
}

func (s *Stats) addRead(n int) {
	s.mu.Lock()
	s.Reads++
	s.BytesRead += int64(n)
	s.mu.Unlock()
}

func (s *Stats) addWrite(n int) {
	s.mu.Lock()
	s.Writes++
	s.BytesWritten += int64(n)
	s.mu.Unlock()
}

func (s *Stats) addSync() {
	s.mu.Lock()
	s.Syncs++
	s.mu.Unlock()
}

// Snapshot returns a copy of the counters, safe to compare.
func (s *Stats) Snapshot() (reads, writes, syncs, bytesRead, bytesWritten int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Reads, s.Writes, s.Syncs, s.BytesRead, s.BytesWritten
}

// MemFS is an in-memory filesystem: the default backing store for the
// simulated platforms and all tests. It is safe for concurrent use.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memData
	stats Stats
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: map[string]*memData{}}
}

type memData struct {
	mu   sync.Mutex
	data []byte
}

// memFile is a handle onto a memData.
type memFile struct {
	fs     *MemFS
	d      *memData
	closed bool
}

// Open implements FS.
func (fs *MemFS) Open(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("osal: open %q: %w", name, ErrNotExist)
	}
	return &memFile{fs: fs, d: d}, nil
}

// Create implements FS.
func (fs *MemFS) Create(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, ok := fs.files[name]
	if !ok {
		d = &memData{}
		fs.files[name] = d
	}
	return &memFile{fs: fs, d: d}, nil
}

// Remove implements FS.
func (fs *MemFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("osal: remove %q: %w", name, ErrNotExist)
	}
	delete(fs.files, name)
	return nil
}

// Rename implements FS.
func (fs *MemFS) Rename(oldName, newName string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, ok := fs.files[oldName]
	if !ok {
		return fmt.Errorf("osal: rename %q: %w", oldName, ErrNotExist)
	}
	delete(fs.files, oldName)
	fs.files[newName] = d
	return nil
}

// List implements FS.
func (fs *MemFS) List() ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Stats implements FS.
func (fs *MemFS) Stats() *Stats { return &fs.stats }

var errClosed = errors.New("osal: file is closed")

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, errClosed
	}
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("osal: negative offset %d", off)
	}
	if off >= int64(len(f.d.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.d.data[off:])
	f.fs.stats.addRead(n)
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, errClosed
	}
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("osal: negative offset %d", off)
	}
	if need := off + int64(len(p)); need > int64(len(f.d.data)) {
		if need <= int64(cap(f.d.data)) {
			f.d.data = f.d.data[:need]
		} else {
			// Amortized growth: doubling keeps append-heavy writers
			// (the WAL) linear.
			newCap := int64(cap(f.d.data)) * 2
			if newCap < need {
				newCap = need
			}
			grown := make([]byte, need, newCap)
			copy(grown, f.d.data)
			f.d.data = grown
		}
	}
	copy(f.d.data[off:], p)
	f.fs.stats.addWrite(len(p))
	return len(p), nil
}

func (f *memFile) Size() (int64, error) {
	if f.closed {
		return 0, errClosed
	}
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	return int64(len(f.d.data)), nil
}

func (f *memFile) Truncate(size int64) error {
	if f.closed {
		return errClosed
	}
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	switch {
	case size < 0:
		return fmt.Errorf("osal: negative truncate size %d", size)
	case size <= int64(len(f.d.data)):
		f.d.data = f.d.data[:size]
	default:
		grown := make([]byte, size)
		copy(grown, f.d.data)
		f.d.data = grown
	}
	return nil
}

func (f *memFile) Sync() error {
	if f.closed {
		return errClosed
	}
	f.fs.stats.addSync()
	return nil
}

func (f *memFile) Close() error {
	if f.closed {
		return errClosed
	}
	f.closed = true
	return nil
}

// DirFS is a directory-backed filesystem for the Linux target, used by
// persistence and recovery tests and the example applications.
type DirFS struct {
	dir   string
	stats Stats
}

// NewDirFS returns a filesystem rooted at dir, creating it if needed.
func NewDirFS(dir string) (*DirFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("osal: %w", err)
	}
	return &DirFS{dir: dir}, nil
}

func (fs *DirFS) path(name string) string { return filepath.Join(fs.dir, name) }

// Open implements FS.
func (fs *DirFS) Open(name string) (File, error) {
	f, err := os.OpenFile(fs.path(name), os.O_RDWR, 0o644)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("osal: open %q: %w", name, ErrNotExist)
		}
		return nil, fmt.Errorf("osal: %w", err)
	}
	return &osFile{f: f, stats: &fs.stats}, nil
}

// Create implements FS.
func (fs *DirFS) Create(name string) (File, error) {
	f, err := os.OpenFile(fs.path(name), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("osal: %w", err)
	}
	return &osFile{f: f, stats: &fs.stats}, nil
}

// Remove implements FS.
func (fs *DirFS) Remove(name string) error {
	if err := os.Remove(fs.path(name)); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("osal: remove %q: %w", name, ErrNotExist)
		}
		return fmt.Errorf("osal: %w", err)
	}
	return nil
}

// Rename implements FS.
func (fs *DirFS) Rename(oldName, newName string) error {
	if err := os.Rename(fs.path(oldName), fs.path(newName)); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("osal: rename %q: %w", oldName, ErrNotExist)
		}
		return fmt.Errorf("osal: %w", err)
	}
	return nil
}

// List implements FS.
func (fs *DirFS) List() ([]string, error) {
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		return nil, fmt.Errorf("osal: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Stats implements FS.
func (fs *DirFS) Stats() *Stats { return &fs.stats }

type osFile struct {
	f     *os.File
	stats *Stats
}

func (f *osFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.f.ReadAt(p, off)
	f.stats.addRead(n)
	return n, err
}

func (f *osFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.f.WriteAt(p, off)
	f.stats.addWrite(n)
	return n, err
}

func (f *osFile) Size() (int64, error) {
	info, err := f.f.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

func (f *osFile) Truncate(size int64) error { return f.f.Truncate(size) }

func (f *osFile) Sync() error {
	f.stats.addSync()
	return f.f.Sync()
}

func (f *osFile) Close() error { return f.f.Close() }
