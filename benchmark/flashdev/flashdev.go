// Package flashdev is the benchmark's storage device: an osal.FS over
// osal.MemFS with a NAND-like cost model, per-file-class accounting and
// a power-cut switch. Every workload runs on it, so the numbers are the
// model's and the host's disk never enters.
//
// Cost model: Sync takes SyncCost (the erase/program barrier a flash
// translation layer pays on flush), a ReadAt on the page file takes
// ReadCost (a page read holds the caller), WriteAt is free (it lands in
// the device's write buffer). A Sync blocks in the kernel and leaves the
// core to other goroutines, as a device working in the background
// does; a read spins, like a polled read.
//
// Power cut: each file keeps an undo log of the bytes overwritten since
// its last Sync. PowerCut rolls every file back to its last synced
// image, so exactly the unflushed bytes are lost. Sync empties the log,
// which bounds its memory by the bytes written between two syncs.
package flashdev

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"famedb/internal/osal"
)

// The device model, stated in BENCHMARK.json's workload notes and in
// every report's env block.
const (
	SyncCost = 250 * time.Microsecond
	ReadCost = 20 * time.Microsecond
	Model    = "flashdev(sync=250us nanosleep, page read=20us spin, write=buffered)"
)

// Class is the kind of file an operation touched.
type Class int

const (
	Page Class = iota // the page file (fame.db)
	WAL               // the write-ahead log (fame.wal and its markers)
	Ckpt              // checkpoint images and the layout file
	nClass
)

func (c Class) String() string { return [...]string{"page", "wal", "ckpt"}[c] }

// Classes lists the file classes in counter order.
func Classes() []Class { return []Class{Page, WAL, Ckpt} }

func classOf(name string) Class {
	switch {
	case strings.HasPrefix(name, "fame.db"):
		return Page
	case strings.HasPrefix(name, "fame.wal"):
		return WAL
	default:
		return Ckpt
	}
}

// Counters is the accounting for one file class. Busy times are the
// wall time spent inside the device call, cost model included.
type Counters struct {
	Reads, Writes, Syncs    int64
	BytesRead, BytesWritten int64
	ReadNs, WriteNs, SyncNs int64
}

// Sub returns c - prev, field by field.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		Reads: c.Reads - prev.Reads, Writes: c.Writes - prev.Writes, Syncs: c.Syncs - prev.Syncs,
		BytesRead: c.BytesRead - prev.BytesRead, BytesWritten: c.BytesWritten - prev.BytesWritten,
		ReadNs: c.ReadNs - prev.ReadNs, WriteNs: c.WriteNs - prev.WriteNs, SyncNs: c.SyncNs - prev.SyncNs,
	}
}

// Add returns c + o, field by field.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		Reads: c.Reads + o.Reads, Writes: c.Writes + o.Writes, Syncs: c.Syncs + o.Syncs,
		BytesRead: c.BytesRead + o.BytesRead, BytesWritten: c.BytesWritten + o.BytesWritten,
		ReadNs: c.ReadNs + o.ReadNs, WriteNs: c.WriteNs + o.WriteNs, SyncNs: c.SyncNs + o.SyncNs,
	}
}

// BusyNs is the total time spent inside device calls.
func (c Counters) BusyNs() int64 { return c.ReadNs + c.WriteNs + c.SyncNs }

// Stats is one Counters per file class, indexed by Class.
type Stats [nClass]Counters

// Sub returns s - prev.
func (s Stats) Sub(prev Stats) Stats {
	var d Stats
	for i := range s {
		d[i] = s[i].Sub(prev[i])
	}
	return d
}

// Total sums the classes.
func (s Stats) Total() Counters {
	var t Counters
	for _, c := range s {
		t = t.Add(c)
	}
	return t
}

type atomicCounters struct {
	reads, writes, syncs    atomic.Int64
	bytesRead, bytesWritten atomic.Int64
	readNs, writeNs, syncNs atomic.Int64
}

// SpanSink receives one completed device operation: op is "read",
// "write" or "sync". The traced run uses it to hang osal child spans
// under the request in flight; nil (the default) records nothing.
type SpanSink func(op string, class Class, start time.Time, d time.Duration)

// FS is the device. It is safe for concurrent use.
type FS struct {
	inner *osal.MemFS
	ctr   [nClass]atomicCounters
	sink  atomic.Pointer[SpanSink]
	// undoReads and undoBytesRead count the reads the undo log itself
	// makes on the inner MemFS, so tests can reconcile its totals with
	// the per-class counters.
	undoReads, undoBytesRead atomic.Int64

	mu    sync.Mutex
	files map[string]*fileState
}

// fileState is the per-name undo log. It follows the name, not the
// handle: a reopened file keeps its unsynced history.
type fileState struct {
	mu sync.Mutex
	// dirty reports writes or truncates since the last Sync.
	dirty bool
	// syncedSize is the file's size at its last Sync (0 for a file
	// created since).
	syncedSize int64
	// intact is how much of the synced image the file still holds in
	// place: syncedSize, lowered by every truncate below it. Bytes past
	// it are either already in the undo log or newer than the last Sync.
	intact int64
	// undo holds the synced bytes replaced or cut off since the last
	// Sync, oldest first.
	undo []undoRec
}

type undoRec struct {
	off int64
	old []byte
}

// New returns an empty device.
func New() *FS {
	return &FS{inner: osal.NewMemFS(), files: map[string]*fileState{}}
}

// SetSpanSink installs or (with nil) removes the span sink.
func (fs *FS) SetSpanSink(s SpanSink) {
	if s == nil {
		fs.sink.Store(nil)
		return
	}
	fs.sink.Store(&s)
}

func (fs *FS) emit(op string, c Class, start time.Time, d time.Duration) {
	if s := fs.sink.Load(); s != nil {
		(*s)(op, c, start, d)
	}
}

func (fs *FS) state(name string) *fileState {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st, ok := fs.files[name]
	if !ok {
		st = &fileState{}
		fs.files[name] = st
	}
	return st
}

// Open implements osal.FS.
func (fs *FS) Open(name string) (osal.File, error) {
	f, err := fs.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: fs, f: f, st: fs.state(name), class: classOf(name)}, nil
}

// Create implements osal.FS.
func (fs *FS) Create(name string) (osal.File, error) {
	f, err := fs.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: fs, f: f, st: fs.state(name), class: classOf(name)}, nil
}

// Remove implements osal.FS. Directory operations are modelled as
// immediately durable: the engine only uses them for checkpoint
// rotation, after syncing the file they move.
func (fs *FS) Remove(name string) error {
	fs.mu.Lock()
	delete(fs.files, name)
	fs.mu.Unlock()
	return fs.inner.Remove(name)
}

// Rename implements osal.FS; see Remove for the durability model.
func (fs *FS) Rename(oldName, newName string) error {
	if err := fs.inner.Rename(oldName, newName); err != nil {
		return err
	}
	fs.mu.Lock()
	if st, ok := fs.files[oldName]; ok {
		fs.files[newName] = st
		delete(fs.files, oldName)
	}
	fs.mu.Unlock()
	return nil
}

// List implements osal.FS.
func (fs *FS) List() ([]string, error) { return fs.inner.List() }

// Stats implements osal.FS: the inner MemFS's untyped totals.
func (fs *FS) Stats() *osal.Stats { return fs.inner.Stats() }

// Snapshot returns the per-class counters.
func (fs *FS) Snapshot() Stats {
	var s Stats
	for i := range fs.ctr {
		c := &fs.ctr[i]
		s[i] = Counters{
			Reads: c.reads.Load(), Writes: c.writes.Load(), Syncs: c.syncs.Load(),
			BytesRead: c.bytesRead.Load(), BytesWritten: c.bytesWritten.Load(),
			ReadNs: c.readNs.Load(), WriteNs: c.writeNs.Load(), SyncNs: c.syncNs.Load(),
		}
	}
	return s
}

// SizeBytes is the space all files hold on the device.
func (fs *FS) SizeBytes() (int64, error) {
	names, err := fs.inner.List()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, n := range names {
		f, err := fs.inner.Open(n)
		if err != nil {
			return 0, err
		}
		size, err := f.Size()
		f.Close()
		if err != nil {
			return 0, err
		}
		total += size
	}
	return total, nil
}

// UndoReads reports the inner reads (and their bytes) made to fill the
// undo log; they are the device's own work and belong to no class.
func (fs *FS) UndoReads() (reads, bytes int64) {
	return fs.undoReads.Load(), fs.undoBytesRead.Load()
}

// UndoBytes is the memory the undo logs hold right now.
func (fs *FS) UndoBytes() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var n int64
	for _, st := range fs.files {
		st.mu.Lock()
		for _, u := range st.undo {
			n += int64(len(u.old))
		}
		st.mu.Unlock()
	}
	return n
}

// PowerCut discards every byte not covered by a Sync: each file goes
// back to the image of its last Sync. Handles opened before the cut
// must not be used afterwards; recompose over the device instead.
func (fs *FS) PowerCut() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for name, st := range fs.files {
		st.mu.Lock()
		err := fs.rollback(name, st)
		st.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

func (fs *FS) rollback(name string, st *fileState) error {
	if !st.dirty {
		return nil
	}
	f, err := fs.inner.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	// Set the synced length (cutting an unsynced tail, or growing back
	// over a truncate), then restore replaced bytes newest first so the
	// oldest image of each byte wins.
	if err := f.Truncate(st.syncedSize); err != nil {
		return err
	}
	for i := len(st.undo) - 1; i >= 0; i-- {
		u := st.undo[i]
		if _, err := f.WriteAt(u.old, u.off); err != nil {
			return err
		}
	}
	st.undo, st.dirty, st.intact = nil, false, st.syncedSize
	return nil
}

type file struct {
	fs    *FS
	f     osal.File
	st    *fileState
	class Class
}

func (f *file) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.f.ReadAt(p, off)
	if f.class == Page {
		for time.Since(start) < ReadCost {
		}
	}
	d := time.Since(start)
	c := &f.fs.ctr[f.class]
	if n > 0 {
		// MemFS counts a read only when it returns bytes; match it.
		c.reads.Add(1)
		c.bytesRead.Add(int64(n))
	}
	c.readNs.Add(int64(d))
	f.fs.emit("read", f.class, start, d)
	return n, err
}

// saveUndo records the synced bytes that [off, off+n) is about to
// replace. Caller holds st.mu.
func (f *file) saveUndo(off, n int64) error {
	end := off + n
	if end > f.st.intact {
		end = f.st.intact
	}
	if off >= end {
		return nil
	}
	old := make([]byte, end-off)
	if _, err := f.f.ReadAt(old, off); err != nil {
		return err
	}
	f.fs.undoReads.Add(1)
	f.fs.undoBytesRead.Add(int64(len(old)))
	f.st.undo = append(f.st.undo, undoRec{off: off, old: old})
	return nil
}

func (f *file) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	f.st.mu.Lock()
	if err := f.saveUndo(off, int64(len(p))); err != nil {
		f.st.mu.Unlock()
		return 0, err
	}
	f.st.dirty = true
	n, err := f.f.WriteAt(p, off)
	f.st.mu.Unlock()
	d := time.Since(start)
	c := &f.fs.ctr[f.class]
	c.writes.Add(1)
	c.bytesWritten.Add(int64(n))
	c.writeNs.Add(int64(d))
	f.fs.emit("write", f.class, start, d)
	return n, err
}

func (f *file) Size() (int64, error) { return f.f.Size() }

func (f *file) Truncate(size int64) error {
	f.st.mu.Lock()
	defer f.st.mu.Unlock()
	cur, err := f.f.Size()
	if err != nil {
		return err
	}
	if size < cur {
		if err := f.saveUndo(size, cur-size); err != nil {
			return err
		}
		if size < f.st.intact {
			f.st.intact = size
		}
	}
	f.st.dirty = true
	return f.f.Truncate(size)
}

func (f *file) Sync() error {
	start := time.Now()
	wait(SyncCost)
	f.st.mu.Lock()
	err := f.f.Sync()
	if err == nil {
		size, serr := f.f.Size()
		if serr != nil {
			err = serr
		} else {
			f.st.syncedSize, f.st.intact, f.st.undo, f.st.dirty = size, size, nil, false
		}
	}
	f.st.mu.Unlock()
	d := time.Since(start)
	c := &f.fs.ctr[f.class]
	c.syncs.Add(1)
	c.syncNs.Add(int64(d))
	f.fs.emit("sync", f.class, start, d)
	return err
}

func (f *file) Close() error { return f.f.Close() }
