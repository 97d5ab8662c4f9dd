package osal

import (
	"errors"
	"fmt"
	"sync"
)

// ErrInjected is the error returned by FaultFS-triggered failures.
var ErrInjected = errors.New("osal: injected fault")

// ErrTransient marks injected faults that heal on their own after a few
// operations (Schedule rules with Heal > 0, and partial writes). Every
// transient error also matches ErrInjected; callers with retry policies
// should retry on ErrTransient and treat a bare ErrInjected as terminal.
var ErrTransient = errors.New("osal: transient injected fault")

// injectedErr builds the error for one scheduled fault. Transient
// errors match both ErrTransient and ErrInjected under errors.Is.
func injectedErr(class OpClass, n int64, transient bool) error {
	if transient {
		return fmt.Errorf("osal: %s op %d: %w: %w", class, n, ErrTransient, ErrInjected)
	}
	return fmt.Errorf("osal: %s op %d: %w", class, n, ErrInjected)
}

// FaultFS wraps a filesystem and injects the failures its Schedule
// plans (SetSchedule), for exercising error paths and crash windows in
// the storage and transaction layers: device death, torn and partial
// writes, single-bit flips on read or at rest, and transient errors
// that heal. Without a schedule every operation passes through.
type FaultFS struct {
	inner FS

	mu      sync.Mutex
	tripped bool
	// trippedBy remembers the op class of the first fault since the
	// last arm/disarm (valid while tripped).
	trippedBy OpClass
	schedule  *Schedule
}

// NewFaultFS wraps fs with fault injection disarmed.
func NewFaultFS(fs FS) *FaultFS {
	return &FaultFS{inner: fs}
}

// Disarm stops injecting failures: any installed schedule is removed.
func (f *FaultFS) Disarm() { f.SetSchedule(nil) }

// SetSchedule installs (or, with nil, removes) a programmable fault
// plan. The schedule's per-class op counters start from their current
// values, so a fresh schedule should be installed fresh.
func (f *FaultFS) SetSchedule(s *Schedule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.schedule = s
	f.tripped = false
}

// Schedule returns the installed fault plan, or nil.
func (f *FaultFS) Schedule() *Schedule {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.schedule
}

// Tripped reports whether a fault has fired since the last arm/disarm.
func (f *FaultFS) Tripped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tripped
}

// TrippedClass reports which op class the first fault since the last
// arm/disarm fired on. ok is false if nothing has tripped.
func (f *FaultFS) TrippedClass() (class OpClass, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.trippedBy, f.tripped
}

// trip records the first faulting op class.
func (f *FaultFS) trip(class OpClass) {
	f.mu.Lock()
	if !f.tripped {
		f.tripped = true
		f.trippedBy = class
	}
	f.mu.Unlock()
}

// scheduleErr consumes one operation of class against the schedule and
// returns an error if a failing rule (FaultError, FaultDead) fires.
// Only failing rules apply to the metadata classes (sync, truncate,
// remove, rename); data faults (torn, partial, flips) are handled
// inline by faultFile.
func (f *FaultFS) scheduleErr(class OpClass) error {
	s := f.Schedule()
	if s == nil {
		return nil
	}
	r, n, hit := s.step(class)
	fail, transient := r.fails()
	if !hit || !fail {
		return nil
	}
	f.trip(class)
	s.record(Injection{OpIndex: n, Class: class, Kind: r.Kind})
	return injectedErr(class, n, transient)
}

// Open implements FS.
func (f *FaultFS) Open(name string) (File, error) {
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: file, fs: f, name: name}, nil
}

// Create implements FS.
func (f *FaultFS) Create(name string) (File, error) {
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: file, fs: f, name: name}, nil
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	if err := f.scheduleErr(OpRemove); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

// Rename implements FS.
func (f *FaultFS) Rename(oldName, newName string) error {
	if err := f.scheduleErr(OpRename); err != nil {
		return err
	}
	return f.inner.Rename(oldName, newName)
}

// List implements FS.
func (f *FaultFS) List() ([]string, error) { return f.inner.List() }

// Stats implements FS.
func (f *FaultFS) Stats() *Stats { return f.inner.Stats() }

type faultFile struct {
	f    File
	fs   *FaultFS
	name string
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	s := ff.fs.Schedule()
	if s == nil {
		return ff.f.ReadAt(p, off)
	}
	r, opIdx, hit := s.step(OpRead)
	if !hit {
		return ff.f.ReadAt(p, off)
	}
	if fail, transient := r.fails(); fail {
		ff.fs.trip(OpRead)
		s.record(Injection{OpIndex: opIdx, Class: OpRead, Kind: r.Kind, File: ff.name, Off: off, Len: len(p)})
		return 0, injectedErr(OpRead, opIdx, transient)
	}
	switch r.Kind {
	case FaultFlipRead:
		n, err := ff.f.ReadAt(p, off)
		if err != nil || n == 0 {
			return n, err
		}
		bo, bit := s.flipPos(opIdx, n)
		p[bo] ^= 1 << bit
		ff.fs.trip(OpRead)
		s.record(Injection{OpIndex: opIdx, Class: OpRead, Kind: r.Kind, File: ff.name, Off: off + int64(bo), Len: 1, Bit: bit})
		return n, nil
	default:
		// Write-path kinds make no sense on reads; pass through.
		return ff.f.ReadAt(p, off)
	}
}

func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	s := ff.fs.Schedule()
	if s == nil {
		return ff.f.WriteAt(p, off)
	}
	r, opIdx, hit := s.step(OpWrite)
	if !hit {
		return ff.f.WriteAt(p, off)
	}
	if fail, transient := r.fails(); fail {
		ff.fs.trip(OpWrite)
		s.record(Injection{OpIndex: opIdx, Class: OpWrite, Kind: r.Kind, File: ff.name, Off: off, Len: len(p)})
		return 0, injectedErr(OpWrite, opIdx, transient)
	}
	switch r.Kind {
	case FaultTorn:
		// Persist a prefix, report complete success: silent corruption.
		k := s.tornPrefix(opIdx, len(p))
		if k > 0 {
			if _, err := ff.f.WriteAt(p[:k], off); err != nil {
				return 0, err
			}
		}
		ff.fs.trip(OpWrite)
		s.record(Injection{OpIndex: opIdx, Class: OpWrite, Kind: r.Kind, File: ff.name, Off: off, Len: k})
		return len(p), nil
	case FaultPartial:
		// Persist a prefix, report the short count with a transient
		// error, like an interrupted write syscall.
		k := s.tornPrefix(opIdx, len(p))
		if k > 0 {
			if _, err := ff.f.WriteAt(p[:k], off); err != nil {
				return 0, err
			}
		}
		ff.fs.trip(OpWrite)
		s.record(Injection{OpIndex: opIdx, Class: OpWrite, Kind: r.Kind, File: ff.name, Off: off, Len: k})
		return k, injectedErr(OpWrite, opIdx, true)
	case FaultFlipAtRest:
		// The write succeeds, then one stored bit rots.
		n, err := ff.f.WriteAt(p, off)
		if err != nil {
			return n, err
		}
		bo, bit := s.flipPos(opIdx, len(p))
		var b [1]byte
		if _, err := ff.f.ReadAt(b[:], off+int64(bo)); err != nil {
			return n, nil
		}
		b[0] ^= 1 << bit
		if _, err := ff.f.WriteAt(b[:], off+int64(bo)); err != nil {
			return n, nil
		}
		ff.fs.trip(OpWrite)
		s.record(Injection{OpIndex: opIdx, Class: OpWrite, Kind: r.Kind, File: ff.name, Off: off + int64(bo), Len: 1, Bit: bit})
		return n, nil
	default:
		return ff.f.WriteAt(p, off)
	}
}

func (ff *faultFile) Size() (int64, error) { return ff.f.Size() }

func (ff *faultFile) Truncate(size int64) error {
	if err := ff.fs.scheduleErr(OpTruncate); err != nil {
		return err
	}
	return ff.f.Truncate(size)
}

func (ff *faultFile) Sync() error {
	if err := ff.fs.scheduleErr(OpSync); err != nil {
		return err
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error { return ff.f.Close() }

// CrashFS wraps a filesystem and models power loss: writes reach the
// live file immediately, but only the content present at the last Sync
// of a file survives Crash(). This is the tool for testing the
// durability window of deferred commit protocols — records appended
// but never synced must vanish at the crash, exactly as they would on
// real hardware. Metadata operations (Remove, Rename) are modeled as
// immediately durable.
type CrashFS struct {
	inner FS

	mu      sync.Mutex
	durable map[string][]byte // per-file image as of its last Sync
	seen    map[string]bool   // every file opened or created through us
}

// NewCrashFS wraps fs with power-loss simulation.
func NewCrashFS(fs FS) *CrashFS {
	return &CrashFS{inner: fs, durable: map[string][]byte{}, seen: map[string]bool{}}
}

// Crash reverts every file to its last synced image (files never synced
// become empty). The filesystem keeps working afterwards, so a test can
// reopen its structures "after the power returns".
func (c *CrashFS) Crash() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for name := range c.seen {
		f, err := c.inner.Open(name)
		if errors.Is(err, ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		img := c.durable[name]
		if err := f.Truncate(int64(len(img))); err != nil {
			f.Close()
			return err
		}
		if len(img) > 0 {
			if _, err := f.WriteAt(img, 0); err != nil {
				f.Close()
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func (c *CrashFS) track(name string) {
	c.mu.Lock()
	c.seen[name] = true
	c.mu.Unlock()
}

// snapshot records a file's content as durable (called under no locks
// but serialized by the caller's Sync).
func (c *CrashFS) snapshot(name string, f File) error {
	size, err := f.Size()
	if err != nil {
		return err
	}
	img := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(img, 0); err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.durable[name] = img
	c.mu.Unlock()
	return nil
}

// Open implements FS.
func (c *CrashFS) Open(name string) (File, error) {
	f, err := c.inner.Open(name)
	if err != nil {
		return nil, err
	}
	c.track(name)
	return &crashFile{f: f, fs: c, name: name}, nil
}

// Create implements FS.
func (c *CrashFS) Create(name string) (File, error) {
	f, err := c.inner.Create(name)
	if err != nil {
		return nil, err
	}
	c.track(name)
	return &crashFile{f: f, fs: c, name: name}, nil
}

// Remove implements FS.
func (c *CrashFS) Remove(name string) error {
	c.mu.Lock()
	delete(c.durable, name)
	delete(c.seen, name)
	c.mu.Unlock()
	return c.inner.Remove(name)
}

// Rename implements FS.
func (c *CrashFS) Rename(oldName, newName string) error {
	if err := c.inner.Rename(oldName, newName); err != nil {
		return err
	}
	c.mu.Lock()
	if img, ok := c.durable[oldName]; ok {
		c.durable[newName] = img
		delete(c.durable, oldName)
	}
	if c.seen[oldName] {
		c.seen[newName] = true
		delete(c.seen, oldName)
	}
	c.mu.Unlock()
	return nil
}

// List implements FS.
func (c *CrashFS) List() ([]string, error) { return c.inner.List() }

// Stats implements FS.
func (c *CrashFS) Stats() *Stats { return c.inner.Stats() }

type crashFile struct {
	f    File
	fs   *CrashFS
	name string
}

func (cf *crashFile) ReadAt(p []byte, off int64) (int, error)  { return cf.f.ReadAt(p, off) }
func (cf *crashFile) WriteAt(p []byte, off int64) (int, error) { return cf.f.WriteAt(p, off) }
func (cf *crashFile) Size() (int64, error)                     { return cf.f.Size() }
func (cf *crashFile) Truncate(size int64) error                { return cf.f.Truncate(size) }

func (cf *crashFile) Sync() error {
	if err := cf.f.Sync(); err != nil {
		return err
	}
	return cf.fs.snapshot(cf.name, cf.f)
}

func (cf *crashFile) Close() error { return cf.f.Close() }
