// Package buffer is the BufferManager feature of FAME-DBMS (Fig. 2): a
// write-back page cache layered between index structures and the page
// file. Its two subfeatures are alternatives in the feature model and
// alternatives here:
//
//   - Replacement: LRU or LFU victim selection.
//   - MemoryAlloc: dynamic (heap-allocated frames, grows on demand) or
//     static (one preallocated arena sized at construction — the only
//     option on deeply embedded NutOS targets, which forbid dynamic
//     allocation).
//
// A third, optional subfeature targets multi-core hosts: ShardedBuffer
// (ShardedManager in sharded.go) stripes the cache over independently
// latched shards so concurrent accesses to different pages do not
// contend and flushing never stops the whole pool.
//
// Both managers implement storage.Pager, so the index code is identical
// whether a cache is configured or not (the feature is optional: a
// product without BufferManager uses the page file directly).
package buffer

import (
	"errors"
	"fmt"
	"sync/atomic"

	"famedb/internal/stats"
	"famedb/internal/storage"
	"famedb/internal/trace"
)

// Policy selects eviction victims. Implementations are not safe for
// concurrent use; each shard serializes access to its own instance
// under the shard latch (the single-latch Manager is one shard).
type Policy interface {
	// Name returns the feature name ("LRU" or "LFU").
	Name() string
	// Admitted records that the page became resident.
	Admitted(id storage.PageID)
	// Touched records an access to a resident page.
	Touched(id storage.PageID)
	// Removed records that the page left the cache.
	Removed(id storage.PageID)
	// Victim returns the page to evict. It panics if no page is
	// resident (the Manager never asks then).
	Victim() storage.PageID
}

// --- LRU ---

type lruNode struct {
	id         storage.PageID
	prev, next *lruNode
}

// LRU evicts the least recently used page.
type LRU struct {
	nodes map[storage.PageID]*lruNode
	// head is most recent, tail least recent.
	head, tail *lruNode
}

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU {
	return &LRU{nodes: map[storage.PageID]*lruNode{}}
}

// Name implements Policy.
func (l *LRU) Name() string { return "LRU" }

// Admitted implements Policy.
func (l *LRU) Admitted(id storage.PageID) {
	n := &lruNode{id: id}
	l.nodes[id] = n
	l.pushFront(n)
}

// Touched implements Policy.
func (l *LRU) Touched(id storage.PageID) {
	n := l.nodes[id]
	if n == nil {
		return
	}
	l.unlink(n)
	l.pushFront(n)
}

// Removed implements Policy.
func (l *LRU) Removed(id storage.PageID) {
	if n := l.nodes[id]; n != nil {
		l.unlink(n)
		delete(l.nodes, id)
	}
}

// Victim implements Policy.
func (l *LRU) Victim() storage.PageID {
	if l.tail == nil {
		panic("buffer: LRU victim requested from empty cache")
	}
	return l.tail.id
}

func (l *LRU) pushFront(n *lruNode) {
	n.prev, n.next = nil, l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

func (l *LRU) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// --- LFU ---

type lfuEntry struct {
	freq uint64
	seq  uint64 // admission order, breaks frequency ties (older first)
}

// LFU evicts the least frequently used page, breaking ties by age.
type LFU struct {
	entries map[storage.PageID]*lfuEntry
	clock   uint64
}

// NewLFU returns an empty LFU policy.
func NewLFU() *LFU {
	return &LFU{entries: map[storage.PageID]*lfuEntry{}}
}

// Name implements Policy.
func (l *LFU) Name() string { return "LFU" }

// Admitted implements Policy.
func (l *LFU) Admitted(id storage.PageID) {
	l.clock++
	l.entries[id] = &lfuEntry{freq: 1, seq: l.clock}
}

// Touched implements Policy.
func (l *LFU) Touched(id storage.PageID) {
	if e := l.entries[id]; e != nil {
		e.freq++
	}
}

// Removed implements Policy.
func (l *LFU) Removed(id storage.PageID) { delete(l.entries, id) }

// Victim implements Policy.
func (l *LFU) Victim() storage.PageID {
	if len(l.entries) == 0 {
		panic("buffer: LFU victim requested from empty cache")
	}
	var best storage.PageID
	var bestE *lfuEntry
	for id, e := range l.entries {
		if bestE == nil || e.freq < bestE.freq ||
			(e.freq == bestE.freq && e.seq < bestE.seq) {
			best, bestE = id, e
		}
	}
	return best
}

// --- Allocation strategies ---

// ErrArenaExhausted is returned by the static allocator when the arena
// has no free frame left.
var ErrArenaExhausted = errors.New("buffer: static arena exhausted")

// Allocator provides page frames. The static variant models embedded
// targets without dynamic memory.
type Allocator interface {
	// Name returns the feature name ("DynamicAlloc" or "StaticAlloc").
	Name() string
	// AllocFrame returns a zeroed page-size buffer.
	AllocFrame() ([]byte, error)
	// FreeFrame returns a buffer obtained from AllocFrame.
	FreeFrame([]byte)
	// FootprintRAM is the static RAM the allocator occupies, in bytes
	// (the arena for static allocation, 0 for dynamic).
	FootprintRAM() int
}

// DynamicAllocator allocates frames from the Go heap on demand.
type DynamicAllocator struct {
	pageSize int
	// Allocs counts total frame allocations, exposed for the
	// allocation-strategy ablation benchmark.
	Allocs int64
}

// NewDynamicAllocator returns a heap-backed allocator.
func NewDynamicAllocator(pageSize int) *DynamicAllocator {
	return &DynamicAllocator{pageSize: pageSize}
}

// Name implements Allocator.
func (a *DynamicAllocator) Name() string { return "DynamicAlloc" }

// AllocFrame implements Allocator.
func (a *DynamicAllocator) AllocFrame() ([]byte, error) {
	a.Allocs++
	return make([]byte, a.pageSize), nil
}

// FreeFrame implements Allocator.
func (a *DynamicAllocator) FreeFrame([]byte) {}

// FootprintRAM implements Allocator.
func (a *DynamicAllocator) FootprintRAM() int { return 0 }

// StaticAllocator hands out frames from a fixed arena allocated once at
// construction, respecting an embedded RAM budget.
type StaticAllocator struct {
	pageSize int
	free     [][]byte
	arena    []byte
}

// NewStaticAllocator preallocates frames×pageSize bytes. It fails if
// that exceeds ramBudget (pass <= 0 for no budget).
func NewStaticAllocator(pageSize, frames, ramBudget int) (*StaticAllocator, error) {
	need := pageSize * frames
	if ramBudget > 0 && need > ramBudget {
		return nil, fmt.Errorf("buffer: arena of %d bytes exceeds RAM budget %d", need, ramBudget)
	}
	a := &StaticAllocator{pageSize: pageSize, arena: make([]byte, need)}
	for i := 0; i < frames; i++ {
		a.free = append(a.free, a.arena[i*pageSize:(i+1)*pageSize])
	}
	return a, nil
}

// Name implements Allocator.
func (a *StaticAllocator) Name() string { return "StaticAlloc" }

// AllocFrame implements Allocator.
func (a *StaticAllocator) AllocFrame() ([]byte, error) {
	if len(a.free) == 0 {
		return nil, ErrArenaExhausted
	}
	f := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	for i := range f {
		f[i] = 0
	}
	return f, nil
}

// FreeFrame implements Allocator.
func (a *StaticAllocator) FreeFrame(f []byte) { a.free = append(a.free, f) }

// FootprintRAM implements Allocator.
func (a *StaticAllocator) FootprintRAM() int { return len(a.arena) }

// --- Manager ---

// Stats exposes cache effectiveness counters.
type Stats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	WriteBacks int64
}

// Manager is the single-latch buffer manager: a write-back cache of up
// to capacity pages over a base Pager. It implements Cache (and
// therefore storage.Pager) and is safe for concurrent use. Internally
// it is one shard of the lock-striped pool (see sharded.go), so base
// reads and dirty write-backs happen outside the latch: a slow fault
// blocks only accesses to the faulting page, not unrelated hits. The
// latch itself is still shared by all pages — the ShardedBuffer feature
// (ShardedManager) removes that bottleneck.
type Manager struct {
	base   storage.Seam
	sh     *shard
	closed atomic.Bool
	// metrics mirrors the counters into the Statistics feature's
	// registry when composed; nil otherwise (recording is a no-op).
	metrics *stats.Buffer
	// tracer records cache accesses as spans when the Tracing feature
	// is composed; nil otherwise.
	tracer *trace.Tracer
}

// SetMetrics implements Cache, labeling the metrics with the
// replacement policy in use.
func (m *Manager) SetMetrics(b *stats.Buffer) {
	m.metrics = b
	b.SetPolicy(m.sh.policy.Name())
	b.SetShards(1)
}

// SetTracer implements Cache.
func (m *Manager) SetTracer(t *trace.Tracer) {
	m.tracer = t
	m.sh.tr = t
}

// NewManager creates a buffer manager with the given capacity (in
// pages), replacement policy and allocation strategy.
func NewManager(base storage.Pager, capacity int, policy Policy, alloc Allocator) (*Manager, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("buffer: capacity %d < 1", capacity)
	}
	return &Manager{base: storage.SeamOf(base), sh: newShard(capacity, policy, alloc)}, nil
}

// PageSize implements storage.Pager.
func (m *Manager) PageSize() int { return m.base.PageSize() }

// Stats returns a snapshot of the cache counters.
func (m *Manager) Stats() Stats { return m.sh.snapshot() }

// PolicyName returns the replacement feature in use.
func (m *Manager) PolicyName() string { return m.sh.policy.Name() }

// Resident returns the number of cached pages.
func (m *Manager) Resident() int { return m.sh.resident() }

// Alloc implements storage.Pager.
func (m *Manager) Alloc() (storage.PageID, error) {
	if m.closed.Load() {
		return 0, errManagerClosed
	}
	return m.base.Alloc()
}

// Free implements storage.Pager: the page leaves the cache and returns
// to the base free list.
func (m *Manager) Free(id storage.PageID) error {
	if m.closed.Load() {
		return errManagerClosed
	}
	m.sh.drop(id)
	return m.base.Free(id)
}

// ReadPage implements storage.Pager.
func (m *Manager) ReadPage(id storage.PageID, buf []byte) error { return m.ReadPageIn(nil, id, buf) }

// ReadPageIn implements storage.SpanPager.
func (m *Manager) ReadPageIn(parent *trace.Span, id storage.PageID, buf []byte) error {
	if m.closed.Load() {
		return errManagerClosed
	}
	sp := m.tracer.Start(parent, trace.LayerBuffer, "read")
	sp.Page(uint32(id))
	err := m.sh.access(sp, m.base, m.metrics, id, buf, false)
	sp.Fail(err)
	sp.End()
	return err
}

// WritePage implements storage.Pager: write-allocate, write-back.
func (m *Manager) WritePage(id storage.PageID, buf []byte) error { return m.WritePageIn(nil, id, buf) }

// WritePageIn implements storage.SpanPager.
func (m *Manager) WritePageIn(parent *trace.Span, id storage.PageID, buf []byte) error {
	if m.closed.Load() {
		return errManagerClosed
	}
	sp := m.tracer.Start(parent, trace.LayerBuffer, "write")
	sp.Page(uint32(id))
	err := m.sh.access(sp, m.base, m.metrics, id, buf, true)
	sp.Fail(err)
	sp.End()
	return err
}

// FlushPage writes back one page if it is resident and dirty. Used by
// the transaction manager to honor write-ahead ordering.
func (m *Manager) FlushPage(id storage.PageID) error {
	if m.closed.Load() {
		return errManagerClosed
	}
	return m.sh.flushPage(m.base, m.metrics, id)
}

// Sync implements storage.Pager: all dirty pages are written back and
// the base pager is synced. The latch is held across the write-backs,
// so Sync on the single-latch manager stops the world — the price the
// ShardedBuffer feature exists to avoid.
func (m *Manager) Sync() error {
	if err := m.sh.flushSharp(m.base, m.metrics); err != nil {
		return err
	}
	return m.base.Sync()
}

// Close implements storage.Pager: flush, then close the base pager.
// Close is terminal even when the flush fails.
func (m *Manager) Close() error {
	if !m.closed.CompareAndSwap(false, true) {
		return errors.New("buffer: manager already closed")
	}
	if err := m.sh.flushSharp(m.base, m.metrics); err != nil {
		return err
	}
	return m.base.Close()
}
