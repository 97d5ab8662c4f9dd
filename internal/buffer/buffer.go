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
// There is one cache type, Manager: a pool of independently latched
// shards (sharded.go). NewManager builds it with one shard. A third,
// optional subfeature targets multi-core hosts: ShardedBuffer only sets
// the stripe count (NewSharded), so concurrent accesses to different
// pages do not contend.
//
// Manager implements storage.Pager, so the index code is identical
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
// under the shard latch.
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
}

// DynamicAllocator allocates frames from the Go heap on demand.
type DynamicAllocator struct {
	pageSize int
}

// NewDynamicAllocator returns a heap-backed allocator.
func NewDynamicAllocator(pageSize int) *DynamicAllocator {
	return &DynamicAllocator{pageSize: pageSize}
}

// Name implements Allocator.
func (a *DynamicAllocator) Name() string { return "DynamicAlloc" }

// AllocFrame implements Allocator.
func (a *DynamicAllocator) AllocFrame() ([]byte, error) {
	return make([]byte, a.pageSize), nil
}

// FreeFrame implements Allocator.
func (a *DynamicAllocator) FreeFrame([]byte) {}

// StaticAllocator hands out frames from a fixed arena allocated once at
// construction, respecting an embedded RAM budget.
type StaticAllocator struct {
	free [][]byte
}

// NewStaticAllocator preallocates frames×pageSize bytes. It fails if
// that exceeds ramBudget (pass <= 0 for no budget).
func NewStaticAllocator(pageSize, frames, ramBudget int) (*StaticAllocator, error) {
	need := pageSize * frames
	if ramBudget > 0 && need > ramBudget {
		return nil, fmt.Errorf("buffer: arena of %d bytes exceeds RAM budget %d", need, ramBudget)
	}
	arena := make([]byte, need)
	a := &StaticAllocator{}
	for i := 0; i < frames; i++ {
		a.free = append(a.free, arena[i*pageSize:(i+1)*pageSize])
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

// --- Manager ---

// Stats exposes cache effectiveness counters.
type Stats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	WriteBacks int64
}

var errManagerClosed = errors.New("buffer: manager is closed")

// Manager is the buffer manager: a write-back cache of up to capacity
// pages over a base Pager, striped over power-of-two shards that each
// own a latch, a frame map, a replacement-policy instance and a slice
// of the capacity. It implements storage.Pager and is safe for
// concurrent use. Base reads and dirty write-backs happen outside the
// shard latch, so a slow fault blocks only accesses to the faulting
// page; hits on different shards never contend.
type Manager struct {
	base   storage.Seam
	shards []*shard
	// shift maps a page hash to its shard (see shardFor).
	shift  uint
	closed atomic.Bool
	// metrics mirrors the counters into the Statistics feature's
	// registry when composed; nil otherwise (recording is a no-op).
	metrics *stats.Registry
	// tracer records cache accesses as spans when the Tracing feature
	// is composed; nil otherwise.
	tracer *trace.Tracer
}

// NewManager creates a one-shard buffer manager with the given capacity
// (in pages), replacement policy and allocation strategy.
func NewManager(base storage.Pager, capacity int, policy Policy, alloc Allocator) (*Manager, error) {
	return NewSharded(base, capacity, 1,
		func() Policy { return policy },
		func(int) (Allocator, error) { return alloc, nil })
}

// ShardCount returns the number of stripes in use.
func (m *Manager) ShardCount() int { return len(m.shards) }

// SetMetrics attaches the Statistics feature's buffer metrics, labeled
// with the replacement policy and the shard count.
func (m *Manager) SetMetrics(r *stats.Registry) {
	m.metrics = r
	r.SetPolicy(m.PolicyName())
	r.Set(stats.BufferShards, int64(len(m.shards)))
}

// SetTracer attaches the Tracing feature's span recorder.
func (m *Manager) SetTracer(t *trace.Tracer) {
	m.tracer = t
	for _, s := range m.shards {
		s.tr = t
	}
}

// PageSize implements storage.Pager.
func (m *Manager) PageSize() int { return m.base.PageSize() }

// PolicyName returns the replacement feature in use.
func (m *Manager) PolicyName() string { return m.shards[0].policy.Name() }

// Stats returns a snapshot of the cache counters, summed over shards.
func (m *Manager) Stats() Stats {
	var st Stats
	for _, s := range m.shards {
		st.Hits += s.hits.Load()
		st.Misses += s.misses.Load()
		st.Evictions += s.evictions.Load()
		st.WriteBacks += s.writeBacks.Load()
	}
	return st
}

// Resident returns the number of cached pages.
func (m *Manager) Resident() int {
	total := 0
	for _, s := range m.shards {
		total += s.resident()
	}
	return total
}

// Alloc implements storage.Pager.
func (m *Manager) Alloc() (storage.PageID, error) {
	if m.closed.Load() {
		return 0, errManagerClosed
	}
	return m.base.Alloc()
}

// Free implements storage.Pager: the page leaves its shard and returns
// to the base free list.
func (m *Manager) Free(id storage.PageID) error {
	if m.closed.Load() {
		return errManagerClosed
	}
	m.shardFor(id).drop(id)
	return m.base.Free(id)
}

// ReadPage implements storage.Pager.
func (m *Manager) ReadPage(id storage.PageID, buf []byte) error { return m.ReadPageIn(nil, id, buf) }

// ReadPageIn implements storage.SpanPager.
func (m *Manager) ReadPageIn(parent *trace.Span, id storage.PageID, buf []byte) error {
	return m.access(parent, "read", id, buf, false)
}

// WritePage implements storage.Pager: write-allocate, write-back.
func (m *Manager) WritePage(id storage.PageID, buf []byte) error { return m.WritePageIn(nil, id, buf) }

// WritePageIn implements storage.SpanPager.
func (m *Manager) WritePageIn(parent *trace.Span, id storage.PageID, buf []byte) error {
	return m.access(parent, "write", id, buf, true)
}

// access runs one read or write-allocate on the page's shard under a
// span named op.
func (m *Manager) access(parent *trace.Span, op string, id storage.PageID, buf []byte, write bool) error {
	if m.closed.Load() {
		return errManagerClosed
	}
	sp := m.tracer.Start(parent, trace.LayerBuffer, op)
	sp.Page(uint32(id))
	err := m.shardFor(id).access(sp, m.base, m.metrics, id, buf, write)
	sp.Fail(err)
	sp.End()
	return err
}

// Sync implements storage.Pager: every shard in turn writes back the
// pages that were dirty when its pass began (flushFuzzy), and the base
// pager is synced. Traffic proceeds during the pass, so the written set
// is not a point-in-time image: a caller that needs one, a checkpoint,
// stops writers first (txn.Manager.Checkpoint runs under its quiesce
// and write lock).
func (m *Manager) Sync() error {
	if err := m.flush(); err != nil {
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
	if err := m.flush(); err != nil {
		return err
	}
	return m.base.Close()
}

// flush writes back every shard's dirty pages, one stripe at a time.
func (m *Manager) flush() error {
	for _, s := range m.shards {
		if err := s.flushFuzzy(m.base, m.metrics); err != nil {
			return err
		}
	}
	return nil
}
