package buffer

// The shard engine of the buffer pool. PageIDs hash into a power-of-two
// number of shards (one unless ShardedBuffer sets more); each shard
// owns a slice of the total capacity with its own latch, frame map and
// replacement-policy instance, so the policies stay single-threaded and
// the Policy interface is unchanged.
//
// Base-pager I/O never happens under a shard latch. The fault protocol
// (shard.access/shard.fault) is:
//
//	lock shard
//	  hit            -> touch policy, copy under the latch, done
//	  fault in flight-> wait on the frame's done channel, re-evaluate
//	  write-back     -> wait on the writeback entry, re-evaluate
//	miss:
//	  insert a placeholder frame (singleflight: later accesses wait on
//	  it instead of issuing a second base read)
//	  pick a victim if the shard is full; a dirty victim registers a
//	  writeback entry
//	unlock shard
//	  write back the victim / read the faulting page from the base
//	lock shard
//	  publish the frame (or undo on error), wake waiters
//	unlock shard
//
// The invariant loaded+inflight <= capacity bounds frames and
// placeholders together, so a static arena of exactly capacity frames
// never exhausts; when every slot is an unpublished placeholder the
// fault waits on the shard's condition variable until one publishes.

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"famedb/internal/stats"
	"famedb/internal/storage"
	"famedb/internal/trace"
)

// sframe is a shard-resident page frame. Between insertion and publish
// the frame is a singleflight placeholder: loaded is false, data is nil
// and done is open; accesses to the page wait on done instead of
// issuing a second base read.
type sframe struct {
	data   []byte
	dirty  bool
	loaded bool
	// done is closed when the fault publishes the frame or gives up.
	done chan struct{}
}

// shard is one stripe of the pool. All fields below the latch are
// protected by mu; the counters are atomics so Stats() needs no latch.
type shard struct {
	mu       sync.Mutex
	cond     *sync.Cond
	capacity int
	policy   Policy
	alloc    Allocator
	frames   map[storage.PageID]*sframe
	// writeback tracks pages whose evicted dirty image is still being
	// written to the base pager; a fault on such a page waits for the
	// entry to close, or it could read stale base content.
	writeback map[storage.PageID]chan struct{}
	loaded    int // published frames
	inflight  int // placeholders (faults between insert and publish)

	// tr records the shard's wait points as spans when the Tracing
	// feature is composed; nil otherwise (every call is a no-op).
	tr *trace.Tracer

	hits, misses, evictions, writeBacks atomic.Int64
}

func newShard(capacity int, policy Policy, alloc Allocator) *shard {
	s := &shard{
		capacity:  capacity,
		policy:    policy,
		alloc:     alloc,
		frames:    map[storage.PageID]*sframe{},
		writeback: map[storage.PageID]chan struct{}{},
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *shard) resident() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loaded
}

// access serves one read (write=false) or write-allocate (write=true).
// sp is the manager's span for this access: the parent of the shard's
// wait spans and of the base-pager I/O a fault issues.
func (s *shard) access(sp *trace.Span, base storage.Seam, m *stats.Registry, id storage.PageID, buf []byte, write bool) error {
	s.mu.Lock()
	for {
		if f, ok := s.frames[id]; ok {
			if f.loaded {
				s.hits.Add(1)
				m.Add(stats.BufferHits, 1)
				s.policy.Touched(id)
				if write {
					copy(f.data, buf)
					f.dirty = true
				} else {
					copy(buf, f.data)
				}
				s.mu.Unlock()
				return nil
			}
			// A fault on this page is in flight; wait for it to publish
			// or give up, then re-evaluate. If it failed, the frame is
			// gone from the map and this access runs its own fault.
			done := f.done
			s.mu.Unlock()
			wsp := s.tr.Start(sp, trace.LayerBuffer, "singleflight-wait")
			wsp.Page(uint32(id))
			<-done
			wsp.End()
			s.mu.Lock()
			continue
		}
		if ch, ok := s.writeback[id]; ok {
			s.mu.Unlock()
			wsp := s.tr.Start(sp, trace.LayerBuffer, "writeback-wait")
			wsp.Page(uint32(id))
			<-ch
			wsp.End()
			s.mu.Lock()
			continue
		}
		retry, err := s.fault(sp, base, m, id, buf, write)
		if retry {
			continue
		}
		return err
	}
}

// fault makes the page resident. Called with the latch held; releases
// it around the base-pager I/O and before returning — except on
// retry=true, where the latch is still held and the caller's access
// loop must re-evaluate the page's state (the fault found it changed
// while waiting for a free slot).
func (s *shard) fault(sp *trace.Span, base storage.Seam, m *stats.Registry, id storage.PageID, buf []byte, write bool) (retry bool, err error) {
	// Make room. Only published frames can be evicted (the policy knows
	// nothing else); when every slot is a placeholder, wait for one to
	// publish.
	var victimID storage.PageID
	var victim *sframe
	var victimCh chan struct{}
	for s.loaded+s.inflight >= s.capacity {
		if s.loaded == 0 {
			// Wait releases the latch, so the page may arrive — or be
			// evicted dirty — before it returns. Either way this fault
			// is void: inserting its placeholder would orphan the
			// published frame in the policy and the loaded count.
			s.cond.Wait()
			if _, ok := s.frames[id]; ok {
				return true, nil
			}
			if _, ok := s.writeback[id]; ok {
				return true, nil
			}
			continue
		}
		victimID = s.policy.Victim()
		if ch, ok := s.writeback[victimID]; ok {
			// A flush write of the victim is in flight. Wait it
			// out with the latch released and void this fault — the
			// shard changed meanwhile, so the access must re-evaluate.
			s.mu.Unlock()
			<-ch
			s.mu.Lock()
			return true, nil
		}
		victim = s.frames[victimID]
		s.policy.Removed(victimID)
		delete(s.frames, victimID)
		s.loaded--
		if victim.dirty {
			victimCh = make(chan struct{})
			s.writeback[victimID] = victimCh
		}
		break
	}

	// Point of no return: this access is a miss.
	s.misses.Add(1)
	m.Add(stats.BufferMisses, 1)

	f := &sframe{done: make(chan struct{})}
	s.frames[id] = f
	s.inflight++

	if victimCh != nil {
		// Dirty victim: write it back outside the latch — only accesses
		// to the victim page itself wait, on the writeback entry.
		s.mu.Unlock()
		werr := base.WriteIn(sp, victimID, victim.data)
		s.mu.Lock()
		delete(s.writeback, victimID)
		close(victimCh)
		if werr != nil {
			// The victim's frame is intact: put it back and abandon the
			// fault. A write access inherits the write-back failure —
			// but a read must not: degraded read-only mode promises
			// reads keep serving, and a reader that happens to draw a
			// dirty victim while the device rejects writes would
			// otherwise fail on someone else's write error. Read
			// through without caching instead; the victim stays
			// resident and dirty.
			s.frames[victimID] = victim
			s.policy.Admitted(victimID)
			s.loaded++
			s.abandonFault(id, f)
			if !write {
				return false, base.ReadIn(sp, id, buf)
			}
			return false, werr
		}
		s.evictions.Add(1)
		m.Add(stats.BufferEvictions, 1)
		s.writeBacks.Add(1)
		m.Add(stats.BufferWriteBacks, 1)
		s.alloc.FreeFrame(victim.data)
	} else if victim != nil {
		s.evictions.Add(1)
		m.Add(stats.BufferEvictions, 1)
		s.alloc.FreeFrame(victim.data)
	}

	// The victim's frame went back to the allocator before this request,
	// so a static arena of exactly capacity frames cannot exhaust.
	data, err := s.alloc.AllocFrame()
	if err != nil {
		s.abandonFault(id, f)
		return false, err
	}

	if write {
		// Write-allocate: the caller's image becomes the frame content;
		// no base read.
		copy(data, buf)
		s.publish(id, f, data, true)
		return false, nil
	}
	s.mu.Unlock()
	rerr := base.ReadIn(sp, id, data)
	if rerr == nil {
		// data is still private to this fault; copy without the latch.
		copy(buf, data)
	}
	s.mu.Lock()
	if rerr != nil {
		s.alloc.FreeFrame(data)
		s.abandonFault(id, f)
		return false, rerr
	}
	s.publish(id, f, data, false)
	return false, nil
}

// publish fills a placeholder frame and wakes waiters. Called with the
// latch held; releases it.
func (s *shard) publish(id storage.PageID, f *sframe, data []byte, dirty bool) {
	f.data = data
	f.dirty = dirty
	f.loaded = true
	s.inflight--
	s.loaded++
	s.policy.Admitted(id)
	close(f.done)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// abandonFault removes a failed fault's placeholder so waiters retry
// their own fault. Called with the latch held; releases it.
func (s *shard) abandonFault(id storage.PageID, f *sframe) {
	if s.frames[id] == f {
		delete(s.frames, id)
	}
	s.inflight--
	close(f.done)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// drop removes a page from the shard (Pager.Free), waiting out any
// in-flight fault or write-back of that page — including a flush
// write, whose base I/O must not land on a page the base has freed.
func (s *shard) drop(id storage.PageID) {
	s.mu.Lock()
	for {
		if ch, ok := s.writeback[id]; ok {
			s.mu.Unlock()
			<-ch
			s.mu.Lock()
			continue
		}
		if f, ok := s.frames[id]; ok {
			if !f.loaded {
				done := f.done
				s.mu.Unlock()
				<-done
				s.mu.Lock()
				continue
			}
			s.policy.Removed(id)
			delete(s.frames, id)
			s.loaded--
			s.alloc.FreeFrame(f.data)
			s.cond.Broadcast()
		}
		break
	}
	s.mu.Unlock()
}

// flushFuzzy writes back every page that was dirty when the pass began,
// releasing the latch around each base write. A writeback entry claims
// the page meanwhile, so concurrent evictions, faults, drops and
// flushes of that page stay in order. Traffic to the shard proceeds
// during the I/O: pages re-dirtied behind the scan stay dirty for the
// next pass. One scratch image serves the whole pass; the base pager
// does not keep the buffer it is handed.
func (s *shard) flushFuzzy(base storage.Seam, m *stats.Registry) error {
	var img []byte
	s.mu.Lock()
	ids := make([]storage.PageID, 0, len(s.frames))
	for id, f := range s.frames {
		if f.loaded && f.dirty {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		for {
			if ch, ok := s.writeback[id]; ok {
				s.mu.Unlock()
				<-ch
				s.mu.Lock()
				continue
			}
			f, ok := s.frames[id]
			if !ok || !f.loaded || !f.dirty {
				break // evicted or written back since the scan
			}
			img = append(img[:0], f.data...)
			f.dirty = false
			ch := make(chan struct{})
			s.writeback[id] = ch
			s.mu.Unlock()
			werr := base.WritePage(id, img)
			s.mu.Lock()
			delete(s.writeback, id)
			close(ch)
			if werr != nil {
				// Re-dirty the page if its frame is still resident, so
				// the data is not lost.
				if f, ok := s.frames[id]; ok && f.loaded {
					f.dirty = true
				}
				s.mu.Unlock()
				return werr
			}
			s.writeBacks.Add(1)
			m.Add(stats.BufferWriteBacks, 1)
			break
		}
	}
	// Eviction write-backs that raced the scan carry pages dirtied
	// before this pass; wait for the ones in flight right now so the
	// caller's base.Sync covers them.
	chans := make([]chan struct{}, 0, len(s.writeback))
	for _, ch := range s.writeback {
		chans = append(chans, ch)
	}
	s.mu.Unlock()
	for _, ch := range chans {
		<-ch
	}
	return nil
}

// --- Striping (the ShardedBuffer feature) ---

// DefaultShards is the shard count used when the product does not set
// one (the composer's CacheShards knob).
const DefaultShards = 8

// NewSharded is the ShardedBuffer feature: it stripes capacity pages
// over shards. The shard count is rounded up to a power of two and
// clamped so every shard owns at least one frame (capacity < shards
// yields fewer shards); shards < 1 selects DefaultShards. The capacity
// remainder goes to the low shards. Each shard gets its own policy and
// allocator from the factories, keeping both single-threaded per shard.
func NewSharded(base storage.Pager, capacity, shards int, newPolicy func() Policy, newAlloc func(frames int) (Allocator, error)) (*Manager, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("buffer: capacity %d < 1", capacity)
	}
	if newPolicy == nil || newAlloc == nil {
		return nil, errors.New("buffer: nil policy or allocator factory")
	}
	if shards < 1 {
		shards = DefaultShards
	}
	n := 1 << uint(bits.Len(uint(shards-1)))
	for n > capacity {
		n >>= 1
	}
	ss := make([]*shard, n)
	for i := range ss {
		c := capacity / n
		if i < capacity%n {
			c++
		}
		a, err := newAlloc(c)
		if err != nil {
			return nil, err
		}
		ss[i] = newShard(c, newPolicy(), a)
	}
	return &Manager{
		base:   storage.SeamOf(base),
		shards: ss,
		shift:  uint(64 - bits.TrailingZeros(uint(n))),
	}, nil
}

// shardFor maps a page to its shard with a Fibonacci multiplicative
// hash: consecutive PageIDs — the common allocation pattern — spread
// uniformly instead of clustering in one shard. With one shard the
// shift is 64 and every page maps to shard 0.
func (m *Manager) shardFor(id storage.PageID) *shard {
	h := uint64(id) * 0x9e3779b97f4a7c15
	return m.shards[h>>m.shift]
}
