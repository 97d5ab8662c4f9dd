package buffer

// Concurrency tests for the pool with one shard (subtests "Manager")
// and striped by ShardedBuffer (subtests "ShardedManager"). Run with
// -race: the CI pipeline executes `go test -race ./internal/buffer/...`.

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"famedb/internal/storage"
)

// gatePager blocks base reads of one page until released — the "slow
// base pager" from the satellite regression: a miss stuck in base I/O
// must not stop unrelated pages from hitting.
type gatePager struct {
	storage.Pager
	slow    storage.PageID
	entered chan struct{} // closed when the slow read has started
	release chan struct{}
	reads   atomic.Int64
}

func (g *gatePager) ReadPage(id storage.PageID, buf []byte) error {
	g.reads.Add(1)
	if id == g.slow {
		close(g.entered)
		<-g.release
	}
	return g.Pager.ReadPage(id, buf)
}

func TestSlowBaseReadDoesNotBlockUnrelatedHits(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		name := "Manager"
		if sharded {
			name = "ShardedManager"
		}
		t.Run(name, func(t *testing.T) {
			pf := newBase(t, 128)
			cold, _ := pf.Alloc()
			hot, _ := pf.Alloc()
			gate := &gatePager{
				Pager:   pf,
				slow:    cold,
				entered: make(chan struct{}),
				release: make(chan struct{}),
			}
			var m *Manager
			var err error
			if sharded {
				m, err = NewSharded(gate, 8, 4,
					func() Policy { return NewLRU() },
					func(int) (Allocator, error) { return NewDynamicAllocator(128), nil })
			} else {
				m, err = NewManager(gate, 8, NewLRU(), NewDynamicAllocator(128))
			}
			if err != nil {
				t.Fatal(err)
			}
			// Warm the hot page, then wedge a miss in base I/O.
			if err := m.ReadPage(hot, make([]byte, 128)); err != nil {
				t.Fatal(err)
			}
			missDone := make(chan error, 1)
			go func() {
				missDone <- m.ReadPage(cold, make([]byte, 128))
			}()
			<-gate.entered

			hitDone := make(chan error, 1)
			go func() {
				hitDone <- m.ReadPage(hot, make([]byte, 128))
			}()
			select {
			case err := <-hitDone:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("hit on an unrelated page blocked behind a base-pager miss")
			}

			close(gate.release)
			if err := <-missDone; err != nil {
				t.Fatal(err)
			}
			st := m.Stats()
			if st.Hits != 1 || st.Misses != 2 {
				t.Errorf("stats = %+v, want 1 hit / 2 misses", st)
			}
		})
	}
}

// TestSingleflightFault issues many concurrent reads of one cold page:
// exactly one base read may happen, the rest ride the placeholder.
func TestSingleflightFault(t *testing.T) {
	pf := newBase(t, 128)
	cold, _ := pf.Alloc()
	gate := &gatePager{
		Pager:   pf,
		slow:    cold,
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	m, err := NewSharded(gate, 8, 4,
		func() Policy { return NewLRU() },
		func(int) (Allocator, error) { return NewDynamicAllocator(128), nil })
	if err != nil {
		t.Fatal(err)
	}
	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- m.ReadPage(cold, make([]byte, 128))
		}()
	}
	<-gate.entered // the winning fault is in base I/O; give peers time to queue
	time.Sleep(10 * time.Millisecond)
	close(gate.release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := gate.reads.Load(); got != 1 {
		t.Errorf("%d base reads for one page, want 1 (singleflight)", got)
	}
	st := m.Stats()
	if st.Misses != 1 || st.Hits != readers-1 {
		t.Errorf("stats = %+v, want 1 miss / %d hits", st, readers-1)
	}
}

// TestCountersMatchSequentialReplay runs a concurrent no-eviction
// workload and checks the aggregate counters against what a sequential
// replay of the same access multiset must produce: one miss per
// distinct page (singleflight), a hit for everything else, zero
// evictions — exact equality, not a tolerance.
func TestCountersMatchSequentialReplay(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		name := "Manager"
		if sharded {
			name = "ShardedManager"
		}
		t.Run(name, func(t *testing.T) {
			pf := newBase(t, 128)
			const pages = 32
			var ids []storage.PageID
			for i := 0; i < pages; i++ {
				id, _ := pf.Alloc()
				if err := pf.WritePage(id, fill(byte(i), 128)); err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			var m *Manager
			var err error
			// Capacity far above the working set: even with every worker
			// faulting into one shard at once (loaded + in-flight
			// placeholders), no shard can fill, so no eviction ever fires.
			if sharded {
				m, err = NewSharded(pf, 8*pages, 8,
					func() Policy { return NewLRU() },
					func(int) (Allocator, error) { return NewDynamicAllocator(128), nil })
			} else {
				m, err = NewManager(pf, 8*pages, NewLRU(), NewDynamicAllocator(128))
			}
			if err != nil {
				t.Fatal(err)
			}
			const workers, perWorker = 8, 2000
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					buf := make([]byte, 128)
					for i := 0; i < perWorker; i++ {
						id := ids[rng.Intn(pages)]
						if rng.Intn(10) == 0 {
							m.WritePage(id, buf)
						} else {
							m.ReadPage(id, buf)
						}
					}
				}(w)
			}
			wg.Wait()
			st := m.Stats()
			if st.Misses != pages {
				t.Errorf("misses = %d, want %d (one per distinct page)", st.Misses, pages)
			}
			if st.Hits != workers*perWorker-pages {
				t.Errorf("hits = %d, want %d", st.Hits, workers*perWorker-pages)
			}
			if st.Evictions != 0 || st.WriteBacks != 0 {
				t.Errorf("evictions/write-backs = %d/%d, want 0/0", st.Evictions, st.WriteBacks)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// slowPager charges a fixed latency per base I/O, widening the latch
// windows the stress tests race over.
type slowPager struct {
	storage.Pager
	read, write time.Duration
}

func (p *slowPager) ReadPage(id storage.PageID, buf []byte) error {
	time.Sleep(p.read)
	return p.Pager.ReadPage(id, buf)
}

func (p *slowPager) WritePage(id storage.PageID, buf []byte) error {
	time.Sleep(p.write)
	return p.Pager.WritePage(id, buf)
}

// TestConcurrentEvictionStress drives both managers through an
// eviction-heavy mix with a background checkpointer and a slow base, so
// faults, write-backs, fuzzy flushes and capacity waits all interleave.
// Content integrity is checked via self-describing page images, and the
// counters must balance: every access is exactly one hit or one miss.
func TestConcurrentEvictionStress(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		name := "Manager"
		if sharded {
			name = "ShardedManager"
		}
		t.Run(name, func(t *testing.T) {
			pf := newBase(t, 128)
			const pages = 64
			var ids []storage.PageID
			stamp := func(i int) []byte { return fill(byte(i), 128) }
			for i := 0; i < pages; i++ {
				id, _ := pf.Alloc()
				if err := pf.WritePage(id, stamp(i)); err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			base := &slowPager{Pager: pf, read: 20 * time.Microsecond, write: 50 * time.Microsecond}
			var m *Manager
			var err error
			if sharded {
				m, err = NewSharded(base, pages/2, 8,
					func() Policy { return NewLRU() },
					func(int) (Allocator, error) { return NewDynamicAllocator(128), nil })
			} else {
				m, err = NewManager(base, pages/2, NewLRU(), NewDynamicAllocator(128))
			}
			if err != nil {
				t.Fatal(err)
			}

			stop := make(chan struct{})
			var ckptWG sync.WaitGroup
			ckptWG.Add(1)
			go func() {
				defer ckptWG.Done()
				for {
					select {
					case <-stop:
						return
					default:
						if err := m.Sync(); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()

			const workers, perWorker = 8, 2000
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100 + w)))
					buf := make([]byte, 128)
					for i := 0; i < perWorker; i++ {
						n := rng.Intn(pages)
						if rng.Intn(10) == 0 {
							copy(buf, stamp(n))
							if err := m.WritePage(ids[n], buf); err != nil {
								t.Error(err)
								return
							}
						} else {
							if err := m.ReadPage(ids[n], buf); err != nil {
								t.Error(err)
								return
							}
							// Writers always store page n's stamp, so any
							// image but stamp(n) is a torn or misrouted read.
							if buf[0] != byte(n) || buf[127] != byte(n) {
								t.Errorf("page %d read stamp %d/%d", n, buf[0], buf[127])
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			ckptWG.Wait()

			st := m.Stats()
			if st.Hits+st.Misses != workers*perWorker {
				t.Errorf("hits %d + misses %d != %d ops", st.Hits, st.Misses, workers*perWorker)
			}
			if st.Evictions == 0 {
				t.Error("stress never evicted; capacity too large for the test to bite")
			}
			if err := m.Sync(); err != nil {
				t.Fatal(err)
			}
			// Durability: every page ends as some writer's stamp.
			buf := make([]byte, 128)
			for i, id := range ids {
				if err := pf.ReadPage(id, buf); err != nil {
					t.Fatal(err)
				}
				if buf[0] != byte(i) || buf[127] != byte(i) {
					t.Errorf("page %d persisted stamp %d/%d", i, buf[0], buf[127])
				}
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// brickPager fails every write once bricked — the device a degraded
// engine sees after its retry budget runs out.
type brickPager struct {
	storage.Pager
	bricked atomic.Bool
	werr    error
}

func (b *brickPager) WritePage(id storage.PageID, buf []byte) error {
	if b.bricked.Load() {
		return b.werr
	}
	return b.Pager.WritePage(id, buf)
}

// TestReadSurvivesDirtyVictimWriteBackFailure pins the degraded-mode
// read contract at the pool layer: a read that draws a dirty victim
// while the device rejects writes must read through, not inherit the
// victim's write-back failure. The victim stays resident and dirty, so
// its unsynced image is not lost.
func TestReadSurvivesDirtyVictimWriteBackFailure(t *testing.T) {
	werr := errors.New("device bricked")
	for _, sharded := range []bool{false, true} {
		name := "Manager"
		if sharded {
			name = "ShardedManager"
		}
		t.Run(name, func(t *testing.T) {
			pf := newBase(t, 128)
			a, _ := pf.Alloc()
			b, _ := pf.Alloc()
			want := make([]byte, 128)
			for i := range want {
				want[i] = byte('b')
			}
			if err := pf.WritePage(b, want); err != nil {
				t.Fatal(err)
			}
			brick := &brickPager{Pager: pf, werr: werr}
			var m *Manager
			var err error
			if sharded {
				// One shard of one frame: page b's fault must evict a.
				m, err = NewSharded(brick, 1, 1,
					func() Policy { return NewLRU() },
					func(int) (Allocator, error) { return NewDynamicAllocator(128), nil })
			} else {
				m, err = NewManager(brick, 1, NewLRU(), NewDynamicAllocator(128))
			}
			if err != nil {
				t.Fatal(err)
			}
			dirty := make([]byte, 128)
			for i := range dirty {
				dirty[i] = byte('a')
			}
			if err := m.WritePage(a, dirty); err != nil {
				t.Fatal(err)
			}
			brick.bricked.Store(true)

			got := make([]byte, 128)
			if err := m.ReadPage(b, got); err != nil {
				t.Fatalf("read with dirty victim on bricked device = %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("read-through returned wrong image")
			}
			// The dirty victim survived: heal the device, sync, and its
			// image must reach the base.
			brick.bricked.Store(false)
			if err := m.Sync(); err != nil {
				t.Fatal(err)
			}
			onDisk := make([]byte, 128)
			if err := pf.ReadPage(a, onDisk); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(onDisk, dirty) {
				t.Fatalf("dirty victim's image lost across failed eviction")
			}
			// A write access still inherits the failure.
			if err := m.WritePage(a, dirty); err != nil {
				t.Fatal(err)
			}
			brick.bricked.Store(true)
			if err := m.WritePage(b, want); !errors.Is(err, werr) {
				t.Fatalf("write with dirty victim on bricked device = %v, want brick error", err)
			}
		})
	}
}
