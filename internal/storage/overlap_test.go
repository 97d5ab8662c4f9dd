package storage_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"famedb/internal/composer"
	"famedb/internal/osal"
	"famedb/internal/storage"
)

// barrier is a two-party meeting point with a timeout: a party that
// arrives waits until a second party is inside at the same time, or
// until the timeout runs out and it leaves alone. Once two parties have
// met it stays open and lets everyone through at once.
type barrier struct {
	timeout time.Duration
	mu      sync.Mutex
	inside  int
	open    chan struct{}
	met     atomic.Bool
}

func newBarrier(timeout time.Duration) *barrier {
	return &barrier{timeout: timeout, open: make(chan struct{})}
}

func (b *barrier) wait() {
	b.mu.Lock()
	if b.met.Load() {
		b.mu.Unlock()
		return
	}
	b.inside++
	if b.inside == 2 {
		b.met.Store(true)
		close(b.open)
	}
	b.mu.Unlock()
	select {
	case <-b.open:
	case <-time.After(b.timeout):
		b.mu.Lock()
		b.inside--
		b.mu.Unlock()
	}
}

// barrierFS is an osal.FS whose files named page wait on a barrier
// inside ReadAt (reads) or WriteAt (writes) once it is armed; other
// files and unarmed calls pass straight through.
type barrierFS struct {
	osal.FS
	page          string
	reads, writes atomic.Pointer[barrier]
}

func (fs *barrierFS) Create(name string) (osal.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil || name != fs.page {
		return f, err
	}
	return &barrierFile{File: f, fs: fs}, nil
}

type barrierFile struct {
	osal.File
	fs *barrierFS
}

func (f *barrierFile) ReadAt(p []byte, off int64) (int, error) {
	if b := f.fs.reads.Load(); b != nil {
		b.wait()
	}
	return f.File.ReadAt(p, off)
}

func (f *barrierFile) WriteAt(p []byte, off int64) (int, error) {
	if b := f.fs.writes.Load(); b != nil {
		b.wait()
	}
	return f.File.WriteAt(p, off)
}

func memFile(t *testing.T) osal.File {
	t.Helper()
	f, err := osal.NewMemFS().Create("t.db")
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// overlapTimeout bounds how long a device call waits for a second one;
// a page file that serializes its I/O makes every armed call wait it out.
const overlapTimeout = 2 * time.Second

// pageFileWithPages creates a page file on a barrierFS and allocates n
// pages, page i holding the byte i+1.
func pageFileWithPages(t *testing.T, n int) (*barrierFS, *storage.PageFile, []storage.PageID) {
	t.Helper()
	fs := &barrierFS{FS: osal.NewMemFS(), page: "t.db"}
	f, err := fs.Create("t.db")
	if err != nil {
		t.Fatal(err)
	}
	pf, err := storage.CreatePageFile(f, 512)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]storage.PageID, n)
	for i := range ids {
		if ids[i], err = pf.Alloc(); err != nil {
			t.Fatal(err)
		}
		if err := pf.WritePage(ids[i], bytes.Repeat([]byte{byte(i + 1)}, 512)); err != nil {
			t.Fatal(err)
		}
	}
	return fs, pf, ids
}

// TestPageReadsOverlap pins that two reads of distinct pages are inside
// the device at the same time: each read's ReadAt waits for the other.
func TestPageReadsOverlap(t *testing.T) {
	fs, pf, ids := pageFileWithPages(t, 2)
	b := newBarrier(overlapTimeout)
	fs.reads.Store(b)
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id storage.PageID) {
			defer wg.Done()
			buf := make([]byte, 512)
			if err := pf.ReadPage(id, buf); err != nil {
				t.Error(err)
				return
			}
			if buf[0] != byte(i+1) || buf[511] != byte(i+1) {
				t.Errorf("page %d read %d, want %d", id, buf[0], i+1)
			}
		}(i, id)
	}
	wg.Wait()
	if !b.met.Load() {
		t.Fatal("two reads of distinct pages never were inside the device at once: the page file serializes its reads")
	}
}

// TestPageWritesOverlap is TestPageReadsOverlap for writes.
func TestPageWritesOverlap(t *testing.T) {
	fs, pf, ids := pageFileWithPages(t, 2)
	b := newBarrier(overlapTimeout)
	fs.writes.Store(b)
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id storage.PageID) {
			defer wg.Done()
			if err := pf.WritePage(id, bytes.Repeat([]byte{byte(0x80 + i)}, 512)); err != nil {
				t.Error(err)
			}
		}(i, id)
	}
	wg.Wait()
	if !b.met.Load() {
		t.Fatal("two writes of distinct pages never were inside the device at once: the page file serializes its writes")
	}
	fs.writes.Store(nil)
	buf := make([]byte, 512)
	for i, id := range ids {
		if err := pf.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(0x80+i) || buf[511] != byte(0x80+i) {
			t.Fatalf("page %d holds %#x, want %#x", id, buf[0], 0x80+i)
		}
	}
}

// TestComposedPageReadsOverlap is TestPageReadsOverlap through a
// composed product: Get misses on two distinct leaves must reach the
// device at once through the buffer pool, the retry pager and the
// checksum pager, so a latch held across base I/O in any of them fails
// it as well as one in the page file.
func TestComposedPageReadsOverlap(t *testing.T) {
	fs := &barrierFS{FS: osal.NewMemFS(), page: "fame.db"}
	inst, err := composer.ComposeProduct(composer.Options{FS: fs, CachePages: 8, CacheShards: 4},
		"Linux", "BPlusTree", "BufferManager", "LRU", "DynamicAlloc", "ShardedBuffer",
		"Checksums", "Put", "Get")
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	// Ascending keys: about 60 leaves, and the early ones are long
	// evicted from an 8-page cache when the reads start.
	const n = 2000
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%05d", i)) }
	value := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 100) }
	for i := 0; i < n; i++ {
		if err := inst.Store.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	b := newBarrier(overlapTimeout)
	fs.reads.Store(b)
	var wg sync.WaitGroup
	for _, i := range []int{0, n / 2} {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := inst.Store.Get(key(i))
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(v, value(i)) {
				t.Errorf("Get(%s) read another value", key(i))
			}
		}(i)
	}
	wg.Wait()
	fs.reads.Store(nil)
	if !b.met.Load() {
		t.Fatal("two cache misses on distinct pages never were inside the device at once: a layer of the pager stack serializes base reads")
	}
}

// TestPageFileConcurrentStress runs page reads and writes on distinct
// pages beside Alloc, Free, FreePages and Sync, then checks that the
// header and the free list agree with what the allocating goroutine
// kept, live and after a reopen, and that no owned page was clobbered.
func TestPageFileConcurrentStress(t *testing.T) {
	const (
		pageSize = 256
		workers  = 4
		owned    = 8 // pages per worker
		rounds   = 300
	)
	f := memFile(t)
	pf, err := storage.CreatePageFile(f, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	isOwned := make(map[storage.PageID]bool)
	pages := make([][]storage.PageID, workers)
	for w := range pages {
		for i := 0; i < owned; i++ {
			id, err := pf.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			pages[w] = append(pages[w], id)
			isOwned[id] = true
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers and writers: each worker owns its pages, writes a stamp
	// (worker, page, round) over the whole page and reads it back.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf, got := make([]byte, pageSize), make([]byte, pageSize)
			for r := 0; r < rounds; r++ {
				id := pages[w][r%owned]
				for i := 0; i < pageSize; i += 4 {
					binary.LittleEndian.PutUint32(buf[i:], uint32(w)<<24|uint32(id)<<12|uint32(r))
				}
				if err := pf.WritePage(id, buf); err != nil {
					t.Error(err)
					return
				}
				if err := pf.ReadPage(id, got); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, buf) {
					t.Errorf("worker %d page %d round %d: read back another image", w, id, r)
					return
				}
			}
		}(w)
	}
	// The allocator: Alloc and Free churn on pages nobody else owns.
	held := make(map[storage.PageID]bool)
	freed := make(map[storage.PageID]bool)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		zero := make([]byte, pageSize)
		buf := make([]byte, pageSize)
		var list []storage.PageID
		for r := 0; r < rounds; r++ {
			if len(list) == 0 || rng.Intn(3) != 0 {
				id, err := pf.Alloc()
				if err != nil {
					t.Error(err)
					return
				}
				if isOwned[id] || held[id] {
					t.Errorf("Alloc handed out page %d, which is in use", id)
					return
				}
				if err := pf.ReadPage(id, buf); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(buf, zero) {
					t.Errorf("Alloc handed out page %d not zeroed", id)
					return
				}
				held[id] = true
				delete(freed, id)
				list = append(list, id)
				continue
			}
			i := rng.Intn(len(list))
			id := list[i]
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			if err := pf.Free(id); err != nil {
				t.Error(err)
				return
			}
			delete(held, id)
			freed[id] = true
		}
	}()
	// The scrubber: FreePages and Sync until the others are done.
	var scrub sync.WaitGroup
	scrub.Add(1)
	go func() {
		defer scrub.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			free, err := pf.FreePages()
			if err != nil {
				t.Error(err)
				return
			}
			for _, id := range free {
				if isOwned[id] {
					t.Errorf("owned page %d is on the free list", id)
					return
				}
			}
			if err := pf.Sync(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	scrub.Wait()
	if t.Failed() {
		return
	}

	wantPages := uint32(1 + workers*owned + len(held) + len(freed))
	check := func(label string, p *storage.PageFile) {
		t.Helper()
		if n := p.NumPages(); n != wantPages {
			t.Fatalf("%s: NumPages %d, want %d", label, n, wantPages)
		}
		free, err := p.FreePages()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(free) != len(freed) {
			t.Fatalf("%s: free list holds %d pages, want %d", label, len(free), len(freed))
		}
		for _, id := range free {
			if !freed[id] {
				t.Fatalf("%s: page %d is on the free list but was never freed", label, id)
			}
		}
		got := make([]byte, pageSize)
		for w := range pages {
			for _, id := range pages[w] {
				if err := p.ReadPage(id, got); err != nil {
					t.Fatal(err)
				}
				stamp := binary.LittleEndian.Uint32(got)
				if int(stamp>>24) != w || storage.PageID(stamp>>12&0xfff) != id {
					t.Fatalf("%s: page %d holds worker %d's stamp for page %d", label, id, stamp>>24, stamp>>12&0xfff)
				}
			}
		}
	}
	check("live", pf)
	if err := pf.Sync(); err != nil {
		t.Fatal(err)
	}
	reopened, err := storage.OpenPageFile(f)
	if err != nil {
		t.Fatal(err)
	}
	check("reopened", reopened)
}
