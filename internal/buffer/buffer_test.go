package buffer

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"famedb/internal/osal"
	"famedb/internal/storage"
)

func newBase(t *testing.T, pageSize int) *storage.PageFile {
	t.Helper()
	f, err := osal.NewMemFS().Create("t.db")
	if err != nil {
		t.Fatal(err)
	}
	pf, err := storage.CreatePageFile(f, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

func newMgr(t *testing.T, capacity int, policy Policy) (*Manager, *storage.PageFile) {
	t.Helper()
	pf := newBase(t, 128)
	m, err := NewManager(pf, capacity, policy, NewDynamicAllocator(128))
	if err != nil {
		t.Fatal(err)
	}
	return m, pf
}

func fill(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

func TestManagerReadWriteThrough(t *testing.T) {
	m, pf := newMgr(t, 4, NewLRU())
	id, err := m.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WritePage(id, fill('A', 128)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 128)
	if err := m.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 'A' || got[127] != 'A' {
		t.Fatal("read back wrong content")
	}
	// Dirty page not yet in the base file.
	base := make([]byte, 128)
	if err := pf.ReadPage(id, base); err != nil {
		t.Fatal(err)
	}
	if base[0] == 'A' {
		t.Fatal("write-back cache wrote through eagerly")
	}
	// Sync flushes.
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	pf.ReadPage(id, base)
	if base[0] != 'A' {
		t.Fatal("Sync did not write back")
	}
}

func TestManagerEvictionWritesBack(t *testing.T) {
	m, pf := newMgr(t, 2, NewLRU())
	var ids []storage.PageID
	for i := 0; i < 3; i++ {
		id, _ := m.Alloc()
		ids = append(ids, id)
		if err := m.WritePage(id, fill(byte('0'+i), 128)); err != nil {
			t.Fatal(err)
		}
	}
	// Capacity 2, 3 pages written: page 0 was evicted and written back.
	st := m.Stats()
	if st.Evictions != 1 || st.WriteBacks != 1 {
		t.Fatalf("stats = %+v, want 1 eviction, 1 writeback", st)
	}
	base := make([]byte, 128)
	pf.ReadPage(ids[0], base)
	if base[0] != '0' {
		t.Fatal("evicted dirty page not written back")
	}
	// Reading the evicted page misses and reloads correctly.
	got := make([]byte, 128)
	if err := m.ReadPage(ids[0], got); err != nil {
		t.Fatal(err)
	}
	if got[0] != '0' {
		t.Fatal("reload after eviction wrong")
	}
}

func TestLRUVictimOrder(t *testing.T) {
	m, _ := newMgr(t, 2, NewLRU())
	a, _ := m.Alloc()
	b, _ := m.Alloc()
	c, _ := m.Alloc()
	buf := make([]byte, 128)
	m.WritePage(a, buf)
	m.WritePage(b, buf)
	m.ReadPage(a, buf) // a is now more recent than b
	m.WritePage(c, buf)
	// b must have been evicted, a and c resident.
	if m.Resident() != 2 {
		t.Fatalf("resident = %d", m.Resident())
	}
	st := m.Stats()
	m.ReadPage(a, buf)
	m.ReadPage(c, buf)
	if m.Stats().Hits != st.Hits+2 {
		t.Fatal("a or c was evicted; LRU order wrong")
	}
	m.ReadPage(b, buf)
	if m.Stats().Misses != st.Misses+1 {
		t.Fatal("b should have been the LRU victim")
	}
}

func TestLFUVictimOrder(t *testing.T) {
	m, _ := newMgr(t, 2, NewLFU())
	hot, _ := m.Alloc()
	cold, _ := m.Alloc()
	next, _ := m.Alloc()
	buf := make([]byte, 128)
	m.WritePage(hot, buf)
	for i := 0; i < 10; i++ {
		m.ReadPage(hot, buf)
	}
	m.WritePage(cold, buf)
	// Admitting next evicts cold (freq 1) not hot (freq 11), even
	// though cold is more recent.
	m.WritePage(next, buf)
	st := m.Stats()
	m.ReadPage(hot, buf)
	if m.Stats().Hits != st.Hits+1 {
		t.Fatal("LFU evicted the hot page")
	}
	m.ReadPage(cold, buf)
	if m.Stats().Misses != st.Misses+1 {
		t.Fatal("LFU kept the cold page")
	}
}

func TestLFUTieBreakByAge(t *testing.T) {
	l := NewLFU()
	l.Admitted(1)
	l.Admitted(2)
	if v := l.Victim(); v != 1 {
		t.Fatalf("LFU tie victim = %d, want oldest (1)", v)
	}
	l.Touched(1)
	if v := l.Victim(); v != 2 {
		t.Fatalf("LFU victim after touch = %d, want 2", v)
	}
}

func TestStaticAllocatorBudget(t *testing.T) {
	if _, err := NewStaticAllocator(4096, 100, 1024); err == nil {
		t.Fatal("arena over budget should fail")
	}
	a, err := NewStaticAllocator(128, 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for i := 0; i < 4; i++ {
		f, err := a.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	if _, err := a.AllocFrame(); !errors.Is(err, ErrArenaExhausted) {
		t.Fatalf("5th frame = %v, want ErrArenaExhausted", err)
	}
	a.FreeFrame(frames[0])
	if _, err := a.AllocFrame(); err != nil {
		t.Fatalf("frame after free: %v", err)
	}
}

func TestStaticFramesZeroedOnReuse(t *testing.T) {
	a, _ := NewStaticAllocator(64, 1, 0)
	f, _ := a.AllocFrame()
	for i := range f {
		f[i] = 0xFF
	}
	a.FreeFrame(f)
	f2, _ := a.AllocFrame()
	for _, b := range f2 {
		if b != 0 {
			t.Fatal("reused static frame not zeroed")
		}
	}
}

func TestManagerWithStaticAllocator(t *testing.T) {
	pf := newBase(t, 128)
	alloc, err := NewStaticAllocator(128, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(pf, 2, NewLRU(), alloc)
	if err != nil {
		t.Fatal(err)
	}
	// Work through more pages than frames: eviction must recycle the
	// arena rather than exhaust it.
	buf := make([]byte, 128)
	for i := 0; i < 20; i++ {
		id, _ := m.Alloc()
		copy(buf, fmt.Sprintf("page %d", i))
		if err := m.WritePage(id, buf); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if m.Resident() != 2 {
		t.Fatalf("resident = %d, want 2", m.Resident())
	}
}

func TestManagerFreeDropsFrame(t *testing.T) {
	m, _ := newMgr(t, 4, NewLRU())
	id, _ := m.Alloc()
	m.WritePage(id, make([]byte, 128))
	if err := m.Free(id); err != nil {
		t.Fatal(err)
	}
	if m.Resident() != 0 {
		t.Fatal("freed page still resident")
	}
}

func TestManagerInvalidCapacity(t *testing.T) {
	pf := newBase(t, 128)
	if _, err := NewManager(pf, 0, NewLRU(), NewDynamicAllocator(128)); err == nil {
		t.Fatal("capacity 0 should fail")
	}
}

func TestManagerCloseFlushes(t *testing.T) {
	f, _ := osal.NewMemFS().Create("c.db")
	pf, _ := storage.CreatePageFile(f, 128)
	m, _ := NewManager(pf, 4, NewLRU(), NewDynamicAllocator(128))
	id, _ := m.Alloc()
	m.WritePage(id, fill('Z', 128))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen the file raw: content must be durable.
	pf2, err := storage.OpenPageFile(f)
	if err == nil {
		buf := make([]byte, 128)
		pf2.ReadPage(id, buf)
		if buf[0] != 'Z' {
			t.Fatal("close did not flush")
		}
	}
	if err := m.Close(); err == nil {
		t.Fatal("double close should fail")
	}
	if err := m.ReadPage(id, make([]byte, 128)); err == nil {
		t.Fatal("read after close should fail")
	}
}

// TestManagerEquivalence drives identical operation sequences against a
// buffered and an unbuffered pager; contents must match at the end.
func TestManagerEquivalence(t *testing.T) {
	for _, policy := range []func() Policy{
		func() Policy { return NewLRU() },
		func() Policy { return NewLFU() },
	} {
		pfDirect := newBase(t, 128)
		pfCached := newBase(t, 128)
		m, _ := NewManager(pfCached, 3, policy(), NewDynamicAllocator(128))

		rng := rand.New(rand.NewSource(5))
		var ids []storage.PageID
		for i := 0; i < 16; i++ {
			a, _ := pfDirect.Alloc()
			b, _ := m.Alloc()
			if a != b {
				t.Fatalf("alloc divergence: %d vs %d", a, b)
			}
			ids = append(ids, a)
		}
		buf := make([]byte, 128)
		for op := 0; op < 2000; op++ {
			id := ids[rng.Intn(len(ids))]
			if rng.Intn(2) == 0 {
				rng.Read(buf)
				if err := pfDirect.WritePage(id, buf); err != nil {
					t.Fatal(err)
				}
				if err := m.WritePage(id, buf); err != nil {
					t.Fatal(err)
				}
			} else {
				got1, got2 := make([]byte, 128), make([]byte, 128)
				if err := pfDirect.ReadPage(id, got1); err != nil {
					t.Fatal(err)
				}
				if err := m.ReadPage(id, got2); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got1, got2) {
					t.Fatalf("op %d: cached read diverges on page %d", op, id)
				}
			}
		}
		if err := m.Sync(); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			got1, got2 := make([]byte, 128), make([]byte, 128)
			pfDirect.ReadPage(id, got1)
			pfCached.ReadPage(id, got2)
			if !bytes.Equal(got1, got2) {
				t.Fatalf("after sync: base file diverges on page %d", id)
			}
		}
	}
}

func TestManagerConcurrentAccess(t *testing.T) {
	m, _ := newMgr(t, 4, NewLRU())
	var ids []storage.PageID
	for i := 0; i < 8; i++ {
		id, _ := m.Alloc()
		m.WritePage(id, fill(byte(i), 128))
		ids = append(ids, id)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 128)
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				id := ids[rng.Intn(len(ids))]
				if err := m.ReadPage(id, buf); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestHitRatioImprovesWithCapacity(t *testing.T) {
	// A working set of 8 pages: capacity 2 must miss more than
	// capacity 8.
	missesAt := func(capacity int) int64 {
		pf := newBase(t, 128)
		m, _ := NewManager(pf, capacity, NewLRU(), NewDynamicAllocator(128))
		var ids []storage.PageID
		for i := 0; i < 8; i++ {
			id, _ := m.Alloc()
			m.WritePage(id, make([]byte, 128))
			ids = append(ids, id)
		}
		buf := make([]byte, 128)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 1000; i++ {
			m.ReadPage(ids[rng.Intn(len(ids))], buf)
		}
		return m.Stats().Misses
	}
	small, large := missesAt(2), missesAt(8)
	if small <= large {
		t.Fatalf("misses small=%d large=%d: larger cache should miss less", small, large)
	}
	if large > 8 {
		t.Fatalf("full-size cache missed %d times, want <= 8", large)
	}
}

func TestPolicyNames(t *testing.T) {
	if NewLRU().Name() != "LRU" || NewLFU().Name() != "LFU" {
		t.Fatal("policy names wrong")
	}
	if NewDynamicAllocator(64).Name() != "DynamicAlloc" {
		t.Fatal("dynamic allocator name wrong")
	}
	a, _ := NewStaticAllocator(64, 1, 0)
	if a.Name() != "StaticAlloc" {
		t.Fatal("static allocator name wrong")
	}
}
