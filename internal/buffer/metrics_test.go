package buffer

import (
	"testing"

	"famedb/internal/stats"
	"famedb/internal/storage"
)

// allocPages allocates n pages from the manager.
func allocPages(t *testing.T, m *Manager, n int) []storage.PageID {
	t.Helper()
	ids := make([]storage.PageID, n)
	for i := range ids {
		id, err := m.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

func checkCounters(t *testing.T, reg *stats.Registry, policy string, hits, misses, evictions, writeBacks int64) {
	t.Helper()
	s := reg.Snapshot().Buffer
	if s.Policy != policy {
		t.Errorf("policy = %q, want %q", s.Policy, policy)
	}
	if s.Hits != hits || s.Misses != misses || s.Evictions != evictions || s.WriteBacks != writeBacks {
		t.Errorf("counters = hits %d misses %d evictions %d writeBacks %d, want %d/%d/%d/%d",
			s.Hits, s.Misses, s.Evictions, s.WriteBacks, hits, misses, evictions, writeBacks)
	}
}

// TestMetricsLRUTrace drives a capacity-2 LRU cache through a
// hand-computed access trace and checks every Statistics counter.
func TestMetricsLRUTrace(t *testing.T) {
	m, _ := newMgr(t, 2, NewLRU())
	reg := stats.New()
	m.SetMetrics(reg)
	p := allocPages(t, m, 3)
	buf := make([]byte, 128)

	// Two cold writes fill the cache: 2 misses.
	if err := m.WritePage(p[0], fill('A', 128)); err != nil {
		t.Fatal(err)
	}
	if err := m.WritePage(p[1], fill('B', 128)); err != nil {
		t.Fatal(err)
	}
	// Resident read: 1 hit, and p0 becomes most recently used.
	if err := m.ReadPage(p[0], buf); err != nil {
		t.Fatal(err)
	}
	// Cold write with a full cache: miss, evicts LRU victim p1, which is
	// dirty, so 1 write-back + 1 eviction.
	if err := m.WritePage(p[2], fill('C', 128)); err != nil {
		t.Fatal(err)
	}
	// p1 is gone: miss. LRU order is p2 (just admitted), p0 — so dirty
	// p0 is the victim: second write-back + eviction.
	if err := m.ReadPage(p[1], buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 'B' {
		t.Fatalf("p1 content lost across eviction: %q", buf[0])
	}
	checkCounters(t, reg, "LRU", 1, 4, 2, 2)
}

// TestMetricsLFUTrace is the LFU counterpart: the frequently read page
// survives evictions that would have removed it under LRU.
func TestMetricsLFUTrace(t *testing.T) {
	m, _ := newMgr(t, 2, NewLFU())
	reg := stats.New()
	m.SetMetrics(reg)
	p := allocPages(t, m, 4)
	buf := make([]byte, 128)

	// p0 admitted (miss) then read twice (2 hits): frequency 3.
	if err := m.WritePage(p[0], fill('A', 128)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := m.ReadPage(p[0], buf); err != nil {
			t.Fatal(err)
		}
	}
	// p1 admitted (miss), frequency 1.
	if err := m.WritePage(p[1], fill('B', 128)); err != nil {
		t.Fatal(err)
	}
	// p2 (miss) evicts the least frequent page p1 (dirty): write-back +
	// eviction. Under LRU the victim would have been p0.
	if err := m.WritePage(p[2], fill('C', 128)); err != nil {
		t.Fatal(err)
	}
	// p0 must still be resident: hit 3.
	if err := m.ReadPage(p[0], buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 'A' {
		t.Fatalf("p0 evicted despite highest frequency: %q", buf[0])
	}
	// p3 (miss) evicts p2 (freq 1, dirty): second write-back + eviction.
	if err := m.WritePage(p[3], fill('D', 128)); err != nil {
		t.Fatal(err)
	}
	checkCounters(t, reg, "LFU", 3, 4, 2, 2)
}

// TestMetricsNilIsNoOp runs the same workload without SetMetrics and
// checks the manager's own counters still work while no registry is
// involved (the deselected-Statistics configuration).
func TestMetricsNilIsNoOp(t *testing.T) {
	m, _ := newMgr(t, 2, NewLRU())
	p := allocPages(t, m, 1)
	if err := m.WritePage(p[0], fill('A', 128)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if err := m.ReadPage(p[0], buf); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("internal stats = %+v, want 1 hit / 1 miss", st)
	}
}

// TestMetricsWriteBackOnFlush checks Sync records write-backs without
// evictions, and that a second Sync writes only the pages dirtied since.
func TestMetricsWriteBackOnFlush(t *testing.T) {
	m, _ := newMgr(t, 4, NewLRU())
	reg := stats.New()
	m.SetMetrics(reg)
	p := allocPages(t, m, 2)
	for i, id := range p {
		if err := m.WritePage(id, fill(byte('A'+i), 128)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := m.WritePage(p[0], fill('C', 128)); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot().Buffer
	// The first Sync wrote p0 and p1; the second the re-dirtied p0 only.
	if s.WriteBacks != 3 || s.Evictions != 0 {
		t.Errorf("writeBacks %d evictions %d, want 3/0", s.WriteBacks, s.Evictions)
	}
}
