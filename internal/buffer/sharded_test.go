package buffer

import (
	"bytes"
	"math/rand"
	"testing"

	"famedb/internal/storage"
)

func newShardedMgr(t *testing.T, capacity, shards int) (*Manager, *storage.PageFile) {
	t.Helper()
	pf := newBase(t, 128)
	m, err := NewSharded(pf, capacity, shards,
		func() Policy { return NewLRU() },
		func(frames int) (Allocator, error) { return NewDynamicAllocator(128), nil })
	if err != nil {
		t.Fatal(err)
	}
	return m, pf
}

func TestShardedCapacityDistribution(t *testing.T) {
	cases := []struct {
		capacity, shards, wantShards int
	}{
		{64, 16, 16},
		{64, 5, 8}, // rounded up to a power of two
		{10, 4, 4}, // non-divisible: shards get 3,3,2,2
		{3, 8, 2},  // capacity < shards: fewer shards
		{1, 8, 1},  // degenerate: one shard of one frame
		{64, 0, DefaultShards},
		{64, 1, 1},
	}
	for _, c := range cases {
		m, _ := newShardedMgr(t, c.capacity, c.shards)
		if got := m.ShardCount(); got != c.wantShards {
			t.Errorf("capacity=%d shards=%d: ShardCount = %d, want %d",
				c.capacity, c.shards, got, c.wantShards)
		}
		total, min := 0, c.capacity+1
		for _, s := range m.shards {
			total += s.capacity
			if s.capacity < min {
				min = s.capacity
			}
		}
		if total != c.capacity {
			t.Errorf("capacity=%d shards=%d: shard capacities sum to %d",
				c.capacity, c.shards, total)
		}
		if min < 1 {
			t.Errorf("capacity=%d shards=%d: a shard owns %d frames", c.capacity, c.shards, min)
		}
		// Remainder spread: capacities differ by at most one frame.
		for _, s := range m.shards {
			if s.capacity > min+1 {
				t.Errorf("capacity=%d shards=%d: uneven split %d vs %d",
					c.capacity, c.shards, s.capacity, min)
			}
		}
	}
	if _, err := NewSharded(newBase(t, 128), 0, 4,
		func() Policy { return NewLRU() },
		func(int) (Allocator, error) { return NewDynamicAllocator(128), nil }); err == nil {
		t.Error("capacity 0 accepted")
	}
}

func TestShardedHashSpreadsSequentialIDs(t *testing.T) {
	m, _ := newShardedMgr(t, 64, 8)
	seen := map[*shard]int{}
	for id := storage.PageID(1); id <= 64; id++ {
		seen[m.shardFor(id)]++
	}
	if len(seen) != 8 {
		t.Fatalf("64 consecutive PageIDs landed in %d of 8 shards", len(seen))
	}
	for s, n := range seen {
		if n > 16 {
			t.Errorf("shard of capacity %d got %d of 64 consecutive IDs", s.capacity, n)
		}
	}
	// NewManager's pool is one stripe: every page maps to it.
	one, _ := newMgr(t, 8, NewLRU())
	if one.ShardCount() != 1 {
		t.Fatalf("NewManager ShardCount = %d, want 1", one.ShardCount())
	}
	for _, id := range []storage.PageID{0, 1, 2, 1 << 20, ^storage.PageID(0)} {
		if one.shardFor(id) != one.shards[0] {
			t.Errorf("page %d missed the only shard", id)
		}
	}
}

// TestShardedMatchesBase cross-checks the sharded cache against an
// uncached mirror of the same random workload.
func TestShardedMatchesBase(t *testing.T) {
	m, pf := newShardedMgr(t, 8, 4)
	mirror := map[storage.PageID][]byte{}
	var ids []storage.PageID
	for i := 0; i < 32; i++ {
		id, err := m.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		mirror[id] = make([]byte, 128)
	}
	rng := rand.New(rand.NewSource(11))
	buf := make([]byte, 128)
	for i := 0; i < 2000; i++ {
		id := ids[rng.Intn(len(ids))]
		if rng.Intn(2) == 0 {
			rng.Read(buf)
			copy(mirror[id], buf)
			if err := m.WritePage(id, buf); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := m.ReadPage(id, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, mirror[id]) {
				t.Fatalf("op %d: page %d content diverged from mirror", i, id)
			}
		}
	}
	st := m.Stats()
	if st.Hits+st.Misses == 0 || st.Evictions == 0 {
		t.Errorf("expected traffic and evictions, got %+v", st)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	for id, want := range mirror {
		if err := pf.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			t.Errorf("page %d not durable after Sync", id)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedLifecycle(t *testing.T) {
	m, _ := newShardedMgr(t, 8, 4)
	if m.PolicyName() != "LRU" {
		t.Errorf("PolicyName = %q", m.PolicyName())
	}
	if m.PageSize() != 128 {
		t.Errorf("PageSize = %d", m.PageSize())
	}
	id, err := m.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WritePage(id, fill('Z', 128)); err != nil {
		t.Fatal(err)
	}
	if got := m.Resident(); got != 1 {
		t.Errorf("Resident = %d", got)
	}
	if err := m.Free(id); err != nil {
		t.Fatal(err)
	}
	if got := m.Resident(); got != 0 {
		t.Errorf("Resident after Free = %d", got)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err == nil {
		t.Error("second Close succeeded")
	}
	if err := m.ReadPage(id, make([]byte, 128)); err == nil {
		t.Error("ReadPage after Close succeeded")
	}
	if _, err := m.Alloc(); err == nil {
		t.Error("Alloc after Close succeeded")
	}
}
