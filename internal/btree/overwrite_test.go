package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"famedb/internal/buffer"
	"famedb/internal/osal"
	"famedb/internal/stats"
	"famedb/internal/storage"
)

// sizedTree is a tree on 4 KB pages with Statistics attached, so a test
// can read both the file's page count and the split counters.
type sizedTree struct {
	*Tree
	pf  *storage.PageFile
	reg *stats.Registry
}

func newSizedTree(t *testing.T) sizedTree {
	t.Helper()
	f, err := osal.NewMemFS().Create("o.db")
	if err != nil {
		t.Fatal(err)
	}
	pf, err := storage.CreatePageFile(f, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := Create(pf)
	if err != nil {
		t.Fatal(err)
	}
	reg := stats.New()
	tr.SetMetrics(reg)
	return sizedTree{Tree: tr, pf: pf, reg: reg}
}

func (s sizedTree) leafSplits() int64 { return s.reg.Snapshot().BTree.LeafSplits }

// overwriteKey is the i-th key of the overwrite tests.
func overwriteKey(i int) []byte { return fmt.Appendf(nil, "key-%06d", i) }

// valueOf returns a value of size bytes that encodes round and key i, so
// a stale value is caught by content, not just by length.
func valueOf(round, i, size int) []byte {
	v := bytes.Repeat([]byte{byte('a' + round%26)}, size)
	copy(v, fmt.Sprintf("%d/%d/", round, i))
	return v
}

// overwriteRound writes every key once, in a shuffled order, with
// values of the given size.
func (s sizedTree) overwriteRound(t *testing.T, rng *rand.Rand, round, n, size int) {
	t.Helper()
	for _, i := range rng.Perm(n) {
		if err := s.Insert(overwriteKey(i), valueOf(round, i, size)); err != nil {
			t.Fatalf("round %d key %d: %v", round, i, err)
		}
	}
}

func (s sizedTree) checkRound(t *testing.T, round, n, size int) {
	t.Helper()
	if err := s.Verify(); err != nil {
		t.Fatalf("round %d: Verify: %v", round, err)
	}
	if s.Len() != uint64(n) {
		t.Fatalf("round %d: Len = %d, want %d", round, s.Len(), n)
	}
	for i := 0; i < n; i++ {
		got, ok, err := s.Get(overwriteKey(i))
		if err != nil || !ok || !bytes.Equal(got, valueOf(round, i, size)) {
			t.Fatalf("round %d: Get(key %d) = %q, %v, %v", round, i, got, ok, err)
		}
	}
}

// TestOverwriteSameSizeInPlace: same-size overwrites replace the value
// bytes where they lie, so five rounds over every key neither add a page
// nor split a leaf, however full the leaves are.
func TestOverwriteSameSizeInPlace(t *testing.T) {
	const n, size = 5000, 100
	s := newSizedTree(t)
	rng := rand.New(rand.NewSource(1))
	s.overwriteRound(t, rng, 0, n, size)
	pages, splits := s.pf.NumPages(), s.leafSplits()
	for round := 1; round <= 5; round++ {
		s.overwriteRound(t, rng, round, n, size)
		if got := s.pf.NumPages(); got != pages {
			t.Fatalf("round %d: %d pages, want %d", round, got, pages)
		}
		if got := s.leafSplits(); got != splits {
			t.Fatalf("round %d: %d leaf splits, want %d", round, got, splits)
		}
	}
	s.checkRound(t, 5, n, size)
}

// TestOverwriteResizedCompactsBeforeSplit: overwrites that alternate the
// value size leave the old cell as garbage; the leaf compacts it away
// instead of splitting, so once a leaf has held its keys at the larger
// size it never splits again.
func TestOverwriteResizedCompactsBeforeSplit(t *testing.T) {
	const n = 5000
	sizes := []int{80, 120}
	s := newSizedTree(t)
	rng := rand.New(rand.NewSource(2))
	s.overwriteRound(t, rng, 0, n, sizes[0])
	s.overwriteRound(t, rng, 1, n, sizes[1])
	pages, splits := s.pf.NumPages(), s.leafSplits()
	for round := 2; round <= 7; round++ {
		s.overwriteRound(t, rng, round, n, sizes[round%2])
		if got := s.pf.NumPages(); got != pages {
			t.Fatalf("round %d: %d pages, want %d", round, got, pages)
		}
		if got := s.leafSplits(); got != splits {
			t.Fatalf("round %d: %d leaf splits, want %d", round, got, splits)
		}
	}
	s.checkRound(t, 7, n, sizes[1])
}

// TestOverwriteDeleteThenReinsertCompacts: deleting half the keys and
// putting them back at the same size refills the garbage the deletes
// left instead of splitting the leaves.
func TestOverwriteDeleteThenReinsertCompacts(t *testing.T) {
	const n, size = 5000, 100
	s := newSizedTree(t)
	rng := rand.New(rand.NewSource(3))
	s.overwriteRound(t, rng, 0, n, size)
	pages, splits := s.pf.NumPages(), s.leafSplits()
	for round := 1; round <= 5; round++ {
		for i := round % 2; i < n; i += 2 {
			if ok, err := s.Delete(overwriteKey(i)); err != nil || !ok {
				t.Fatalf("round %d: Delete(key %d) = %v, %v", round, i, ok, err)
			}
		}
		for i := round % 2; i < n; i += 2 {
			if err := s.Insert(overwriteKey(i), valueOf(0, i, size)); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.pf.NumPages(); got != pages {
			t.Fatalf("round %d: %d pages, want %d", round, got, pages)
		}
		if got := s.leafSplits(); got != splits {
			t.Fatalf("round %d: %d leaf splits, want %d", round, got, splits)
		}
	}
	s.checkRound(t, 0, n, size)
}

// TestOverwriteCopyOnWrite: in copy-on-write mode a same-size overwrite
// still shadows the leaf — a pinned version keeps reading the old value
// — and the superseded pages reclaim once the pin releases, so repeated
// overwrites recycle pages instead of growing the file.
func TestOverwriteCopyOnWrite(t *testing.T) {
	const n, size = 2000, 100
	s := newSizedTree(t)
	vt := NewVersionTable(s.Tree)
	rng := rand.New(rand.NewSource(4))
	s.overwriteRound(t, rng, 0, n, size)
	install(t, vt)

	pinned := vt.Pin()
	key := overwriteKey(7)
	if err := s.Insert(key, valueOf(1, 7, size)); err != nil {
		t.Fatal(err)
	}
	install(t, vt)
	if got, ok, err := pinned.Get(key); err != nil || !ok || !bytes.Equal(got, valueOf(0, 7, size)) {
		t.Fatalf("pinned version reads %q, %v, %v; want the round-0 value", got, ok, err)
	}
	if got, _, _ := s.Get(key); !bytes.Equal(got, valueOf(1, 7, size)) {
		t.Fatalf("current version reads %q, want the round-1 value", got)
	}
	before := vt.Reclaimed()
	pinned.Release()
	if vt.Reclaimed() <= before {
		t.Fatalf("releasing the pin reclaimed nothing (%d -> %d)", before, vt.Reclaimed())
	}

	// Unpinned rounds: each install frees what the previous round
	// superseded, and the allocator hands those pages out again.
	s.overwriteRound(t, rng, 2, n, size)
	install(t, vt)
	pages, splits := s.pf.NumPages(), s.leafSplits()
	for round := 3; round <= 5; round++ {
		s.overwriteRound(t, rng, round, n, size)
		install(t, vt)
		if got := s.pf.NumPages(); got != pages {
			t.Fatalf("round %d: %d pages, want %d", round, got, pages)
		}
		if got := s.leafSplits(); got != splits {
			t.Fatalf("round %d: %d leaf splits, want %d", round, got, splits)
		}
	}
	s.checkRound(t, 5, n, size)
}

// cachedTree loads n keys into a tree over a buffer pool large enough to
// hold all of it, the cache-resident case the allocation guards measure.
func cachedTree(t *testing.T, n, size int) *Tree {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	f, err := osal.NewMemFS().Create("a.db")
	if err != nil {
		t.Fatal(err)
	}
	pf, err := storage.CreatePageFile(f, 4096)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := buffer.NewManager(pf, 1024, buffer.NewLRU(), buffer.NewDynamicAllocator(4096))
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := Create(mgr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tr.Insert(overwriteKey(i), valueOf(0, i, size)); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// TestAllocsOverwrite: a same-size overwrite on a cache-resident tree
// allocates nothing — no node buffer per level, no meta page, no boxing.
func TestAllocsOverwrite(t *testing.T) {
	const n, size = 4000, 100
	tr := cachedTree(t, n, size)
	keys := make([][]byte, 64)
	vals := make([][]byte, len(keys))
	for j := range keys {
		keys[j] = overwriteKey(j * 61 % n)
		vals[j] = valueOf(1, j, size)
	}
	j := 0
	allocs := testing.AllocsPerRun(500, func() {
		if err := tr.Insert(keys[j%len(keys)], vals[j%len(vals)]); err != nil {
			t.Fatal(err)
		}
		j++
	})
	if allocs != 0 {
		t.Fatalf("overwrite: %.2f allocs/op, want 0", allocs)
	}
}

// TestAllocsGet: a cache-resident Get allocates only the value copy it
// returns.
func TestAllocsGet(t *testing.T) {
	const n, size = 4000, 100
	tr := cachedTree(t, n, size)
	keys := make([][]byte, 64)
	for j := range keys {
		keys[j] = overwriteKey(j * 61 % n)
	}
	j := 0
	allocs := testing.AllocsPerRun(500, func() {
		if _, ok, err := tr.Get(keys[j%len(keys)]); err != nil || !ok {
			t.Fatalf("Get: %v, %v", ok, err)
		}
		j++
	})
	if allocs > 1 {
		t.Fatalf("get: %.2f allocs/op, want at most 1 (the value copy)", allocs)
	}
}
