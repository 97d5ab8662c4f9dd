package btree

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"famedb/internal/storage"
)

// countingPager records the page writes and allocations a tree makes.
type countingPager struct {
	storage.Pager
	writes map[storage.PageID]int
	allocs int
}

func (p *countingPager) WritePage(id storage.PageID, buf []byte) error {
	p.writes[id]++
	return p.Pager.WritePage(id, buf)
}

func (p *countingPager) Alloc() (storage.PageID, error) {
	p.allocs++
	return p.Pager.Alloc()
}

// reset forgets what was counted so far.
func (p *countingPager) reset() {
	p.writes = map[storage.PageID]int{}
	p.allocs = 0
}

// updateTree builds a three-level tree of n keys over a counting pager.
func updateTree(t *testing.T, n int, cow bool) (*Tree, *countingPager) {
	t.Helper()
	cp := &countingPager{Pager: newPager(t, 512), writes: map[storage.PageID]int{}}
	tr, _, err := Create(cp)
	if err != nil {
		t.Fatal(err)
	}
	if cow {
		tr.EnableCopyOnWrite()
	}
	for i := 0; i < n; i++ {
		if err := tr.Insert(updateKey(i), []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}
	if h, err := tr.height(nil); err != nil || h < 3 {
		t.Fatalf("height = %d, %v; want a tree of at least 3 levels", h, err)
	}
	tr.TakeSuperseded()
	cp.reset()
	return tr, cp
}

func updateKey(i int) []byte { return fmt.Appendf(nil, "k%05d", i) }

// TestUpdateAbsentWritesNothing: Update of an absent key answers false
// without writing a page — neither a node nor the meta page — and, in
// copy-on-write mode, without shadowing the path into fresh pages.
func TestUpdateAbsentWritesNothing(t *testing.T) {
	for _, cow := range []bool{false, true} {
		t.Run(fmt.Sprintf("cow=%v", cow), func(t *testing.T) {
			tr, cp := updateTree(t, 3000, cow)
			root, count := tr.Root(), tr.Len()
			for _, k := range [][]byte{[]byte("a"), updateKey(300)[:5], []byte("zzz")} {
				ok, err := tr.Update(k, []byte("v1"))
				if err != nil || ok {
					t.Fatalf("Update(%q) = %v, %v; want false, nil", k, ok, err)
				}
			}
			if len(cp.writes) != 0 || cp.allocs != 0 {
				t.Fatalf("absent updates wrote pages %v and allocated %d", cp.writes, cp.allocs)
			}
			if len(tr.TakeSuperseded()) != 0 {
				t.Fatal("absent updates superseded pages")
			}
			if tr.Root() != root || tr.Len() != count {
				t.Fatalf("root/count moved: %d/%d -> %d/%d", root, count, tr.Root(), tr.Len())
			}
			if err := tr.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestUpdatePresentDescendsOnce: Update of a present key reads one
// root-to-leaf path — height pages, not a lookup's path and then an
// insert's — and a same-size value leaves the meta page alone.
func TestUpdatePresentDescendsOnce(t *testing.T) {
	tr, cp := updateTree(t, 3000, false)
	tr.EnableVisitCounter()
	h, err := tr.height(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i += 97 {
		before := tr.PageVisits()
		ok, err := tr.Update(updateKey(i), []byte("v1"))
		if err != nil || !ok {
			t.Fatalf("Update(key %d) = %v, %v", i, ok, err)
		}
		if got := tr.PageVisits() - before; got != int64(h) {
			t.Fatalf("Update(key %d) visited %d pages, want the height %d", i, got, h)
		}
		if got, _, _ := tr.Get(updateKey(i)); !bytes.Equal(got, []byte("v1")) {
			t.Fatalf("Get(key %d) = %q after Update", i, got)
		}
	}
	if cp.writes[tr.MetaPage()] != 0 {
		t.Fatalf("same-size updates wrote the meta page %d times", cp.writes[tr.MetaPage()])
	}
}

// TestUpdateOversizeValue: a value too large to store is an error for a
// present key and no error for an absent one, which is not updated.
func TestUpdateOversizeValue(t *testing.T) {
	tr, cp := updateTree(t, 3000, false)
	big := bytes.Repeat([]byte{'x'}, tr.maxEntry)
	if ok, err := tr.Update([]byte("absent"), big); ok || err != nil {
		t.Fatalf("Update(absent, oversize) = %v, %v; want false, nil", ok, err)
	}
	if ok, err := tr.Update(updateKey(5), big); !ok || !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("Update(present, oversize) = %v, %v; want true, ErrKeyTooLarge", ok, err)
	}
	if ok, err := tr.Update(nil, []byte("v")); ok || err != nil {
		t.Fatalf("Update(empty key) = %v, %v; want false, nil", ok, err)
	}
	if len(cp.writes) != 0 {
		t.Fatalf("rejected updates wrote pages %v", cp.writes)
	}
}
