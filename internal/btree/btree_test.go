package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"famedb/internal/buffer"
	"famedb/internal/osal"
	"famedb/internal/storage"
)

func newPager(t *testing.T, pageSize int) storage.Pager {
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

func newTree(t *testing.T, pageSize int) *Tree {
	t.Helper()
	tr, _, err := Create(newPager(t, pageSize))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func mustInsert(t *testing.T, tr *Tree, k, v string) {
	t.Helper()
	if err := tr.Insert([]byte(k), []byte(v)); err != nil {
		t.Fatalf("Insert(%q): %v", k, err)
	}
}

func TestInsertGetSmall(t *testing.T) {
	tr := newTree(t, 256)
	mustInsert(t, tr, "b", "2")
	mustInsert(t, tr, "a", "1")
	mustInsert(t, tr, "c", "3")
	for _, kv := range []struct{ k, v string }{{"a", "1"}, {"b", "2"}, {"c", "3"}} {
		got, found, err := tr.Get([]byte(kv.k))
		if err != nil || !found || string(got) != kv.v {
			t.Fatalf("Get(%q) = %q, %v, %v", kv.k, got, found, err)
		}
	}
	if _, found, _ := tr.Get([]byte("zz")); found {
		t.Fatal("found missing key")
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestInsertOverwrites(t *testing.T) {
	tr := newTree(t, 256)
	mustInsert(t, tr, "k", "old")
	mustInsert(t, tr, "k", "new")
	got, _, _ := tr.Get([]byte("k"))
	if string(got) != "new" {
		t.Fatalf("Get = %q", got)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len after overwrite = %d", tr.Len())
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	tr := newTree(t, 256)
	if err := tr.Insert(nil, []byte("v")); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("Insert(nil) = %v", err)
	}
}

func TestOversizedEntryRejected(t *testing.T) {
	tr := newTree(t, 256)
	if err := tr.Insert([]byte("k"), make([]byte, 300)); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("oversized insert = %v", err)
	}
}

func TestSplitsAndOrdering(t *testing.T) {
	tr := newTree(t, 256)
	const n = 500
	for i := 0; i < n; i++ {
		mustInsert(t, tr, fmt.Sprintf("key-%04d", i), fmt.Sprintf("val-%d", i))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	if err := tr.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	for i := 0; i < n; i++ {
		got, found, err := tr.Get([]byte(fmt.Sprintf("key-%04d", i)))
		if err != nil || !found || string(got) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get(key-%04d) = %q, %v, %v", i, got, found, err)
		}
	}
}

func TestReverseAndRandomInsertOrders(t *testing.T) {
	for _, order := range []string{"reverse", "random"} {
		tr := newTree(t, 256)
		idx := make([]int, 300)
		for i := range idx {
			idx[i] = i
		}
		if order == "reverse" {
			sort.Sort(sort.Reverse(sort.IntSlice(idx)))
		} else {
			rand.New(rand.NewSource(3)).Shuffle(len(idx), func(i, j int) {
				idx[i], idx[j] = idx[j], idx[i]
			})
		}
		for _, i := range idx {
			mustInsert(t, tr, fmt.Sprintf("k%05d", i), fmt.Sprintf("v%d", i))
		}
		if err := tr.Verify(); err != nil {
			t.Fatalf("%s: Verify: %v", order, err)
		}
		var keys []string
		tr.Scan(nil, nil, func(k, v []byte) bool {
			keys = append(keys, string(k))
			return true
		})
		if !sort.StringsAreSorted(keys) || len(keys) != 300 {
			t.Fatalf("%s: scan returned %d keys, sorted=%v", order, len(keys), sort.StringsAreSorted(keys))
		}
	}
}

func TestScanRange(t *testing.T) {
	tr := newTree(t, 256)
	for i := 0; i < 100; i++ {
		mustInsert(t, tr, fmt.Sprintf("k%03d", i), "v")
	}
	var got []string
	err := tr.Scan([]byte("k010"), []byte("k020"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != "k010" || got[9] != "k019" {
		t.Fatalf("range scan = %v", got)
	}
	// Early stop.
	count := 0
	tr.Scan(nil, nil, func(k, v []byte) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("early stop visited %d", count)
	}
	// Range with no matches.
	n := 0
	tr.Scan([]byte("zzz"), nil, func(k, v []byte) bool { n++; return true })
	if n != 0 {
		t.Fatalf("empty range visited %d", n)
	}
}

func TestDelete(t *testing.T) {
	tr := newTree(t, 256)
	for i := 0; i < 200; i++ {
		mustInsert(t, tr, fmt.Sprintf("k%03d", i), "v")
	}
	for i := 0; i < 200; i += 2 {
		deleted, err := tr.Delete([]byte(fmt.Sprintf("k%03d", i)))
		if err != nil || !deleted {
			t.Fatalf("Delete(k%03d) = %v, %v", i, deleted, err)
		}
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if deleted, _ := tr.Delete([]byte("k000")); deleted {
		t.Fatal("double delete reported success")
	}
	if err := tr.Verify(); err != nil {
		t.Fatalf("Verify after deletes: %v", err)
	}
	for i := 0; i < 200; i++ {
		_, found, _ := tr.Get([]byte(fmt.Sprintf("k%03d", i)))
		if found != (i%2 == 1) {
			t.Fatalf("Get(k%03d) found=%v", i, found)
		}
	}
}

func TestDeleteAllThenReinsert(t *testing.T) {
	tr := newTree(t, 256)
	for i := 0; i < 100; i++ {
		mustInsert(t, tr, fmt.Sprintf("k%03d", i), "v1")
	}
	for i := 0; i < 100; i++ {
		tr.Delete([]byte(fmt.Sprintf("k%03d", i)))
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.Verify(); err != nil {
		t.Fatalf("Verify on emptied tree: %v", err)
	}
	for i := 0; i < 100; i++ {
		mustInsert(t, tr, fmt.Sprintf("k%03d", i), "v2")
	}
	got, _, _ := tr.Get([]byte("k050"))
	if string(got) != "v2" {
		t.Fatalf("reinserted value = %q", got)
	}
	if err := tr.Verify(); err != nil {
		t.Fatalf("Verify after refill: %v", err)
	}
}

func TestUpdateOnlyExisting(t *testing.T) {
	tr := newTree(t, 256)
	mustInsert(t, tr, "k", "v1")
	ok, err := tr.Update([]byte("k"), []byte("v2"))
	if err != nil || !ok {
		t.Fatalf("Update = %v, %v", ok, err)
	}
	got, _, _ := tr.Get([]byte("k"))
	if string(got) != "v2" {
		t.Fatalf("Get = %q", got)
	}
	ok, err = tr.Update([]byte("missing"), []byte("x"))
	if err != nil || ok {
		t.Fatalf("Update(missing) = %v, %v", ok, err)
	}
	if _, found, _ := tr.Get([]byte("missing")); found {
		t.Fatal("Update created a key")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	f, _ := osal.NewMemFS().Create("p.db")
	pf, _ := storage.CreatePageFile(f, 256)
	tr, metaID, err := Create(pf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		tr.Insert([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := pf.Sync(); err != nil {
		t.Fatal(err)
	}

	tr2, err := Open(pf, metaID)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Len() != 150 {
		t.Fatalf("reopened Len = %d", tr2.Len())
	}
	for i := 0; i < 150; i++ {
		got, found, _ := tr2.Get([]byte(fmt.Sprintf("k%03d", i)))
		if !found || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("reopened Get(k%03d) = %q, %v", i, got, found)
		}
	}
	if err := tr2.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsWrongPage(t *testing.T) {
	p := newPager(t, 256)
	id, _ := p.Alloc()
	if _, err := Open(p, id); err == nil {
		t.Fatal("Open on a non-meta page should fail")
	}
}

func TestVariableLengthEntries(t *testing.T) {
	tr := newTree(t, 512)
	rng := rand.New(rand.NewSource(11))
	model := map[string]string{}
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("%0*d", 1+rng.Intn(20), rng.Intn(10000))
		v := string(bytes.Repeat([]byte{byte('a' + i%26)}, rng.Intn(60)))
		if err := tr.Insert([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
	if int(tr.Len()) != len(model) {
		t.Fatalf("Len = %d, model %d", tr.Len(), len(model))
	}
	for k, v := range model {
		got, found, _ := tr.Get([]byte(k))
		if !found || string(got) != v {
			t.Fatalf("Get(%q) = %q, %v", k, got, found)
		}
	}
}

// TestTreeModelEquivalence drives random operations against a map model
// and verifies Get/Scan/Len/Verify agree throughout — the main
// correctness property of the index.
func TestTreeModelEquivalence(t *testing.T) {
	for _, pageSize := range []int{128, 512, 4096} {
		t.Run(fmt.Sprintf("page%d", pageSize), func(t *testing.T) {
			tr := newTree(t, pageSize)
			rng := rand.New(rand.NewSource(int64(pageSize)))
			model := map[string]string{}
			var keys []string
			maxVal := maxEntrySize(pageSize) - 24
			if maxVal < 3 {
				maxVal = 3
			}
			for op := 0; op < 4000; op++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4: // insert
					k := fmt.Sprintf("key%04d", rng.Intn(2000))
					v := fmt.Sprintf("%0*d", 1+rng.Intn(maxVal), rng.Intn(100))
					if err := tr.Insert([]byte(k), []byte(v)); err != nil {
						t.Fatalf("op %d Insert: %v", op, err)
					}
					if _, dup := model[k]; !dup {
						keys = append(keys, k)
					}
					model[k] = v
				case 5, 6: // delete
					if len(keys) == 0 {
						continue
					}
					k := keys[rng.Intn(len(keys))]
					_, inModel := model[k]
					deleted, err := tr.Delete([]byte(k))
					if err != nil {
						t.Fatalf("op %d Delete: %v", op, err)
					}
					if deleted != inModel {
						t.Fatalf("op %d Delete(%q) = %v, model %v", op, k, deleted, inModel)
					}
					delete(model, k)
				case 7, 8: // get
					k := fmt.Sprintf("key%04d", rng.Intn(2000))
					got, found, err := tr.Get([]byte(k))
					if err != nil {
						t.Fatalf("op %d Get: %v", op, err)
					}
					want, inModel := model[k]
					if found != inModel || (found && string(got) != want) {
						t.Fatalf("op %d Get(%q) = %q,%v; model %q,%v", op, k, got, found, want, inModel)
					}
				case 9: // update
					k := fmt.Sprintf("key%04d", rng.Intn(2000))
					v := fmt.Sprintf("u%d", rng.Intn(100))
					ok, err := tr.Update([]byte(k), []byte(v))
					if err != nil {
						t.Fatalf("op %d Update: %v", op, err)
					}
					if _, inModel := model[k]; ok != inModel {
						t.Fatalf("op %d Update(%q) = %v, model %v", op, k, ok, inModel)
					}
					if ok {
						model[k] = v
					}
				}
			}
			if int(tr.Len()) != len(model) {
				t.Fatalf("Len = %d, model %d", tr.Len(), len(model))
			}
			if err := tr.Verify(); err != nil {
				t.Fatal(err)
			}
			// Full scan equals sorted model.
			var wantKeys []string
			for k := range model {
				wantKeys = append(wantKeys, k)
			}
			sort.Strings(wantKeys)
			i := 0
			err := tr.Scan(nil, nil, func(k, v []byte) bool {
				if i >= len(wantKeys) || string(k) != wantKeys[i] || string(v) != model[wantKeys[i]] {
					t.Fatalf("scan position %d: got %q=%q", i, k, v)
				}
				i++
				return true
			})
			if err != nil || i != len(wantKeys) {
				t.Fatalf("scan visited %d of %d: %v", i, len(wantKeys), err)
			}
		})
	}
}

func TestCompactReclaimsPagesAndPreservesData(t *testing.T) {
	f, _ := osal.NewMemFS().Create("c.db")
	pf, _ := storage.CreatePageFile(f, 256)
	tr, _, _ := Create(pf)
	for i := 0; i < 500; i++ {
		tr.Insert([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte("v"), 20))
	}
	for i := 0; i < 500; i++ {
		if i%10 != 0 {
			tr.Delete([]byte(fmt.Sprintf("k%04d", i)))
		}
	}
	if err := tr.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 50 {
		t.Fatalf("Len after compact = %d", tr.Len())
	}
	for i := 0; i < 500; i += 10 {
		_, found, _ := tr.Get([]byte(fmt.Sprintf("k%04d", i)))
		if !found {
			t.Fatalf("k%04d lost by compact", i)
		}
	}
	// Compaction must leave a small tree: inserting afresh into a new
	// file should need a similar page count.
	pagesAfter := pf.NumPages()
	f2, _ := osal.NewMemFS().Create("c2.db")
	pf2, _ := storage.CreatePageFile(f2, 256)
	tr2, _, _ := Create(pf2)
	for i := 0; i < 500; i += 10 {
		tr2.Insert([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte("v"), 20))
	}
	// The compacted file retains freed pages on its free list, so the
	// total file size may be larger, but live pages must be few. We
	// check by filling from the free list: allocating the difference
	// should not grow the file.
	before := pf.NumPages()
	for i := 0; i < int(before)-int(pf2.NumPages()); i++ {
		if _, err := pf.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	if pf.NumPages() != pagesAfter {
		t.Fatalf("file grew during free-list allocs: %d -> %d", pagesAfter, pf.NumPages())
	}
}

func TestTreeThroughBufferManager(t *testing.T) {
	f, _ := osal.NewMemFS().Create("b.db")
	pf, _ := storage.CreatePageFile(f, 512)
	mgr, err := buffer.NewManager(pf, 8, buffer.NewLRU(), buffer.NewDynamicAllocator(512))
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := Create(mgr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := tr.Insert([]byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Verify(); err != nil {
		t.Fatalf("Verify through cache: %v", err)
	}
	if err := mgr.Sync(); err != nil {
		t.Fatal(err)
	}
	// Bypass the cache: the base file must hold the same tree.
	tr2, err := Open(pf, tr.MetaPage())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.Verify(); err != nil {
		t.Fatalf("Verify on base file after sync: %v", err)
	}
	if tr2.Len() != 300 {
		t.Fatalf("base tree Len = %d", tr2.Len())
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	p := newPager(t, 256)
	tr, _, _ := Create(p)
	for i := 0; i < 50; i++ {
		tr.Insert([]byte(fmt.Sprintf("k%02d", i)), []byte("v"))
	}
	// Corrupt the root's key ordering by swapping two offsets.
	n, err := tr.readNode(nil, tr.root)
	if err != nil {
		t.Fatal(err)
	}
	if n.numKeys() >= 2 {
		o0, o1 := n.offset(0), n.offset(1)
		n.setOffset(0, o1)
		n.setOffset(1, o0)
		if err := tr.writeNode(nil, n); err != nil {
			t.Fatal(err)
		}
		if err := tr.Verify(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Verify on corrupted tree = %v, want ErrCorrupt", err)
		}
	}
}

func TestSmallestPageSize(t *testing.T) {
	// NutOS-style 512-byte pages and even the 128-byte floor must work.
	tr := newTree(t, 128)
	for i := 0; i < 100; i++ {
		if err := tr.Insert([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestLargestPageSize pins the other end: 32 KiB is the largest page
// the page file accepts, and a node on it addresses its whole cell area
// (the cell-area start is a uint16). Random inserts of entries up to the
// largest allowed split nodes on both sides of the middle.
func TestLargestPageSize(t *testing.T) {
	const pageSize = 32 << 10
	tr := newTree(t, pageSize)
	rng := rand.New(rand.NewSource(7))
	want := make(map[string][]byte)
	for i := 0; i < 600; i++ {
		k := fmt.Sprintf("k%06d", rng.Intn(1_000_000))
		n := 1 + rng.Intn(400)
		if i%50 == 0 {
			n = maxEntrySize(pageSize) - len(k) - 3 // 1+2 length bytes
		}
		v := bytes.Repeat([]byte{byte(i)}, n)
		if err := tr.Insert([]byte(k), v); err != nil {
			t.Fatalf("Insert(%s, %d bytes): %v", k, n, err)
		}
		want[k] = v
	}
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != uint64(len(want)) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(want))
	}
	for k, v := range want {
		got, found, err := tr.Get([]byte(k))
		if err != nil || !found || !bytes.Equal(got, v) {
			t.Fatalf("Get(%s) = %d bytes, %v, %v", k, len(got), found, err)
		}
	}
}
