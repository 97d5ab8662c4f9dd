package access

import (
	"errors"
	"testing"

	"famedb/internal/index"
	"famedb/internal/osal"
	"famedb/internal/stats"
	"famedb/internal/storage"
)

func newStore(t *testing.T, ops Ops) *Store {
	t.Helper()
	f, err := osal.NewMemFS().Create("a.db")
	if err != nil {
		t.Fatal(err)
	}
	pf, err := storage.CreatePageFile(f, 512)
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := index.CreateBTree(pf, index.AllBTreeOps())
	if err != nil {
		t.Fatal(err)
	}
	return New(idx, ops)
}

func TestFullOpsRoundTrip(t *testing.T) {
	s := newStore(t, AllOps())
	if err := s.Put([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get([]byte("k"))
	if err != nil || string(v) != "v1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := s.Update([]byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	v, _ = s.Get([]byte("k"))
	if string(v) != "v2" {
		t.Fatalf("after update = %q", v)
	}
	if err := s.Remove([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after remove = %v, want ErrNotFound", err)
	}
	if err := s.Remove([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Remove missing = %v, want ErrNotFound", err)
	}
	if err := s.Update([]byte("k"), []byte("x")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Update missing = %v, want ErrNotFound", err)
	}
}

func TestOperationGating(t *testing.T) {
	// Get-only product: everything else is not composed.
	s := newStore(t, Ops{Get: true})
	if err := s.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrNotComposed) {
		t.Fatalf("Put = %v, want ErrNotComposed", err)
	}
	if err := s.Remove([]byte("k")); !errors.Is(err, ErrNotComposed) {
		t.Fatalf("Remove = %v, want ErrNotComposed", err)
	}
	if err := s.Update([]byte("k"), []byte("v")); !errors.Is(err, ErrNotComposed) {
		t.Fatalf("Update = %v, want ErrNotComposed", err)
	}
	if _, err := s.Get([]byte("k")); errors.Is(err, ErrNotComposed) {
		t.Fatal("Get should be composed")
	}

	// Put-only product: reads are not composed.
	s2 := newStore(t, Ops{Put: true})
	if err := s2.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get([]byte("k")); !errors.Is(err, ErrNotComposed) {
		t.Fatalf("Get = %v, want ErrNotComposed", err)
	}
	if err := s2.Scan(nil, nil, nil); !errors.Is(err, ErrNotComposed) {
		t.Fatalf("Scan = %v, want ErrNotComposed", err)
	}
}

func TestScanAndLen(t *testing.T) {
	s := newStore(t, AllOps())
	s.Put([]byte("a"), []byte("1"))
	s.Put([]byte("b"), []byte("2"))
	s.Put([]byte("c"), []byte("3"))
	var keys []string
	if err := s.Scan([]byte("a"), []byte("c"), func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("Scan = %v", keys)
	}
	if n, _ := s.Len(); n != 3 {
		t.Fatalf("Len = %d", n)
	}
}

// TestCounters: operation counts come from the Statistics feature's
// access histograms, the store's only operation counters.
func TestCounters(t *testing.T) {
	s := newStore(t, AllOps())
	reg := stats.New()
	s.SetMetrics(reg)
	s.Put([]byte("k"), []byte("v"))
	s.Put([]byte("k2"), []byte("v"))
	s.Get([]byte("k"))
	s.Update([]byte("k"), []byte("v2"))
	s.Remove([]byte("k2"))
	s.Scan(nil, nil, func(k, v []byte) bool { return true })
	a := reg.Snapshot().Access
	if a.PutLatency.Count != 2 || a.GetLatency.Count != 1 {
		t.Fatalf("puts/gets = %d/%d, want 2/1", a.PutLatency.Count, a.GetLatency.Count)
	}
}

func TestAccessorsExposed(t *testing.T) {
	s := newStore(t, AllOps())
	if s.Index() == nil {
		t.Fatal("Index() nil")
	}
	if s.Ops() != AllOps() {
		t.Fatal("Ops() wrong")
	}
}
