package repl

import (
	"testing"

	"famedb/internal/access"
	"famedb/internal/index"
	"famedb/internal/osal"
	"famedb/internal/storage"
	"famedb/internal/txn"
)

func newIdx(t *testing.T) index.Index {
	t.Helper()
	f, err := osal.NewMemFS().Create("r.db")
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
	return idx
}

func TestShipAppliesToOnlineReplicas(t *testing.T) {
	primary, r1idx, r2idx := newIdx(t), newIdx(t), newIdx(t)
	r := New()
	rep1 := r.Attach(r1idx)
	r.Attach(r2idx)
	if r.Replicas() != 2 {
		t.Fatalf("Replicas = %d", r.Replicas())
	}

	primary.Insert([]byte("a"), []byte("1"))
	if err := r.Ship(false, []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	primary.Insert([]byte("b"), []byte("2"))
	r.Ship(false, []byte("b"), []byte("2"))
	primary.Delete([]byte("a"))
	r.Ship(true, []byte("a"), nil)

	if err := r.Verify(primary); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep1.Applied != 3 || r.Shipped != 3 {
		t.Fatalf("applied %d shipped %d", rep1.Applied, r.Shipped)
	}
}

func TestOfflineBufferingAndCatchUp(t *testing.T) {
	primary, ridx := newIdx(t), newIdx(t)
	r := New()
	rep := r.Attach(ridx)
	r.SetOnline(rep, false)

	primary.Insert([]byte("k"), []byte("v"))
	r.Ship(false, []byte("k"), []byte("v"))
	if rep.Pending() != 1 || rep.Applied != 0 {
		t.Fatalf("pending %d applied %d", rep.Pending(), rep.Applied)
	}
	// Offline replicas are skipped by Verify.
	if err := r.Verify(primary); err != nil {
		t.Fatalf("Verify with offline replica: %v", err)
	}
	if err := r.CatchUp(rep); err != nil {
		t.Fatal(err)
	}
	if rep.Pending() != 0 || rep.Applied != 1 {
		t.Fatalf("after catchup: pending %d applied %d", rep.Pending(), rep.Applied)
	}
	if err := r.Verify(primary); err != nil {
		t.Fatalf("Verify after catchup: %v", err)
	}
}

func TestVerifyDetectsDivergence(t *testing.T) {
	primary, ridx := newIdx(t), newIdx(t)
	r := New()
	r.Attach(ridx)
	primary.Insert([]byte("k"), []byte("v"))
	// Never shipped: replica is empty.
	if err := r.Verify(primary); err == nil {
		t.Fatal("Verify should detect missing key")
	}
	// Same size but different value.
	ridx.Insert([]byte("k"), []byte("WRONG"))
	if err := r.Verify(primary); err == nil {
		t.Fatal("Verify should detect diverged value")
	}
}

func TestReplicationThroughTxnManager(t *testing.T) {
	// End-to-end: the replicator hangs off txn.Options.OnApply; commits
	// replicate, aborts do not.
	fs := osal.NewMemFS()
	f, _ := fs.Create("p.db")
	pf, _ := storage.CreatePageFile(f, 512)
	pidx, _, _ := index.CreateBTree(pf, index.AllBTreeOps())
	store := access.New(pidx, access.AllOps())

	r := New()
	r.Attach(newIdx(t))

	m, err := txn.Open(fs, "wal.log", store, txn.Options{
		OnApply: r.Ship,
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := m.Begin()
	tx.Put([]byte("x"), []byte("1"))
	tx.Put([]byte("y"), []byte("2"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := m.Begin()
	tx2.Put([]byte("z"), []byte("3"))
	tx2.Abort()

	if r.Shipped != 2 {
		t.Fatalf("Shipped = %d, want 2 (abort must not ship)", r.Shipped)
	}
	if err := r.Verify(pidx); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}
