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

func TestVerifyDetectsDivergence(t *testing.T) {
	primary, replica := newIdx(t), newIdx(t)
	primary.Insert([]byte("k"), []byte("v"))
	// Never shipped: replica is empty.
	if err := VerifyIndexes(primary, replica); err == nil {
		t.Fatal("VerifyIndexes should detect missing key")
	}
	// Same size but different value.
	replica.Insert([]byte("k"), []byte("WRONG"))
	if err := VerifyIndexes(primary, replica); err == nil {
		t.Fatal("VerifyIndexes should detect diverged value")
	}
	replica.Insert([]byte("k"), []byte("v"))
	replica.Insert([]byte("extra"), []byte("x"))
	if err := VerifyIndexes(primary, replica); err == nil {
		t.Fatal("VerifyIndexes should detect an extra replica key")
	}
}

func TestReplicationThroughTxnManager(t *testing.T) {
	// End to end in one process: a Shipper hangs off the primary's WAL,
	// a replica manager applies the shipped frames; commits replicate,
	// aborts ship nothing.
	open := func(idx index.Index) *txn.Manager {
		m, err := txn.Open(osal.NewMemFS(), "wal.log", access.New(idx, access.AllOps()), txn.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	pidx, ridx := newIdx(t), newIdx(t)
	primary, replica := open(pidx), open(ridx)
	s := NewShipper(nil)
	primary.SetOnShip(s.OnShip)
	feed := s.Subscribe()
	applier := replica.ShipApplier()

	tx := primary.Begin()
	tx.Put([]byte("x"), []byte("1"))
	tx.Put([]byte("y"), []byte("2"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := primary.Begin()
	tx2.Put([]byte("z"), []byte("3"))
	tx2.Abort()

	for len(feed.C()) > 0 {
		fr := <-feed.C()
		if err := applier.Apply(fr.Base, fr.Bytes); err != nil {
			t.Fatal(err)
		}
	}
	if err := VerifyIndexes(pidx, ridx); err != nil {
		t.Fatalf("VerifyIndexes: %v", err)
	}
	if _, found, _ := ridx.Get([]byte("z")); found {
		t.Fatal("aborted write reached the replica")
	}
}
