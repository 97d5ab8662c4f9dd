package bdb

import (
	"errors"
	"testing"

	"famedb/internal/access"
	"famedb/internal/index"
	"famedb/internal/osal"
	"famedb/internal/storage"
	"famedb/internal/txn"
)

// TestRoutedJournalRefused: a journal that still holds a write to tree
// 0 — a "<db>\x00<key>" record, as the log was written before databases
// were trees — fails the open instead of landing in the catalog.
func TestRoutedJournalRefused(t *testing.T) {
	fs := osal.NewMemFS()
	feats := []string{"Btree", "Transactions", "Recovery", "Checkpoint"}
	e := openEnv(t, Config{FS: fs, Features: feats})
	db, err := e.CreateDB("main", MethodBtree)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Crash, then append one routed write to the journal as a manager
	// that knows only tree 0 writes it.
	f, err := osal.NewMemFS().Create("scratch.db")
	if err != nil {
		t.Fatal(err)
	}
	pf, err := storage.CreatePageFile(f, 512)
	if err != nil {
		t.Fatal(err)
	}
	list, _, err := index.CreateList(pf)
	if err != nil {
		t.Fatal(err)
	}
	old, err := txn.Open(fs, logFileName, access.New(list, access.AllOps()), txn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Put([]byte("main\x00k2"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = Open(Config{FS: fs, Features: feats, pageSize: 512})
	if !errors.Is(err, errRoutedJournal) {
		t.Fatalf("open over a routed journal = %v, want %v", err, errRoutedJournal)
	}
}
