package bdb

import (
	"fmt"
	"testing"

	"famedb/internal/core"
	"famedb/internal/osal"
)

// TestDirFSPersistence runs the case-study engine on real files: create
// databases of several access methods, write, close, reopen from disk,
// verify — including an encrypted environment.
func TestDirFSPersistence(t *testing.T) {
	dir := t.TempDir()
	fs, err := osal.NewDirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	feats := []string{"Btree", "Hash", "Queue", "Locking", "Logging", "Recovery", "Verify", "Crypto"}
	cfg := Config{
		FS:         fs,
		Mode:       core.ModeComposed,
		Features:   feats,
		pageSize:   512,
		Passphrase: []byte("disk-secret"),
	}
	env, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := env.CreateDB("bt", MethodBtree)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := env.CreateDB("hs", MethodHash)
	if err != nil {
		t.Fatal(err)
	}
	qu, err := env.CreateDB("qu", MethodQueue)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("k%03d", i))
		if err := bt.Put(k, []byte("btv")); err != nil {
			t.Fatal(err)
		}
		if err := hs.Put(k, []byte("hsv")); err != nil {
			t.Fatal(err)
		}
		if _, err := qu.Enqueue(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh process: reopen from the same directory.
	fs2, _ := osal.NewDirFS(dir)
	cfg.FS = fs2
	env2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer env2.Close()
	bt2, err := env2.OpenDB("bt")
	if err != nil {
		t.Fatal(err)
	}
	if err := bt2.Verify(); err != nil {
		t.Fatalf("btree verify from disk: %v", err)
	}
	if v, found, _ := bt2.Get([]byte("k050")); !found || string(v) != "btv" {
		t.Fatalf("btree read from disk = %q, %v", v, found)
	}
	hs2, _ := env2.OpenDB("hs")
	if err := hs2.Verify(); err != nil {
		t.Fatalf("hash verify from disk: %v", err)
	}
	qu2, _ := env2.OpenDB("qu")
	if n, _ := qu2.Len(); n != 100 {
		t.Fatalf("queue Len from disk = %d", n)
	}
	rec, ok, _ := qu2.Dequeue()
	if !ok || string(rec) != "k000" {
		t.Fatalf("queue head from disk = %q, %v", rec, ok)
	}

	// Wrong passphrase cannot read the files.
	fs3, _ := osal.NewDirFS(dir)
	bad := cfg
	bad.FS = fs3
	bad.Passphrase = []byte("WRONG")
	if env3, err := Open(bad); err == nil {
		if _, oerr := env3.OpenDB("bt"); oerr == nil {
			t.Fatal("wrong passphrase opened on-disk data")
		}
		env3.Close()
	}
}
