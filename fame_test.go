package fame

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestOpenMinimalKV(t *testing.T) {
	db, err := Open(Options{}, "Linux", "BPlusTree", "Put", "Get")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("k"))
	if err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := db.Remove([]byte("k")); !errors.Is(err, ErrNotComposed) {
		t.Fatalf("Remove = %v, want ErrNotComposed", err)
	}
	if _, err := db.Begin(); !errors.Is(err, ErrNotComposed) {
		t.Fatalf("Begin = %v, want ErrNotComposed", err)
	}
	if _, err := db.Exec("SELECT 1"); !errors.Is(err, ErrNotComposed) {
		t.Fatalf("Exec = %v, want ErrNotComposed", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, ErrNotComposed) {
		t.Fatalf("Checkpoint = %v, want ErrNotComposed", err)
	}
}

func TestOpenInvalidSelection(t *testing.T) {
	// NutOS forbids SQL by cross-tree constraint.
	if _, err := Open(Options{}, "NutOS", "SQLEngine"); err == nil {
		t.Fatal("contradictory selection should fail")
	}
	if _, err := Open(Options{}, "NoSuchFeature"); err == nil {
		t.Fatal("unknown feature should fail")
	}
}

func TestPropagationThroughFacade(t *testing.T) {
	// Selecting Transaction pulls in BufferManager and Put.
	db, err := Open(Options{}, "Linux", "BPlusTree", "Get", "Transaction", "ForceCommit")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if !db.Has("BufferManager") || !db.Has("Put") {
		t.Fatalf("propagation missing: %v", db.Features())
	}
}

func TestTransactionsViaFacade(t *testing.T) {
	db, err := Open(Options{},
		"Linux", "BPlusTree", "Put", "Get", "Update", "Remove",
		"BTreeUpdate", "BTreeRemove", "Transaction", "ForceCommit")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tx.Put([]byte("a"), []byte("1"))
	if v, err := tx.Get([]byte("a")); err != nil || string(v) != "1" {
		t.Fatalf("tx.Get = %q, %v", v, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("a"))
	if err != nil || string(v) != "1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	tx2, _ := db.Begin()
	tx2.Update([]byte("a"), []byte("2"))
	tx2.Abort()
	if v, _ := db.Get([]byte("a")); string(v) != "1" {
		t.Fatalf("aborted update applied: %q", v)
	}
	tx3, _ := db.Begin()
	if err := tx3.Remove([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("a")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after remove = %v", err)
	}
}

func TestSQLViaFacade(t *testing.T) {
	db, err := Open(Options{},
		"Linux", "BPlusTree", "BTreeUpdate", "BTreeRemove",
		"Put", "Get", "Remove", "Update", "SQLEngine", "Optimizer")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t VALUES (1, 'one'), (2, 'two')"); err != nil {
		t.Fatal(err)
	}
	r, err := db.Exec("SELECT name FROM t WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0].Str != "two" || r.Plan != "point-lookup" {
		t.Fatalf("result = %+v", r)
	}
}

func TestScanOrdered(t *testing.T) {
	db, err := Open(Options{}, "Linux", "BPlusTree", "Put", "Get")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, k := range []string{"c", "a", "b"} {
		db.Put([]byte(k), []byte("v"))
	}
	var got []string
	db.Scan(nil, nil, func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("scan = %v", got)
	}
	if n, _ := db.Len(); n != 3 {
		t.Fatalf("Len = %d", n)
	}
}

func TestPersistenceInDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	feats := []string{"Linux", "BPlusTree", "Put", "Get"}
	db, err := Open(Options{Dir: dir}, feats...)
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("persist"), []byte("disk"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Real files exist on disk.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no files in %s: %v", dir, err)
	}
	db2, err := Open(Options{Dir: dir}, feats...)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	v, err := db2.Get([]byte("persist"))
	if err != nil || string(v) != "disk" {
		t.Fatalf("Get after reopen = %q, %v", v, err)
	}
}

func TestROMRAMExposed(t *testing.T) {
	small, _ := Open(Options{}, "NutOS", "ListIndex", "Put", "Get")
	defer small.Close()
	big, _ := Open(Options{}, "Linux", "BPlusTree", "Put", "Get", "SQLEngine", "Transaction", "ForceCommit")
	defer big.Close()
	sr, err := small.ROM()
	if err != nil {
		t.Fatal(err)
	}
	br, _ := big.ROM()
	if sr >= br {
		t.Fatalf("ROM ordering: %d >= %d", sr, br)
	}
	if small.RAM() <= 0 || big.RAM() <= 0 {
		t.Fatal("RAM not reported")
	}
}

func TestOptimizeFacade(t *testing.T) {
	cfg, rom, err := Optimize([]string{"Put", "Get"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rom <= 0 || !cfg.Has("Put") {
		t.Fatalf("optimize = %d, %s", rom, cfg)
	}
	gcfg, grom, err := OptimizeGreedy([]string{"Put", "Get"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if grom < rom {
		t.Fatalf("greedy %d beat exact %d", grom, rom)
	}
	if !gcfg.IsComplete() {
		t.Fatal("greedy config incomplete")
	}
	// The optimum composes and runs.
	db, err := OpenConfig(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Put([]byte("k"), []byte("v"))
	if v, _ := db.Get([]byte("k")); string(v) != "v" {
		t.Fatal("optimized product broken")
	}
	// Infeasible budget.
	if _, _, err := Optimize([]string{"Put", "Get"}, 1); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("budget 1 = %v", err)
	}
}

func TestAnalyzeFacade(t *testing.T) {
	dir := t.TempDir()
	app := `package main

func main() {
	db.Put(k, v)
	db.Get(k)
	rows := db.Exec("SELECT * FROM events WHERE id = 1")
	_ = rows
}
`
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(app), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"Put": true, "Get": true, "SQLEngine": true, "Optimizer": true}
	for _, d := range a.Detected {
		delete(want, d)
	}
	if len(want) != 0 {
		t.Fatalf("undetected: %v (got %v)", want, a.Detected)
	}
	if len(a.Open) == 0 {
		t.Fatal("no open decisions reported")
	}
	// The derived configuration completes into a runnable product.
	if err := a.Config.Complete(0); err != nil {
		t.Fatal(err)
	}
	db, err := OpenConfig(a.Config, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE events (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
}

func TestModelAccessors(t *testing.T) {
	if FeatureModel().Name != "FAME-DBMS" {
		t.Fatal("FeatureModel name")
	}
	if BerkeleyDBModel().Name != "BerkeleyDB" {
		t.Fatal("BerkeleyDBModel name")
	}
	m, err := ParseModel("model M { optional A }")
	if err != nil || m.Feature("A") == nil {
		t.Fatalf("ParseModel: %v", err)
	}
}

func ExampleOpen() {
	db, err := Open(Options{}, "Linux", "BPlusTree", "Put", "Get")
	if err != nil {
		panic(err)
	}
	defer db.Close()
	db.Put([]byte("sensor-1"), []byte("21.5C"))
	v, _ := db.Get([]byte("sensor-1"))
	fmt.Println(string(v))
	// Output: 21.5C
}

func TestVerifyAndDegradedViaFacade(t *testing.T) {
	db, err := Open(Options{},
		"Linux", "BPlusTree", "Put", "Get", "Checksums",
		"BufferManager", "LRU", "Transaction", "ForceCommit")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Degraded() {
		t.Fatal("fresh product reports degraded")
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tx.Put([]byte("k"), []byte("v"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rep, err := db.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() || rep.Pages == nil || rep.Log == nil {
		t.Fatalf("facade scrub = %s", rep)
	}

	// A product without scrubbables refuses.
	bare, err := Open(Options{}, "Linux", "ListIndex", "Put", "Get")
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if _, err := bare.Verify(); !errors.Is(err, ErrNotComposed) {
		t.Fatalf("bare Verify = %v, want ErrNotComposed", err)
	}
}
