package fame

import (
	"errors"
	"fmt"
	"testing"
)

// sqlFeatures is the smallest SQL-capable product, optionally extended
// with CompiledQueries.
func sqlFeatures(compiled bool) []string {
	fs := []string{
		"Linux", "BPlusTree", "BTreeUpdate", "BTreeRemove",
		"Put", "Get", "Remove", "Update", "SQLEngine", "Optimizer",
	}
	if compiled {
		fs = append(fs, "CompiledQueries")
	}
	return fs
}

func TestPrepareRequiresCompiledQueries(t *testing.T) {
	db, err := Open(Options{}, sqlFeatures(false)...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Prepare("SELECT 1"); !errors.Is(err, ErrNotComposed) {
		t.Fatalf("Prepare without CompiledQueries = %v, want ErrNotComposed", err)
	}
}

func TestPrepareViaFacade(t *testing.T) {
	db, err := Open(Options{}, sqlFeatures(true)...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if !db.Has("CompiledQueries") {
		t.Fatalf("CompiledQueries missing: %v", db.Features())
	}
	if _, err := db.Exec("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	ins, err := db.Prepare("INSERT INTO t VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	if ins.NumParams() != 2 {
		t.Fatalf("NumParams = %d", ins.NumParams())
	}
	for i := 0; i < 8; i++ {
		if _, err := ins.Exec(IntValue(int64(i)), StringValue(fmt.Sprintf("n%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ins.Close(); err != nil {
		t.Fatal(err)
	}

	sel, err := db.Prepare("SELECT name FROM t WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	r, err := sel.Exec(IntValue(5))
	if err != nil || len(r.Rows) != 1 || r.Rows[0][0].Str != "n5" {
		t.Fatalf("Exec = %+v, %v", r, err)
	}
	if r.Plan != "point-lookup" {
		t.Fatalf("plan = %s, want point-lookup", r.Plan)
	}
}

// TestPlanCacheViaFacade: with Statistics composed, repeated unprepared
// Exec of one statement shape shows up as plan-cache hits.
func TestPlanCacheViaFacade(t *testing.T) {
	feats := append(sqlFeatures(true), "Statistics")
	db, err := Open(Options{}, feats...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'x')", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if _, err := db.Exec(fmt.Sprintf("SELECT v FROM t WHERE id = %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.SQL.PlanMisses == 0 || s.SQL.PlanHits < 5 {
		t.Fatalf("plan cache hits/misses = %d/%d", s.SQL.PlanHits, s.SQL.PlanMisses)
	}
	if s.SQL.PointLookups == 0 {
		t.Fatalf("point lookups = %d", s.SQL.PointLookups)
	}
}

func TestCompiledQueriesExcludedOnNutOS(t *testing.T) {
	// NutOS forbids SQLEngine, and CompiledQueries requires it: the
	// cross-tree constraints must reject the combination.
	if _, err := Open(Options{}, "NutOS", "CompiledQueries"); err == nil {
		t.Fatal("NutOS + CompiledQueries should be infeasible")
	}
}
