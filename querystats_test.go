package fame

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"famedb/internal/osal"
)

// observedFeatures is the smallest SQL product with statement
// profiling.
func observedFeatures() []string {
	return append(sqlFeatures(false), "Statistics", "QueryStats")
}

func TestExplainRequiresQueryStats(t *testing.T) {
	db, err := Open(Options{}, sqlFeatures(false)...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("EXPLAIN SELECT * FROM t"); !errors.Is(err, ErrNotComposed) {
		t.Fatalf("EXPLAIN without QueryStats = %v, want ErrNotComposed", err)
	}
	if _, _, err := db.SlowQueries(); !errors.Is(err, ErrNotComposed) {
		t.Fatalf("SlowQueries without QueryStats = %v, want ErrNotComposed", err)
	}
	if _, _, err := db.DrainSlowQueries(); !errors.Is(err, ErrNotComposed) {
		t.Fatalf("DrainSlowQueries without QueryStats = %v, want ErrNotComposed", err)
	}
}

func TestQueryStatsViaFacade(t *testing.T) {
	// Every page write takes 2ms, above the 1ms slow-query threshold,
	// so each statement that writes lands in the slow ring.
	db, err := Open(Options{FS: osal.NewDelayFS(osal.NewMemFS(), 2*time.Millisecond, 0)},
		observedFeatures()...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if !db.Has("QueryStats") {
		t.Fatalf("QueryStats missing: %v", db.Features())
	}

	if _, err := db.Exec("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'v%d')", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	r, err := db.Exec("EXPLAIN ANALYZE SELECT v FROM t WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	var plan strings.Builder
	for _, row := range r.Rows {
		plan.WriteString(row[0].Str)
		plan.WriteByte('\n')
	}
	for _, want := range []string{"explain select on t", "access:", "executed:", "returned=1"} {
		if !strings.Contains(plan.String(), want) {
			t.Fatalf("plan missing %q:\n%s", want, plan.String())
		}
	}

	// The profiles surface through the Statistics snapshot, with the
	// INSERT shapes collapsed to one parameterized profile.
	snap, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Queries == nil {
		t.Fatal("snapshot has no query section")
	}
	var insert *QueryShapeSnapshot
	for i := range snap.Queries.Shapes {
		if snap.Queries.Shapes[i].Shape == "INSERT INTO t VALUES ( ? , ? )" {
			insert = &snap.Queries.Shapes[i]
		}
	}
	if insert == nil || insert.Count != 4 {
		t.Fatalf("insert shape = %+v, want 4 executions", insert)
	}

	// The slow ring drains exactly once through the facade.
	slow, _, err := db.SlowQueries()
	if err != nil || len(slow) == 0 {
		t.Fatalf("SlowQueries = %d entries, %v", len(slow), err)
	}
	drained, _, err := db.DrainSlowQueries()
	if err != nil || len(drained) != len(slow) {
		t.Fatalf("DrainSlowQueries = %d entries, %v; want %d", len(drained), err, len(slow))
	}
	if again, _, _ := db.SlowQueries(); len(again) != 0 {
		t.Fatalf("ring holds %d entries after drain", len(again))
	}
}

func TestQueryStatsExcludedOnNutOS(t *testing.T) {
	// NutOS forbids SQLEngine, and QueryStats requires it (and
	// Statistics): the cross-tree constraints must reject the combo.
	if _, err := Open(Options{}, "NutOS", "QueryStats"); err == nil {
		t.Fatal("NutOS + QueryStats should be infeasible")
	}
}
