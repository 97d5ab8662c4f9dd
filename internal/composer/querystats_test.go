package composer

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"famedb/internal/access"
	"famedb/internal/osal"
)

// querystatsFeatures is the canonical observed-SQL product; QueryStats
// is last so tests can slice it off for the bare variant.
var querystatsFeatures = []string{
	"Linux", "BPlusTree", "Put", "Get",
	"Optimizer", "SQLEngine", "Statistics", "QueryStats",
}

// slowWrites is a device whose every page write takes 2ms, above the
// QueryStats feature's 1ms slow-query threshold: each statement that
// writes lands in the slow ring.
func slowWrites() osal.FS { return osal.NewDelayFS(osal.NewMemFS(), 2*time.Millisecond, 0) }

func TestComposeQueryStats(t *testing.T) {
	inst, err := ComposeProduct(Options{FS: slowWrites()}, querystatsFeatures...)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	if inst.StatsRegistry().Query() == nil {
		t.Fatal("QueryStats product has no query registry")
	}
	if _, err := inst.SQL.Exec("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := inst.SQL.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'v%d')", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	r, err := inst.SQL.Exec("EXPLAIN ANALYZE SELECT v FROM t WHERE id = 2")
	if err != nil {
		t.Fatalf("EXPLAIN on the composed product: %v", err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("EXPLAIN produced no plan lines")
	}

	snap, err := inst.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Queries == nil {
		t.Fatal("snapshot has no query section")
	}
	if snap.Queries.MaxShapes != 128 || snap.Queries.SlowThresholdNs != int64(time.Millisecond) {
		t.Fatalf("sizing is not the feature's constants: %+v", snap.Queries)
	}
	var count int64
	for _, sh := range snap.Queries.Shapes {
		count += sh.Count
	}
	if count != 6 { // CREATE + 4 INSERTs + EXPLAIN ANALYZE
		t.Fatalf("profiled %d executions, want 6", count)
	}
	// Every statement that wrote a page crossed the 1ms threshold: the
	// bounded ring retained them.
	if len(snap.Queries.Slow) == 0 {
		t.Fatal("slow ring empty despite 2ms page writes")
	}
}

// TestQueryStatsNotComposed: the same product minus QueryStats answers
// EXPLAIN with ErrNotComposed and exposes no query section.
func TestQueryStatsNotComposed(t *testing.T) {
	bare := querystatsFeatures[:len(querystatsFeatures)-1]
	inst, err := ComposeProduct(Options{}, bare...)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	if inst.StatsRegistry().Query() != nil {
		t.Fatal("bare product has a query registry")
	}
	if _, err := inst.SQL.Exec("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.SQL.Exec("EXPLAIN SELECT * FROM t"); !errors.Is(err, access.ErrNotComposed) {
		t.Fatalf("EXPLAIN without QueryStats = %v, want ErrNotComposed", err)
	}
	snap, err := inst.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Queries != nil {
		t.Fatal("bare product's snapshot has a query section")
	}
}

// TestQueryStatsTraceLink: with Tracing composed, slow-query entries
// carry the statement's root span ID so an operator can jump from the
// slow log into the span ring.
func TestQueryStatsTraceLink(t *testing.T) {
	feats := append(append([]string{}, querystatsFeatures...), "Tracing")
	inst, err := ComposeProduct(Options{FS: slowWrites()}, feats...)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	if _, err := inst.SQL.Exec("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.SQL.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	slow, _ := inst.StatsRegistry().Query().SlowQueries()
	if len(slow) == 0 {
		t.Fatal("no slow entries despite 2ms page writes")
	}
	for _, s := range slow {
		if s.TraceRoot == 0 {
			t.Fatalf("slow entry %q has no trace root with Tracing composed", s.Shape)
		}
	}
	// The drain hands the entries over exactly once.
	drained, _ := inst.StatsRegistry().Query().DrainSlowQueries()
	if len(drained) != len(slow) {
		t.Fatalf("drained %d, want %d", len(drained), len(slow))
	}
	if again, _ := inst.StatsRegistry().Query().SlowQueries(); len(again) != 0 {
		t.Fatalf("ring still holds %d entries after drain", len(again))
	}
}
