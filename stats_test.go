package fame

// Integration tests for the Statistics feature: a product derived with
// it exposes real per-layer counters; the same workload on a product
// without it answers Stats() with ErrNotComposed; and the hot path of
// an uninstrumented product stays allocation-identical to the seed.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// statsFeatures is a product exercising every instrumented layer:
// buffer manager, B+-tree, WAL/transactions, and the SQL engine.
var statsFeatures = []string{
	"Linux", "BPlusTree", "BufferManager", "LRU",
	"Put", "Get", "Remove", "Update",
	"Transaction", "ForceCommit", "Recovery",
	"SQLEngine", "Optimizer",
}

// runStatsWorkload drives every instrumented layer of the product.
func runStatsWorkload(t *testing.T, db *DB) {
	t.Helper()
	for i := 0; i < 64; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i))
		if err := db.Put(k, []byte(strings.Repeat("v", 40))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i))
		if _, err := db.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put([]byte("txk"), []byte("txv")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t (id, name) VALUES (1, 'a')"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("SELECT name FROM t WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
}

func TestStatsComposedExposesCounters(t *testing.T) {
	db, err := Open(Options{}, append(statsFeatures, "Statistics")...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if !db.Has("Statistics") {
		t.Fatal("Statistics not in derived configuration")
	}
	runStatsWorkload(t, db)

	snap, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Buffer.Policy != "LRU" {
		t.Errorf("buffer policy = %q, want LRU", snap.Buffer.Policy)
	}
	if snap.Buffer.Hits+snap.Buffer.Misses == 0 {
		t.Error("no buffer traffic recorded")
	}
	if snap.Pager.Allocs == 0 {
		t.Error("no pager allocs recorded")
	}
	if snap.BTree.Height < 1 {
		t.Errorf("btree height = %d, want >= 1", snap.BTree.Height)
	}
	// On this Transaction product each of the 64 facade puts is an
	// auto-commit transaction, next to the one explicit transaction, and
	// so are the CREATE and the INSERT: a writing SQL statement is one
	// transaction, a SELECT none.
	if snap.Txn.Begins != 67 || snap.Txn.Commits != 67 || snap.Txn.CommitLatency.Count != 67 {
		t.Errorf("txn begins/commits/commit latency count = %d/%d/%d, want 67/67/67",
			snap.Txn.Begins, snap.Txn.Commits, snap.Txn.CommitLatency.Count)
	}
	if snap.Txn.WalAppends == 0 || snap.Txn.WalSyncs == 0 {
		t.Errorf("wal appends/syncs = %d/%d, want > 0", snap.Txn.WalAppends, snap.Txn.WalSyncs)
	}
	if snap.SQL.Creates != 1 || snap.SQL.Inserts != 1 || snap.SQL.Selects != 1 {
		t.Errorf("sql verbs = %+v", snap.SQL)
	}
	if snap.SQL.IndexScans+snap.SQL.FullScans+snap.SQL.PointLookups == 0 {
		t.Error("no access paths recorded")
	}
	if snap.Access.GetLatency.Count != 64 {
		t.Errorf("get latency count = %d, want 64", snap.Access.GetLatency.Count)
	}
	if snap.Access.PutLatency.Count != 64 {
		t.Errorf("put latency count = %d, want 64", snap.Access.PutLatency.Count)
	}

	var b strings.Builder
	if err := snap.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `famedb_buffer_hits_total{policy="LRU"}`) {
		t.Error("Prometheus exposition missing labeled buffer hits")
	}
}

func TestStatsNotComposed(t *testing.T) {
	db, err := Open(Options{}, statsFeatures...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Has("Statistics") {
		t.Fatal("Statistics unexpectedly selected")
	}
	runStatsWorkload(t, db)

	_, err = db.Stats()
	if !errors.Is(err, ErrNotComposed) {
		t.Fatalf("Stats() error = %v, want ErrNotComposed", err)
	}
}

// TestStatsHotPathZeroAlloc is the zero-overhead claim as a hard test:
// a steady-state Get on a product *without* Statistics must not
// allocate on account of the disabled instrumentation (the nil
// registry's Start/Done), and the instrumented product must match it
// exactly (atomics only, no allocation).
func TestStatsHotPathZeroAlloc(t *testing.T) {
	allocs := map[string]float64{}
	for _, tc := range []struct {
		name     string
		features []string
	}{
		{"without-statistics", []string{"Linux", "BPlusTree", "BufferManager", "LRU", "Put", "Get"}},
		{"with-statistics", []string{"Linux", "BPlusTree", "BufferManager", "LRU", "Put", "Get", "Statistics"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(Options{}, tc.features...)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			key := []byte("k")
			if err := db.Put(key, []byte(strings.Repeat("v", 32))); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Get(key); err != nil {
				t.Fatal(err)
			}
			allocs[tc.name] = testing.AllocsPerRun(200, func() {
				if _, err := db.Get(key); err != nil {
					t.Fatal(err)
				}
			})
			// The engine itself allocates the returned value copy; the
			// instrumentation must add nothing beyond that.
			if allocs[tc.name] > 3 {
				t.Errorf("steady-state Get allocates %v times per run, want <= 3", allocs[tc.name])
			}
		})
	}
	if allocs["with-statistics"] != allocs["without-statistics"] {
		t.Errorf("steady-state Get allocates %v times with Statistics and %v without, want the same",
			allocs["with-statistics"], allocs["without-statistics"])
	}
}

// BenchmarkStatsGetOverhead compares the steady-state Get hot path with
// and without the Statistics feature composed; run with -benchmem to
// confirm identical allocation counts.
func BenchmarkStatsGetOverhead(b *testing.B) {
	for _, tc := range []struct {
		name     string
		features []string
	}{
		{"without", []string{"Linux", "BPlusTree", "BufferManager", "LRU", "Put", "Get"}},
		{"with", []string{"Linux", "BPlusTree", "BufferManager", "LRU", "Put", "Get", "Statistics"}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			db, err := Open(Options{}, tc.features...)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			key := []byte("bench-key")
			if err := db.Put(key, []byte(strings.Repeat("v", 32))); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Get(key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
