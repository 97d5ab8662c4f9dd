package stats

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestQueryStatsObserveAccumulates checks one shape's profile folds
// every counter of its executions.
func TestQueryStatsObserveAccumulates(t *testing.T) {
	q := NewQueryStats()
	for i := 0; i < 3; i++ {
		q.Observe(QueryExec{
			Shape:        "SELECT v FROM t WHERE id = ?",
			Verb:         "select",
			Plan:         "point-lookup",
			DurNs:        100,
			RowsScanned:  2,
			RowsReturned: 1,
			PagesVisited: 4,
		})
	}
	q.Observe(QueryExec{
		Shape: "SELECT v FROM t WHERE id = ?",
		DurNs: 50,
		Err:   errors.New("boom"),
	})
	snap := q.snapshot()
	if len(snap.Shapes) != 1 {
		t.Fatalf("shapes = %d, want 1", len(snap.Shapes))
	}
	sh := snap.Shapes[0]
	if sh.Count != 4 || sh.TotalNs != 350 || sh.RowsScanned != 6 ||
		sh.RowsReturned != 3 || sh.PagesVisited != 12 {
		t.Fatalf("profile = %+v", sh)
	}
	if sh.Errors != 1 || sh.LastError != "boom" {
		t.Fatalf("errors = %d lastErr = %q", sh.Errors, sh.LastError)
	}
	if sh.Verb != "select" || sh.Plan != "point-lookup" {
		t.Fatalf("verb/plan = %q/%q", sh.Verb, sh.Plan)
	}
	if sh.Latency.Count != 4 {
		t.Fatalf("latency count = %d, want 4", sh.Latency.Count)
	}
}

// TestQueryStatsOverflowKeepsSumsExact drives more distinct shapes
// than the bound admits and checks the overflow pseudo-shape absorbs
// the excess so per-shape sums still equal the work done.
func TestQueryStatsOverflowKeepsSumsExact(t *testing.T) {
	const bound, total = 4, 20
	q := NewQueryStats()
	q.maxShapes = bound
	for i := 0; i < total; i++ {
		q.Observe(QueryExec{Shape: fmt.Sprintf("SELECT %d", i), DurNs: 1, RowsScanned: 3})
	}
	snap := q.snapshot()
	// bound distinct shapes plus the overflow pseudo-shape.
	if len(snap.Shapes) != bound+1 {
		t.Fatalf("shapes = %d, want %d", len(snap.Shapes), bound+1)
	}
	var count, scanned int64
	overflow := false
	for _, sh := range snap.Shapes {
		count += sh.Count
		scanned += sh.RowsScanned
		if sh.Shape == QueryOverflowShape {
			overflow = true
			if sh.Count != total-bound {
				t.Fatalf("overflow count = %d, want %d", sh.Count, total-bound)
			}
		}
	}
	if !overflow {
		t.Fatal("no overflow pseudo-shape")
	}
	if count != total || scanned != 3*total {
		t.Fatalf("sums = %d execs / %d scanned, want %d / %d", count, scanned, total, 3*total)
	}
}

// TestQueryStatsSlowRing checks threshold gating, bounded retention
// with drop counting, and that drain clears exactly once.
func TestQueryStatsSlowRing(t *testing.T) {
	q := NewQueryStats()
	q.slowNs, q.slow.buf = 100, make([]SlowQuery, 4)
	q.Observe(QueryExec{Shape: "fast", DurNs: 99})
	for i := 0; i < 6; i++ {
		q.Observe(QueryExec{Shape: fmt.Sprintf("slow-%d", i), DurNs: 100 + int64(i), TraceRoot: uint64(i + 1)})
	}
	slow, dropped := q.SlowQueries()
	if len(slow) != 4 || dropped != 2 {
		t.Fatalf("ring = %d entries, %d dropped; want 4, 2", len(slow), dropped)
	}
	// Oldest-first: the two oldest slow entries were overwritten.
	if slow[0].Shape != "slow-2" || slow[3].Shape != "slow-5" {
		t.Fatalf("order = %q .. %q", slow[0].Shape, slow[3].Shape)
	}
	if slow[0].TraceRoot != 3 {
		t.Fatalf("trace root = %d, want 3", slow[0].TraceRoot)
	}
	// Reading did not drain.
	if again, _ := q.SlowQueries(); len(again) != 4 {
		t.Fatalf("second read = %d entries, want 4", len(again))
	}
	drained, _ := q.DrainSlowQueries()
	if len(drained) != 4 {
		t.Fatalf("drain = %d entries, want 4", len(drained))
	}
	if after, _ := q.SlowQueries(); len(after) != 0 {
		t.Fatalf("ring after drain = %d entries, want 0", len(after))
	}
}

// TestQueryStatsCacheAttribution checks hit/miss/evict land on the
// right shape profiles.
func TestQueryStatsCacheAttribution(t *testing.T) {
	q := NewQueryStats()
	q.CacheMiss("a")
	q.CacheHit("a")
	q.CacheHit("a")
	q.CacheMiss("b")
	q.CacheEvict("a")
	snap := q.snapshot()
	by := map[string]QueryShapeSnapshot{}
	for _, sh := range snap.Shapes {
		by[sh.Shape] = sh
	}
	a, b := by["a"], by["b"]
	if a.PlanHits != 2 || a.PlanMisses != 1 || a.PlanEvicts != 1 {
		t.Fatalf("shape a cache = %d/%d/%d", a.PlanHits, a.PlanMisses, a.PlanEvicts)
	}
	if b.PlanHits != 0 || b.PlanMisses != 1 || b.PlanEvicts != 0 {
		t.Fatalf("shape b cache = %d/%d/%d", b.PlanHits, b.PlanMisses, b.PlanEvicts)
	}
}

// TestQueryStatsNilSafe checks the uncomposed (nil) registry absorbs
// every call, which is what makes the engine's recording sites free.
func TestQueryStatsNilSafe(t *testing.T) {
	var q *QueryStats
	q.Observe(QueryExec{Shape: "x", DurNs: 1})
	q.CacheHit("x")
	q.CacheMiss("x")
	q.CacheEvict("x")
	if ns := q.SlowThresholdNs(); ns != 0 {
		t.Fatalf("nil threshold = %d", ns)
	}
	if slow, dropped := q.SlowQueries(); slow != nil || dropped != 0 {
		t.Fatal("nil SlowQueries not empty")
	}
	if slow, dropped := q.DrainSlowQueries(); slow != nil || dropped != 0 {
		t.Fatal("nil DrainSlowQueries not empty")
	}
	if q.snapshot() != nil {
		t.Fatal("nil snapshot not nil")
	}
}

// TestQueryStatsConcurrentObserve hammers the striped registry and the
// slow ring from many goroutines while a drainer empties the ring and a
// reader snapshots it (run under -race), and checks nothing is lost:
// every slow execution is drained, retained or counted as overwritten.
func TestQueryStatsConcurrentObserve(t *testing.T) {
	q := NewQueryStats()
	q.maxShapes, q.slowNs = 8, 1
	const workers, per = 8, 200
	stop := make(chan struct{})
	drained := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				drained <- n
				return
			default:
				slow, _ := q.DrainSlowQueries()
				n += len(slow)
				_ = q.snapshot()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shape := fmt.Sprintf("shape-%d", w%4)
			for i := 0; i < per; i++ {
				q.Observe(QueryExec{Shape: shape, DurNs: int64(i + 1)})
				q.CacheHit(shape)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	n := <-drained
	snap := q.snapshot()
	var count, hits int64
	for _, sh := range snap.Shapes {
		count += sh.Count
		hits += sh.PlanHits
	}
	if count != workers*per || hits != workers*per {
		t.Fatalf("count = %d hits = %d, want %d", count, hits, workers*per)
	}
	if got := n + len(snap.Slow) + int(snap.SlowDropped); got != workers*per {
		t.Fatalf("slow ring: %d drained + %d retained + %d overwritten = %d, want %d",
			n, len(snap.Slow), snap.SlowDropped, got, workers*per)
	}
}
