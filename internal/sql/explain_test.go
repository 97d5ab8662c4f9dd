package sql

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"famedb/internal/access"
	"famedb/internal/osal"
	"famedb/internal/stats"
	"famedb/internal/types"
)

// newObservedEngine builds an engine with the QueryStats feature (and
// a metrics registry, so the per-shape cache attribution can be
// reconciled against the global counters). compiled additionally
// composes CompiledQueries.
func newObservedEngine(t *testing.T, compiled bool) (*Engine, *stats.Registry) {
	t.Helper()
	return newObservedEngineOn(t, osal.NewMemFS(), compiled)
}

// newObservedEngineOn is newObservedEngine over the file system fs.
func newObservedEngineOn(t *testing.T, fs osal.FS, compiled bool) (*Engine, *stats.Registry) {
	t.Helper()
	reg := stats.New()
	reg.SetQueryStats(stats.NewQueryStats())
	return createEngineOn(t, fs, Config{Optimizer: true, Compiled: compiled,
		Metrics: reg, Query: reg.Query()}), reg
}

// planLines flattens an EXPLAIN result into its text lines.
func planLines(t *testing.T, r *Result) []string {
	t.Helper()
	if len(r.Columns) != 1 || r.Columns[0] != "plan" {
		t.Fatalf("columns = %v", r.Columns)
	}
	var lines []string
	for _, row := range r.Rows {
		lines = append(lines, row[0].Str)
	}
	return lines
}

// wantLine asserts some plan line contains every fragment.
func wantLine(t *testing.T, lines []string, frags ...string) string {
	t.Helper()
outer:
	for _, ln := range lines {
		for _, f := range frags {
			if !strings.Contains(ln, f) {
				continue outer
			}
		}
		return ln
	}
	t.Fatalf("no plan line with %q in:\n%s", frags, strings.Join(lines, "\n"))
	return ""
}

func TestExplainNeedsQueryStats(t *testing.T) {
	e := newEngine(t, true) // SQLEngine without QueryStats
	seedUsers(t, e)
	if _, err := e.Exec("EXPLAIN SELECT * FROM users"); !errors.Is(err, access.ErrNotComposed) {
		t.Fatalf("EXPLAIN without feature = %v, want ErrNotComposed", err)
	}
	ec, _ := newCompiledEngine(t, 0) // CompiledQueries without QueryStats
	seedUsers(t, ec)
	if _, err := ec.Prepare("EXPLAIN SELECT * FROM users"); !errors.Is(err, access.ErrNotComposed) {
		t.Fatalf("Prepare EXPLAIN without feature = %v, want ErrNotComposed", err)
	}
}

func TestExplainRejectsNestedAndUnknown(t *testing.T) {
	e, _ := newObservedEngine(t, false)
	seedUsers(t, e)
	if _, err := e.Exec("EXPLAIN EXPLAIN SELECT * FROM users"); err == nil ||
		!strings.Contains(err.Error(), "cannot EXPLAIN an EXPLAIN") {
		t.Fatalf("nested EXPLAIN = %v", err)
	}
	if _, err := e.Exec("EXPLAIN SELECT * FROM nosuch"); err == nil {
		t.Fatal("EXPLAIN over a missing table should fail")
	}
	// Analyzing a failing statement propagates the execution error.
	if _, err := e.Exec("EXPLAIN ANALYZE INSERT INTO users VALUES (1, 'dup', 1)"); err == nil {
		t.Fatal("EXPLAIN ANALYZE of a duplicate insert should fail")
	}
}

// TestExplainDescribesSelect checks the static plan tree: access path,
// predicate residue, projection/decode mask, and provenance.
func TestExplainDescribesSelect(t *testing.T) {
	e, reg := newObservedEngine(t, false)
	seedUsers(t, e)

	r := mustExec(t, e, "EXPLAIN SELECT name FROM users WHERE id >= 2 AND id < 4")
	lines := planLines(t, r)
	if lines[0] != "explain select on users" {
		t.Fatalf("head = %q", lines[0])
	}
	wantLine(t, lines, "access: index-scan on users via primary key id")
	wantLine(t, lines, "predicate: fused conjunction, 2 term(s)")
	wantLine(t, lines, "project: name (1 of 3 columns)", "decode mask: 2 of 3")
	wantLine(t, lines, "source: exec; epoch", "plan-cache: not composed")
	if r.Plan != "index-scan" {
		t.Fatalf("Plan = %q", r.Plan)
	}

	// Plain EXPLAIN does not execute: nothing profiled for the inner
	// shape, but the EXPLAIN statement itself is.
	snap := reg.Snapshot()
	for _, sh := range snap.Queries.Shapes {
		if sh.Shape == "SELECT name FROM users WHERE id >= ? AND id < ?" {
			t.Fatalf("inner shape profiled by plain EXPLAIN: %+v", sh)
		}
	}
	found := false
	for _, sh := range snap.Queries.Shapes {
		if strings.HasPrefix(sh.Shape, "EXPLAIN SELECT") && sh.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("EXPLAIN statement not profiled: %+v", snap.Queries.Shapes)
	}

	// A full scan renders the index name instead of a key bound.
	lines = planLines(t, mustExec(t, e, "EXPLAIN SELECT * FROM users WHERE age = 25"))
	wantLine(t, lines, "access: full-scan on users (")
	wantLine(t, lines, "predicate: fused conjunction, 1 term(s)")
}

// TestExplainAnalyzeCountersTruthful executes through EXPLAIN ANALYZE
// and checks the reported counters against externally-known ground
// truth: the seeded table has 4 rows, 2 of them with age 25.
func TestExplainAnalyzeCountersTruthful(t *testing.T) {
	e, _ := newObservedEngine(t, false)
	seedUsers(t, e)

	lines := planLines(t, mustExec(t, e, "EXPLAIN ANALYZE SELECT name FROM users WHERE age = 25"))
	ln := wantLine(t, lines, "executed:")
	if !strings.Contains(ln, "scanned=4 matched=2 returned=2") {
		t.Fatalf("executed line = %q", ln)
	}

	// DML under ANALYZE really executes and reports the affected count.
	lines = planLines(t, mustExec(t, e, "EXPLAIN ANALYZE INSERT INTO users VALUES (9, 'eve', 41)"))
	wantLine(t, lines, "executed:", "returned=1")
	r := mustExec(t, e, "SELECT * FROM users")
	if len(r.Rows) != 5 {
		t.Fatalf("rows after analyzed insert = %d, want 5", len(r.Rows))
	}
	lines = planLines(t, mustExec(t, e, "EXPLAIN ANALYZE DELETE FROM users WHERE id = 9"))
	wantLine(t, lines, "executed:", "returned=1")
}

// TestExplainAnalyzeRunsThePlanThatRuns pins EXPLAIN ANALYZE to the
// plan a real execution uses: on a CompiledQueries product a single
// pk-equality runs as a point lookup — for a SELECT, an UPDATE and a
// DELETE alike — so that is what EXPLAIN and EXPLAIN ANALYZE must
// report: access line, Result.Plan, and counters equal to what one
// plain execution adds to the shape's profile.
func TestExplainAnalyzeRunsThePlanThatRuns(t *testing.T) {
	e, reg := newObservedEngine(t, true)
	seedUsers(t, e)

	for _, c := range []struct {
		stmt, shape string // stmt takes the key: warm, plain, analyzed
		keys        [3]int
	}{
		{"SELECT * FROM users WHERE id = %d", "SELECT * FROM users WHERE id = ?", [3]int{2, 2, 2}},
		{"UPDATE users SET age = 31 WHERE id = %d", "UPDATE users SET age = ? WHERE id = ?", [3]int{2, 2, 2}},
		{"DELETE FROM users WHERE id = %d", "DELETE FROM users WHERE id = ?", [3]int{1, 3, 4}},
	} {
		mustExec(t, e, fmt.Sprintf(c.stmt, c.keys[0])) // warm: plan cached
		before := queryShape(t, reg, c.shape)
		if r := mustExec(t, e, fmt.Sprintf(c.stmt, c.keys[1])); r.Plan != "point-lookup" {
			t.Fatalf("%s: plain execution plan = %q, want point-lookup", c.shape, r.Plan)
		}
		after := queryShape(t, reg, c.shape)
		if after.Plan != "point-lookup" {
			t.Fatalf("%s: profiled plan = %q, want point-lookup", c.shape, after.Plan)
		}

		q := fmt.Sprintf(c.stmt, c.keys[2])
		wantLine(t, planLines(t, mustExec(t, e, "EXPLAIN "+q)),
			"access: point-lookup on users via primary key id")
		r := mustExec(t, e, "EXPLAIN ANALYZE "+q)
		if r.Plan != "point-lookup" {
			t.Fatalf("%s: EXPLAIN ANALYZE Plan = %q, want point-lookup", c.shape, r.Plan)
		}
		lines := planLines(t, r)
		wantLine(t, lines, "access: point-lookup on users via primary key id")
		ln := wantLine(t, lines, "executed:", "scanned=1 matched=1 returned=1")
		var scanned, matched, returned, pages int64
		if _, err := fmt.Sscanf(ln[strings.Index(ln, "scanned="):], "scanned=%d matched=%d returned=%d pages=%d",
			&scanned, &matched, &returned, &pages); err != nil {
			t.Fatalf("executed line %q: %v", ln, err)
		}
		if want := after.RowsScanned - before.RowsScanned; scanned != want {
			t.Fatalf("%s: EXPLAIN ANALYZE scanned=%d, one plain execution scanned %d", c.shape, scanned, want)
		}
		if want := after.PagesVisited - before.PagesVisited; pages != want || pages <= 0 {
			t.Fatalf("%s: EXPLAIN ANALYZE pages=%d, one plain execution visited %d", c.shape, pages, want)
		}
	}
}

// TestExplainPrepared drives EXPLAIN through the prepared-statement
// surface: the inner statement's placeholders bind per execution and
// the provenance cites the prepared surface.
func TestExplainPrepared(t *testing.T) {
	e, _ := newObservedEngine(t, true)
	seedUsers(t, e)

	stmt, err := e.Prepare("EXPLAIN ANALYZE SELECT name FROM users WHERE age = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	r, err := stmt.Exec(types.Int(25))
	if err != nil {
		t.Fatal(err)
	}
	lines := planLines(t, r)
	wantLine(t, lines, "source: prepared; epoch")
	wantLine(t, lines, "executed:", "scanned=4 matched=2 returned=2")
	// Rebinding changes the executed counters, not the plan shape.
	r, err = stmt.Exec(types.Int(30))
	if err != nil {
		t.Fatal(err)
	}
	wantLine(t, planLines(t, r), "executed:", "scanned=4 matched=1 returned=1")

	// Unknown tables fail at Prepare, like preparing the inner
	// statement itself.
	if _, err := e.Prepare("EXPLAIN SELECT * FROM nosuch"); err == nil {
		t.Fatal("Prepare EXPLAIN over a missing table should fail")
	}

	// An unprepared EXPLAIN names its own surface, and a single
	// pk-equality's access line is the point lookup.
	lines = planLines(t, mustExec(t, e, "EXPLAIN SELECT name FROM users WHERE id = 1"))
	wantLine(t, lines, "access: point-lookup on users via primary key id")
	wantLine(t, lines, "source: exec; epoch")
}

// TestExplainCacheProvenance checks EXPLAIN reads the plan cache
// without touching it: the inner shape flips to "cached" only once a
// real execution populated it.
func TestExplainCacheProvenance(t *testing.T) {
	e, _ := newObservedEngine(t, true)
	seedUsers(t, e)

	const q = "EXPLAIN SELECT name FROM users WHERE id = 3"
	wantLine(t, planLines(t, mustExec(t, e, q)), "plan-cache: shape not cached")
	mustExec(t, e, "SELECT name FROM users WHERE id = 3")
	wantLine(t, planLines(t, mustExec(t, e, q)), "plan-cache: shape cached")
	// DDL bumps the epoch; the cached plan survives (lazy recompile),
	// and the provenance shows the new epoch.
	mustExec(t, e, "CREATE TABLE other (id INT PRIMARY KEY)")
	wantLine(t, planLines(t, mustExec(t, e, q)), "epoch 2")
}

// queryShape fetches one shape's profile from a registry snapshot.
func queryShape(t *testing.T, reg *stats.Registry, shape string) stats.QueryShapeSnapshot {
	t.Helper()
	snap := reg.Snapshot()
	if snap.Queries == nil {
		t.Fatal("no query snapshot")
	}
	for _, sh := range snap.Queries.Shapes {
		if sh.Shape == shape {
			return sh
		}
	}
	t.Fatalf("shape %q not profiled; have %+v", shape, snap.Queries.Shapes)
	return stats.QueryShapeSnapshot{}
}

// TestProfileTruthfulnessAcrossDrivers runs the same statements in
// lockstep through all three entry points — one-shot Exec on a
// feature-off engine, and the plan-cached and prepared paths of a
// CompiledQueries engine — and checks every entry point's per-shape
// profile reports identical scanned/returned counts — equal to
// test-side ground truth — and that pages visited matches the B+-tree's
// own independent visit counter.
func TestProfileTruthfulnessAcrossDrivers(t *testing.T) {
	ei, regI := newObservedEngine(t, false)
	ec, regC := newObservedEngine(t, true)
	seedUsers(t, ei)
	seedUsers(t, ec)

	const n = 8
	const shape = "SELECT name FROM users WHERE age > ?"
	// Ground truth from the seeded table: ages 30, 25, 35, 25 — two
	// rows pass age > 26, four rows are scanned per full scan.
	stmt, err := ec.Prepare(shape)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	for i := 0; i < n; i++ {
		ri := mustExec(t, ei, "SELECT name FROM users WHERE age > 26")
		rc := mustExec(t, ec, "SELECT name FROM users WHERE age > 26")
		rp, err := stmt.Exec(types.Int(26))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*Result{ri, rc, rp} {
			if len(r.Rows) != 2 {
				t.Fatalf("iteration %d: rows = %d, want 2", i, len(r.Rows))
			}
		}
	}

	// The prepared and plan-cached entry points share the normalized
	// shape on the compiled engine; the one-shot engine profiled it alone.
	pi := queryShape(t, regI, shape)
	pc := queryShape(t, regC, shape)
	if pi.Count != n || pc.Count != 2*n {
		t.Fatalf("counts = %d one-shot, %d compiled; want %d, %d", pi.Count, pc.Count, n, 2*n)
	}
	if pi.RowsScanned != 4*n || pi.RowsReturned != 2*n {
		t.Fatalf("one-shot scanned/returned = %d/%d, want %d/%d",
			pi.RowsScanned, pi.RowsReturned, 4*n, 2*n)
	}
	if pc.RowsScanned != 2*4*n || pc.RowsReturned != 2*2*n {
		t.Fatalf("compiled scanned/returned = %d/%d, want %d/%d",
			pc.RowsScanned, pc.RowsReturned, 2*4*n, 2*2*n)
	}

	// Pages: the engine's per-statement attribution must add up to the
	// B+-tree's own visit counter, read independently of the profile.
	tbl, err := ec.openTable(nil, "users")
	if err != nil {
		t.Fatal(err)
	}
	before := tbl.visits()
	for i := 0; i < n; i++ {
		mustExec(t, ec, "SELECT name FROM users WHERE age > 26")
	}
	delta := tbl.visits() - before
	after := queryShape(t, regC, shape)
	if got := after.PagesVisited - pc.PagesVisited; got != delta {
		t.Fatalf("profiled pages = %d, tree counted %d", got, delta)
	}
	if delta <= 0 {
		t.Fatalf("tree visit counter did not move (delta %d)", delta)
	}

	t.Run("point DML", profilePointDML)
}

// profilePointDML runs a keyed UPDATE and a keyed DELETE through all
// three entry points and checks that each one's profile, the Statistics
// plan counters and Result.Plan all name the point lookup that ran,
// with one row scanned per hit, and that the profiled pages add up to
// the B+-tree's own visit counter.
func profilePointDML(t *testing.T) {
	ei, regI := newObservedEngine(t, false)
	ec, regC := newObservedEngine(t, true)
	seedUsers(t, ei)
	seedUsers(t, ec)
	upd, err := ec.Prepare("UPDATE users SET age = ? WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	del, err := ec.Prepare("DELETE FROM users WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := ec.openTable(nil, "users")
	if err != nil {
		t.Fatal(err)
	}
	pointsI := regI.Snapshot().SQL.PointLookups
	pointsC := regC.Snapshot().SQL.PointLookups
	visits := tbl.visits()

	// Four rounds; ids 1-2 are deleted by the one-shot and cached text
	// paths' rounds, 3-4 by the prepared path's, and the updates hit a
	// present key on even rounds and an absent one (id 9) on odd ones.
	const n = 4
	hits := 0
	for i := 0; i < n; i++ {
		id := 2 + i%2*7 // 2, 9, 2, 9
		if i%2 == 0 {
			hits++
		}
		text := fmt.Sprintf("UPDATE users SET age = %d WHERE id = %d", 40+i, id)
		ri := mustExec(t, ei, text)
		rc := mustExec(t, ec, text)
		rp, err := upd.Exec(types.Int(int64(50+i)), types.Int(int64(id)))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*Result{ri, rc, rp} {
			if r.Plan != "point-lookup" || r.Affected != 1-i%2 {
				t.Fatalf("round %d update: plan %q affected %d", i, r.Plan, r.Affected)
			}
		}
	}
	for i := 0; i < n; i++ {
		textID, prepID := 1+i%2, 3+i%2 // each present once, then absent
		text := fmt.Sprintf("DELETE FROM users WHERE id = %d", textID)
		ri := mustExec(t, ei, text)
		rc := mustExec(t, ec, text)
		rp, err := del.Exec(types.Int(int64(prepID)))
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if i < 2 {
			want = 1
		}
		for _, r := range []*Result{ri, rc, rp} {
			if r.Plan != "point-lookup" || r.Affected != want {
				t.Fatalf("round %d delete: plan %q affected %d, want %d", i, r.Plan, r.Affected, want)
			}
		}
	}

	for _, c := range []struct {
		shape string
		hits  int64
	}{
		{"UPDATE users SET age = ? WHERE id = ?", int64(hits)},
		{"DELETE FROM users WHERE id = ?", 2},
	} {
		pi := queryShape(t, regI, c.shape)
		pc := queryShape(t, regC, c.shape)
		if pi.Plan != "point-lookup" || pc.Plan != "point-lookup" {
			t.Fatalf("%s: profiled plans %q one-shot, %q compiled", c.shape, pi.Plan, pc.Plan)
		}
		if pi.Count != n || pc.Count != 2*n {
			t.Fatalf("%s: counts = %d one-shot, %d compiled; want %d, %d", c.shape, pi.Count, pc.Count, n, 2*n)
		}
		if pi.RowsScanned != c.hits || pi.RowsReturned != c.hits {
			t.Fatalf("%s: one-shot scanned/returned = %d/%d, want %d/%d",
				c.shape, pi.RowsScanned, pi.RowsReturned, c.hits, c.hits)
		}
		if pc.RowsScanned != 2*c.hits || pc.RowsReturned != 2*c.hits {
			t.Fatalf("%s: compiled scanned/returned = %d/%d, want %d/%d",
				c.shape, pc.RowsScanned, pc.RowsReturned, 2*c.hits, 2*c.hits)
		}
	}
	if got := regI.Snapshot().SQL.PointLookups - pointsI; got != 2*n {
		t.Fatalf("one-shot engine counted %d point lookups, want %d", got, 2*n)
	}
	if got := regC.Snapshot().SQL.PointLookups - pointsC; got != 4*n {
		t.Fatalf("compiled engine counted %d point lookups, want %d", got, 4*n)
	}
	var profiled int64
	for _, sh := range []string{"UPDATE users SET age = ? WHERE id = ?", "DELETE FROM users WHERE id = ?"} {
		profiled += queryShape(t, regC, sh).PagesVisited
	}
	if delta := tbl.visits() - visits; profiled != delta || delta <= 0 {
		t.Fatalf("profiled pages = %d, tree counted %d", profiled, delta)
	}
}

// TestPerShapeCacheCountersReconcile drives hits, misses and evictions
// through a tiny plan cache and checks the per-shape attribution sums
// exactly to the global Statistics counters.
func TestPerShapeCacheCountersReconcile(t *testing.T) {
	e, reg := newObservedEngine(t, true)
	e.cache = newPlanCache(2) // tiny: force evictions
	seedUsers(t, e)

	queries := []string{
		"SELECT name FROM users WHERE id = %d",
		"SELECT age FROM users WHERE id = %d",
		"SELECT * FROM users WHERE id = %d",
		"SELECT name FROM users WHERE age > %d",
	}
	for round := 0; round < 5; round++ {
		for qi, q := range queries {
			mustExec(t, e, fmt.Sprintf(q, (round+qi)%4+1))
		}
	}

	snap := reg.Snapshot()
	var hits, misses, evicts int64
	for _, sh := range snap.Queries.Shapes {
		hits += sh.PlanHits
		misses += sh.PlanMisses
		evicts += sh.PlanEvicts
	}
	if hits != snap.SQL.PlanHits || misses != snap.SQL.PlanMisses || evicts != snap.SQL.PlanEvictions {
		t.Fatalf("per-shape %d/%d/%d != global %d/%d/%d",
			hits, misses, evicts, snap.SQL.PlanHits, snap.SQL.PlanMisses, snap.SQL.PlanEvictions)
	}
	if misses == 0 || evicts == 0 {
		t.Fatalf("workload produced no cache churn (miss %d evict %d)", misses, evicts)
	}
}

// TestQueryStatsRaceStress runs 16 executing goroutines, whose UPDATEs
// are slow queries, against a scraper reading snapshots and a drainer
// consuming the slow ring.
// Meaningful under -race; the final reconciliation still runs without.
func TestQueryStatsRaceStress(t *testing.T) {
	// Every page write takes 1ms, so every UPDATE is a slow query.
	e, reg := newObservedEngineOn(t, osal.NewDelayFS(osal.NewMemFS(), time.Millisecond, 0), true)
	seedUsers(t, e)

	const workers, per = 16, 50
	// The seeding statements are profiled too; count from here.
	var baseline int64
	for _, sh := range reg.Snapshot().Queries.Shapes {
		baseline += sh.Count
	}
	stop := make(chan struct{})
	var scrape sync.WaitGroup
	scrape.Add(2)
	go func() { // scraper: concurrent snapshot reads
		defer scrape.Done()
		for {
			select {
			case <-stop:
				return
			default:
				snap := reg.Snapshot()
				_ = snap.Queries
			}
		}
	}()
	var drainedTotal int64
	go func() { // drainer: consumes the slow ring while writers push
		defer scrape.Done()
		for {
			select {
			case <-stop:
				return
			default:
				slow, _ := reg.Query().DrainSlowQueries()
				drainedTotal += int64(len(slow))
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				var err error
				switch i % 4 {
				case 0:
					_, err = e.Exec(fmt.Sprintf("SELECT name FROM users WHERE id = %d", i%4+1))
				case 1:
					_, err = e.Exec("SELECT * FROM users WHERE age > 20")
				case 2:
					_, err = e.Exec(fmt.Sprintf("UPDATE users SET age = %d WHERE id = %d", 30+w, w%4+1))
				default:
					_, err = e.Exec(fmt.Sprintf("EXPLAIN ANALYZE SELECT * FROM users WHERE id = %d", i%4+1))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scrape.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiesced: total executions across shapes equal the work done.
	snap := reg.Snapshot()
	var count int64
	for _, sh := range snap.Queries.Shapes {
		count += sh.Count
	}
	if want := baseline + int64(workers*per); count != want {
		t.Fatalf("profiled %d executions, want %d", count, want)
	}
	slow, dropped := reg.Query().SlowQueries()
	if drainedTotal == 0 && len(slow) == 0 && dropped == 0 {
		t.Fatal("slow ring saw no traffic despite 1ms page writes")
	}
}
