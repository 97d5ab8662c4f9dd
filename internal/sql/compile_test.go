package sql

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"famedb/internal/access"
	"famedb/internal/stats"
	"famedb/internal/types"
)

// newCompiledEngine builds an engine with the CompiledQueries feature
// (and the Optimizer, so access paths specialize) plus a metrics
// registry to observe the plan-cache counters. A cacheSize above zero
// replaces the plan cache with one of that many entries.
func newCompiledEngine(t *testing.T, cacheSize int) (*Engine, *stats.Registry) {
	t.Helper()
	reg := stats.New()
	e := createEngine(t, Config{Optimizer: true, Compiled: true, Metrics: reg})
	if cacheSize > 0 {
		e.cache = newPlanCache(cacheSize)
	}
	return e, reg
}

func TestPrepareNeedsCompiledQueries(t *testing.T) {
	e := newEngine(t, true) // SQLEngine without CompiledQueries
	if _, err := e.Prepare("SELECT 1"); !errors.Is(err, access.ErrNotComposed) {
		t.Fatalf("Prepare without feature = %v, want ErrNotComposed", err)
	}
	// Placeholders never execute through plain Exec, compiled or not:
	// there is nothing to bind them to.
	seedUsers(t, e)
	if _, err := e.Exec("SELECT * FROM users WHERE id = ?"); err == nil {
		t.Fatal("Exec with placeholder should fail without Prepare")
	}
	ec, _ := newCompiledEngine(t, 0)
	seedUsers(t, ec)
	if _, err := ec.Exec("SELECT * FROM users WHERE id = ?"); err == nil {
		t.Fatal("Exec with placeholder should fail on the compiled engine too")
	}
}

func TestPrepareExecBasics(t *testing.T) {
	e, _ := newCompiledEngine(t, 0)
	seedUsers(t, e)

	stmt, err := e.Prepare("SELECT name FROM users WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 1 {
		t.Fatalf("NumParams = %d", stmt.NumParams())
	}
	r, err := stmt.Exec(types.Int(2))
	if err != nil || len(r.Rows) != 1 || r.Rows[0][0].Str != "bob" {
		t.Fatalf("Exec = %v, %v", r, err)
	}
	// A single pk equality over the ordered index compiles to the
	// point-lookup fast path.
	if r.Plan != "point-lookup" {
		t.Fatalf("plan = %s, want point-lookup", r.Plan)
	}
	// Missing key: empty result, same plan, no error.
	if r, err = stmt.Exec(types.Int(99)); err != nil || len(r.Rows) != 0 {
		t.Fatalf("missing key = %v, %v", r, err)
	}

	if _, err := stmt.Exec(); err == nil {
		t.Fatal("wrong arg count should fail")
	}
	if _, err := stmt.Exec(types.Int(1), types.Int(2)); err == nil {
		t.Fatal("wrong arg count should fail")
	}

	if err := stmt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Exec(types.Int(1)); !errors.Is(err, ErrStmtClosed) {
		t.Fatalf("Exec after Close = %v", err)
	}
}

func TestPreparedDMLAndLimitParam(t *testing.T) {
	e, _ := newCompiledEngine(t, 0)
	mustExec(t, e, "CREATE TABLE kv (id INT PRIMARY KEY, v TEXT)")

	ins, err := e.Prepare("INSERT INTO kv VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if r, err := ins.Exec(types.Int(int64(i)), types.Str(fmt.Sprintf("v%d", i))); err != nil || r.Affected != 1 {
			t.Fatalf("insert %d = %v, %v", i, r, err)
		}
	}
	// Re-inserting an existing key keeps failing on every execution.
	if _, err := ins.Exec(types.Int(3), types.Str("dup")); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate = %v", err)
	}

	upd, err := e.Prepare("UPDATE kv SET v = ? WHERE id >= ?")
	if err != nil {
		t.Fatal(err)
	}
	if r, err := upd.Exec(types.Str("up"), types.Int(7)); err != nil || r.Affected != 3 {
		t.Fatalf("update = %v, %v", r, err)
	}

	lim, err := e.Prepare("SELECT id FROM kv LIMIT ?")
	if err != nil {
		t.Fatal(err)
	}
	if r, err := lim.Exec(types.Int(4)); err != nil || len(r.Rows) != 4 {
		t.Fatalf("limit = %v, %v", r, err)
	}
	if _, err := lim.Exec(types.Str("nope")); err == nil {
		t.Fatal("non-int LIMIT argument should fail")
	}

	del, err := e.Prepare("DELETE FROM kv WHERE id < ?")
	if err != nil {
		t.Fatal(err)
	}
	if r, err := del.Exec(types.Int(5)); err != nil || r.Affected != 5 {
		t.Fatalf("delete = %v, %v", r, err)
	}
}

// substitute renders a template's `?` placeholders as SQL literals, so
// the same logical statement can run as plain text.
func substitute(template string, args []types.Value) string {
	var sb strings.Builder
	ai := 0
	for _, r := range template {
		if r == '?' {
			v := args[ai]
			ai++
			switch v.Kind {
			case types.KindInt:
				fmt.Fprintf(&sb, "%d", v.Int)
			case types.KindString:
				sb.WriteString("'" + strings.ReplaceAll(v.Str, "'", "''") + "'")
			case types.KindFloat:
				fmt.Fprintf(&sb, "%g", v.Float)
			case types.KindBool:
				fmt.Fprintf(&sb, "%v", v.Bool)
			}
			continue
		}
		sb.WriteRune(r)
	}
	return sb.String()
}

// TestCompiledDifferential is the operand-binding differential: the
// same statement sequence runs through the one executor with its
// operands bound three ways — as the text's own literals (feature off:
// a one-shot plan per statement), as arguments of a prepared Stmt, and
// as the literals the plan cache normalized out of the text (so the
// second run of every shape is a cache hit) — and every step must give
// identical results. What the answers should BE is TestSQLModelEquivalence's
// job; this test pins that binding cannot change them.
func TestCompiledDifferential(t *testing.T) {
	literal := newEngine(t, true)
	prep, _ := newCompiledEngine(t, 64)
	cached, _ := newCompiledEngine(t, 64)
	engines := []*Engine{literal, prep, cached}
	for _, e := range engines {
		mustExec(t, e, "CREATE TABLE d (id INT PRIMARY KEY, grp INT, label TEXT)")
		var sb strings.Builder
		sb.WriteString("INSERT INTO d VALUES ")
		for i := 0; i < 200; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, 'l%d')", i, i%5, i)
		}
		mustExec(t, e, sb.String())
	}

	type step struct {
		template string
		args     []types.Value
	}
	steps := []step{
		{"SELECT * FROM d WHERE id = ?", []types.Value{types.Int(123)}},
		{"SELECT label FROM d WHERE id = ?", []types.Value{types.Int(7)}},
		{"SELECT * FROM d WHERE id = ?", []types.Value{types.Int(4000)}},
		{"SELECT * FROM d WHERE id > ? AND id <= ? ORDER BY id", []types.Value{types.Int(50), types.Int(60)}},
		{"SELECT id FROM d WHERE grp = ? ORDER BY id DESC LIMIT 5", []types.Value{types.Int(3)}},
		{"SELECT label FROM d WHERE grp = ? AND id >= ?", []types.Value{types.Int(2), types.Int(180)}},
		{"SELECT COUNT(*) FROM d WHERE grp = ?", []types.Value{types.Int(1)}},
		{"SELECT MIN(id), MAX(id) FROM d WHERE grp = ?", []types.Value{types.Int(4)}},
		{"UPDATE d SET label = ? WHERE id >= ? AND id < ?", []types.Value{types.Str("it's"), types.Int(20), types.Int(30)}},
		{"DELETE FROM d WHERE grp = ? AND id < ?", []types.Value{types.Int(0), types.Int(50)}},
		{"INSERT INTO d VALUES (?, ?, ?)", []types.Value{types.Int(900), types.Int(1), types.Str("new")}},
		{"SELECT * FROM d ORDER BY id", nil},
	}

	compare := func(stepNo int, q string, a, b *Result, bName string) {
		t.Helper()
		if a.Affected != b.Affected || len(a.Rows) != len(b.Rows) {
			t.Fatalf("step %d %q: literal %d rows/%d affected, %s %d/%d",
				stepNo, q, len(a.Rows), a.Affected, bName, len(b.Rows), b.Affected)
		}
		for i := range a.Rows {
			if len(a.Rows[i]) != len(b.Rows[i]) {
				t.Fatalf("step %d %q row %d: width %d vs %d", stepNo, q, i, len(a.Rows[i]), len(b.Rows[i]))
			}
			for j := range a.Rows[i] {
				if types.Compare(a.Rows[i][j], b.Rows[i][j]) != 0 {
					t.Fatalf("step %d %q: row %d col %d differs: %v vs %v (%s)",
						stepNo, q, i, j, a.Rows[i][j], b.Rows[i][j], bName)
				}
			}
		}
	}

	for no, s := range steps {
		text := substitute(s.template, s.args)
		want := mustExec(t, literal, text)

		stmt, err := prep.Prepare(s.template)
		if err != nil {
			t.Fatalf("step %d Prepare(%q): %v", no, s.template, err)
		}
		got, err := stmt.Exec(s.args...)
		if err != nil {
			t.Fatalf("step %d prepared: %v", no, err)
		}
		compare(no, text, want, got, "prepared")

		// Run mutations once; re-run reads so the second execution is a
		// plan-cache hit of the normalized shape.
		runs := 1
		if strings.HasPrefix(s.template, "SELECT") {
			runs = 2
		}
		for r := 0; r < runs; r++ {
			got, err = cached.Exec(text)
			if err != nil {
				t.Fatalf("step %d cached: %v", no, err)
			}
			compare(no, text, want, got, "cached")
		}
	}
}

// TestStalePlanRecompilesAfterDDL is the stale-plan regression: a table
// dropped and recreated under the same name with a different schema
// must never be read through the old compiled plan.
func TestStalePlanRecompilesAfterDDL(t *testing.T) {
	e, reg := newCompiledEngine(t, 16)
	mustExec(t, e, "CREATE TABLE things (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, e, "INSERT INTO things VALUES (1, 'old')")

	stmt, err := e.Prepare("SELECT * FROM things WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	if r, err := stmt.Exec(types.Int(1)); err != nil || len(r.Rows) != 1 || len(r.Rows[0]) != 2 {
		t.Fatalf("before DDL = %v, %v", r, err)
	}
	// Warm the plan cache with the same shape through unprepared Exec.
	mustExec(t, e, "SELECT * FROM things WHERE id = 1")

	mustExec(t, e, "DROP TABLE things")
	mustExec(t, e, "CREATE TABLE things (id INT PRIMARY KEY, a INT, b INT, c TEXT)")
	mustExec(t, e, "INSERT INTO things VALUES (1, 10, 20, 'new')")

	r, err := stmt.Exec(types.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Columns) != 4 || len(r.Rows) != 1 || len(r.Rows[0]) != 4 {
		t.Fatalf("stale plan survived DDL: %v", r)
	}
	if r.Rows[0][3].Str != "new" {
		t.Fatalf("read stale data: %v", r.Rows[0])
	}
	// The cached shape recompiled too.
	r = mustExec(t, e, "SELECT * FROM things WHERE id = 1")
	if len(r.Rows) != 1 || len(r.Rows[0]) != 4 {
		t.Fatalf("cached plan survived DDL: %v", r)
	}
	if got := reg.Snapshot().SQL.PlanInvalidated; got < 2 {
		t.Fatalf("PlanInvalidated = %d, want >= 2", got)
	}

	// A statement whose table disappears for good fails at Exec, not
	// with stale rows.
	mustExec(t, e, "DROP TABLE things")
	if _, err := stmt.Exec(types.Int(1)); !errors.Is(err, ErrNoTable) {
		t.Fatalf("Exec after DROP = %v", err)
	}
}

func TestPlanCacheCountersAndEviction(t *testing.T) {
	e, reg := newCompiledEngine(t, 16)
	seedUsers(t, e)

	// Same shape, different literals: one miss, then hits.
	for i := 1; i <= 4; i++ {
		mustExec(t, e, fmt.Sprintf("SELECT name FROM users WHERE id = %d", i))
	}
	s := reg.Snapshot().SQL
	if s.PlanMisses < 1 || s.PlanHits < 3 {
		t.Fatalf("hits/misses = %d/%d, want >=3/>=1", s.PlanHits, s.PlanMisses)
	}
	if n := e.CacheLen(); n < 1 {
		t.Fatalf("CacheLen = %d", n)
	}

	// Flood with structurally distinct shapes (literals normalize to `?`,
	// so the predicate *count* must vary): the bounded cache evicts and
	// never grows past its capacity.
	for i := 0; i < 40; i++ {
		preds := make([]string, i+1)
		for j := range preds {
			preds[j] = fmt.Sprintf("age > %d", j)
		}
		mustExec(t, e, "SELECT name FROM users WHERE "+strings.Join(preds, " AND "))
	}
	if n := e.CacheLen(); n > 16 {
		t.Fatalf("CacheLen = %d, want <= 16", n)
	}
	if s := reg.Snapshot().SQL; s.PlanEvictions == 0 {
		t.Fatal("expected evictions")
	}

	// Statements the cache does not handle still execute (and do not
	// count as hits): DDL and malformed shapes.
	before := reg.Snapshot().SQL.PlanHits
	mustExec(t, e, "CREATE TABLE other (id INT PRIMARY KEY)")
	mustExec(t, e, "DROP TABLE other")
	if after := reg.Snapshot().SQL.PlanHits; after != before {
		t.Fatalf("DDL hit the plan cache: %d -> %d", before, after)
	}
}

// TestStmtSharedAcrossGoroutines stresses one prepared statement from
// 16 goroutines while a writer churns DDL on another table, bumping the
// epoch and forcing concurrent transparent recompiles, and two more
// rewrite the rows they read with keyed UPDATEs — one prepared, one as
// text through the plan cache. Run with -race.
func TestStmtSharedAcrossGoroutines(t *testing.T) {
	e, _ := newCompiledEngine(t, 16)
	mustExec(t, e, "CREATE TABLE stress (id INT PRIMARY KEY, v TEXT, n INT)")
	for i := 0; i < 64; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO stress VALUES (%d, 'v%d', 0)", i, i))
	}
	stmt, err := e.Prepare("SELECT v FROM stress WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	upd, err := e.Prepare("UPDATE stress SET n = ? WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, ops = 16, 150
	errs := make(chan error, goroutines+3)
	done := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() { // DDL churn: every cycle invalidates every live plan
		defer churn.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := e.Exec("CREATE TABLE churn (id INT PRIMARY KEY)"); err != nil {
				errs <- err
				return
			}
			if _, err := e.Exec("DROP TABLE churn"); err != nil {
				errs <- err
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		readers.Add(1)
		go func(w int) { // keyed updates of the rows the readers read
			defer readers.Done()
			for i := 0; i < ops; i++ {
				k := (w*17 + i) % 64
				var r *Result
				var err error
				if w == 0 {
					r, err = upd.Exec(types.Int(int64(i)), types.Int(int64(k)))
				} else {
					r, err = e.Exec(fmt.Sprintf("UPDATE stress SET n = %d WHERE id = %d", i, k))
				}
				if err == nil && (r.Affected != 1 || r.Plan != "point-lookup") {
					err = fmt.Errorf("affected %d plan %q", r.Affected, r.Plan)
				}
				if err != nil {
					errs <- fmt.Errorf("updater %d op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	for g := 0; g < goroutines; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; i < ops; i++ {
				k := (g*31 + i) % 64
				r, err := stmt.Exec(types.Int(int64(k)))
				if err != nil {
					errs <- fmt.Errorf("goroutine %d op %d: %w", g, i, err)
					return
				}
				if len(r.Rows) != 1 || r.Rows[0][0].Str != fmt.Sprintf("v%d", k) {
					errs <- fmt.Errorf("goroutine %d op %d: got %v", g, i, r.Rows)
					return
				}
			}
		}(g)
	}
	readers.Wait()
	close(done)
	churn.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestAllocsPreparedPointSelect: a prepared point SELECT on a QueryStats
// product takes the statement latch and brackets its page visits without
// allocating; what it allocates is the statement's own work (counters,
// key, row, result). A bound method value for the unlock or a closure
// for the page delta would add one allocation each.
func TestAllocsPreparedPointSelect(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	e, _ := newObservedEngine(t, true)
	seedUsers(t, e)
	stmt, err := e.Prepare("SELECT name FROM users WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	arg := types.Int(2)
	allocs := testing.AllocsPerRun(200, func() {
		r, err := stmt.Exec(arg)
		if err != nil || len(r.Rows) != 1 {
			t.Fatalf("Exec = %v, %v", r, err)
		}
	})
	if allocs > 12 {
		t.Fatalf("prepared point SELECT: %.1f allocs, want at most 12", allocs)
	}
}
