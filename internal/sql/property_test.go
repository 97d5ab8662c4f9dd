package sql

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"famedb/internal/types"
)

// modelRow mirrors one table row in the reference model.
type modelRow struct {
	name string
	age  int64
	ok   bool
}

// modelDriver runs a statement given as a `?` template plus its operands.
type modelDriver func(template string, args ...types.Value) (*Result, error)

// textDriver renders the operands into the template as literals and
// runs the text through Exec.
func textDriver(e *Engine) modelDriver {
	return func(template string, args ...types.Value) (*Result, error) {
		return e.Exec(substitute(template, args))
	}
}

// modelDrivers are the executor's three entry points: plain text through
// one-shot Exec on a feature-off engine, plain text through the plan
// cache, and a prepared Stmt with bound arguments.
var modelDrivers = []struct {
	name string
	open func(t *testing.T, optimizer bool) (*Engine, modelDriver)
}{
	{"exec", func(t *testing.T, optimizer bool) (*Engine, modelDriver) {
		e := createEngine(t, Config{Optimizer: optimizer})
		return e, textDriver(e)
	}},
	{"cached", func(t *testing.T, optimizer bool) (*Engine, modelDriver) {
		e := createEngine(t, Config{Optimizer: optimizer, Compiled: true})
		return e, textDriver(e)
	}},
	{"prepared", func(t *testing.T, optimizer bool) (*Engine, modelDriver) {
		e := createEngine(t, Config{Optimizer: optimizer, Compiled: true})
		stmts := map[string]*Stmt{}
		return e, func(template string, args ...types.Value) (*Result, error) {
			stmt, ok := stmts[template]
			if !ok {
				var err error
				if stmt, err = e.Prepare(template); err != nil {
					return nil, err
				}
				stmts[template] = stmt
			}
			return stmt.Exec(args...)
		}
	}},
}

// TestSQLModelEquivalence drives random DML against the engine and an
// in-memory reference model — which shares no code with the engine —
// and compares full table contents after every step, through every
// entry point, with and without the Optimizer.
func TestSQLModelEquivalence(t *testing.T) {
	for _, drv := range modelDrivers {
		for _, optimizer := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/optimizer=%v", drv.name, optimizer), func(t *testing.T) {
				e, run := drv.open(t, optimizer)
				mustRun := func(template string, args ...types.Value) *Result {
					t.Helper()
					r, err := run(template, args...)
					if err != nil {
						t.Fatalf("%s %v: %v", template, args, err)
					}
					return r
				}
				mustExec(t, e, "CREATE TABLE people (id INT PRIMARY KEY, name TEXT, age INT, ok BOOL)")
				model := map[int64]modelRow{}
				rng := rand.New(rand.NewSource(77))

				check := func(op int) {
					r := mustRun("SELECT * FROM people ORDER BY id")
					if len(r.Rows) != len(model) {
						t.Fatalf("op %d: %d rows, model %d", op, len(r.Rows), len(model))
					}
					var ids []int64
					for id := range model {
						ids = append(ids, id)
					}
					sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
					for i, id := range ids {
						row := r.Rows[i]
						m := model[id]
						if row[0].Int != id || row[1].Str != m.name || row[2].Int != m.age || row[3].Bool != m.ok {
							t.Fatalf("op %d: row %d = %v, model id=%d %+v", op, i, row, id, m)
						}
					}
				}

				// keyed is the plan a keyed UPDATE or DELETE takes.
				keyed := "full-scan"
				if optimizer {
					keyed = "point-lookup"
				}
				for op := 0; op < 800; op++ {
					id := int64(rng.Intn(80))
					switch rng.Intn(8) {
					case 0, 1: // insert
						name := fmt.Sprintf("p%d", rng.Intn(1000))
						age := int64(rng.Intn(100))
						ok := rng.Intn(2) == 0
						_, err := run("INSERT INTO people VALUES (?, ?, ?, ?)",
							types.Int(id), types.Str(name), types.Int(age), types.Bool(ok))
						if _, dup := model[id]; dup {
							if !errors.Is(err, ErrDuplicateKey) {
								t.Fatalf("op %d: duplicate insert = %v", op, err)
							}
						} else {
							if err != nil {
								t.Fatalf("op %d: insert %d: %v", op, id, err)
							}
							model[id] = modelRow{name, age, ok}
						}
					case 2: // update by pk
						age := int64(rng.Intn(100))
						r := mustRun("UPDATE people SET age = ? WHERE id = ?", types.Int(age), types.Int(id))
						if r.Plan != keyed {
							t.Fatalf("op %d: keyed update plan %q, want %q", op, r.Plan, keyed)
						}
						if m, inModel := model[id]; inModel {
							if r.Affected != 1 {
								t.Fatalf("op %d: update affected %d", op, r.Affected)
							}
							m.age = age
							model[id] = m
						} else if r.Affected != 0 {
							t.Fatalf("op %d: phantom update", op)
						}
					case 3: // delete by pk
						r := mustRun("DELETE FROM people WHERE id = ?", types.Int(id))
						if r.Plan != keyed {
							t.Fatalf("op %d: keyed delete plan %q, want %q", op, r.Plan, keyed)
						}
						if _, inModel := model[id]; inModel != (r.Affected == 1) {
							t.Fatalf("op %d: delete affected %d, model %v", op, r.Affected, inModel)
						}
						delete(model, id)
					case 4: // predicate select
						limit := int64(rng.Intn(100))
						r := mustRun("SELECT id FROM people WHERE age >= ?", types.Int(limit))
						want := 0
						for _, m := range model {
							if m.age >= limit {
								want++
							}
						}
						if len(r.Rows) != want {
							t.Fatalf("op %d: predicate select %d rows, model %d", op, len(r.Rows), want)
						}
					case 5: // select by pk: the point-lookup path under the Optimizer
						r := mustRun("SELECT name, age FROM people WHERE id = ?", types.Int(id))
						m, inModel := model[id]
						if inModel != (len(r.Rows) == 1) {
							t.Fatalf("op %d: pk select %d rows, model %v", op, len(r.Rows), inModel)
						}
						if inModel && (r.Rows[0][0].Str != m.name || r.Rows[0][1].Int != m.age) {
							t.Fatalf("op %d: pk select = %v, model %+v", op, r.Rows[0], m)
						}
					case 6: // keyed update that moves the row to another pk
						to := int64(rng.Intn(80))
						age := int64(rng.Intn(100))
						r, err := run("UPDATE people SET id = ?, age = ? WHERE id = ?",
							types.Int(to), types.Int(age), types.Int(id))
						m, inModel := model[id]
						_, taken := model[to]
						switch {
						case !inModel:
							if err != nil || r.Affected != 0 {
								t.Fatalf("op %d: pk move of absent %d = %v, %v", op, id, r, err)
							}
						case to != id && taken:
							if !errors.Is(err, ErrDuplicateKey) {
								t.Fatalf("op %d: colliding pk move %d->%d = %v", op, id, to, err)
							}
						default:
							if err != nil || r.Affected != 1 || r.Plan != keyed {
								t.Fatalf("op %d: pk move %d->%d = %+v, %v", op, id, to, r, err)
							}
							delete(model, id)
							m.age = age
							model[to] = m
						}
					case 7: // a float key on the int pk matches nothing: the plan falls back to a scan
						f := types.Float(float64(id) + 0.5)
						ru := mustRun("UPDATE people SET age = ? WHERE id = ?", types.Int(1), f)
						rd := mustRun("DELETE FROM people WHERE id = ?", f)
						for _, r := range []*Result{ru, rd} {
							if r.Affected != 0 || r.Plan != "full-scan" {
								t.Fatalf("op %d: float-keyed DML = %+v", op, r)
							}
						}
					}
					if op%50 == 0 {
						check(op)
					}
				}
				check(800)
			})
		}
	}
}

// TestOptimizerPlansNeverChangeResults runs identical queries with and
// without the Optimizer feature and compares results row for row — the
// plan may differ, the answer must not.
func TestOptimizerPlansNeverChangeResults(t *testing.T) {
	with := newEngine(t, true)
	without := newEngine(t, false)
	for _, e := range []*Engine{with, without} {
		mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, grp INT, label TEXT)")
		var sb strings.Builder
		sb.WriteString("INSERT INTO t VALUES ")
		for i := 0; i < 300; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, 'l%d')", i, i%7, i)
		}
		mustExec(t, e, sb.String())
	}
	queries := []string{
		"SELECT * FROM t WHERE id = 123",
		"SELECT * FROM t WHERE id > 50 AND id <= 60 ORDER BY id",
		"SELECT label FROM t WHERE id >= 290",
		"SELECT id FROM t WHERE grp = 3 ORDER BY id DESC LIMIT 5",
		"SELECT * FROM t WHERE id < 5 AND grp = 1",
		"SELECT * FROM t WHERE id != 0 AND id < 3",
	}
	for _, q := range queries {
		a := mustExec(t, with, q)
		b := mustExec(t, without, q)
		if len(a.Rows) != len(b.Rows) {
			t.Fatalf("%s: %d vs %d rows (plans %s/%s)", q, len(a.Rows), len(b.Rows), a.Plan, b.Plan)
		}
		for i := range a.Rows {
			for j := range a.Rows[i] {
				if types.Compare(a.Rows[i][j], b.Rows[i][j]) != 0 {
					t.Fatalf("%s: row %d col %d differs: %v vs %v", q, i, j, a.Rows[i][j], b.Rows[i][j])
				}
			}
		}
	}
	// Sanity: the point query actually used the index when optimized.
	if r := mustExec(t, with, "SELECT * FROM t WHERE id = 5"); r.Plan != "point-lookup" {
		t.Fatalf("plan = %s", r.Plan)
	}
}

// TestPointDMLNeverChangesResults runs one script of keyed UPDATEs and
// DELETEs through every entry point with and without the Optimizer. The
// answers — affected rows, errors, final table contents — must be the
// script's own, whichever plan ran; the plan must be the point lookup
// exactly when the Optimizer is on and the key operand coerces.
func TestPointDMLNeverChangesResults(t *testing.T) {
	I, F, S := types.Int, types.Float, types.Str
	steps := []struct {
		stmt     string
		args     []types.Value
		affected int
		err      error
		point    bool // the plan is a point lookup under the Optimizer
	}{
		{"UPDATE t SET label = ? WHERE id = ?", []types.Value{S("five"), I(5)}, 1, nil, true},
		{"UPDATE t SET label = ? WHERE id = ?", []types.Value{S("none"), I(99)}, 0, nil, true},
		{"DELETE FROM t WHERE id = ?", []types.Value{I(7)}, 1, nil, true},
		{"DELETE FROM t WHERE id = ?", []types.Value{I(7)}, 0, nil, true},
		// pk change: the row moves; onto a live key it collides.
		{"UPDATE t SET id = ? WHERE id = ?", []types.Value{I(70), I(3)}, 1, nil, true},
		{"UPDATE t SET id = ? WHERE id = ?", []types.Value{I(4), I(70)}, 0, ErrDuplicateKey, true},
		{"UPDATE t SET id = ?, grp = ? WHERE id = ?", []types.Value{I(3), I(9), I(70)}, 1, nil, true},
		// A float key on the int pk cannot be a point key: scan, no match.
		{"UPDATE t SET grp = ? WHERE id = ?", []types.Value{I(8), F(2.5)}, 0, nil, false},
		{"DELETE FROM t WHERE id = ?", []types.Value{F(2.5)}, 0, nil, false},
		// An int key on the float pk finds the record, and the residual
		// predicate (which compares kinds strictly) rejects it — as the
		// scan does.
		{"UPDATE f SET v = ? WHERE id = ?", []types.Value{I(1), I(2)}, 0, nil, true},
		{"DELETE FROM f WHERE id = ?", []types.Value{I(2)}, 0, nil, true},
		{"UPDATE f SET v = ? WHERE id = ?", []types.Value{I(1), F(2.25)}, 1, nil, true},
		{"DELETE FROM f WHERE id = ?", []types.Value{F(2.25)}, 1, nil, true},
		// More than one pk condition is a range scan, not a point.
		{"DELETE FROM t WHERE id = ? AND grp = ?", []types.Value{I(1), I(1)}, 1, nil, false},
	}
	var want []string
	for _, drv := range modelDrivers {
		for _, optimizer := range []bool{false, true} {
			name := fmt.Sprintf("%s/optimizer=%v", drv.name, optimizer)
			e, run := drv.open(t, optimizer)
			mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, grp INT, label TEXT)")
			mustExec(t, e, "CREATE TABLE f (id FLOAT PRIMARY KEY, v INT)")
			for i := 0; i < 10; i++ {
				mustExec(t, e, fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 'l%d')", i, i%3, i))
				mustExec(t, e, fmt.Sprintf("INSERT INTO f VALUES (%d.0, %d)", i, i))
			}
			mustExec(t, e, "INSERT INTO f VALUES (2.25, 0)")
			for i, st := range steps {
				r, err := run(st.stmt, st.args...)
				if !errors.Is(err, st.err) || (st.err == nil) != (err == nil) {
					t.Fatalf("%s step %d %s %v: err %v, want %v", name, i, st.stmt, st.args, err, st.err)
				}
				if err != nil {
					continue
				}
				plan := "point-lookup"
				if !optimizer || !st.point {
					plan = r.Plan // not pinned: a full or range scan
				}
				if r.Affected != st.affected || r.Plan != plan {
					t.Fatalf("%s step %d %s %v: affected %d plan %q, want %d %q",
						name, i, st.stmt, st.args, r.Affected, r.Plan, st.affected, plan)
				}
			}
			var got []string
			for _, q := range []string{"SELECT * FROM t ORDER BY id", "SELECT * FROM f ORDER BY id"} {
				for _, row := range mustExec(t, e, q).Rows {
					got = append(got, fmt.Sprint(row))
				}
			}
			if want == nil {
				want = got
			} else if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("%s: final tables\n%s\nwant\n%s", name, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		}
	}
}

// TestParserNeverPanics feeds mutated query strings to the parser; it
// must return errors, never panic.
func TestParserNeverPanics(t *testing.T) {
	seeds := []string{
		"SELECT * FROM t WHERE a = 1",
		"INSERT INTO t (a, b) VALUES (1, 'x')",
		"CREATE TABLE t (a INT PRIMARY KEY, b TEXT)",
		"UPDATE t SET a = 2 WHERE b = 'y'",
		"DELETE FROM t WHERE a != 3",
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 5000; i++ {
		s := []byte(seeds[rng.Intn(len(seeds))])
		// Mutate: delete, duplicate or scramble a few bytes.
		for m := 0; m < 1+rng.Intn(4); m++ {
			if len(s) == 0 {
				break
			}
			pos := rng.Intn(len(s))
			switch rng.Intn(3) {
			case 0:
				s = append(s[:pos], s[pos+1:]...)
			case 1:
				s = append(s[:pos], append([]byte{s[pos]}, s[pos:]...)...)
			case 2:
				s[pos] = byte(rng.Intn(128))
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on %q: %v", s, r)
				}
			}()
			Parse(string(s)) //nolint:errcheck — errors are expected
		}()
	}
}

func TestAggregates(t *testing.T) {
	e := newEngine(t, true)
	mustExec(t, e, "CREATE TABLE m (id INT PRIMARY KEY, grp INT, temp FLOAT)")
	mustExec(t, e, `INSERT INTO m VALUES
		(1, 0, 20.5), (2, 0, 21.5), (3, 1, 19.0), (4, 1, 23.0), (5, 1, 18.0)`)

	r := mustExec(t, e, "SELECT COUNT(*) FROM m")
	if r.Rows[0][0].Int != 5 || r.Columns[0] != "COUNT(*)" {
		t.Fatalf("count = %v (%v)", r.Rows, r.Columns)
	}
	r = mustExec(t, e, "SELECT COUNT(id) FROM m WHERE grp = 1")
	if r.Rows[0][0].Int != 3 {
		t.Fatalf("filtered count = %v", r.Rows)
	}
	r = mustExec(t, e, "SELECT MIN(temp), MAX(temp), SUM(temp), AVG(temp) FROM m WHERE grp = 1")
	row := r.Rows[0]
	if row[0].Float != 18.0 || row[1].Float != 23.0 || row[2].Float != 60.0 || row[3].Float != 20.0 {
		t.Fatalf("agg row = %v", row)
	}
	// Integer SUM stays integral; integer AVG becomes a float.
	r = mustExec(t, e, "SELECT SUM(id), AVG(id) FROM m")
	if r.Rows[0][0].Kind != types.KindInt || r.Rows[0][0].Int != 15 {
		t.Fatalf("sum(id) = %v", r.Rows[0][0])
	}
	if r.Rows[0][1].Kind != types.KindFloat || r.Rows[0][1].Float != 3.0 {
		t.Fatalf("avg(id) = %v", r.Rows[0][1])
	}
	// MIN/MAX over text works by ordering.
	mustExec(t, e, "CREATE TABLE s (k INT PRIMARY KEY, name TEXT)")
	mustExec(t, e, "INSERT INTO s VALUES (1, 'pear'), (2, 'apple'), (3, 'plum')")
	r = mustExec(t, e, "SELECT MIN(name), MAX(name) FROM s")
	if r.Rows[0][0].Str != "apple" || r.Rows[0][1].Str != "plum" {
		t.Fatalf("text min/max = %v", r.Rows[0])
	}
	// Index-assisted aggregate keeps its plan.
	r = mustExec(t, e, "SELECT COUNT(*) FROM m WHERE id >= 2 AND id < 5")
	if r.Rows[0][0].Int != 3 || r.Plan != "index-scan" {
		t.Fatalf("ranged count = %v plan=%s", r.Rows, r.Plan)
	}
}

func TestAggregateErrors(t *testing.T) {
	e := newEngine(t, true)
	mustExec(t, e, "CREATE TABLE m (id INT PRIMARY KEY, name TEXT)")
	cases := []string{
		"SELECT MIN(*) FROM m",
		"SELECT SUM(name) FROM m",
		"SELECT COUNT(*), id FROM m",
		"SELECT COUNT(nope) FROM m",
		"SELECT COUNT(*) FROM m ORDER BY id",
		"SELECT COUNT( FROM m",
	}
	for _, q := range cases {
		if _, err := e.Exec(q); err == nil {
			t.Errorf("Exec(%q) should fail", q)
		}
	}
	// A kept plan is validated when it is built: the same errors arrive
	// at Prepare, and a plan-cache miss reports them without caching a
	// plan that can never run.
	ec, _ := newCompiledEngine(t, 0)
	mustExec(t, ec, "CREATE TABLE m (id INT PRIMARY KEY, name TEXT)")
	for q, want := range map[string]error{
		"SELECT SUM(name) FROM m": ErrTypeMismatch,
		"SELECT MAX(nope) FROM m": ErrNoColumn,
	} {
		if _, err := ec.Prepare(q); !errors.Is(err, want) {
			t.Errorf("Prepare(%q) = %v, want %v", q, err, want)
		}
		if _, err := ec.Exec(q); !errors.Is(err, want) {
			t.Errorf("cached Exec(%q) = %v, want %v", q, err, want)
		}
	}
	if n := ec.CacheLen(); n != 0 {
		t.Errorf("plan cache holds %d plans after only failing statements", n)
	}
	// Empty-table semantics: COUNT is 0, MIN errors.
	r := mustExec(t, e, "SELECT COUNT(*) FROM m")
	if r.Rows[0][0].Int != 0 {
		t.Fatalf("empty count = %v", r.Rows)
	}
	if _, err := e.Exec("SELECT MIN(id) FROM m"); !errors.Is(err, ErrEmptyAggregate) {
		t.Fatalf("empty MIN = %v", err)
	}
	// A column actually named "count" still works as a column.
	mustExec(t, e, "CREATE TABLE c (id INT PRIMARY KEY, count INT)")
	mustExec(t, e, "INSERT INTO c VALUES (1, 9)")
	r = mustExec(t, e, "SELECT count FROM c")
	if r.Rows[0][0].Int != 9 {
		t.Fatalf("column named count = %v", r.Rows)
	}
}

func TestGroupBy(t *testing.T) {
	e := newEngine(t, true)
	mustExec(t, e, "CREATE TABLE sales (id INT PRIMARY KEY, region TEXT, amount INT)")
	mustExec(t, e, `INSERT INTO sales VALUES
		(1, 'east', 10), (2, 'west', 20), (3, 'east', 30),
		(4, 'north', 5), (5, 'west', 15), (6, 'east', 5)`)

	r := mustExec(t, e, "SELECT region, COUNT(*), SUM(amount) FROM sales GROUP BY region")
	if len(r.Rows) != 3 {
		t.Fatalf("groups = %d", len(r.Rows))
	}
	// Groups come back ordered by the grouping column.
	want := []struct {
		region string
		count  int64
		sum    int64
	}{{"east", 3, 45}, {"north", 1, 5}, {"west", 2, 35}}
	for i, w := range want {
		row := r.Rows[i]
		if row[0].Str != w.region || row[1].Int != w.count || row[2].Int != w.sum {
			t.Fatalf("group %d = %v, want %+v", i, row, w)
		}
	}
	if r.Columns[0] != "region" || r.Columns[2] != "SUM(amount)" {
		t.Fatalf("columns = %v", r.Columns)
	}

	// DESC ordering by the grouping column, WHERE before grouping,
	// LIMIT after.
	r = mustExec(t, e, `SELECT region, AVG(amount) FROM sales
		WHERE amount > 5 GROUP BY region ORDER BY region DESC LIMIT 2`)
	if len(r.Rows) != 2 || r.Rows[0][0].Str != "west" || r.Rows[1][0].Str != "east" {
		t.Fatalf("desc groups = %v", r.Rows)
	}
	if r.Rows[0][1].Float != 17.5 || r.Rows[1][1].Float != 20.0 {
		t.Fatalf("avgs = %v", r.Rows)
	}

	// Aggregates without the grouped column in the select list.
	r = mustExec(t, e, "SELECT MAX(amount) FROM sales GROUP BY region")
	if len(r.Rows) != 3 || len(r.Rows[0]) != 1 {
		t.Fatalf("agg-only groups = %v", r.Rows)
	}

	// Grouping by an integer column sorts numerically.
	r = mustExec(t, e, "SELECT amount, COUNT(*) FROM sales GROUP BY amount")
	prev := int64(-1 << 62)
	for _, row := range r.Rows {
		if row[0].Int < prev {
			t.Fatalf("int groups out of order: %v", r.Rows)
		}
		prev = row[0].Int
	}
}

func TestGroupByErrors(t *testing.T) {
	e := newEngine(t, true)
	mustExec(t, e, "CREATE TABLE s (id INT PRIMARY KEY, region TEXT, amount INT)")
	cases := []string{
		"SELECT region FROM s GROUP BY region",                           // no aggregates
		"SELECT amount, COUNT(*) FROM s GROUP BY region",                 // non-grouped bare column
		"SELECT COUNT(*) FROM s GROUP BY nope",                           // unknown group column
		"SELECT region, COUNT(*) FROM s GROUP BY region ORDER BY amount", // foreign order
	}
	ec, _ := newCompiledEngine(t, 0)
	mustExec(t, ec, "CREATE TABLE s (id INT PRIMARY KEY, region TEXT, amount INT)")
	for _, q := range cases {
		if _, err := e.Exec(q); err == nil {
			t.Errorf("Exec(%q) should fail", q)
		}
		if _, err := ec.Prepare(q); err == nil {
			t.Errorf("Prepare(%q) should fail", q)
		}
	}
	if _, err := ec.Prepare("SELECT COUNT(*) FROM s GROUP BY nope"); !errors.Is(err, ErrNoColumn) {
		t.Errorf("Prepare over an unknown group column = %v, want ErrNoColumn", err)
	}
}
