// The executor: every statement compiles to a chain of closures and
// runs through it — there is no second, interpreting path.
//
// compileStmt resolves once what does not depend on the operands:
// predicate terms with their column indexes and comparison operators,
// projection index vectors and the decode mask, key encoders, and the
// access-path closure (full scan; with the Optimizer feature a bounded
// range scan or point lookup on ordered indexes). Running a plan only
// binds operands — literals on the one-shot Exec path, arguments on the
// plan-cache and prepared paths — so a plan is a tailor-made variant of
// the executor, specialized for one statement shape over one table
// schema. Exec builds a plan and drops it; the CompiledQueries feature
// (prepare.go, cache.go) is what keeps plans.
package sql

import (
	"fmt"

	"famedb/internal/stats"
	"famedb/internal/trace"
	"famedb/internal/types"
)

// epochAlways marks plans that can never go stale (DDL itself).
const epochAlways = ^uint64(0)

// runFn executes a plan's closures with bound arguments. The caller
// holds the statement latch in the verb's mode. w is the writer a
// writing plan writes through; nil for SELECT. ctr collects execution
// counters for QueryStats; nil disables counting.
type runFn func(sp *trace.Span, w writer, args []types.Value, ctr *execCounters) (*Result, error)

// compiled is one closure-compiled plan: the chain of closures plus
// what runCompiled needs to wrap, latch and invalidate it.
type compiled struct {
	verb verb
	ast  Statement // kept for transparent recompilation
	// shape is the statement's normalized profile key (QueryStats
	// feature); empty when profiling is off, which also disables the
	// per-execution counters.
	shape string
	// prepared marks a plan a Stmt holds; EXPLAIN's provenance names the
	// surface it arrived through.
	prepared bool
	// epoch is the engine DDL epoch the plan was compiled under; a kept
	// plan is stale (and recompiles) once the engine's moves.
	epoch uint64
	run   runFn
	desc  planDesc
}

// planDesc is what a plan says about itself. EXPLAIN renders it instead
// of re-deriving the planner's decisions, so it cannot disagree with
// the plan that runs.
type planDesc struct {
	t *table // nil for DDL
	// access names the access path the plan takes for given operands;
	// nil for statements that scan nothing.
	access interface {
		path(args []types.Value) string
	}
	nPred int      // fused predicate terms
	cols  []string // SELECT's projected columns
	nMask int      // columns the decode mask materializes; 0 = all
}

// compileStmt builds the closure chain for one statement. sp parents
// the catalog read of a table's first use. Caller holds the statement
// latch (either mode): compilation reads the catalog to resolve the
// table and schema.
func (e *Engine) compileStmt(sp *trace.Span, stmt Statement) (*compiled, error) {
	switch s := stmt.(type) {
	case Select:
		return e.compileSelect(sp, s)
	case Insert:
		return e.compileInsert(sp, s)
	case Update:
		return e.compileUpdate(sp, s)
	case Delete:
		return e.compileDelete(sp, s)
	case Explain:
		return e.compileExplain(sp, s)
	case CreateTable:
		// DDL has nothing to resolve ahead of time and can never go
		// stale: it IS what moves the epoch.
		return &compiled{verb: verbCreate, ast: s, epoch: epochAlways,
			run: func(sp *trace.Span, w writer, _ []types.Value, _ *execCounters) (*Result, error) {
				return e.execCreate(sp, w, s)
			}}, nil
	case DropTable:
		return &compiled{verb: verbDrop, ast: s, epoch: epochAlways,
			run: func(sp *trace.Span, w writer, _ []types.Value, _ *execCounters) (*Result, error) {
				return e.execDrop(sp, w, s)
			}}, nil
	}
	return nil, fmt.Errorf("sql: unhandled statement %T", stmt)
}

// --- compiled operands and predicates ---

// rowPred is a compiled predicate term: column index and operator are
// resolved at compile time, only the comparison runs per row.
type rowPred func(row, args []types.Value) bool

// compilePred fuses a conjunction of conditions into a single closure.
// A nil result accepts every row.
func compilePred(schema []ColumnDef, where []Condition) (rowPred, error) {
	if len(where) == 0 {
		return nil, nil
	}
	terms := make([]rowPred, len(where))
	for i, c := range where {
		idx := columnIndex(schema, c.Column)
		if idx < 0 {
			return nil, fmt.Errorf("%w: %s", ErrNoColumn, c.Column)
		}
		op, rhs := c.Op, c.rhs()
		terms[i] = func(row, args []types.Value) bool {
			return opHolds(op, types.Compare(row[idx], rhs.resolve(args)))
		}
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return func(row, args []types.Value) bool {
		for _, t := range terms {
			if !t(row, args) {
				return false
			}
		}
		return true
	}, nil
}

// accessPath is a scan's access path: the name Result.Plan, EXPLAIN and
// the query profile report, and the Statistics counter it is counted
// under. A point lookup is not a scan; seek counts it.
type accessPath struct {
	name    string
	counter stats.ID
}

var (
	fullScanPath  = accessPath{"full-scan", stats.SQLFullScans}
	indexScanPath = accessPath{"index-scan", stats.SQLIndexScans}
)

// boundsFn computes scan bounds and the access path from the bound
// arguments.
type boundsFn func(args []types.Value) (lo, hi []byte, path accessPath)

func fullScan([]types.Value) (lo, hi []byte, path accessPath) { return nil, nil, fullScanPath }

// scanPlan is what every scanning statement compiles the same way: the
// fused predicate and the access path over one table — a point lookup
// when the operands make one, else the bounds closure's scan.
type scanPlan struct {
	t      *table
	pred   rowPred
	point  pointKey
	bounds boundsFn
	m      *stats.Registry
}

func (e *Engine) compileScan(t *table, where []Condition) (scanPlan, error) {
	pred, err := compilePred(t.schema, where)
	if err != nil {
		return scanPlan{}, err
	}
	bounds := boundsFn(fullScan)
	if e.cfg.Optimizer {
		bounds = e.compileBounds(t, where)
	}
	return scanPlan{t: t, pred: pred, point: e.compilePointKey(t, where),
		bounds: bounds, m: e.cfg.Metrics}, nil
}

// path reports the access path the plan takes for args.
func (p *scanPlan) path(args []types.Value) string {
	if _, ok := p.point.keyFor(args); ok {
		return "point-lookup"
	}
	_, _, ap := p.bounds(args)
	return ap.name
}

// scan streams the rows the plan selects for args to visit, through
// the shared pipeline, and returns the access path it took.
func (p *scanPlan) scan(sp *trace.Span, args []types.Value, mask []bool, ctr *execCounters,
	visit func(key []byte, row []types.Value) bool) (plan string, err error) {
	if key, ok := p.point.keyFor(args); ok {
		row, hit, err := p.seek(sp, key, args, mask, ctr)
		if hit {
			visit(key, row)
		}
		return "point-lookup", err
	}
	lo, hi, ap := p.bounds(args)
	p.m.Add(ap.counter, 1)
	ctr.setPlan(ap.name)
	pred := func(row []types.Value) bool { return p.pred == nil || p.pred(row, args) }
	t0 := ctr.now()
	err = scanWhere(sp, p.t, lo, hi, mask, ctr, pred, visit)
	ctr.addScan(t0)
	return ap.name, err
}

// collect materializes the matching rows with copies of their keys, for
// the mutating statements, which must finish the scan before touching
// the tree, and for aggregates. SELECTs stream through scan instead.
func (p *scanPlan) collect(sp *trace.Span, args []types.Value, ctr *execCounters) (keys [][]byte, rows [][]types.Value, plan string, err error) {
	// No mask: UPDATE rewrites whole rows and DELETE is key-driven, so
	// every column must materialize.
	plan, err = p.scan(sp, args, nil, ctr, func(k []byte, row []types.Value) bool {
		keys = append(keys, append([]byte(nil), k...))
		rows = append(rows, row)
		return true
	})
	return keys, rows, plan, err
}

// mutate runs write on every row the plan selects for args, with the
// row's key, and returns how many rows it wrote and the access path.
// A point lookup writes straight after its Get; a scan is collected
// first, because the tree must not change under an open iterator.
func (p *scanPlan) mutate(sp *trace.Span, args []types.Value, ctr *execCounters,
	write func(key []byte, row []types.Value) error) (affected int, plan string, err error) {
	if key, ok := p.point.keyFor(args); ok {
		row, hit, err := p.seek(sp, key, args, nil, ctr)
		if !hit || err != nil {
			return 0, "point-lookup", err
		}
		return 1, "point-lookup", write(key, row)
	}
	keys, rows, plan, err := p.collect(sp, args, ctr)
	if err != nil {
		return 0, plan, err
	}
	for i, row := range rows {
		if err := write(keys[i], row); err != nil {
			return i, plan, err
		}
	}
	return len(rows), plan, nil
}

// rowLimit is a SELECT's LIMIT: a literal count (-1 = none) or, when
// param is set, the placeholder to read it from at each execution.
type rowLimit struct{ n, param int }

func limitOf(s Select) rowLimit { return rowLimit{n: s.Limit, param: s.LimitParam} }

func (l rowLimit) bind(args []types.Value) (int, error) {
	if l.param == 0 {
		return l.n, nil
	}
	v := args[l.param-1]
	if v.Kind != types.KindInt || v.Int < 0 {
		return 0, fmt.Errorf("sql: bad LIMIT argument %v", v)
	}
	return int(v.Int), nil
}

// --- compiled statements ---

// selectPlan is a specialized SELECT: projection indexes, decode mask,
// fused predicate, ORDER BY column and the access path, all resolved
// once.
type selectPlan struct {
	scanPlan
	cols    []string
	proj    []int
	project func(row []types.Value, proj []int) []types.Value
	mask    []bool
	oi      int // ORDER BY column; -1 = scan order
	desc    bool
	limit   rowLimit
}

func (e *Engine) compileSelect(sp *trace.Span, s Select) (*compiled, error) {
	t, err := e.openTable(sp, s.Table)
	if err != nil {
		return nil, err
	}
	if len(s.Aggregates) > 0 {
		return e.compileAggregates(t, s)
	}
	cols, proj, err := resolveProjection(t, s.Columns)
	if err != nil {
		return nil, err
	}
	scan, err := e.compileScan(t, s.Where)
	if err != nil {
		return nil, err
	}
	p := &selectPlan{scanPlan: scan, cols: cols, proj: proj, project: projectRow,
		oi: -1, desc: s.Desc, limit: limitOf(s)}
	if s.OrderBy != "" {
		if p.oi = columnIndex(t.schema, s.OrderBy); p.oi < 0 {
			return nil, fmt.Errorf("%w: %s", ErrNoColumn, s.OrderBy)
		}
	}
	// Identity projection (SELECT * in schema order) skips the copy.
	identity := len(proj) == len(t.schema)
	for i, pi := range proj {
		identity = identity && pi == i
	}
	desc := planDesc{t: t, access: p, nPred: len(s.Where), cols: cols}
	if identity {
		p.project = func(row []types.Value, _ []int) []types.Value { return row }
	} else {
		// The needed column set is known at compile time: projection,
		// predicate and sort columns. Everything else is decoded without
		// materializing — unreferenced string columns never leave the page.
		p.mask = make([]bool, len(t.schema))
		for _, pi := range proj {
			p.mask[pi] = true
		}
		for _, c := range s.Where {
			p.mask[columnIndex(t.schema, c.Column)] = true
		}
		if p.oi >= 0 {
			p.mask[p.oi] = true
		}
		for _, need := range p.mask {
			if need {
				desc.nMask++
			}
		}
	}
	return &compiled{verb: verbSelect, ast: s, epoch: e.epoch.Load(), run: p.run, desc: desc}, nil
}

// run is the SELECT driver: point lookup, bounded or full scan,
// streaming through the fused predicate and projection.
func (p *selectPlan) run(sp *trace.Span, _ writer, args []types.Value, ctr *execCounters) (*Result, error) {
	n, err := p.limit.bind(args)
	if err != nil {
		return nil, err
	}
	defer ctr.endPages(p.t, ctr.startPages(p.t))
	if p.oi < 0 {
		// Stream: project each matching row as it arrives and stop the
		// scan as soon as LIMIT is satisfied.
		var out [][]types.Value
		plan, err := p.scan(sp, args, p.mask, ctr, func(_ []byte, row []types.Value) bool {
			if n >= 0 && len(out) >= n {
				return false
			}
			out = append(out, p.project(row, p.proj))
			return true
		})
		if err != nil {
			return nil, err
		}
		return &Result{Columns: p.cols, Rows: out, Plan: plan}, nil
	}
	// ORDER BY materializes only the matching rows, then sorts.
	var rows [][]types.Value
	plan, err := p.scan(sp, args, p.mask, ctr, func(_ []byte, row []types.Value) bool {
		rows = append(rows, row)
		return true
	})
	if err != nil {
		return nil, err
	}
	t1 := ctr.now()
	sortRows(rows, p.oi, p.desc)
	ctr.addSort(t1)
	if n >= 0 && len(rows) > n {
		rows = rows[:n]
	}
	out := make([][]types.Value, len(rows))
	for i, row := range rows {
		out[i] = p.project(row, p.proj)
	}
	return &Result{Columns: p.cols, Rows: out, Plan: plan}, nil
}

// compileAggregates validates the aggregate list and resolves the
// predicate and access path once; execution collects the matching rows
// and hands them to the aggregate evaluator.
func (e *Engine) compileAggregates(t *table, s Select) (*compiled, error) {
	gi, cols, err := resolveAggregates(t, s)
	if err != nil {
		return nil, err
	}
	scan, err := e.compileScan(t, s.Where)
	if err != nil {
		return nil, err
	}
	limit := limitOf(s)
	run := func(sp *trace.Span, _ writer, args []types.Value, ctr *execCounters) (*Result, error) {
		n, err := limit.bind(args)
		if err != nil {
			return nil, err
		}
		defer ctr.endPages(t, ctr.startPages(t))
		_, rows, plan, err := scan.collect(sp, args, ctr)
		if err != nil {
			return nil, err
		}
		out, err := execAggregates(t, s, gi, n, rows)
		if err != nil {
			return nil, err
		}
		return &Result{Columns: cols, Rows: out, Plan: plan}, nil
	}
	return &compiled{verb: verbSelect, ast: s, epoch: e.epoch.Load(), run: run,
		desc: planDesc{t: t, access: &scan, nPred: len(s.Where)}}, nil
}

// compileInsert resolves the column mapping and completeness check
// once; execution coerces the bound operands and writes rows.
func (e *Engine) compileInsert(sp *trace.Span, s Insert) (*compiled, error) {
	t, err := e.openTable(sp, s.Table)
	if err != nil {
		return nil, err
	}
	cols, colIdx, err := resolveInsert(t, s)
	if err != nil {
		return nil, err
	}
	// Completeness is a property of the column list, not the values:
	// check it at compile time.
	assigned := make([]bool, len(t.schema))
	for _, ci := range colIdx {
		assigned[ci] = true
	}
	for i, ok := range assigned {
		if !ok {
			return nil, fmt.Errorf("sql: column %s has no value (NULL is not supported)",
				t.schema[i].Name)
		}
	}
	type slot struct {
		dst  int
		kind types.Kind
		name string
		val  Operand
	}
	rows := make([][]slot, len(s.Rows))
	for r, operands := range s.Rows {
		if len(operands) != len(cols) {
			return nil, fmt.Errorf("sql: %d values for %d columns", len(operands), len(cols))
		}
		rows[r] = make([]slot, len(operands))
		for i, o := range operands {
			rows[r][i] = slot{dst: colIdx[i], kind: t.schema[colIdx[i]].Kind,
				name: cols[i], val: o}
		}
	}
	run := func(sp *trace.Span, w writer, args []types.Value, ctr *execCounters) (*Result, error) {
		defer ctr.endPages(t, ctr.startPages(t))
		affected := 0
		for _, slots := range rows {
			row := make([]types.Value, len(t.schema))
			for _, sl := range slots {
				cv, err := coerce(sl.val.resolve(args), sl.kind)
				if err != nil {
					return nil, fmt.Errorf("column %s: %w", sl.name, err)
				}
				row[sl.dst] = cv
			}
			if err := insertRow(sp, w, t, row); err != nil {
				return nil, err
			}
			affected++
		}
		return &Result{Affected: affected}, nil
	}
	return &compiled{verb: verbInsert, ast: s, epoch: e.epoch.Load(), run: run,
		desc: planDesc{t: t}}, nil
}

// setCol is one compiled UPDATE assignment, bound to its value.
type setCol struct {
	col int
	val types.Value
}

// compileUpdate resolves assignment targets and the predicate once;
// execution coerces bound values and rewrites the matching rows.
func (e *Engine) compileUpdate(sp *trace.Span, s Update) (*compiled, error) {
	t, err := e.openTable(sp, s.Table)
	if err != nil {
		return nil, err
	}
	type assign struct {
		dst  int
		kind types.Kind
		name string
		val  Operand
	}
	var assigns []assign
	for col, o := range s.Set {
		i := columnIndex(t.schema, col)
		if i < 0 {
			return nil, fmt.Errorf("%w: %s", ErrNoColumn, col)
		}
		assigns = append(assigns, assign{dst: i, kind: t.schema[i].Kind,
			name: col, val: o})
	}
	scan, err := e.compileScan(t, s.Where)
	if err != nil {
		return nil, err
	}
	run := func(sp *trace.Span, w writer, args []types.Value, ctr *execCounters) (*Result, error) {
		sets := make([]setCol, len(assigns))
		for i, a := range assigns {
			cv, err := coerce(a.val.resolve(args), a.kind)
			if err != nil {
				return nil, fmt.Errorf("column %s: %w", a.name, err)
			}
			sets[i] = setCol{col: a.dst, val: cv}
		}
		defer ctr.endPages(t, ctr.startPages(t))
		n, plan, err := scan.mutate(sp, args, ctr, func(key []byte, row []types.Value) error {
			return applyUpdate(sp, w, t, key, row, sets)
		})
		if err != nil {
			return nil, err
		}
		return &Result{Affected: n, Plan: plan}, nil
	}
	return &compiled{verb: verbUpdate, ast: s, epoch: e.epoch.Load(), run: run,
		desc: planDesc{t: t, access: &scan, nPred: len(s.Where)}}, nil
}

// compileDelete resolves the predicate once; execution removes the
// matching keys.
func (e *Engine) compileDelete(sp *trace.Span, s Delete) (*compiled, error) {
	t, err := e.openTable(sp, s.Table)
	if err != nil {
		return nil, err
	}
	scan, err := e.compileScan(t, s.Where)
	if err != nil {
		return nil, err
	}
	run := func(sp *trace.Span, w writer, args []types.Value, ctr *execCounters) (*Result, error) {
		defer ctr.endPages(t, ctr.startPages(t))
		n, plan, err := scan.mutate(sp, args, ctr, func(key []byte, _ []types.Value) error {
			return w.remove(sp, t, key)
		})
		if err != nil {
			return nil, err
		}
		return &Result{Affected: n, Plan: plan}, nil
	}
	return &compiled{verb: verbDelete, ast: s, epoch: e.epoch.Load(), run: run,
		desc: planDesc{t: t, access: &scan, nPred: len(s.Where)}}, nil
}
