// Closure-compiled query execution: the CompiledQueries feature.
//
// Engine.Prepare parses and plans a statement ONCE and compiles the
// plan into chained closures — predicate terms with their column
// indexes and comparison operators resolved, projection index vectors,
// key encoders, and the access-path decision (point lookup via the
// primary key, bounded range scan on ordered indexes, or full scan) —
// so Stmt.Exec only binds arguments and runs the closures: zero parse,
// zero plan. This is the Go analog of JIT-compiling queries in an
// embedded engine, and it fits the product-line philosophy: a compiled
// plan is a tailor-made variant of the executor, specialized for one
// statement shape over one table schema.
//
// Compiled plans pin the engine's DDL epoch. DROP/CREATE TABLE bumps
// it, and a stale plan transparently recompiles (under the statement
// latch) before running — so a table recreated with a different schema
// can never be read through a stale plan.
package sql

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"famedb/internal/access"
	"famedb/internal/stats"
	"famedb/internal/trace"
	"famedb/internal/types"
)

// ErrStmtClosed is returned by Exec on a closed prepared statement.
var ErrStmtClosed = errors.New("sql: prepared statement is closed")

// epochAlways marks plans that can never go stale (DDL itself).
const epochAlways = ^uint64(0)

// compiled is one closure-compiled plan: the chain of closures plus
// what runCompiled needs to wrap, latch and invalidate it.
type compiled struct {
	verb string
	ast  Statement // kept for transparent recompilation
	// shape is the statement's normalized profile key (QueryStats
	// feature); empty when profiling is off, which also disables the
	// per-execution counters.
	shape string
	// epoch is the engine DDL epoch the plan was compiled under; the
	// plan is stale (and recompiles) once the engine's moves.
	epoch uint64
	// run executes the closures with bound arguments. The caller holds
	// the statement latch in the verb's mode. ctr collects execution
	// counters for QueryStats; nil disables counting.
	run func(sp *trace.Span, args []types.Value, ctr *execCounters) (*Result, error)
}

// Stmt is a prepared statement: parse and compile once, execute many.
// One Stmt is safe for concurrent Exec from multiple goroutines.
type Stmt struct {
	e       *Engine
	query   string
	nparams int
	plan    atomic.Pointer[compiled]
	closed  atomic.Bool
}

// Prepare parses, plans and closure-compiles one statement (feature
// CompiledQueries). The returned Stmt executes with zero parsing and
// zero planning; `?` placeholders bind positionally at Exec.
func (e *Engine) Prepare(query string) (*Stmt, error) {
	if !e.cfg.Compiled {
		return nil, fmt.Errorf("sql: Prepare needs the CompiledQueries feature: %w",
			access.ErrNotComposed)
	}
	stmt, nparams, err := parse(query)
	if err != nil {
		return nil, err
	}
	e.latch.RLock()
	c, err := e.compile(nil, stmt)
	e.latch.RUnlock()
	if err != nil {
		return nil, err
	}
	if e.cfg.Query != nil {
		c.shape, _ = shapeOf(query)
	}
	e.cfg.Metrics.Prepare()
	s := &Stmt{e: e, query: query, nparams: nparams}
	s.plan.Store(c)
	return s, nil
}

// NumParams returns the number of `?` placeholders.
func (s *Stmt) NumParams() int { return s.nparams }

// Query returns the statement's SQL text.
func (s *Stmt) Query() string { return s.query }

// Exec binds args to the placeholders and runs the compiled plan —
// no parsing, no planning. If DDL has invalidated the plan it is
// recompiled transparently first.
func (s *Stmt) Exec(args ...types.Value) (*Result, error) {
	if s.closed.Load() {
		return nil, ErrStmtClosed
	}
	if len(args) != s.nparams {
		return nil, fmt.Errorf("sql: statement wants %d arguments, got %d", s.nparams, len(args))
	}
	c := s.plan.Load()
	return s.e.runCompiled(c, args, func(nc *compiled) { s.plan.Store(nc) })
}

// Close retires the statement; further Execs fail with ErrStmtClosed.
func (s *Stmt) Close() error {
	s.closed.Store(true)
	return nil
}

// compile closure-compiles a parsed statement under a trace span
// (parent is the statement recompiling a stale plan, nil for Prepare
// and the plan cache). The caller holds the statement latch (either
// mode): compilation reads the catalog to resolve the table and schema.
func (e *Engine) compile(parent *trace.Span, stmt Statement) (*compiled, error) {
	sp := e.cfg.Tracer.Start(parent, trace.LayerSQL, "compile")
	c, err := e.compileStmt(stmt)
	e.cfg.Metrics.Compile()
	sp.Fail(err)
	sp.End()
	return c, err
}

// runCompiled executes a compiled plan under the statement latch with
// the metrics/trace wrapper, recompiling first when DDL has moved the
// epoch; onSwap publishes the fresh plan (into the Stmt or the cache).
func (e *Engine) runCompiled(c *compiled, args []types.Value, onSwap func(*compiled)) (*Result, error) {
	m := e.cfg.Metrics
	q := e.cfg.Query
	var ctr *execCounters
	var t0 int64
	if q != nil && c.shape != "" {
		ctr = &execCounters{shape: c.shape}
		t0 = time.Now().UnixNano()
	}
	m.Statement(c.verb)
	sp := e.cfg.Tracer.Start(nil, trace.LayerSQL, c.verb)
	start := m.Start()
	unlock := e.lockFor(c.verb)
	var res *Result
	var err error
	if c.epoch != epochAlways && c.epoch != e.epoch.Load() {
		// DDL invalidated the plan: recompile against the current
		// catalog before running. The latch is held, so the epoch
		// cannot move again underneath us.
		m.PlanInvalidate()
		var nc *compiled
		nc, err = e.compile(sp, c.ast)
		if err == nil {
			nc.shape = c.shape // the profile key survives recompilation
			c = nc
			if onSwap != nil {
				onSwap(nc)
			}
		}
	}
	if err == nil {
		res, err = c.run(sp, args, ctr)
	}
	unlock()
	m.Done(start)
	sp.Fail(err)
	spanID := sp.ID() // must precede End: span handles are pooled
	sp.End()
	if ctr != nil {
		q.Observe(stats.QueryExec{
			Shape:        c.shape,
			Verb:         c.verb,
			Plan:         ctr.plan,
			DurNs:        time.Now().UnixNano() - t0,
			RowsScanned:  ctr.rowsScanned,
			RowsReturned: rowsOut(res),
			PagesVisited: ctr.pagesVisited,
			TraceRoot:    spanID,
			Err:          err,
		})
	}
	return res, err
}

// compileStmt builds the closure chain for one statement. Caller holds
// the statement latch.
func (e *Engine) compileStmt(stmt Statement) (*compiled, error) {
	switch s := stmt.(type) {
	case Select:
		return e.compileSelect(s)
	case Insert:
		return e.compileInsert(s)
	case Update:
		return e.compileUpdate(s)
	case Delete:
		return e.compileDelete(s)
	case Explain:
		return e.compileExplain(s)
	case CreateTable, DropTable:
		// DDL "compiles" to the interpreted executor: re-execution
		// still skips the parser, and DDL can never go stale (it IS
		// what moves the epoch).
		verb, err := stmtVerb(stmt)
		if err != nil {
			return nil, err
		}
		return &compiled{verb: verb, ast: stmt, epoch: epochAlways,
			run: func(sp *trace.Span, _ []types.Value, ctr *execCounters) (*Result, error) {
				return e.dispatch(sp, stmt, ctr)
			}}, nil
	}
	return nil, fmt.Errorf("sql: unhandled statement %T", stmt)
}

// --- compiled operands and predicates ---

// valueFn resolves one operand against the bound arguments.
type valueFn func(args []types.Value) types.Value

func compileOperand(o Operand) valueFn {
	if o.Param > 0 {
		i := o.Param - 1
		return func(args []types.Value) types.Value { return args[i] }
	}
	v := o.Value
	return func([]types.Value) types.Value { return v }
}

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
		get := compileOperand(Operand{Value: c.Value, Param: c.Param})
		op := c.Op
		terms[i] = func(row, args []types.Value) bool {
			return opHolds(op, types.Compare(row[idx], get(args)))
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

// boundsFn computes scan bounds from the bound arguments: the compiled
// counterpart of planScan, with the primary-key conditions preselected
// at compile time so only key encoding runs per execution.
type boundsFn func(args []types.Value) (lo, hi []byte, plan string)

// pkCond is one primary-key condition kept for bounds computation.
type pkCond struct {
	op  CompareOp
	get valueFn
}

// compileBounds builds the access-path closure for a predicate over t.
func (e *Engine) compileBounds(t *table, where []Condition) boundsFn {
	fullScan := func([]types.Value) ([]byte, []byte, string) { return nil, nil, "full-scan" }
	if !e.cfg.Optimizer || !e.cfg.Factory.Ordered || t.pk < 0 {
		return fullScan
	}
	pkName := t.schema[t.pk].Name
	pkKind := t.schema[t.pk].Kind
	var conds []pkCond
	for _, c := range where {
		if c.Column == pkName {
			conds = append(conds, pkCond{op: c.Op, get: compileOperand(Operand{Value: c.Value, Param: c.Param})})
		}
	}
	if len(conds) == 0 {
		return fullScan
	}
	return func(args []types.Value) (lo, hi []byte, plan string) {
		plan = "full-scan"
		for _, c := range conds {
			v, err := coerce(c.get(args), pkKind)
			if err != nil {
				continue // un-coercible bound: contributes no range
			}
			key := types.EncodeKey(v)
			switch c.op {
			case OpEq:
				lo = key
				hi = append(append([]byte(nil), key...), 0)
				return lo, hi, "index-scan"
			case OpGt, OpGe:
				if lo == nil || bytesCompare(key, lo) > 0 {
					lo = key
					if c.op == OpGt {
						lo = append(append([]byte(nil), key...), 0)
					}
					plan = "index-scan"
				}
			case OpLt, OpLe:
				if hi == nil || bytesCompare(key, hi) < 0 {
					hi = key
					if c.op == OpLe {
						hi = append(append([]byte(nil), key...), 0)
					}
					plan = "index-scan"
				}
			}
		}
		return lo, hi, plan
	}
}

// limitFn resolves LIMIT per execution (it may be a placeholder).
type limitFn func(args []types.Value) (int, error)

func compileLimit(s Select) limitFn {
	if s.LimitParam > 0 {
		i := s.LimitParam - 1
		return func(args []types.Value) (int, error) {
			v := args[i]
			if v.Kind != types.KindInt || v.Int < 0 {
				return 0, fmt.Errorf("sql: bad LIMIT argument %v", v)
			}
			return int(v.Int), nil
		}
	}
	n := s.Limit
	return func([]types.Value) (int, error) { return n, nil }
}

// --- compiled statements ---

// compileSelect specializes a SELECT: projection indexes, fused
// predicate, ORDER BY column and the access path are all resolved once.
// Single-equality lookups on the primary key compile to a direct index
// Get — the point-lookup fast path.
func (e *Engine) compileSelect(s Select) (*compiled, error) {
	t, err := e.openTable(s.Table)
	if err != nil {
		return nil, err
	}
	if len(s.Aggregates) > 0 {
		return e.compileAggregates(t, s)
	}
	outCols, proj, err := resolveProjection(t, s.Columns)
	if err != nil {
		return nil, err
	}
	pred, err := compilePred(t.schema, s.Where)
	if err != nil {
		return nil, err
	}
	oi := -1
	if s.OrderBy != "" {
		if oi = columnIndex(t.schema, s.OrderBy); oi < 0 {
			return nil, fmt.Errorf("%w: %s", ErrNoColumn, s.OrderBy)
		}
	}
	// Identity projection (SELECT * in schema order) skips the copy.
	identity := len(proj) == len(t.schema)
	for i, pi := range proj {
		identity = identity && pi == i
	}
	project := projectRow
	if identity {
		project = func(row []types.Value, _ []int) []types.Value { return row }
	}
	limit := compileLimit(s)
	bounds := e.compileBounds(t, s.Where)
	m := e.cfg.Metrics

	// The needed column set is known at compile time: projection,
	// predicate and sort columns. Everything else is decoded without
	// materializing — unreferenced string columns never leave the page.
	// (The interpreted executor cannot do this: it resolves projection
	// against generic rows.)
	var mask []bool
	if !identity {
		mask = make([]bool, len(t.schema))
		for _, pi := range proj {
			mask[pi] = true
		}
		for _, c := range s.Where {
			mask[columnIndex(t.schema, c.Column)] = true
		}
		if oi >= 0 {
			mask[oi] = true
		}
	}

	// scan is the general driver: bounded or full scan, streaming
	// through the fused predicate and projection.
	scan := func(sp *trace.Span, args []types.Value, ctr *execCounters) (*Result, error) {
		n, err := limit(args)
		if err != nil {
			return nil, err
		}
		defer ctr.trackPages(t)()
		lo, hi, plan := bounds(args)
		m.Plan(plan)
		ctr.setPlan(plan)
		wrap := func(row []types.Value) bool { return pred == nil || pred(row, args) }
		if oi < 0 {
			var out [][]types.Value
			t0 := ctr.now()
			err := scanWhere(sp, t, lo, hi, mask, ctr, wrap, func(_ []byte, row []types.Value) bool {
				if n >= 0 && len(out) >= n {
					return false
				}
				out = append(out, project(row, proj))
				return true
			})
			ctr.addScan(t0)
			if err != nil {
				return nil, err
			}
			return &Result{Columns: outCols, Rows: out, Plan: plan}, nil
		}
		var rows [][]types.Value
		t0 := ctr.now()
		err = scanWhere(sp, t, lo, hi, mask, ctr, wrap, func(_ []byte, row []types.Value) bool {
			rows = append(rows, row)
			return true
		})
		ctr.addScan(t0)
		if err != nil {
			return nil, err
		}
		t1 := ctr.now()
		sortRows(rows, oi, s.Desc)
		ctr.addSort(t1)
		if n >= 0 && len(rows) > n {
			rows = rows[:n]
		}
		out := make([][]types.Value, len(rows))
		for i, row := range rows {
			out[i] = project(row, proj)
		}
		return &Result{Columns: outCols, Rows: out, Plan: plan}, nil
	}

	run := scan
	// Point-lookup fast path: a single equality on the primary key over
	// an ordered index compiles to one index Get — no iterator, no
	// scan setup. Gated on the Optimizer feature like every access-path
	// choice.
	if e.cfg.Optimizer && e.cfg.Factory.Ordered && t.pk >= 0 &&
		len(s.Where) == 1 && s.Where[0].Op == OpEq &&
		s.Where[0].Column == t.schema[t.pk].Name {
		keyOf := compileOperand(Operand{Value: s.Where[0].Value, Param: s.Where[0].Param})
		pkKind := t.schema[t.pk].Kind
		run = func(sp *trace.Span, args []types.Value, ctr *execCounters) (*Result, error) {
			v, cerr := coerce(keyOf(args), pkKind)
			if cerr != nil {
				// Un-coercible key (e.g. a float bound on an int key):
				// fall back to the scan driver, same as the planner.
				return scan(sp, args, ctr)
			}
			n, err := limit(args)
			if err != nil {
				return nil, err
			}
			defer ctr.trackPages(t)()
			m.Plan("point-lookup")
			ctr.setPlan("point-lookup")
			rec, err := t.store.GetIn(sp, types.EncodeKey(v))
			if errors.Is(err, access.ErrNotFound) {
				return &Result{Columns: outCols, Plan: "point-lookup"}, nil
			}
			if err != nil {
				return nil, err
			}
			ctr.scanned()
			row, err := types.DecodeRow(rec)
			if err != nil {
				return nil, err
			}
			res := &Result{Columns: outCols, Plan: "point-lookup"}
			if n != 0 && (pred == nil || pred(row, args)) {
				ctr.matched()
				res.Rows = [][]types.Value{project(row, proj)}
			}
			return res, nil
		}
	}
	return &compiled{verb: "select", ast: s, epoch: e.epoch.Load(), run: run}, nil
}

// compileAggregates resolves the table and validates the aggregate
// list once; execution binds the predicate and delegates to the
// aggregate evaluator (still zero-parse, zero table resolution).
func (e *Engine) compileAggregates(t *table, s Select) (*compiled, error) {
	limit := compileLimit(s)
	run := func(sp *trace.Span, args []types.Value, ctr *execCounters) (*Result, error) {
		bs := s
		bs.Where = bindConds(s.Where, args)
		n, err := limit(args)
		if err != nil {
			return nil, err
		}
		bs.Limit, bs.LimitParam = n, 0
		defer ctr.trackPages(t)()
		return e.execAggregates(sp, t, bs, ctr)
	}
	return &compiled{verb: "select", ast: s, epoch: e.epoch.Load(), run: run}, nil
}

// compileInsert resolves the column mapping and completeness check
// once; execution coerces the bound operands and writes rows.
func (e *Engine) compileInsert(s Insert) (*compiled, error) {
	t, err := e.openTable(s.Table)
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
		get  valueFn
	}
	rows := make([][]slot, len(s.Rows))
	for r, operands := range s.Rows {
		if len(operands) != len(cols) {
			return nil, fmt.Errorf("sql: %d values for %d columns", len(operands), len(cols))
		}
		rows[r] = make([]slot, len(operands))
		for i, o := range operands {
			rows[r][i] = slot{dst: colIdx[i], kind: t.schema[colIdx[i]].Kind,
				name: cols[i], get: compileOperand(o)}
		}
	}
	run := func(sp *trace.Span, args []types.Value, ctr *execCounters) (*Result, error) {
		defer ctr.trackPages(t)()
		affected := 0
		for _, slots := range rows {
			row := make([]types.Value, len(t.schema))
			for _, sl := range slots {
				cv, err := coerce(sl.get(args), sl.kind)
				if err != nil {
					return nil, fmt.Errorf("column %s: %w", sl.name, err)
				}
				row[sl.dst] = cv
			}
			if err := e.insertRow(sp, t, row); err != nil {
				return nil, err
			}
			affected++
		}
		return &Result{Affected: affected}, nil
	}
	return &compiled{verb: "insert", ast: s, epoch: e.epoch.Load(), run: run}, nil
}

// compileUpdate resolves assignment targets and the predicate once;
// execution coerces bound values, collects matches, and rewrites them.
func (e *Engine) compileUpdate(s Update) (*compiled, error) {
	t, err := e.openTable(s.Table)
	if err != nil {
		return nil, err
	}
	type assign struct {
		dst  int
		kind types.Kind
		name string
		get  valueFn
	}
	var assigns []assign
	for col, o := range s.Set {
		i := columnIndex(t.schema, col)
		if i < 0 {
			return nil, fmt.Errorf("%w: %s", ErrNoColumn, col)
		}
		assigns = append(assigns, assign{dst: i, kind: t.schema[i].Kind,
			name: col, get: compileOperand(o)})
	}
	pred, err := compilePred(t.schema, s.Where)
	if err != nil {
		return nil, err
	}
	bounds := e.compileBounds(t, s.Where)
	m := e.cfg.Metrics
	run := func(sp *trace.Span, args []types.Value, ctr *execCounters) (*Result, error) {
		setIdx := make(map[int]types.Value, len(assigns))
		for _, a := range assigns {
			cv, err := coerce(a.get(args), a.kind)
			if err != nil {
				return nil, fmt.Errorf("column %s: %w", a.name, err)
			}
			setIdx[a.dst] = cv
		}
		defer ctr.trackPages(t)()
		lo, hi, plan := bounds(args)
		m.Plan(plan)
		ctr.setPlan(plan)
		keys, rows, err := collectMatching(sp, t, lo, hi, pred, args, ctr)
		if err != nil {
			return nil, err
		}
		affected := 0
		for i, row := range rows {
			if err := e.applyUpdate(sp, t, keys[i], row, setIdx); err != nil {
				return nil, err
			}
			affected++
		}
		return &Result{Affected: affected}, nil
	}
	return &compiled{verb: "update", ast: s, epoch: e.epoch.Load(), run: run}, nil
}

// compileDelete resolves the predicate once; execution collects the
// matching keys and removes them.
func (e *Engine) compileDelete(s Delete) (*compiled, error) {
	t, err := e.openTable(s.Table)
	if err != nil {
		return nil, err
	}
	pred, err := compilePred(t.schema, s.Where)
	if err != nil {
		return nil, err
	}
	bounds := e.compileBounds(t, s.Where)
	m := e.cfg.Metrics
	run := func(sp *trace.Span, args []types.Value, ctr *execCounters) (*Result, error) {
		defer ctr.trackPages(t)()
		lo, hi, plan := bounds(args)
		m.Plan(plan)
		ctr.setPlan(plan)
		keys, _, err := collectMatching(sp, t, lo, hi, pred, args, ctr)
		if err != nil {
			return nil, err
		}
		for _, k := range keys {
			if err := t.store.RemoveIn(sp, k); err != nil {
				return nil, err
			}
		}
		return &Result{Affected: len(keys)}, nil
	}
	return &compiled{verb: "delete", ast: s, epoch: e.epoch.Load(), run: run}, nil
}

// collectMatching materializes matching keys and rows through the
// shared streaming pipeline, for the mutating compiled plans.
func collectMatching(sp *trace.Span, t *table, lo, hi []byte, pred rowPred, args []types.Value, ctr *execCounters) (keys [][]byte, rows [][]types.Value, err error) {
	// No mask: UPDATE rewrites whole rows and DELETE is key-driven, so
	// every column must materialize.
	wrap := func(row []types.Value) bool { return pred == nil || pred(row, args) }
	t0 := ctr.now()
	err = scanWhere(sp, t, lo, hi, nil, ctr, wrap, func(k []byte, row []types.Value) bool {
		keys = append(keys, append([]byte(nil), k...))
		rows = append(rows, row)
		return true
	})
	ctr.addScan(t0)
	return keys, rows, err
}
