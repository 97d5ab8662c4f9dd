// EXPLAIN and EXPLAIN ANALYZE: the QueryStats feature's plan renderer.
//
// EXPLAIN describes what the engine would do for a statement — the
// chosen access path, the fused predicate residue, the projection and
// its decode mask, and where the plan would come from (interpreted
// executor, plan cache, DDL epoch). EXPLAIN ANALYZE additionally
// executes the statement through the interpreted executor with a live
// counter set and appends what actually happened: rows scanned, rows
// matched by the predicate, rows returned, B+-tree pages visited, and
// per-operator wall time. Both forms need the QueryStats feature; on
// other products they fail with access.ErrNotComposed, like any other
// functionality that was not composed in.
package sql

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"famedb/internal/access"
	"famedb/internal/trace"
	"famedb/internal/types"
)

// planInfo is the static description of one statement's plan, built
// without executing it.
type planInfo struct {
	verb   string
	table  string
	plan   string // access path; "" for statements without a scan
	access string // access-path detail for the access line
	nPred  int    // fused predicate terms
	proj   string // projected columns
	nProj  int    // projected column count
	nCols  int    // schema width
	nMask  int    // columns the compiled decode mask materializes (0 = all)
	extra  []string
	source string // provenance: driver, epoch, plan-cache state
}

// execExplain runs EXPLAIN through the interpreted executor. The
// statement latch is held exclusively ("explain" verb): ANALYZE may
// execute DML.
func (e *Engine) execExplain(sp *trace.Span, s Explain, ctr *execCounters) (*Result, error) {
	if e.cfg.Query == nil {
		return nil, fmt.Errorf("sql: EXPLAIN needs the QueryStats feature: %w",
			access.ErrNotComposed)
	}
	return e.explainCore(sp, s, innerShape(ctr), "interpreted", ctr)
}

// compileExplain compiles EXPLAIN for the prepared-statement surface.
// The inner statement is validated at Prepare; each Exec binds the
// arguments and renders (and for ANALYZE, runs) the bound statement.
func (e *Engine) compileExplain(s Explain) (*compiled, error) {
	if e.cfg.Query == nil {
		return nil, fmt.Errorf("sql: EXPLAIN needs the QueryStats feature: %w",
			access.ErrNotComposed)
	}
	// Compile the inner statement now so unknown tables/columns fail at
	// Prepare, exactly like preparing the statement itself would.
	if _, err := e.compileStmt(s.Stmt); err != nil {
		return nil, err
	}
	c := &compiled{verb: "explain", ast: s, epoch: e.epoch.Load()}
	// The run closure late-binds c: the profile shape is assigned to the
	// compiled plan only after compileStmt returns.
	c.run = func(sp *trace.Span, args []types.Value, ctr *execCounters) (*Result, error) {
		bound := Explain{Stmt: bindStmt(s.Stmt, args), Analyze: s.Analyze}
		return e.explainCore(sp, bound, stripExplainPrefix(c.shape), "prepared", ctr)
	}
	return c, nil
}

// innerShape recovers the inner statement's plan-cache shape from the
// EXPLAIN statement's own profile key.
func innerShape(ctr *execCounters) string {
	if ctr == nil {
		return ""
	}
	return stripExplainPrefix(ctr.shape)
}

// stripExplainPrefix removes the EXPLAIN [ANALYZE] tokens from a
// normalized shape, leaving the inner statement's shape. Shapes join
// tokens with single spaces and uppercase keywords, so the prefix is
// exact.
func stripExplainPrefix(shape string) string {
	shape = strings.TrimPrefix(shape, "EXPLAIN ")
	return strings.TrimPrefix(shape, "ANALYZE ")
}

// explainCore describes — and for ANALYZE, executes — the inner
// statement, rendering the plan tree as one result row per line.
// source names the driver the EXPLAIN arrived through; ctr is the
// EXPLAIN statement's own counter set, which absorbs the inner
// execution's work so the explain shape's profile stays truthful.
func (e *Engine) explainCore(sp *trace.Span, s Explain, shape, source string, ctr *execCounters) (*Result, error) {
	info, err := e.describeStmt(s.Stmt)
	if err != nil {
		return nil, err
	}
	info.source = e.provenance(shape, source)
	var exec *execCounters
	var durNs int64
	if s.Analyze {
		exec = &execCounters{}
		t0 := time.Now().UnixNano()
		res, err := e.dispatch(sp, s.Stmt, exec)
		if err != nil {
			return nil, err
		}
		durNs = time.Now().UnixNano() - t0
		exec.rowsReturned = rowsOut(res)
		ctr.absorb(exec)
	}
	lines := renderPlan(info, exec, durNs)
	out := &Result{Columns: []string{"plan"}, Plan: info.plan}
	for _, ln := range lines {
		out.Rows = append(out.Rows, []types.Value{types.Str(ln)})
	}
	return out, nil
}

// provenance describes where a plan for the inner shape would come
// from: the executing driver, the engine's DDL epoch, and whether the
// plan cache currently holds the shape.
func (e *Engine) provenance(shape, source string) string {
	var sb strings.Builder
	sb.WriteString(source)
	fmt.Fprintf(&sb, "; epoch %d", e.epoch.Load())
	switch {
	case e.cache == nil:
		sb.WriteString("; plan-cache: not composed")
	case shape == "":
		sb.WriteString("; plan-cache: shape unknown")
	case e.cache.peek(shape):
		sb.WriteString("; plan-cache: shape cached")
	default:
		sb.WriteString("; plan-cache: shape not cached")
	}
	return sb.String()
}

// describeStmt builds the static plan description for one literal-only
// statement. The caller holds the statement latch: table resolution
// reads the catalog.
func (e *Engine) describeStmt(stmt Statement) (*planInfo, error) {
	info := &planInfo{}
	var err error
	if info.verb, err = stmtVerb(stmt); err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case CreateTable:
		info.table = s.Table
		info.extra = append(info.extra,
			fmt.Sprintf("schema: %d columns", len(s.Columns)))
	case DropTable:
		info.table = s.Table
	case Insert:
		t, err := e.openTable(s.Table)
		if err != nil {
			return nil, err
		}
		info.table = s.Table
		info.nCols = len(t.schema)
		info.extra = append(info.extra,
			fmt.Sprintf("rows: %d", len(s.Rows)))
	case Select:
		if err := e.describeSelect(s, info); err != nil {
			return nil, err
		}
	case Update:
		t, err := e.openTable(s.Table)
		if err != nil {
			return nil, err
		}
		info.table = s.Table
		info.nCols = len(t.schema)
		e.describeAccess(t, s.Where, info)
		cols := make([]string, 0, len(s.Set))
		for c := range s.Set {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		info.extra = append(info.extra,
			fmt.Sprintf("set: %s", strings.Join(cols, ", ")))
	case Delete:
		t, err := e.openTable(s.Table)
		if err != nil {
			return nil, err
		}
		info.table = s.Table
		info.nCols = len(t.schema)
		e.describeAccess(t, s.Where, info)
	default:
		return nil, fmt.Errorf("sql: cannot explain %T", stmt)
	}
	return info, nil
}

// describeAccess fills the access-path fields from the planner's
// decision for a predicate over t.
func (e *Engine) describeAccess(t *table, where []Condition, info *planInfo) {
	_, _, plan := e.planScan(t, where)
	info.plan = plan
	info.nPred = len(where)
	switch plan {
	case "full-scan":
		info.access = fmt.Sprintf("full-scan on %s (%s)", t.name, t.store.Index().Name())
	default:
		info.access = fmt.Sprintf("%s on %s via primary key %s",
			plan, t.name, t.schema[t.pk].Name)
	}
}

// describeSelect fills a SELECT's plan description: access path,
// predicate residue, projection and decode mask, and the fast-path
// eligibility note for the compiled driver.
func (e *Engine) describeSelect(s Select, info *planInfo) error {
	t, err := e.openTable(s.Table)
	if err != nil {
		return err
	}
	info.table = s.Table
	info.nCols = len(t.schema)
	for _, c := range s.Where {
		if columnIndex(t.schema, c.Column) < 0 {
			return fmt.Errorf("%w: %s", ErrNoColumn, c.Column)
		}
	}
	e.describeAccess(t, s.Where, info)
	if len(s.Aggregates) > 0 {
		var aggs []string
		for _, a := range s.Aggregates {
			aggs = append(aggs, fmt.Sprintf("%s(%s)", a.Func, a.Column))
		}
		info.extra = append(info.extra,
			fmt.Sprintf("aggregate: %s", strings.Join(aggs, ", ")))
		if s.GroupBy != "" {
			info.extra = append(info.extra, fmt.Sprintf("group by: %s", s.GroupBy))
		}
	} else {
		outCols, proj, err := resolveProjection(t, s.Columns)
		if err != nil {
			return err
		}
		info.proj = strings.Join(outCols, ", ")
		info.nProj = len(outCols)
		// The compiled driver's decode mask: projection, predicate and
		// sort columns. An identity projection decodes everything.
		identity := len(proj) == len(t.schema)
		for i, pi := range proj {
			identity = identity && pi == i
		}
		if !identity {
			need := map[int]bool{}
			for _, pi := range proj {
				need[pi] = true
			}
			for _, c := range s.Where {
				need[columnIndex(t.schema, c.Column)] = true
			}
			if s.OrderBy != "" {
				if oi := columnIndex(t.schema, s.OrderBy); oi >= 0 {
					need[oi] = true
				}
			}
			info.nMask = len(need)
		}
	}
	if s.OrderBy != "" {
		dir := "asc"
		if s.Desc {
			dir = "desc"
		}
		info.extra = append(info.extra, fmt.Sprintf("order by: %s %s", s.OrderBy, dir))
	}
	if s.Limit >= 0 {
		info.extra = append(info.extra, fmt.Sprintf("limit: %d", s.Limit))
	}
	// The compiled driver upgrades a single primary-key equality to a
	// direct index Get; note it so EXPLAIN output explains why a cached
	// execution may report "point-lookup" where the interpreted planner
	// says "index-scan".
	if e.cfg.Compiled && e.cfg.Optimizer && e.cfg.Factory.Ordered && t.pk >= 0 &&
		len(s.Where) == 1 && s.Where[0].Op == OpEq &&
		s.Where[0].Column == t.schema[t.pk].Name {
		info.extra = append(info.extra, "compiled driver: point-lookup fast path")
	}
	return nil
}

// renderPlan lays the plan description out as a tree, one line per
// slice element. exec non-nil appends the ANALYZE counters.
func renderPlan(info *planInfo, exec *execCounters, durNs int64) []string {
	head := fmt.Sprintf("explain %s on %s", info.verb, info.table)
	var details []string
	if info.plan != "" {
		details = append(details, "access: "+info.access)
		if info.nPred > 0 {
			details = append(details,
				fmt.Sprintf("predicate: fused conjunction, %d term(s)", info.nPred))
		} else {
			details = append(details, "predicate: none (scan passes every row)")
		}
	}
	if info.proj != "" {
		line := fmt.Sprintf("project: %s (%d of %d columns)",
			info.proj, info.nProj, info.nCols)
		if info.nMask > 0 {
			line += fmt.Sprintf("; compiled decode mask: %d of %d columns",
				info.nMask, info.nCols)
		}
		details = append(details, line)
	}
	details = append(details, info.extra...)
	details = append(details, "source: "+info.source)
	if exec != nil {
		details = append(details, fmt.Sprintf(
			"executed: scanned=%d matched=%d returned=%d pages=%d scan=%s sort=%s total=%s",
			exec.rowsScanned, exec.rowsMatched, exec.rowsReturned, exec.pagesVisited,
			time.Duration(exec.scanNs), time.Duration(exec.sortNs), time.Duration(durNs)))
	}
	lines := []string{head}
	for i, d := range details {
		glyph := "├─ "
		if i == len(details)-1 {
			glyph = "└─ "
		}
		lines = append(lines, glyph+d)
	}
	return lines
}

// bindStmt resolves every placeholder in a statement against bound
// arguments, yielding the literal-only statement a prepared EXPLAIN
// describes and executes.
func bindStmt(stmt Statement, args []types.Value) Statement {
	if len(args) == 0 {
		return stmt
	}
	switch s := stmt.(type) {
	case Select:
		s.Where = bindConds(s.Where, args)
		if s.LimitParam > 0 {
			if v := args[s.LimitParam-1]; v.Kind == types.KindInt && v.Int >= 0 {
				s.Limit = int(v.Int)
			}
			s.LimitParam = 0
		}
		return s
	case Insert:
		rows := make([][]Operand, len(s.Rows))
		for r, row := range s.Rows {
			rows[r] = make([]Operand, len(row))
			for i, o := range row {
				rows[r][i] = lit(o.resolve(args))
			}
		}
		s.Rows = rows
		return s
	case Update:
		set := make(map[string]Operand, len(s.Set))
		for col, o := range s.Set {
			set[col] = lit(o.resolve(args))
		}
		s.Set = set
		s.Where = bindConds(s.Where, args)
		return s
	case Delete:
		s.Where = bindConds(s.Where, args)
		return s
	}
	return stmt
}
