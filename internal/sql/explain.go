// EXPLAIN and EXPLAIN ANALYZE: the QueryStats feature's plan renderer.
//
// EXPLAIN compiles the inner statement like any execution would and
// renders what that plan says about itself (planDesc) — the access path
// its own bounds closure takes for the operands, the fused predicate
// residue, the projection and decode mask — plus where a plan for the
// shape would come from (API surface, DDL epoch, plan-cache state).
// EXPLAIN ANALYZE additionally runs that very plan with a live counter
// set and appends what happened: rows scanned, rows matched by the
// predicate, rows returned, B+-tree pages visited, and per-operator wall
// time. Both forms need the QueryStats feature; on other products they
// fail with access.ErrNotComposed, like any other functionality that
// was not composed in.
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

// compileExplain compiles EXPLAIN. The inner statement compiles now, so
// unknown tables/columns fail at Prepare exactly like preparing the
// statement itself would; each execution renders — and for ANALYZE,
// runs — that inner plan with the bound operands. The statement latch is
// held exclusively (verbExplain): ANALYZE may execute DML.
func (e *Engine) compileExplain(sp *trace.Span, s Explain) (*compiled, error) {
	if e.cfg.Query == nil {
		return nil, fmt.Errorf("sql: EXPLAIN needs the QueryStats feature: %w",
			access.ErrNotComposed)
	}
	inner, err := e.compileStmt(sp, s.Stmt)
	if err != nil {
		return nil, err
	}
	c := &compiled{verb: verbExplain, ast: s, epoch: e.epoch.Load()}
	// The run closure late-binds c: the profile shape and the surface are
	// assigned to the plan only after compileStmt returns.
	c.run = func(sp *trace.Span, w writer, args []types.Value, ctr *execCounters) (*Result, error) {
		source := "exec"
		if c.prepared {
			source = "prepared"
		}
		plan, lines, err := describe(inner, args)
		if err != nil {
			return nil, err
		}
		lines = append(lines, "source: "+e.provenance(stripExplainPrefix(c.shape), source))
		if s.Analyze {
			// ctr is the EXPLAIN statement's own counter set; it absorbs
			// the inner execution's work so the explain shape's profile
			// stays truthful.
			exec := &execCounters{}
			t0 := time.Now()
			res, err := inner.run(sp, w, args, exec)
			if err != nil {
				return nil, err
			}
			ctr.absorb(exec)
			lines = append(lines, fmt.Sprintf(
				"executed: scanned=%d matched=%d returned=%d pages=%d scan=%s sort=%s total=%s",
				exec.rowsScanned, exec.rowsMatched, rowsOut(res), exec.pagesVisited,
				time.Duration(exec.scanNs), time.Duration(exec.sortNs), time.Since(t0)))
		}
		// One result row per line: the head, then the details as a tree.
		out := &Result{Columns: []string{"plan"}, Plan: plan}
		for i, ln := range lines {
			switch i {
			case 0:
			case len(lines) - 1:
				ln = "└─ " + ln
			default:
				ln = "├─ " + ln
			}
			out.Rows = append(out.Rows, []types.Value{types.Str(ln)})
		}
		return out, nil
	}
	return c, nil
}

// stripExplainPrefix removes the EXPLAIN [ANALYZE] tokens from a
// normalized shape, leaving the inner statement's plan-cache shape.
// Shapes join tokens with single spaces and uppercase keywords, so the
// prefix is exact.
func stripExplainPrefix(shape string) string {
	shape = strings.TrimPrefix(shape, "EXPLAIN ")
	return strings.TrimPrefix(shape, "ANALYZE ")
}

// provenance describes where a plan for the inner shape would come
// from: the API surface the EXPLAIN arrived through, the engine's DDL
// epoch, and whether the plan cache currently holds the shape.
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

// describe renders a plan for the given operands: the head line, what
// the plan says about itself, then what the statement text alone says.
// plan is the access path ("" for statements that scan nothing).
func describe(c *compiled, args []types.Value) (plan string, lines []string, err error) {
	switch s := c.ast.(type) {
	case CreateTable:
		return "", []string{"explain create on " + s.Table,
			fmt.Sprintf("schema: %d columns", len(s.Columns))}, nil
	case DropTable:
		return "", []string{"explain drop on " + s.Table}, nil
	}
	d := c.desc
	table := d.t.name
	lines = []string{fmt.Sprintf("explain %s on %s", c.verb, table)}
	if d.access != nil {
		if plan = d.access.path(args); plan == "full-scan" {
			lines = append(lines, fmt.Sprintf("access: full-scan on %s (%s)", table, d.t.store.Index().Name()))
		} else {
			lines = append(lines, fmt.Sprintf("access: %s on %s via primary key %s",
				plan, table, d.t.schema[d.t.pk].Name))
		}
		if d.nPred > 0 {
			lines = append(lines, fmt.Sprintf("predicate: fused conjunction, %d term(s)", d.nPred))
		} else {
			lines = append(lines, "predicate: none (scan passes every row)")
		}
	}
	if d.cols != nil {
		line := fmt.Sprintf("project: %s (%d of %d columns)",
			strings.Join(d.cols, ", "), len(d.cols), len(d.t.schema))
		if d.nMask > 0 {
			line += fmt.Sprintf("; decode mask: %d of %d columns", d.nMask, len(d.t.schema))
		}
		lines = append(lines, line)
	}
	switch s := c.ast.(type) {
	case Insert:
		lines = append(lines, fmt.Sprintf("rows: %d", len(s.Rows)))
	case Select:
		if len(s.Aggregates) > 0 {
			var aggs []string
			for _, a := range s.Aggregates {
				aggs = append(aggs, a.String())
			}
			lines = append(lines, "aggregate: "+strings.Join(aggs, ", "))
		}
		if s.GroupBy != "" {
			lines = append(lines, "group by: "+s.GroupBy)
		}
		if s.OrderBy != "" {
			dir := "asc"
			if s.Desc {
				dir = "desc"
			}
			lines = append(lines, fmt.Sprintf("order by: %s %s", s.OrderBy, dir))
		}
		n, err := limitOf(s).bind(args)
		if err != nil {
			return "", nil, err
		}
		if n >= 0 {
			lines = append(lines, fmt.Sprintf("limit: %d", n))
		}
	case Update:
		cols := make([]string, 0, len(s.Set))
		for col := range s.Set {
			cols = append(cols, col)
		}
		sort.Strings(cols)
		lines = append(lines, "set: "+strings.Join(cols, ", "))
	}
	return plan, lines, nil
}
