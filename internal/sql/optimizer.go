// The Optimizer feature: index access-path selection. Without it every
// plan's access path is the full scan; with it, and over an ordered
// index, conditions on the primary key become a bounded range scan, and
// a SELECT whose whole predicate is one primary-key equality becomes a
// point lookup — one index Get, no iterator.
package sql

import (
	"errors"

	"famedb/internal/access"
	"famedb/internal/trace"
	"famedb/internal/types"
)

// pkCond is one primary-key condition kept for bounds computation.
type pkCond struct {
	op  CompareOp
	rhs Operand
}

// compileBounds builds the access-path closure for a predicate over t:
// the primary-key conditions are preselected at compile time so only
// key encoding runs per execution.
func (e *Engine) compileBounds(t *table, where []Condition) boundsFn {
	if !e.cfg.Factory.Ordered || t.pk < 0 {
		return fullScan
	}
	pkName := t.schema[t.pk].Name
	pkKind := t.schema[t.pk].Kind
	var conds []pkCond
	for _, c := range where {
		if c.Column == pkName {
			conds = append(conds, pkCond{op: c.Op, rhs: c.rhs()})
		}
	}
	if len(conds) == 0 {
		return fullScan
	}
	return func(args []types.Value) (lo, hi []byte, plan string) {
		plan = "full-scan"
		for _, c := range conds {
			v, err := coerce(c.rhs.resolve(args), pkKind)
			if err != nil {
				continue // un-coercible bound: contributes no range
			}
			key := types.EncodeKey(v)
			switch c.op {
			case OpEq:
				// Point range [key, key+0x00).
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

func bytesCompare(a, b []byte) int {
	switch {
	case string(a) < string(b):
		return -1
	case string(a) > string(b):
		return 1
	default:
		return 0
	}
}

// compilePointLookup marks p as a point lookup when its whole predicate
// is one equality on the primary key of an ordered index.
func (e *Engine) compilePointLookup(p *selectPlan, where []Condition) {
	t := p.t
	if e.cfg.Factory.Ordered && t.pk >= 0 && len(where) == 1 &&
		where[0].Op == OpEq && where[0].Column == t.schema[t.pk].Name {
		p.point, p.pointKey = true, where[0].rhs()
	}
}

// pointKeyFor encodes the lookup key for args. ok is false when p is
// not a point lookup, or the operand cannot be coerced to the key
// column's kind (e.g. a float bound on an int key); the plan then runs
// as the scan it also is.
func (p *selectPlan) pointKeyFor(args []types.Value) (key []byte, ok bool) {
	if !p.point {
		return nil, false
	}
	v, err := coerce(p.pointKey.resolve(args), p.t.schema[p.t.pk].Kind)
	if err != nil {
		return nil, false
	}
	return types.EncodeKey(v), true
}

// path reports the access path the SELECT takes for args.
func (p *selectPlan) path(args []types.Value) string {
	if _, ok := p.pointKeyFor(args); ok {
		return "point-lookup"
	}
	return p.scanPlan.path(args)
}

// pointLookup answers the SELECT with one index Get — no iterator, no
// scan setup.
func (p *selectPlan) pointLookup(sp *trace.Span, key []byte, limit int, args []types.Value, ctr *execCounters) (*Result, error) {
	p.m.Plan("point-lookup")
	ctr.setPlan("point-lookup")
	res := &Result{Columns: p.cols, Plan: "point-lookup"}
	rec, err := p.t.store.GetIn(sp, key)
	if errors.Is(err, access.ErrNotFound) {
		return res, nil
	}
	if err != nil {
		return nil, err
	}
	ctr.scanned()
	row, err := types.DecodeRowMask(rec, p.mask)
	if err != nil {
		return nil, err
	}
	if limit != 0 && (p.pred == nil || p.pred(row, args)) {
		ctr.matched()
		res.Rows = [][]types.Value{p.project(row, p.proj)}
	}
	return res, nil
}
