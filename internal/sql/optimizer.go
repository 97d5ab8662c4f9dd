// The Optimizer feature: index access-path selection. Without it every
// plan's access path is the full scan; with it, and over an ordered
// index, conditions on the primary key become a bounded range scan, and
// a statement whose whole predicate is one primary-key equality becomes
// a point lookup — one index Get, no iterator — whether it reads
// (SELECT) or writes (UPDATE, DELETE).
package sql

import (
	"errors"

	"famedb/internal/access"
	"famedb/internal/stats"
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
	return func(args []types.Value) (lo, hi []byte, path accessPath) {
		path = fullScanPath
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
				return lo, hi, indexScanPath
			case OpGt, OpGe:
				if lo == nil || bytesCompare(key, lo) > 0 {
					lo = key
					if c.op == OpGt {
						lo = append(append([]byte(nil), key...), 0)
					}
					path = indexScanPath
				}
			case OpLt, OpLe:
				if hi == nil || bytesCompare(key, hi) < 0 {
					hi = key
					if c.op == OpLe {
						hi = append(append([]byte(nil), key...), 0)
					}
					path = indexScanPath
				}
			}
		}
		return lo, hi, path
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

// pointKey is a compiled primary-key equality: set (by the Optimizer)
// when a statement's whole predicate is one equality on the primary key
// of an ordered index. SELECT, UPDATE and DELETE then answer with one
// index Get instead of opening an iterator.
type pointKey struct {
	on   bool
	kind types.Kind
	rhs  Operand
}

// compilePointKey returns the point key of a predicate over t; it is
// off unless the predicate qualifies.
func (e *Engine) compilePointKey(t *table, where []Condition) pointKey {
	if e.cfg.Optimizer && e.cfg.Factory.Ordered && t.pk >= 0 && len(where) == 1 &&
		where[0].Op == OpEq && where[0].Column == t.schema[t.pk].Name {
		return pointKey{on: true, kind: t.schema[t.pk].Kind, rhs: where[0].rhs()}
	}
	return pointKey{}
}

// keyFor encodes the lookup key for args. ok is false when the plan is
// not a point lookup, or the operand cannot be coerced to the key
// column's kind (e.g. a float bound on an int key); the plan then runs
// as the scan it also is.
func (pk pointKey) keyFor(args []types.Value) (key []byte, ok bool) {
	if !pk.on {
		return nil, false
	}
	v, err := coerce(pk.rhs.resolve(args), pk.kind)
	if err != nil {
		return nil, false
	}
	return types.EncodeKey(v), true
}

// seek is the point-lookup access path: one index Get of key, the
// record decoded through mask and checked against the predicate. hit
// is false when the key is absent or the predicate rejects the row.
func (p *scanPlan) seek(sp *trace.Span, key []byte, args []types.Value, mask []bool, ctr *execCounters) (row []types.Value, hit bool, err error) {
	p.m.Add(stats.SQLPointLookups, 1)
	ctr.setPlan("point-lookup")
	rec, err := p.t.store.GetIn(sp, key)
	if errors.Is(err, access.ErrNotFound) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	ctr.scanned()
	if row, err = types.DecodeRowMask(rec, mask); err != nil {
		return nil, false, err
	}
	if p.pred != nil && !p.pred(row, args) {
		return nil, false, nil
	}
	ctr.matched()
	return row, true, nil
}
