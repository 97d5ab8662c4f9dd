// The CompiledQueries feature: plans that are kept.
//
// Engine.Prepare compiles a statement ONCE and holds the plan, so
// Stmt.Exec only binds arguments and runs the closures: zero parse,
// zero compile — the Go analog of JIT-compiling queries in an embedded
// engine. The plan cache (cache.go) does the same for unprepared
// statement text, keyed on the normalized shape.
//
// Kept plans pin the engine's DDL epoch. DROP/CREATE TABLE bumps it, and
// a stale plan transparently recompiles (under the statement latch)
// before running — so a table recreated with a different schema can
// never be read through a stale plan.
package sql

import (
	"errors"
	"fmt"
	"sync/atomic"

	"famedb/internal/access"
	"famedb/internal/stats"
	"famedb/internal/trace"
	"famedb/internal/types"
)

// ErrStmtClosed is returned by Exec on a closed prepared statement.
var ErrStmtClosed = errors.New("sql: prepared statement is closed")

// Stmt is a prepared statement: parse and compile once, execute many.
// One Stmt is safe for concurrent Exec from multiple goroutines.
type Stmt struct {
	e       *Engine
	query   string
	nparams int
	plan    atomic.Pointer[compiled]
	closed  atomic.Bool
}

// Prepare parses and closure-compiles one statement (feature
// CompiledQueries). The returned Stmt executes with zero parsing and
// zero compiling; `?` placeholders bind positionally at Exec.
func (e *Engine) Prepare(query string) (*Stmt, error) {
	if !e.cfg.Compiled {
		return nil, fmt.Errorf("sql: Prepare needs the CompiledQueries feature: %w",
			access.ErrNotComposed)
	}
	stmt, nparams, err := parse(query)
	if err != nil {
		return nil, err
	}
	e.readLatch()
	c, err := e.compileRead(stmt)
	e.readUnlatch()
	if err != nil {
		return nil, err
	}
	c.prepared = true
	if e.cfg.Query != nil {
		c.shape, _, _ = normalize(query)
	}
	e.cfg.Metrics.Add(stats.SQLPrepares, 1)
	s := &Stmt{e: e, query: query, nparams: nparams}
	s.plan.Store(c)
	return s, nil
}

// NumParams returns the number of `?` placeholders.
func (s *Stmt) NumParams() int { return s.nparams }

// Query returns the statement's SQL text.
func (s *Stmt) Query() string { return s.query }

// Exec binds args to the placeholders and runs the compiled plan —
// no parsing, no compiling. If DDL has invalidated the plan it is
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

// compile builds a plan to keep, under its own trace span and counted
// as a compilation (parent is the statement recompiling a stale plan,
// nil for Prepare and the plan cache). The caller holds the statement
// latch (either mode).
func (e *Engine) compile(parent *trace.Span, stmt Statement) (*compiled, error) {
	sp := e.cfg.Tracer.Start(parent, trace.LayerSQL, "compile")
	c, err := e.compileStmt(sp, stmt)
	e.cfg.Metrics.Add(stats.SQLCompiles, 1)
	sp.Fail(err)
	sp.End()
	return c, err
}

// compileRead is compile for Prepare and the plan cache, outside any
// statement: it reads the catalog under the journal's read lock, so a
// replica's applier never changes the catalog under it.
func (e *Engine) compileRead(stmt Statement) (c *compiled, err error) {
	err = e.read(func() error {
		c, err = e.compile(nil, stmt)
		return err
	})
	return c, err
}
