package sql

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"famedb/internal/access"
	"famedb/internal/index"
	"famedb/internal/stats"
	"famedb/internal/storage"
	"famedb/internal/trace"
	"famedb/internal/txn"
	"famedb/internal/types"
)

// Errors of the SQL layer.
var (
	// ErrNoTable is returned for statements over unknown tables.
	ErrNoTable = errors.New("sql: no such table")
	// ErrTableExists is returned by CREATE TABLE for duplicates.
	ErrTableExists = errors.New("sql: table already exists")
	// ErrDuplicateKey is returned by INSERT on primary-key collisions.
	ErrDuplicateKey = errors.New("sql: duplicate primary key")
	// ErrNoColumn is returned for references to unknown columns.
	ErrNoColumn = errors.New("sql: no such column")
	// ErrTypeMismatch is returned when a value does not fit its column.
	ErrTypeMismatch = errors.New("sql: type mismatch")
)

// IndexFactory abstracts which Index alternative the product selected;
// the SQL engine uses it for the catalog and for every table.
type IndexFactory struct {
	// Create makes a fresh index, returning its persistent meta page.
	Create func(p storage.Pager) (index.Index, storage.PageID, error)
	// Open reopens an index from its meta page; sp parents the reads
	// that takes (nil when no statement is running).
	Open func(sp *trace.Span, p storage.Pager, meta storage.PageID) (index.Index, error)
	// Ordered reports whether Scan visits keys in order (B+-tree: yes;
	// List: no). The optimizer only plans range scans on ordered
	// indexes.
	Ordered bool
}

// BTreeFactory returns the factory for the BPlusTree alternative.
func BTreeFactory(ops index.BTreeOps) IndexFactory {
	return IndexFactory{
		Create: func(p storage.Pager) (index.Index, storage.PageID, error) {
			return index.CreateBTree(p, ops)
		},
		Open: func(sp *trace.Span, p storage.Pager, meta storage.PageID) (index.Index, error) {
			return index.OpenBTreeIn(sp, p, meta, ops)
		},
		Ordered: true,
	}
}

// ListFactory returns the factory for the ListIndex alternative.
func ListFactory() IndexFactory {
	return IndexFactory{
		Create: func(p storage.Pager) (index.Index, storage.PageID, error) {
			return index.CreateList(p)
		},
		Open: func(_ *trace.Span, p storage.Pager, meta storage.PageID) (index.Index, error) {
			return index.OpenList(p, meta)
		},
		Ordered: false,
	}
}

// Config assembles the engine from the product's feature selection.
type Config struct {
	Pager   storage.Pager
	Factory IndexFactory
	// Ops is the product's Access operation set; SQL statements that
	// need an absent operation fail with access.ErrNotComposed.
	Ops access.Ops
	// Optimizer enables index access-path selection (the Optimizer
	// feature): range scans and point lookups on ordered indexes.
	// Without it, every query is a full scan.
	Optimizer bool
	// Compiled enables the CompiledQueries feature — plans that are
	// kept: Prepare/Stmt, and the shape-keyed plan cache that lets even
	// the unprepared Exec path reuse a plan. Without it every Exec
	// compiles its statement and drops the plan.
	Compiled bool
	// Metrics receives statement and plan counters when the Statistics
	// feature is composed; nil otherwise (recording is then a no-op).
	Metrics *stats.Registry
	// Tracer records statements as root spans when the Tracing feature
	// is composed; nil otherwise.
	Tracer *trace.Tracer
	// Query receives per-shape execution profiles when the QueryStats
	// feature is composed; nil otherwise. It also gates EXPLAIN and the
	// per-statement counter plumbing (execCounters stays nil without it).
	Query *stats.QueryStats
}

// Tree ids the engine journals under (see Trees): the catalog is tree
// catalogTree, and every table's rows are a tree of their own, numbered
// from firstTableTree. Tree 0 is the product's record store.
const (
	catalogTree    = 1
	firstTableTree = 2
)

// Engine executes SQL statements.
type Engine struct {
	cfg     Config
	catalog index.Seam
	// catStore is the catalog as the journal checks and reads it.
	catStore *access.Store
	meta     storage.PageID
	// journal is the transaction manager on a product with Transaction
	// (see SetJournal); nil otherwise. read and write consult it, and
	// nothing else does.
	journal *txn.Manager

	// latch is the statement-level lock: SELECTs (and compilation)
	// share it, DML and DDL take it exclusively. It makes one *Stmt
	// safe to share across goroutines. With a locking journal reads
	// and compiles hold the journal's read lock in place of the shared
	// side (see readLatch), which "holding the latch" below includes,
	// and the latch serializes writing statements alone.
	latch sync.RWMutex
	// journalLocks is set when the journal's read lock isolates reads
	// from every commit's apply (a product with Transaction and
	// Locking).
	journalLocks bool
	// tmu guards the tables and byTree maps and nextTree, so concurrent
	// SELECTs under the read latch can fault tables in without racing
	// each other.
	tmu    sync.Mutex
	tables map[string]*table
	byTree map[uint64]*table
	// nextTree is the tree id the next CREATE TABLE takes.
	nextTree uint64

	// epoch counts DDL statements. Kept plans pin the epoch they were
	// built under and recompile when it moves — the plan-cache
	// invalidation protocol for DROP/CREATE TABLE.
	epoch atomic.Uint64
	// cache is the shape-keyed plan cache (CompiledQueries feature);
	// nil on products without it.
	cache *planCache
}

type table struct {
	name   string
	schema []ColumnDef
	pk     int // index into schema; -1 = hidden rowid
	// tree is the id the table's rows are journaled under; it never
	// changes for the table's lifetime, unlike idxMeta, which a redo
	// may place elsewhere.
	tree    uint64
	store   *access.Store
	idxMeta storage.PageID
	nextRow int64
	// visits reads the index's page-visit counter (QueryStats feature);
	// nil when the feature is off or the index has no pages to count
	// (ListIndex). Set once at open/create, before any concurrent use.
	visits func() int64
}

// Create initializes a fresh engine; the returned meta page (the
// catalog root) reopens it.
func Create(cfg Config) (*Engine, storage.PageID, error) {
	cat, meta, err := cfg.Factory.Create(cfg.Pager)
	if err != nil {
		return nil, 0, err
	}
	e, err := initEngine(cfg, cat, meta)
	return e, meta, err
}

// Open loads an engine from its catalog meta page.
func Open(cfg Config, meta storage.PageID) (*Engine, error) {
	cat, err := cfg.Factory.Open(nil, cfg.Pager, meta)
	if err != nil {
		return nil, err
	}
	return initEngine(cfg, cat, meta)
}

func initEngine(cfg Config, cat index.Index, meta storage.PageID) (*Engine, error) {
	e := &Engine{cfg: cfg, catalog: index.SeamOf(cat), catStore: access.New(cat, access.AllOps()),
		meta: meta, tables: map[string]*table{}, byTree: map[uint64]*table{}, nextTree: firstTableTree}
	if cfg.Compiled {
		e.cache = newPlanCache(planCacheEntries)
	}
	// New tables take ids past every id the catalog holds.
	var untreed []*table
	var derr error
	err := cat.Scan(nil, nil, func(_, v []byte) bool {
		var t *table
		if t, derr = decodeTableMeta(v); derr != nil {
			return false
		}
		if t.tree == 0 {
			untreed = append(untreed, t)
		}
		e.nextTree = max(e.nextTree, t.tree+1)
		return true
	})
	if err == nil {
		err = derr
	}
	if err != nil {
		return nil, err
	}
	// A catalog written before tables had tree ids names none: each
	// such table takes the next fresh id, in catalog order, so every
	// open of the same catalog picks the same ids, and its entry is
	// rewritten in the current format.
	for _, t := range untreed {
		t.tree = e.nextTree
		e.nextTree++
		if err := cat.Insert(catalogKey(t.name), encodeTableMeta(t)); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Meta returns the catalog meta page.
func (e *Engine) Meta() storage.PageID { return e.meta }

// SetJournal makes every statement one transaction of m, which must
// have been opened with the engine's Trees: a statement's row and
// catalog writes are logged under their tree ids and reach the trees
// when it commits, all of them or none, and its reads run under m's
// read lock, so a replica's applier never moves a tree under them.
// Call it once, before the first statement; without it statements write
// their trees directly.
func (e *Engine) SetJournal(m *txn.Manager) {
	e.journal = m
	e.journalLocks = m.Locking()
}

// readLatch and readUnlatch bracket a reading statement or a compile.
// They take the latch's shared side, except on a product whose journal
// locks: its read lock already isolates the read from every commit's
// apply, and the DDL epoch moves only inside an apply, so a read never
// waits out a writing statement's log sync.
func (e *Engine) readLatch() {
	if !e.journalLocks {
		e.latch.RLock()
	}
}

func (e *Engine) readUnlatch() {
	if !e.journalLocks {
		e.latch.RUnlock()
	}
}

// read runs a statement that only reads: under the journal's read lock,
// or directly on a product without Transaction.
func (e *Engine) read(fn func() error) error {
	if e.journal == nil {
		return fn()
	}
	return e.journal.Read(fn)
}

// write runs a statement that writes, handing fn the writer every
// write of the statement goes through: direct on a product without
// Transaction, else the statement's own transaction, which commits when
// fn returns. The statement's reads hold the manager's read lock, which
// is released before the commit takes the write lock.
func (e *Engine) write(fn func(w writer) error) error {
	m := e.journal
	if m == nil {
		return fn(direct{e})
	}
	return m.Do(func(tx *txn.Txn) error {
		return m.Read(func() error { return fn(txWriter{tx}) })
	})
}

// Result is the outcome of a statement.
type Result struct {
	// Columns names the result columns of a SELECT.
	Columns []string
	// Rows holds the result rows of a SELECT.
	Rows [][]types.Value
	// Affected counts rows changed by INSERT/UPDATE/DELETE.
	Affected int
	// Plan describes the chosen access path of a SELECT, UPDATE or
	// DELETE ("point-lookup", "index-scan" or "full-scan"), for tests
	// and the optimizer ablation.
	Plan string
}

// Exec parses and executes one statement. There is one executor: the
// statement compiles to a chain of closures (compile.go) and runCompiled
// runs it. On products with the CompiledQueries feature Exec first
// normalizes the statement's shape (literals become placeholders) and
// runs a cached plan, so repeated shapes skip parsing and compiling; on
// every other product, and for the statements the cache refuses (DDL,
// EXPLAIN), the plan is built for this one execution and dropped.
func (e *Engine) Exec(query string) (*Result, error) {
	// One lex serves the plan cache and the QueryStats profile key.
	var shape string
	if e.cache != nil || e.cfg.Query != nil {
		var args []types.Value
		var cacheable bool
		shape, args, cacheable = normalize(query)
		if e.cache != nil && cacheable {
			if res, handled, err := e.execCached(shape, args); handled {
				return res, err
			}
		}
	}
	stmt, nparams, err := parse(query)
	if err != nil {
		return nil, err
	}
	if nparams > 0 {
		if !e.cfg.Compiled {
			return nil, fmt.Errorf("sql: placeholders need the CompiledQueries feature: %w",
				access.ErrNotComposed)
		}
		return nil, errors.New("sql: statement has placeholders; use Prepare")
	}
	verb, err := stmtVerb(stmt)
	if err != nil {
		return nil, err
	}
	// A plan without closures yet: runCompiled builds it under the
	// statement's own latch and span.
	c := &compiled{verb: verb, ast: stmt}
	if e.cfg.Query != nil {
		c.shape = shape
	}
	return e.runCompiled(c, nil, nil)
}

// execCounters accumulates one statement's execution counters for the
// QueryStats feature: the chosen plan, the row flow through the scan
// pipeline, page visits and per-operator time. A nil *execCounters is
// inert — every method no-ops — so products without QueryStats pay
// only a nil check per call site.
type execCounters struct {
	plan         string
	rowsScanned  int64
	rowsMatched  int64
	pagesVisited int64
	scanNs       int64
	sortNs       int64
}

// absorb folds another counter set into c — EXPLAIN ANALYZE charges the
// inner statement's work to the EXPLAIN's own profile.
func (c *execCounters) absorb(o *execCounters) {
	if c == nil || o == nil {
		return
	}
	c.plan = o.plan
	c.rowsScanned += o.rowsScanned
	c.rowsMatched += o.rowsMatched
	c.pagesVisited += o.pagesVisited
	c.scanNs += o.scanNs
	c.sortNs += o.sortNs
}

func (c *execCounters) setPlan(plan string) {
	if c != nil {
		c.plan = plan
	}
}

func (c *execCounters) scanned() {
	if c != nil {
		c.rowsScanned++
	}
}

func (c *execCounters) matched() {
	if c != nil {
		c.rowsMatched++
	}
}

// now returns a wall-clock sample, or 0 when counting is off — the
// per-operator timers never call time.Now on uninstrumented products.
func (c *execCounters) now() int64 {
	if c == nil {
		return 0
	}
	return time.Now().UnixNano()
}

func (c *execCounters) addScan(start int64) {
	if c != nil {
		c.scanNs += time.Now().UnixNano() - start
	}
}

func (c *execCounters) addSort(start int64) {
	if c != nil {
		c.sortNs += time.Now().UnixNano() - start
	}
}

// startPages and endPages bracket a statement's table work: endPages
// adds the page visits since startPages. The counter is tree-wide, so
// under concurrent shared-latch SELECTs the attribution is approximate
// — a statement may absorb a few of its neighbors' visits — but totals
// across statements stay exact. Call them as
// `defer ctr.endPages(t, ctr.startPages(t))`, which allocates nothing.
func (c *execCounters) startPages(t *table) int64 {
	if c == nil || t.visits == nil {
		return 0
	}
	return t.visits()
}

func (c *execCounters) endPages(t *table, start int64) {
	if c != nil && t.visits != nil {
		c.pagesVisited += t.visits() - start
	}
}

// rowsOut counts a result's visible rows: result rows for SELECT,
// affected rows for DML.
func rowsOut(res *Result) int64 {
	if res == nil {
		return 0
	}
	return int64(len(res.Rows) + res.Affected)
}

// runCompiled executes a plan under the statement latch with the
// metrics/trace wrapper — the one place a statement is latched, traced,
// profiled and, on a product with Transaction, made one transaction,
// whichever entry point it arrived through. A plan that
// carries no closures yet (Exec's one-shot plan) is built here first; a
// plan DDL has made stale is recompiled, and onSwap publishes the fresh
// one (into the Stmt or the cache).
func (e *Engine) runCompiled(c *compiled, args []types.Value, onSwap func(*compiled)) (*Result, error) {
	m := e.cfg.Metrics
	q := e.cfg.Query
	var ctr *execCounters
	var t0 int64
	if q != nil && c.shape != "" {
		ctr = &execCounters{}
		t0 = time.Now().UnixNano()
	}
	if c.verb != verbExplain {
		m.Add(verbCounters[c.verb], 1)
	}
	sp := e.cfg.Tracer.Start(nil, trace.LayerSQL, c.verb.String())
	start := m.Start()
	// SELECTs share the engine; everything else (DML mutates trees,
	// DDL mutates the catalog) is exclusive.
	shared := c.verb == verbSelect
	if shared {
		e.readLatch()
	} else {
		e.latch.Lock()
	}
	var res *Result
	var err error
	if shared {
		err = e.read(func() (rerr error) {
			res, rerr = e.execute(sp, c, nil, args, ctr, onSwap)
			return rerr
		})
	} else {
		err = e.write(func(w writer) (rerr error) {
			res, rerr = e.execute(sp, c, w, args, ctr, onSwap)
			return rerr
		})
	}
	if err != nil {
		res = nil
	}
	if shared {
		e.readUnlatch()
	} else {
		e.latch.Unlock()
	}
	m.Done(stats.SQLStmtLatency, start)
	sp.Fail(err)
	spanID := sp.ID() // must precede End: span handles are pooled
	sp.End()
	if ctr != nil {
		q.Observe(stats.QueryExec{
			Shape:        c.shape,
			Verb:         c.verb.String(),
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

// execute runs c with w as the statement's writer (nil for a SELECT),
// building a one-shot plan or recompiling a stale one first. The caller
// holds the statement latch and, on a product with Transaction, the
// journal's read lock.
func (e *Engine) execute(sp *trace.Span, c *compiled, w writer, args []types.Value,
	ctr *execCounters, onSwap func(*compiled)) (*Result, error) {
	switch {
	case c.run == nil:
		// One-shot: compiling inside the statement makes a failing
		// compile a counted, traced, profiled statement like any other,
		// and parents the catalog read under the statement's span.
		nc, err := e.compileStmt(sp, c.ast)
		if err != nil {
			return nil, err
		}
		nc.shape = c.shape
		c = nc
	case c.epoch != epochAlways && c.epoch != e.epoch.Load():
		// DDL invalidated the plan: recompile against the current
		// catalog before running. The latch (and with a journal its
		// read lock) is held, so the epoch cannot move again underneath
		// us.
		e.cfg.Metrics.Add(stats.SQLPlanInvalidated, 1)
		nc, err := e.compile(sp, c.ast)
		if err != nil {
			return nil, err
		}
		// The profile key and the surface survive recompilation.
		nc.shape, nc.prepared = c.shape, c.prepared
		c = nc
		if onSwap != nil {
			onSwap(nc)
		}
	}
	return c.run(sp, w, args, ctr)
}

// --- catalog ---

func catalogKey(name string) []byte { return types.EncodeKey(types.Str(name)) }

func encodeTableMeta(t *table) []byte {
	vals := []types.Value{
		types.Str(t.name),
		types.Int(int64(t.idxMeta)),
		types.Int(int64(t.pk)),
		types.Int(t.nextRow),
		types.Int(int64(len(t.schema))),
	}
	for _, c := range t.schema {
		vals = append(vals, types.Str(c.Name), types.Int(int64(c.Kind)), types.Bool(c.PrimaryKey))
	}
	vals = append(vals, types.Int(int64(t.tree)))
	return types.EncodeRow(vals)
}

func decodeTableMeta(rec []byte) (*table, error) {
	vals, err := types.DecodeRow(rec)
	if err != nil || len(vals) < 5 {
		return nil, fmt.Errorf("sql: corrupt catalog record: %v", err)
	}
	t := &table{
		name:    vals[0].Str,
		idxMeta: storage.PageID(vals[1].Int),
		pk:      int(vals[2].Int),
		nextRow: vals[3].Int,
	}
	// A record without the trailing tree id predates tree ids; its
	// table's tree stays 0 until initEngine assigns one.
	n := int(vals[4].Int)
	switch len(vals) {
	case 6 + 3*n:
		t.tree = uint64(vals[5+3*n].Int)
	case 5 + 3*n:
	default:
		return nil, errors.New("sql: corrupt catalog record length")
	}
	for i := 0; i < n; i++ {
		t.schema = append(t.schema, ColumnDef{
			Name:       vals[5+3*i].Str,
			Kind:       types.Kind(vals[6+3*i].Int),
			PrimaryKey: vals[7+3*i].Bool,
		})
	}
	return t, nil
}

// writer is the one way a statement writes its trees (see
// Engine.write): direct on a product without Transaction, the
// statement's transaction (txWriter) on one with it. Either way
// applyCatalog is what changes the catalog.
type writer interface {
	// has reports whether t holds key, the statement's own earlier
	// writes included.
	has(sp *trace.Span, t *table, key []byte) (bool, error)
	put(sp *trace.Span, t *table, key, rec []byte) error
	update(sp *trace.Span, t *table, key, rec []byte) error
	remove(sp *trace.Span, t *table, key []byte) error
	// catalog writes t's catalog entry, or removes it.
	catalog(sp *trace.Span, t *table, remove bool) error
}

// direct writes each table's store at once and applies catalog entries
// as it writes them.
type direct struct{ e *Engine }

func (direct) has(sp *trace.Span, t *table, key []byte) (bool, error) {
	_, found, err := t.store.IndexSeam().GetIn(sp, key)
	return found, err
}

func (direct) put(sp *trace.Span, t *table, key, rec []byte) error {
	return t.store.PutIn(sp, key, rec)
}

func (direct) update(sp *trace.Span, t *table, key, rec []byte) error {
	return t.store.UpdateIn(sp, key, rec)
}

func (direct) remove(sp *trace.Span, t *table, key []byte) error {
	return t.store.RemoveIn(sp, key)
}

func (d direct) catalog(sp *trace.Span, t *table, remove bool) error {
	var rec []byte
	if !remove {
		rec = encodeTableMeta(t)
	}
	return d.e.applyCatalog(sp, catalogKey(t.name), rec, remove)
}

// txWriter joins every write to the statement's transaction under its
// tree's id; the writes reach the trees when it commits.
type txWriter struct{ tx *txn.Txn }

func (w txWriter) has(_ *trace.Span, t *table, key []byte) (bool, error) {
	_, err := w.tx.Tree(t.tree).Get(key)
	if errors.Is(err, txn.ErrNotFound) {
		return false, nil
	}
	return err == nil, err
}

func (w txWriter) put(_ *trace.Span, t *table, key, rec []byte) error {
	return w.tx.Tree(t.tree).Put(key, rec)
}

func (w txWriter) update(_ *trace.Span, t *table, key, rec []byte) error {
	return w.tx.Tree(t.tree).Update(key, rec)
}

func (w txWriter) remove(_ *trace.Span, t *table, key []byte) error {
	return w.tx.Tree(t.tree).Remove(key)
}

func (w txWriter) catalog(_ *trace.Span, t *table, remove bool) error {
	if remove {
		return w.tx.Tree(catalogTree).Remove(catalogKey(t.name))
	}
	return w.tx.Tree(catalogTree).Put(catalogKey(t.name), encodeTableMeta(t))
}

// applyCatalog is the one way the catalog changes, live and in redo: an
// entry for a new table (a CREATE) creates the table's tree, a removal
// (a DROP) frees it, and an entry for a table that keeps its tree id
// (its rowid counter moved) keeps that tree. The page id an entry names
// is never taken from the caller but from the tree this apply created,
// so a redo over a checkpoint image that lacks the tree builds it again.
func (e *Engine) applyCatalog(sp *trace.Span, key, rec []byte, remove bool) error {
	var next *table
	if !remove {
		var err error
		if next, err = decodeTableMeta(rec); err != nil {
			return err
		}
	}
	old, found, err := e.catalog.GetIn(sp, key)
	if err != nil {
		return err
	}
	if found {
		prior, err := decodeTableMeta(old)
		if err != nil {
			return err
		}
		if next != nil && next.tree == prior.tree {
			next.idxMeta = prior.idxMeta
			e.tmu.Lock()
			if t, ok := e.byTree[prior.tree]; ok && t.nextRow < next.nextRow {
				t.nextRow = next.nextRow
			}
			e.tmu.Unlock()
			return e.catalog.InsertIn(sp, key, encodeTableMeta(next))
		}
		if err := e.dropTree(sp, prior); err != nil {
			return err
		}
	}
	e.epoch.Add(1) // invalidate compiled plans: schemas changed
	if next == nil {
		if found {
			_, err = e.catalog.DeleteIn(sp, key)
		}
		return err
	}
	idx, meta, err := e.cfg.Factory.Create(e.cfg.Pager)
	if err != nil {
		return err
	}
	next.idxMeta = meta
	if err := e.catalog.InsertIn(sp, key, encodeTableMeta(next)); err != nil {
		return err
	}
	e.register(next, idx)
	return nil
}

// dropTree frees the pages of a table's tree and forgets the table.
func (e *Engine) dropTree(sp *trace.Span, t *table) error {
	e.tmu.Lock()
	delete(e.tables, t.name)
	delete(e.byTree, t.tree)
	e.tmu.Unlock()
	idx, err := e.cfg.Factory.Open(sp, e.cfg.Pager, t.idxMeta)
	if err != nil {
		return err
	}
	if d, ok := idx.(interface{ Drop() error }); ok {
		return d.Drop()
	}
	return nil
}

// register gives t a store over idx and publishes it under its name and
// tree id. A table another reader published first wins.
func (e *Engine) register(t *table, idx index.Index) *table {
	t.store = access.New(idx, e.cfg.Ops)
	t.store.SetTracer(e.cfg.Tracer)
	e.armVisitCounter(t, idx)
	e.tmu.Lock()
	defer e.tmu.Unlock()
	if prior, ok := e.tables[t.name]; ok {
		return prior
	}
	e.tables[t.name] = t
	e.byTree[t.tree] = t
	e.nextTree = max(e.nextTree, t.tree+1)
	return t
}

// tableByTree resolves a tree id to its table, faulting it in from the
// catalog on first use (recovery redoes the log before any statement
// has opened a table).
func (e *Engine) tableByTree(id uint64) (*table, error) {
	e.tmu.Lock()
	t, ok := e.byTree[id]
	e.tmu.Unlock()
	if ok {
		return t, nil
	}
	var name string
	err := e.catalog.Scan(nil, nil, func(_, v []byte) bool {
		m, derr := decodeTableMeta(v)
		if derr == nil && m.tree == id {
			name = m.name
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if name == "" {
		return nil, fmt.Errorf("%w: %w %d", ErrNoTable, txn.ErrNoTree, id)
	}
	return e.openTable(nil, name)
}

// Trees returns the engine's tree resolver, which the transaction
// manager of a product with Transaction is opened with: tree
// catalogTree is the catalog, whose apply creates and frees tables'
// trees, and every other id is a table's rows.
func (e *Engine) Trees() txn.Trees { return trees{e} }

type trees struct{ e *Engine }

func (r trees) Tree(id uint64) (*access.Store, error) {
	if id == catalogTree {
		return r.e.catStore, nil
	}
	t, err := r.e.tableByTree(id)
	if err != nil {
		return nil, err
	}
	return t.store, nil
}

// IDs lists the catalog, whose entries create the tables' trees, then
// every table's tree in id order.
func (r trees) IDs() ([]uint64, error) {
	var tables []uint64
	var derr error
	err := r.e.catalog.Scan(nil, nil, func(_, v []byte) bool {
		var t *table
		if t, derr = decodeTableMeta(v); derr != nil {
			return false
		}
		tables = append(tables, t.tree)
		return true
	})
	if err == nil {
		err = derr
	}
	sort.Slice(tables, func(i, j int) bool { return tables[i] < tables[j] })
	return append([]uint64{catalogTree}, tables...), err
}

func (r trees) Apply(sp *trace.Span, id uint64, key, value []byte, remove bool) error {
	if id == catalogTree {
		return r.e.applyCatalog(sp, key, value, remove)
	}
	t, err := r.e.tableByTree(id)
	if err != nil {
		return err
	}
	idx := t.store.IndexSeam()
	if remove {
		_, err = idx.DeleteIn(sp, key)
		return err
	}
	return idx.InsertIn(sp, key, value)
}

// openTable resolves a table, faulting it in from the catalog on first
// use; sp parents the catalog and index-meta reads that takes. Callers
// hold the statement latch (either mode); the tables map itself is
// guarded by tmu so concurrent readers stay safe.
func (e *Engine) openTable(sp *trace.Span, name string) (*table, error) {
	e.tmu.Lock()
	t, ok := e.tables[name]
	e.tmu.Unlock()
	if ok {
		return t, nil
	}
	rec, found, err := e.catalog.GetIn(sp, catalogKey(name))
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	t, err = decodeTableMeta(rec)
	if err != nil {
		return nil, err
	}
	idx, err := e.cfg.Factory.Open(sp, e.cfg.Pager, t.idxMeta)
	if err != nil {
		return nil, err
	}
	return e.register(t, idx), nil
}

// armVisitCounter wires t.visits to the index's page-visit counter.
// Only QueryStats products pay for counting, and only indexes that
// materialize pages implement the counter (the B+-tree does, the List
// does not — discovery is by interface assertion, the Go analog of an
// optional feature refinement).
func (e *Engine) armVisitCounter(t *table, idx index.Index) {
	if e.cfg.Query == nil {
		return
	}
	en, ok := idx.(interface{ EnableVisitCounter() })
	if !ok {
		return
	}
	pv, ok := idx.(interface{ PageVisits() int64 })
	if !ok {
		return
	}
	en.EnableVisitCounter()
	t.visits = pv.PageVisits
}

// Tables lists the table names in the catalog.
func (e *Engine) Tables() ([]string, error) {
	e.readLatch()
	defer e.readUnlatch()
	var names []string
	err := e.read(func() error {
		return e.catalog.Scan(nil, nil, func(k, v []byte) bool {
			t, derr := decodeTableMeta(v)
			if derr == nil {
				names = append(names, t.name)
			}
			return true
		})
	})
	sort.Strings(names)
	return names, err
}

// --- DDL ---

// execCreate writes the new table's catalog entry under a fresh tree
// id; applying the entry creates the tree.
func (e *Engine) execCreate(sp *trace.Span, w writer, s CreateTable) (*Result, error) {
	if _, found, err := e.catalog.GetIn(sp, catalogKey(s.Table)); err != nil {
		return nil, err
	} else if found {
		return nil, fmt.Errorf("%w: %s", ErrTableExists, s.Table)
	}
	pk := -1
	for i, c := range s.Columns {
		if c.PrimaryKey {
			pk = i
		}
	}
	e.tmu.Lock()
	tree := e.nextTree
	e.nextTree++
	e.tmu.Unlock()
	t := &table{name: s.Table, schema: s.Columns, pk: pk, tree: tree, nextRow: 1}
	if err := w.catalog(sp, t, false); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// execDrop removes the table's catalog entry; applying the removal
// frees the table's pages.
func (e *Engine) execDrop(sp *trace.Span, w writer, s DropTable) (*Result, error) {
	t, err := e.openTable(sp, s.Table)
	if err != nil {
		return nil, err
	}
	if err := w.catalog(sp, t, true); err != nil {
		return nil, err
	}
	return &Result{Affected: 1}, nil
}

// --- DML ---

// coerce adapts a literal to the column kind where lossless (int
// literals into float columns); anything else must match exactly.
func coerce(v types.Value, kind types.Kind) (types.Value, error) {
	if v.Kind == kind {
		return v, nil
	}
	if v.Kind == types.KindInt && kind == types.KindFloat {
		return types.Float(float64(v.Int)), nil
	}
	return types.Value{}, fmt.Errorf("%w: %v into %v column", ErrTypeMismatch, v.Kind, kind)
}

// rowKey computes the storage key for a row.
func (t *table) rowKey(row []types.Value, rowid int64) []byte {
	if t.pk >= 0 {
		return types.EncodeKey(row[t.pk])
	}
	return types.EncodeKey(types.Int(rowid))
}

// resolveInsert checks an INSERT's column list against the schema,
// returning for each value position its target column index. An empty
// list means schema order.
func resolveInsert(t *table, s Insert) (cols []string, colIdx []int, err error) {
	cols = s.Columns
	if len(cols) == 0 {
		for _, c := range t.schema {
			cols = append(cols, c.Name)
		}
	}
	colIdx = make([]int, len(cols))
	for i, c := range cols {
		colIdx[i] = columnIndex(t.schema, c)
		if colIdx[i] < 0 {
			return nil, nil, fmt.Errorf("%w: %s", ErrNoColumn, c)
		}
	}
	return cols, colIdx, nil
}

// insertRow stores one fully assigned row, enforcing primary-key
// uniqueness and advancing the hidden rowid for tables without one.
func insertRow(sp *trace.Span, w writer, t *table, row []types.Value) error {
	key := t.rowKey(row, t.nextRow)
	if t.pk >= 0 {
		// Primary keys must be unique.
		if found, err := w.has(sp, t, key); err != nil {
			return err
		} else if found {
			return fmt.Errorf("%w: %s", ErrDuplicateKey, row[t.pk])
		}
	}
	if err := w.put(sp, t, key, types.EncodeRow(row)); err != nil {
		return err
	}
	if t.pk < 0 {
		t.nextRow++
		return w.catalog(sp, t, false)
	}
	return nil
}

// scanWhere is the streaming row pipeline every scanning plan runs
// through: it walks [lo, hi) of t's store, decodes each record once,
// drops rows the predicate rejects, and hands survivors to visit
// without materializing an intermediate row set. visit returning false
// stops the scan; the key is only valid during the callback.
//
// mask selects the columns to materialize (nil = all). A SELECT knows
// its needed column set at compile time and passes it here so
// unreferenced string columns are never copied out of the page.
func scanWhere(sp *trace.Span, t *table, lo, hi []byte, mask []bool, ctr *execCounters,
	pred func(row []types.Value) bool,
	visit func(key []byte, row []types.Value) bool) error {
	var rowErr error
	err := t.store.ScanIn(sp, lo, hi, func(k, v []byte) bool {
		ctr.scanned()
		row, derr := types.DecodeRowMask(v, mask)
		if derr != nil {
			rowErr = derr
			return false
		}
		if pred != nil && !pred(row) {
			return true
		}
		ctr.matched()
		return visit(k, row)
	})
	if err == nil {
		err = rowErr
	}
	return err
}

// resolveProjection maps a select list (empty = *) to output column
// names and schema indexes.
func resolveProjection(t *table, selCols []string) (outCols []string, proj []int, err error) {
	outCols = selCols
	if len(outCols) == 0 {
		for _, c := range t.schema {
			outCols = append(outCols, c.Name)
		}
	}
	proj = make([]int, len(outCols))
	for i, c := range outCols {
		proj[i] = columnIndex(t.schema, c)
		if proj[i] < 0 {
			return nil, nil, fmt.Errorf("%w: %s", ErrNoColumn, c)
		}
	}
	return outCols, proj, nil
}

// projectRow narrows a row to the projected columns.
func projectRow(row []types.Value, proj []int) []types.Value {
	pr := make([]types.Value, len(proj))
	for j, pi := range proj {
		pr[j] = row[pi]
	}
	return pr
}

// sortRows orders rows by one column, stably.
func sortRows(rows [][]types.Value, oi int, desc bool) {
	sort.SliceStable(rows, func(a, b int) bool {
		cmp := types.Compare(rows[a][oi], rows[b][oi])
		if desc {
			return cmp > 0
		}
		return cmp < 0
	})
}

// ErrEmptyAggregate is returned by MIN/MAX/SUM/AVG over zero rows
// (there is no NULL to return).
var ErrEmptyAggregate = errors.New("sql: aggregate over zero rows")

// resolveAggregates checks an aggregate select list against the schema
// at compile time — so a SUM over text or an unknown column fails at
// Prepare, not at every Exec — and returns the grouping column's index
// (-1 = ungrouped) and the result header: the grouping column first
// when selected, then the aggregates in select-list order.
func resolveAggregates(t *table, s Select) (gi int, cols []string, err error) {
	for _, a := range s.Aggregates {
		if a.Column == "*" {
			continue
		}
		i := columnIndex(t.schema, a.Column)
		if i < 0 {
			return 0, nil, fmt.Errorf("%w: %s", ErrNoColumn, a.Column)
		}
		kind := t.schema[i].Kind
		if (a.Func == AggSum || a.Func == AggAvg) &&
			kind != types.KindInt && kind != types.KindFloat {
			return 0, nil, fmt.Errorf("%w: %s over %v column %s", ErrTypeMismatch, a.Func, kind, a.Column)
		}
	}
	gi = -1
	if s.GroupBy != "" {
		if gi = columnIndex(t.schema, s.GroupBy); gi < 0 {
			return 0, nil, fmt.Errorf("%w: %s", ErrNoColumn, s.GroupBy)
		}
	}
	if s.OrderBy != "" && s.OrderBy != s.GroupBy {
		return 0, nil, errors.New("sql: aggregates can only be ordered by the grouping column")
	}
	if len(s.Columns) > 0 { // parser ensures Columns == {GroupBy}
		cols = append(cols, s.GroupBy)
	}
	for _, a := range s.Aggregates {
		cols = append(cols, a.String())
	}
	return gi, cols, nil
}

// execAggregates evaluates a resolved aggregate select list over the
// matching rows, optionally grouped by column gi. COUNT of zero rows is
// 0; the other aggregates need at least one row per group (groups are
// never empty by construction, so this only bites the ungrouped
// zero-row case).
func execAggregates(t *table, s Select, gi, limit int, rows [][]types.Value) ([][]types.Value, error) {
	if gi < 0 {
		row, err := aggRow(t, s.Aggregates, rows)
		if err != nil {
			return nil, err
		}
		return [][]types.Value{row}, nil
	}

	// Group rows by the encoded group key, keeping value order.
	groups := map[string][][]types.Value{}
	keyVals := map[string]types.Value{}
	var keys []string
	for _, r := range rows {
		k := string(types.EncodeKey(r[gi]))
		if _, seen := groups[k]; !seen {
			keys = append(keys, k)
			keyVals[k] = r[gi]
		}
		groups[k] = append(groups[k], r)
	}
	sort.Strings(keys) // order-preserving encoding sorts by value
	if s.Desc {
		for i, j := 0, len(keys)-1; i < j; i, j = i+1, j-1 {
			keys[i], keys[j] = keys[j], keys[i]
		}
	}
	var out [][]types.Value
	for _, k := range keys {
		row, err := aggRow(t, s.Aggregates, groups[k])
		if err != nil {
			return nil, err
		}
		if len(s.Columns) > 0 {
			row = append([]types.Value{keyVals[k]}, row...)
		}
		out = append(out, row)
	}
	if limit >= 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// aggRow computes one aggregate result row over a row set.
func aggRow(t *table, aggs []Aggregate, rows [][]types.Value) ([]types.Value, error) {
	out := make([]types.Value, len(aggs))
	for i, a := range aggs {
		if a.Func == AggCount {
			out[i] = types.Int(int64(len(rows)))
			continue
		}
		if len(rows) == 0 {
			return nil, fmt.Errorf("%s: %w", a, ErrEmptyAggregate)
		}
		ci := columnIndex(t.schema, a.Column)
		switch a.Func {
		case AggMin, AggMax:
			best := rows[0][ci]
			for _, r := range rows[1:] {
				cmp := types.Compare(r[ci], best)
				if (a.Func == AggMin && cmp < 0) || (a.Func == AggMax && cmp > 0) {
					best = r[ci]
				}
			}
			out[i] = best
		case AggSum, AggAvg:
			isInt := t.schema[ci].Kind == types.KindInt
			var sumI int64
			var sumF float64
			for _, r := range rows {
				if isInt {
					sumI += r[ci].Int
				} else {
					sumF += r[ci].Float
				}
			}
			switch {
			case a.Func == AggSum && isInt:
				out[i] = types.Int(sumI)
			case a.Func == AggSum:
				out[i] = types.Float(sumF)
			case isInt: // AVG over ints is a float
				out[i] = types.Float(float64(sumI) / float64(len(rows)))
			default:
				out[i] = types.Float(sumF / float64(len(rows)))
			}
		}
	}
	return out, nil
}

// applyUpdate rewrites one matched row with the assignments, moving the
// record when the primary key changed. row is the caller's decoded copy
// and is rewritten in place.
func applyUpdate(sp *trace.Span, w writer, t *table, key []byte, row []types.Value, sets []setCol) error {
	pkChanged := false
	for _, s := range sets {
		pkChanged = pkChanged || (s.col == t.pk && types.Compare(row[s.col], s.val) != 0)
		row[s.col] = s.val
	}
	if pkChanged {
		newKey := types.EncodeKey(row[t.pk])
		if found, err := w.has(sp, t, newKey); err != nil {
			return err
		} else if found {
			return fmt.Errorf("%w: %s", ErrDuplicateKey, row[t.pk])
		}
		if err := w.remove(sp, t, key); err != nil {
			return err
		}
		return w.put(sp, t, newKey, types.EncodeRow(row))
	}
	return w.update(sp, t, key, types.EncodeRow(row))
}
