// Package fame is the public API of FAME-DBMS: a feature-oriented
// software product line of embedded data-management systems, after
// "FAME-DBMS: Tailor-made Data Management Solutions for Embedded
// Systems" (EDBT 2008 Workshops).
//
// A concrete database engine is not constructed but *derived*: the
// caller selects features of the FAME-DBMS feature model (Fig. 2 of
// the paper) and Open composes exactly those modules into a running
// instance. Unselected functionality is absent — calling it returns an
// error rather than silently working:
//
//	db, err := fame.Open(fame.Options{},
//	    "Linux", "BPlusTree", "Put", "Get")
//	...
//	db.Put([]byte("k"), []byte("v"))
//	v, _ := db.Get([]byte("k"))
//
// The package also exposes the product-line machinery itself: the
// feature model (Model), configurations with decision propagation,
// static application analysis that derives a configuration from client
// sources (Analyze), and NFP-constrained derivation under a ROM budget
// (Optimize, OptimizeGreedy).
package fame

import (
	"fmt"

	"famedb/internal/access"
	"famedb/internal/analysis"
	"famedb/internal/composer"
	"famedb/internal/core"
	"famedb/internal/footprint"
	"famedb/internal/monitor"
	"famedb/internal/nfp"
	"famedb/internal/server"
	"famedb/internal/solver"
	"famedb/internal/sql"
	"famedb/internal/stats"
	"famedb/internal/storage"
	"famedb/internal/trace"
	"famedb/internal/txn"
	"famedb/internal/types"
)

// Aliases re-export the product-line types so callers outside this
// module can name them.
type (
	// Model is a feature model (feature diagram + cross-tree
	// constraints).
	Model = core.Model
	// Configuration is a (partial) feature selection over a Model.
	Configuration = core.Configuration
	// Value is a typed SQL value. Construct bound-parameter values with
	// IntValue, FloatValue, StringValue and BoolValue (internal/types is
	// not importable from outside this module).
	Value = types.Value
	// Snapshot is a point-in-time copy of the Statistics feature's
	// metrics (see DB.Stats).
	Snapshot = stats.Snapshot
	// TraceSnapshot is a point-in-time copy of the Tracing feature's
	// span ring and slow-op log (see DB.Trace).
	TraceSnapshot = trace.Snapshot
	// NFPStore is the repository of measured non-functional properties
	// (paper Sec. 3.2); see NewNFPStore and OptimizeMeasured.
	NFPStore = nfp.Store
	// NFProperty names a non-functional property in an NFPStore.
	NFProperty = nfp.Property
	// VerifyReport is the outcome of DB.Verify: the page scrub (feature
	// Checksums), the journal scrub (feature Transaction) and the
	// B+-tree structure check.
	VerifyReport = composer.VerifyReport
	// MonitorWindow is one windowed reading of the Monitor feature's
	// sampler: rates and latency quantiles over the retained history
	// (see DB.MonitorWindow).
	MonitorWindow = monitor.Window
	// MonitorEvent is one entry in the Monitor feature's bounded
	// operational event log: a watchdog rule firing or clearing.
	MonitorEvent = monitor.Event
	// MonitorThresholds are the Monitor feature's declarative watchdog
	// rules (see Options.MonitorRules).
	MonitorThresholds = monitor.Thresholds
	// MonitorServer is a running telemetry listener returned by
	// DB.ServeMonitor.
	MonitorServer = monitor.Server
	// QuerySnapshot is a point-in-time copy of the QueryStats feature's
	// per-shape statement profiles and slow-query ring (Snapshot.Queries).
	QuerySnapshot = stats.QuerySnapshot
	// QueryShapeSnapshot is one statement shape's profile inside a
	// QuerySnapshot.
	QueryShapeSnapshot = stats.QueryShapeSnapshot
	// SlowQuery is one slow-query ring entry (see DB.SlowQueries).
	SlowQuery = stats.SlowQuery
	// Server is the Server feature's running TCP front end (see
	// DB.Serve): pipelined client sessions executed as transactions
	// plus WAL-shipping replication sessions.
	Server = server.Server
	// Replica is a running replica client (see DB.ReplicateFrom): it
	// streams shipped WAL frames from a primary, reconnecting with
	// capped backoff and healing divergence with snapshot resyncs.
	Replica = server.Replica
	// Client speaks the Server feature's wire protocol (see DialServer).
	Client = server.Client
	// Options tune composition beyond the feature selection: where the
	// product lives (Dir) and the few values callers size per
	// deployment. The zero value composes an in-memory product with
	// every default.
	Options = composer.Options
	// RetryPolicy bounds how hard the engine fights a transient device
	// fault before it degrades to read-only (see Options.Retry); the
	// zero value composes the default policy.
	RetryPolicy = storage.RetryPolicy
)

// The measurable non-functional properties of the feedback approach.
const (
	PropROM              = nfp.ROM
	PropRAM              = nfp.RAM
	PropThroughput       = nfp.Throughput
	PropLatencyP50       = nfp.LatencyP50
	PropLatencyP99       = nfp.LatencyP99
	PropCommitThroughput = nfp.CommitThroughput
	PropQueryP99         = nfp.QueryP99
	PropUnprofiledStmts  = nfp.UnprofiledStmts
)

// Errors surfaced by the facade.
var (
	// ErrNotComposed is returned when an operation's feature is not
	// part of the derived product.
	ErrNotComposed = access.ErrNotComposed
	// ErrNotFound is returned for missing keys.
	ErrNotFound = access.ErrNotFound
	// ErrPageCorrupt is returned when a page's CRC trailer does not
	// match its contents (feature Checksums): a torn write or bit rot.
	ErrPageCorrupt = storage.ErrPageCorrupt
	// ErrDegraded is returned by write operations after the engine has
	// poisoned into read-only mode: a transient device fault outlived
	// the retry budget. Reads keep serving.
	ErrDegraded = storage.ErrDegraded
	// ErrReadOnly is returned by writes on a snapshot transaction and by
	// every write on a product that is replicating from a primary.
	ErrReadOnly = txn.ErrReadOnly
)

// FeatureModel returns the FAME-DBMS prototype feature model (paper
// Fig. 2).
func FeatureModel() *Model { return core.FAMEModel() }

// BerkeleyDBModel returns the refactored Berkeley DB case-study model
// (paper Sec. 2.2; 24 optional features).
func BerkeleyDBModel() *Model { return core.BDBModel() }

// ParseModel parses a feature model from the textual DSL.
func ParseModel(text string) (*Model, error) { return core.ParseModel(text) }

// DB is a derived FAME-DBMS instance.
type DB struct {
	inst *composer.Instance
	// rec is the product's one record path (composer.Instance.Records).
	rec composer.Records
}

// Open derives a product from the feature names and composes it. The
// selection is completed and validated against the feature model:
// required companions are pulled in by constraint propagation, and
// contradictory selections fail.
func Open(opts Options, features ...string) (*DB, error) {
	cfg, err := core.FAMEModel().Product(features...)
	if err != nil {
		return nil, err
	}
	return OpenConfig(cfg, opts)
}

// OpenConfig composes a prepared configuration (e.g. one produced by
// Analyze or Optimize, then completed).
func OpenConfig(cfg *Configuration, opts Options) (*DB, error) {
	inst, err := composer.Compose(cfg, opts)
	if err != nil {
		return nil, err
	}
	return newDB(inst), nil
}

// newDB wraps a composed instance on its record path.
func newDB(inst *composer.Instance) *DB { return &DB{inst: inst, rec: inst.Records()} }

// Features returns the product's selected feature names.
func (db *DB) Features() []string { return db.inst.Configuration.SelectedNames() }

// Has reports whether the product includes a feature.
func (db *DB) Has(feature string) bool { return db.inst.Configuration.Has(feature) }

// Put stores value under key (feature Put). On a Transaction product
// it is an auto-commit transaction: logged, durable per the commit
// protocol and shipped to replicas like any commit.
func (db *DB) Put(key, value []byte) error { return db.rec.Put(key, value) }

// Get returns the value under key (feature Get). On a Transaction
// product it reads under the transaction manager's read lock, so it
// never sees a commit batch or a replica chunk half applied.
func (db *DB) Get(key []byte) ([]byte, error) { return db.rec.Get(key) }

// Remove deletes key (feature Remove). On a Transaction product it is
// an auto-commit transaction.
func (db *DB) Remove(key []byte) error { return db.rec.Remove(key) }

// Update replaces the value of an existing key (feature Update). On a
// Transaction product it is an auto-commit transaction.
func (db *DB) Update(key, value []byte) error { return db.rec.Update(key, value) }

// Scan visits entries with from <= key < to (feature Get). Ordered for
// B+-tree products. On a Transaction product the whole scan holds the
// manager's read lock, so fn must not commit.
func (db *DB) Scan(from, to []byte, fn func(key, value []byte) bool) error {
	return db.rec.Scan(from, to, fn)
}

// Len returns the number of stored records.
func (db *DB) Len() (uint64, error) { return db.rec.Len() }

// Tx is a transaction (feature Transaction).
type Tx struct {
	t *txn.Txn
}

// Begin starts a transaction; it fails when the Transaction feature is
// not composed.
func (db *DB) Begin() (*Tx, error) {
	if db.inst.Txn == nil {
		return nil, fmt.Errorf("Transaction: %w", ErrNotComposed)
	}
	return &Tx{t: db.inst.Txn.Begin()}, nil
}

// BeginSnapshot starts a read-only snapshot transaction pinned to the
// newest committed version (feature MVCC): its Get/Scan run against
// the pinned copy-on-write root without taking any lock and keep
// seeing the begin-time state regardless of concurrent commits.
// Release it with Commit or Abort so its version's pages can reclaim.
func (db *DB) BeginSnapshot() (*Tx, error) {
	t, err := db.inst.BeginSnapshot()
	if err != nil {
		return nil, err
	}
	return &Tx{t: t}, nil
}

// Put buffers a write.
func (tx *Tx) Put(key, value []byte) error { return tx.t.Put(key, value) }

// Get reads through the transaction (own writes win).
func (tx *Tx) Get(key []byte) ([]byte, error) { return tx.t.Get(key) }

// Remove buffers a deletion of an existing key.
func (tx *Tx) Remove(key []byte) error { return tx.t.Remove(key) }

// Update buffers a replacement of an existing key.
func (tx *Tx) Update(key, value []byte) error { return tx.t.Update(key, value) }

// Scan visits entries with from <= key < to in key order, merging
// committed state (the pinned version under MVCC) with the
// transaction's own buffered writes. Returning false from fn stops the
// scan.
func (tx *Tx) Scan(from, to []byte, fn func(key, value []byte) bool) error {
	return tx.t.Scan(from, to, fn)
}

// Len returns the number of committed entries the transaction sees —
// the pinned version's count on a snapshot transaction.
func (tx *Tx) Len() (uint64, error) { return tx.t.Len() }

// SnapshotSeq returns the commit sequence number of the version this
// transaction reads and whether it is pinned to one (feature MVCC).
func (tx *Tx) SnapshotSeq() (uint64, bool) { return tx.t.SnapshotSeq() }

// Commit makes the transaction durable per the product's commit
// protocol.
func (tx *Tx) Commit() error { return tx.t.Commit() }

// Abort discards the transaction.
func (tx *Tx) Abort() { tx.t.Abort() }

// Checkpoint flushes the store and truncates the journal (features
// Transaction + Recovery).
func (db *DB) Checkpoint() error {
	if db.inst.Txn == nil {
		return fmt.Errorf("Transaction: %w", ErrNotComposed)
	}
	return db.inst.Txn.Checkpoint()
}

// Result is the outcome of a SQL statement.
type Result struct {
	Columns  []string
	Rows     [][]Value
	Affected int
	// Plan is "point-lookup", "index-scan" or "full-scan" for SELECT,
	// UPDATE and DELETE.
	Plan string
}

func wrapResult(r *sql.Result) *Result {
	return &Result{Columns: r.Columns, Rows: r.Rows, Affected: r.Affected, Plan: r.Plan}
}

// Exec parses and executes one SQL statement (feature SQLEngine).
// On products with the CompiledQueries feature, statements whose shape
// (literals replaced by placeholders) was executed before reuse a
// cached compiled plan and skip parsing and planning.
func (db *DB) Exec(query string) (*Result, error) {
	if db.inst.SQL == nil {
		return nil, fmt.Errorf("SQLEngine: %w", ErrNotComposed)
	}
	r, err := db.inst.SQL.Exec(query)
	if err != nil {
		return nil, err
	}
	return wrapResult(r), nil
}

// IntValue makes a Value carrying an INT, for binding to a `?`
// placeholder in Stmt.Exec.
func IntValue(v int64) Value { return types.Int(v) }

// FloatValue makes a Value carrying a FLOAT.
func FloatValue(v float64) Value { return types.Float(v) }

// StringValue makes a Value carrying a TEXT string.
func StringValue(v string) Value { return types.Str(v) }

// BoolValue makes a Value carrying a BOOL.
func BoolValue(v bool) Value { return types.Bool(v) }

// Stmt is a prepared statement (feature CompiledQueries): parsed,
// planned and closure-compiled once by DB.Prepare, executed many times
// with positionally bound arguments. One Stmt is safe for concurrent
// Exec from multiple goroutines; DDL on the same database transparently
// recompiles it.
type Stmt struct {
	s *sql.Stmt
}

// Prepare parses, plans and compiles one SQL statement with optional
// `?` placeholders (feature CompiledQueries; products without it return
// ErrNotComposed).
func (db *DB) Prepare(query string) (*Stmt, error) {
	if db.inst.SQL == nil {
		return nil, fmt.Errorf("SQLEngine: %w", ErrNotComposed)
	}
	s, err := db.inst.SQL.Prepare(query)
	if err != nil {
		return nil, err
	}
	return &Stmt{s: s}, nil
}

// Exec runs the compiled plan with args bound to the placeholders in
// order — zero parsing, zero planning.
func (st *Stmt) Exec(args ...Value) (*Result, error) {
	r, err := st.s.Exec(args...)
	if err != nil {
		return nil, err
	}
	return wrapResult(r), nil
}

// NumParams returns the number of `?` placeholders in the statement.
func (st *Stmt) NumParams() int { return st.s.NumParams() }

// Close retires the prepared statement.
func (st *Stmt) Close() error { return st.s.Close() }

// Stats returns a snapshot of the product's runtime metrics (feature
// Statistics): per-layer counters plus latency histograms. Products
// derived without Statistics return ErrNotComposed. Use
// Snapshot.WritePrometheus or Snapshot.WriteJSON to encode it.
func (db *DB) Stats() (Snapshot, error) { return db.inst.Stats() }

// Trace returns a snapshot of the product's span ring and slow-op log
// (feature Tracing): every retained span with its parent links, plus
// the N worst complete operation trees. Products derived without
// Tracing return ErrNotComposed. Use TraceSnapshot.WriteChrome for a
// chrome://tracing file, WriteText / WriteSlow for human output.
func (db *DB) Trace() (TraceSnapshot, error) { return db.inst.Trace() }

// SlowQueries returns the QueryStats feature's slow-query ring, oldest
// first, plus how many entries the bounded ring has dropped. The ring
// is left intact — use DrainSlowQueries to consume it.
func (db *DB) SlowQueries() ([]SlowQuery, uint64, error) {
	q := db.inst.StatsRegistry().Query()
	if q == nil {
		return nil, 0, fmt.Errorf("QueryStats: %w", ErrNotComposed)
	}
	slow, dropped := q.SlowQueries()
	return slow, dropped, nil
}

// DrainSlowQueries returns the slow-query ring oldest first and clears
// it, so a log shipper can consume each entry exactly once.
func (db *DB) DrainSlowQueries() ([]SlowQuery, uint64, error) {
	q := db.inst.StatsRegistry().Query()
	if q == nil {
		return nil, 0, fmt.Errorf("QueryStats: %w", ErrNotComposed)
	}
	slow, dropped := q.DrainSlowQueries()
	return slow, dropped, nil
}

// SetTracing turns span recording on or off at runtime (feature
// Tracing). Products derived without Tracing return ErrNotComposed.
func (db *DB) SetTracing(on bool) error { return db.inst.SetTracing(on) }

// MonitorWindow returns the Monitor feature's current windowed reading
// — operation rates, buffer hit rate, and latency quantiles over the
// sampler's retained history — taking a fresh sample first. Products
// derived without Monitor return ErrNotComposed.
func (db *DB) MonitorWindow() (MonitorWindow, error) { return db.inst.MonitorWindow() }

// MonitorEvents returns the Monitor feature's retained operational
// events (watchdog alerts and clears, oldest first) plus how many older
// events its bounded log dropped. Products derived without Monitor
// return ErrNotComposed.
func (db *DB) MonitorEvents() ([]MonitorEvent, uint64, error) { return db.inst.MonitorEvents() }

// ServeMonitor binds addr (e.g. "127.0.0.1:8080", or ":0" for an
// ephemeral port) and serves the Monitor feature's telemetry endpoint:
// /metrics (Prometheus exposition), /healthz (503 once the engine
// degrades), /varz (JSON snapshot + windowed rates), /events, /trace
// (Chrome trace export, feature Tracing), and /debug/pprof/. Close the
// returned server to stop serving. Products derived without Monitor
// return ErrNotComposed.
func (db *DB) ServeMonitor(addr string) (*MonitorServer, error) { return db.inst.ServeMonitor(addr) }

// Serve binds addr (e.g. "127.0.0.1:7070", or ":0" for an ephemeral
// port) and runs the Server feature's TCP front end. Client sessions
// pipeline Put/Get/Remove/Update/Batch commands, each executed as a
// transaction on the primary; with the Replication feature also
// composed, replica connections stream shipped WAL frames (with
// prefix-CRC handshakes, incremental catch-up, and snapshot resync).
// The listener is owned by the DB: Close shuts it down. Products
// derived without Server return ErrNotComposed.
func (db *DB) Serve(addr string) (*Server, error) { return db.inst.Serve(addr) }

// ReplicateFrom turns this product into a read replica of the primary
// serving at addr: shipped WAL frames apply through the same redo
// machinery recovery uses, the connection retries with capped
// exponential backoff, and divergence heals with a full snapshot
// resync. Stop the returned Replica to detach. Products derived
// without Replication return ErrNotComposed.
func (db *DB) ReplicateFrom(addr string) (*Replica, error) { return db.inst.ReplicateFrom(addr) }

// DialServer connects a protocol Client to a running Server.
func DialServer(addr string) (*Client, error) { return server.DialClient(addr) }

// ROM returns the product's code footprint in bytes (the paper's
// binary-size NFP).
func (db *DB) ROM() (int, error) { return db.inst.ROM() }

// RAM returns the product's static memory footprint in bytes.
func (db *DB) RAM() int { return db.inst.RAM() }

// Verify scrubs the product's persistent structures: every allocated
// page against its CRC trailer (feature Checksums), every journal
// frame against its record checksum (feature Transaction) and, on a
// B+-tree, the tree's structural invariants. Products with neither
// Checksums nor Transaction return ErrNotComposed.
func (db *DB) Verify() (VerifyReport, error) { return db.inst.Verify() }

// Degraded reports whether the engine has poisoned into read-only mode
// after a transient device fault outlived the retry budget. A degraded
// product keeps serving reads; writes return ErrDegraded.
func (db *DB) Degraded() bool { return db.inst.Degraded() }

// Sync makes all state durable.
func (db *DB) Sync() error { return db.inst.Sync() }

// Close flushes and closes the instance.
func (db *DB) Close() error { return db.inst.Close() }

// --- Automated product derivation (paper Sec. 3) ---

// Analysis is the outcome of static application analysis (Fig. 3).
type Analysis struct {
	// Config is the partially derived configuration: detected features
	// selected, constraints propagated.
	Config *Configuration
	// Detected lists the features derived directly from the sources.
	Detected []string
	// Open lists the features the engineer must still decide.
	Open []string
}

// Analyze inspects the Go sources of a client application directory
// and derives its required FAME-DBMS features (paper Sec. 3.1).
func Analyze(dir string) (*Analysis, error) {
	m, err := analysis.AnalyzeDir(dir)
	if err != nil {
		return nil, err
	}
	cfg, detected, open, err := analysis.Derive(core.FAMEModel(), m, analysis.FAMEQueries())
	if err != nil {
		return nil, err
	}
	return &Analysis{Config: cfg, Detected: detected, Open: open}, nil
}

// Optimize derives the ROM-minimal valid product containing the
// required features, subject to an optional ROM budget in bytes
// (0 = unbounded). It uses the exact branch-and-bound deriver (paper
// Sec. 3.2 discusses the greedy variant; see OptimizeGreedy).
func Optimize(required []string, maxROM int) (*Configuration, int, error) {
	return runSolver(solver.BranchAndBound, required, maxROM)
}

// OptimizeGreedy is the paper's greedy deriver: fast, not always
// optimal.
func OptimizeGreedy(required []string, maxROM int) (*Configuration, int, error) {
	return runSolver(solver.Greedy, required, maxROM)
}

func runSolver(run func(solver.Request) (*solver.Result, error), required []string, maxROM int) (*Configuration, int, error) {
	tab, err := footprint.Load("FAME-DBMS")
	if err != nil {
		return nil, 0, err
	}
	res, err := run(solver.Request{
		Model:    core.FAMEModel(),
		Table:    tab,
		Required: required,
		MaxROM:   maxROM,
	})
	if err != nil {
		return nil, 0, err
	}
	return res.Config, res.ROM, nil
}

// NewNFPStore creates an empty NFP repository for the FAME-DBMS model.
// Record measured products into it (e.g. from fame-bench runs) and pass
// it to OptimizeMeasured.
func NewNFPStore() *NFPStore { return nfp.NewStore(core.FAMEModel()) }

// RecordMeasurement stores one measured product in the repository: the
// feedback approach's "measure generated products" step. The feature
// list is completed and validated against the store's model first.
func RecordMeasurement(store *NFPStore, features []string, values map[NFProperty]float64) error {
	return nfp.RecordMeasurement(store, features, values)
}

// OptimizeMeasured derives the valid product containing the required
// features that minimizes a *measured* property, using the additive
// per-feature model fitted over the store's measurements — the closing
// arc of the paper's feedback loop (Sec. 3.2). maxCost bounds the
// property in its own unit (0 = unbounded). The returned int is the
// product's predicted property value.
func OptimizeMeasured(store *NFPStore, p NFProperty, required []string, maxCost int) (*Configuration, int, error) {
	tab, err := store.Table(p)
	if err != nil {
		return nil, 0, err
	}
	res, err := solver.BranchAndBound(solver.Request{
		Model:    core.FAMEModel(),
		Table:    tab,
		Required: required,
		MaxROM:   maxCost,
	})
	if err != nil {
		return nil, 0, err
	}
	return res.Config, res.ROM, nil
}

// ErrInfeasible is returned by Optimize when no product fits the
// budget.
var ErrInfeasible = solver.ErrInfeasible
