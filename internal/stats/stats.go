// Package stats is the Statistics feature of FAME-DBMS: cross-cutting
// runtime instrumentation, following the paper's rule (Sec. 2.3) that
// cross-cutting concerns become optional features of mixed granularity.
// Every engine layer carries a nil-able pointer to its metric struct;
// the composer points them at one shared Registry when the Statistics
// feature is selected and leaves them nil otherwise. All recording
// methods are safe on nil receivers and reduce to a single branch then,
// so a product derived without Statistics pays no allocation and no
// atomic traffic on the hot path — the Go analog of instrumentation
// code that was never composed into the FeatureC++ binary.
//
// Counters and histogram buckets are atomic.Int64 values updated with
// atomic adds (no locks), so instrumentation never serializes the layers
// it observes; Go aligns atomic.Int64 on 32-bit targets too. Each
// counter and gauge is exported through exactly one row of the metrics
// table (table.go), which drives Snapshot, Sub, WritePrometheus and
// Format.
package stats

import (
	"sync/atomic"
	"time"
)

// Registry aggregates the per-layer metrics of one composed product.
// The layer accessors are safe on a nil Registry and return nil, which
// the layers' nil-safe recording methods turn into no-ops — composition
// therefore needs no conditionals at the call sites.
type Registry struct {
	buffer Buffer
	pager  Pager
	btree  BTree
	txn    Txn
	sql    SQL
	access Access
	trace  Trace
	fault  Fault
	mvcc   MVCC
	repl   Repl
	// query is the QueryStats feature's per-shape profile registry;
	// nil unless that feature is composed on top of Statistics.
	query *QueryStats
}

// New creates a registry with all histograms initialized.
func New() *Registry {
	r := &Registry{}
	r.access.GetLatency = NewHistogram(LatencyBounds())
	r.access.PutLatency = NewHistogram(LatencyBounds())
	r.txn.CommitLatency = NewHistogram(LatencyBounds())
	r.txn.CommitBatch = NewHistogram(BatchBounds())
	r.txn.CommitStall = NewHistogram(LatencyBounds())
	r.sql.StmtLatency = NewHistogram(LatencyBounds())
	return r
}

// Buffer returns the buffer-manager metrics (nil on a nil registry).
func (r *Registry) Buffer() *Buffer {
	if r == nil {
		return nil
	}
	return &r.buffer
}

// Pager returns the page-file metrics (nil on a nil registry).
func (r *Registry) Pager() *Pager {
	if r == nil {
		return nil
	}
	return &r.pager
}

// BTree returns the B+-tree metrics (nil on a nil registry).
func (r *Registry) BTree() *BTree {
	if r == nil {
		return nil
	}
	return &r.btree
}

// Txn returns the transaction/WAL metrics (nil on a nil registry).
func (r *Registry) Txn() *Txn {
	if r == nil {
		return nil
	}
	return &r.txn
}

// SQL returns the query-engine metrics (nil on a nil registry).
func (r *Registry) SQL() *SQL {
	if r == nil {
		return nil
	}
	return &r.sql
}

// Access returns the record-access metrics (nil on a nil registry).
func (r *Registry) Access() *Access {
	if r == nil {
		return nil
	}
	return &r.access
}

// Trace returns the trace-recorder gauges (nil on a nil registry).
// They are populated only when the Tracing feature is also composed —
// the stats/trace bridge.
func (r *Registry) Trace() *Trace {
	if r == nil {
		return nil
	}
	return &r.trace
}

// Fault returns the fault-survival counters (nil on a nil registry).
func (r *Registry) Fault() *Fault {
	if r == nil {
		return nil
	}
	return &r.fault
}

// MVCC returns the version-table metrics (nil on a nil registry). They
// are populated only when the MVCC feature is also composed.
func (r *Registry) MVCC() *MVCC {
	if r == nil {
		return nil
	}
	return &r.mvcc
}

// Repl returns the Replication metrics (nil on a nil registry).
func (r *Registry) Repl() *Repl {
	if r == nil {
		return nil
	}
	return &r.repl
}

// Query returns the QueryStats feature's per-shape profile registry,
// or nil when that feature (or the whole Statistics registry) is not
// composed — the same nil-discipline as the per-layer metric structs.
func (r *Registry) Query() *QueryStats {
	if r == nil {
		return nil
	}
	return r.query
}

// SetQueryStats attaches the QueryStats feature's registry; the
// composer calls it only when that feature is selected. No-op on a
// nil registry.
func (r *Registry) SetQueryStats(q *QueryStats) {
	if r != nil {
		r.query = q
	}
}

// --- MVCC version table ---

// MVCC observes the copy-on-write version table: how many versions were
// installed and are still live (retained for pinned readers), how many
// superseded pages epoch reclamation returned to the free list, how
// many snapshots are open, and how far (in versions) the oldest pinned
// snapshot lags the current root.
type MVCC struct {
	versionsInstalled atomic.Int64
	pagesReclaimed    atomic.Int64
	versionsLive      atomic.Int64
	snapshotsOpen     atomic.Int64
	snapshotAge       atomic.Int64 // current seq - oldest pinned seq
}

// Install records one version installed.
func (m *MVCC) Install() {
	if m != nil {
		m.versionsInstalled.Add(1)
	}
}

// Reclaimed records superseded pages returned to the free list.
func (m *MVCC) Reclaimed(pages int) {
	if m != nil {
		m.pagesReclaimed.Add(int64(pages))
	}
}

// Gauges replaces the version-table gauges: live versions, open
// snapshots, and the oldest pinned snapshot's age in versions.
func (m *MVCC) Gauges(live, open, age int64) {
	if m == nil {
		return
	}
	m.versionsLive.Store(live)
	m.snapshotsOpen.Store(open)
	m.snapshotAge.Store(age)
}

// --- Replication ---

// Repl counts the Replication feature's shipping activity on the
// primary: chunks and bytes shipped, replica acknowledgements, resync
// events, and the two health gauges the Monitor watchdog watches —
// connected replicas and the worst per-replica lag in WAL bytes.
type Repl struct {
	shippedChunks atomic.Int64
	shippedBytes  atomic.Int64
	acks          atomic.Int64
	catchups      atomic.Int64
	snapshots     atomic.Int64
	drops         atomic.Int64
	staleMarks    atomic.Int64
	connected     atomic.Int64
	maxLagBytes   atomic.Int64
}

// Shipped records one chunk of n bytes handed to replica feeds.
func (p *Repl) Shipped(n int) {
	if p != nil {
		p.shippedChunks.Add(1)
		p.shippedBytes.Add(int64(n))
	}
}

// Ack records one replica acknowledgement.
func (p *Repl) Ack() {
	if p != nil {
		p.acks.Add(1)
	}
}

// CatchUp records one incremental catch-up served from the WAL.
func (p *Repl) CatchUp() {
	if p != nil {
		p.catchups.Add(1)
	}
}

// SnapshotResync records one full snapshot resync.
func (p *Repl) SnapshotResync() {
	if p != nil {
		p.snapshots.Add(1)
	}
}

// Dropped records ops or chunks dropped on a replica's bounded feed.
func (p *Repl) Dropped(n int) {
	if p != nil {
		p.drops.Add(int64(n))
	}
}

// StaleMark records one replica marked stale (overflowed feed — it must
// fully resync before it can stream again).
func (p *Repl) StaleMark() {
	if p != nil {
		p.staleMarks.Add(1)
	}
}

// Gauges replaces the replica-health gauges: replicas currently
// connected and the worst per-replica lag in WAL bytes.
func (p *Repl) Gauges(connected, maxLagBytes int64) {
	if p == nil {
		return
	}
	p.connected.Store(connected)
	p.maxLagBytes.Store(maxLagBytes)
}

// --- Fault survival ---

// Fault counts the storage-fault survival layer's activity: transient
// errors seen, retries spent on them, checksum verification failures,
// and whether the engine has poisoned into degraded read-only mode
// (with the reason, so an operator scraping stats learns why writes
// started returning ErrDegraded).
type Fault struct {
	transients       atomic.Int64
	retries          atomic.Int64
	checksumFailures atomic.Int64
	scrubbedPages    atomic.Int64
	degraded         atomic.Int64 // gauge: 0 healthy, 1 degraded
	reason           atomic.Value // string
}

// Transient records one transient fault observed by the retry layer.
func (f *Fault) Transient() {
	if f != nil {
		f.transients.Add(1)
	}
}

// Retry records one retry attempt spent on a transient fault.
func (f *Fault) Retry() {
	if f != nil {
		f.retries.Add(1)
	}
}

// ChecksumFailure records one page whose CRC trailer did not match.
func (f *Fault) ChecksumFailure() {
	if f != nil {
		f.checksumFailures.Add(1)
	}
}

// Scrubbed records pages checked by a verify pass.
func (f *Fault) Scrubbed(pages int64) {
	if f != nil {
		f.scrubbedPages.Add(pages)
	}
}

// Degrade latches the degraded gauge with the poisoning reason. The
// first reason wins.
func (f *Fault) Degrade(reason string) {
	if f == nil {
		return
	}
	if f.degraded.CompareAndSwap(0, 1) {
		f.reason.Store(reason)
	}
}

// --- Trace recorder (the stats/trace bridge) ---

// Trace gauges the Tracing feature's ring recorder, so a product that
// composes both observability features can see — through its ordinary
// stats snapshots — whether the trace ring is overwriting spans and how
// many slow ops were kept. Dropped observability data is itself
// observable.
type Trace struct {
	ringCapacity  atomic.Int64
	ringOccupancy atomic.Int64
	recordedSpans atomic.Int64
	droppedSpans  atomic.Int64
	slowOps       atomic.Int64
	slowEvicted   atomic.Int64
}

// Set replaces the trace gauges with the recorder's current accounting.
func (t *Trace) Set(capacity, occupancy, recorded, dropped, slowOps, slowEvicted int64) {
	if t == nil {
		return
	}
	t.ringCapacity.Store(capacity)
	t.ringOccupancy.Store(occupancy)
	t.recordedSpans.Store(recorded)
	t.droppedSpans.Store(dropped)
	t.slowOps.Store(slowOps)
	t.slowEvicted.Store(slowEvicted)
}

// --- Buffer manager ---

// Buffer counts page-cache effectiveness, labeled with the composed
// replacement policy and, for the ShardedBuffer feature, the number of
// lock stripes.
type Buffer struct {
	policy     atomic.Value // string
	shards     atomic.Int64
	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	writeBacks atomic.Int64
}

// SetPolicy records the replacement feature in use ("LRU" or "LFU").
func (b *Buffer) SetPolicy(name string) {
	if b != nil {
		b.policy.Store(name)
	}
}

// SetShards records the buffer pool's shard count (1 without the
// ShardedBuffer feature).
func (b *Buffer) SetShards(n int) {
	if b != nil {
		b.shards.Store(int64(n))
	}
}

// Hit records a cache hit.
func (b *Buffer) Hit() {
	if b != nil {
		b.hits.Add(1)
	}
}

// Miss records a cache miss.
func (b *Buffer) Miss() {
	if b != nil {
		b.misses.Add(1)
	}
}

// Eviction records a victim leaving the cache.
func (b *Buffer) Eviction() {
	if b != nil {
		b.evictions.Add(1)
	}
}

// WriteBack records a dirty page written to the base pager.
func (b *Buffer) WriteBack() {
	if b != nil {
		b.writeBacks.Add(1)
	}
}

// --- Page file ---

// Pager counts physical page traffic at the page-file level (below the
// buffer manager, so with a cache composed these are device I/Os).
type Pager struct {
	reads  atomic.Int64
	writes atomic.Int64
	allocs atomic.Int64
	frees  atomic.Int64
	syncs  atomic.Int64
}

// Read records a physical page read.
func (p *Pager) Read() {
	if p != nil {
		p.reads.Add(1)
	}
}

// Write records a physical page write.
func (p *Pager) Write() {
	if p != nil {
		p.writes.Add(1)
	}
}

// Alloc records a page allocation.
func (p *Pager) Alloc() {
	if p != nil {
		p.allocs.Add(1)
	}
}

// Free records a page returned to the free list.
func (p *Pager) Free() {
	if p != nil {
		p.frees.Add(1)
	}
}

// Sync records a durable flush of the page file.
func (p *Pager) Sync() {
	if p != nil {
		p.syncs.Add(1)
	}
}

// --- B+-tree ---

// BTree counts structural events of the instrumented trees. With the
// SQL engine composed, several trees (catalog plus one per table) share
// these counters; Height then tracks the tallest instrumented tree.
type BTree struct {
	leafSplits  atomic.Int64
	innerSplits atomic.Int64
	rootSplits  atomic.Int64
	compactions atomic.Int64
	pagesFreed  atomic.Int64
	height      atomic.Int64
}

// LeafSplit records a leaf page split.
func (t *BTree) LeafSplit() {
	if t != nil {
		t.leafSplits.Add(1)
	}
}

// InnerSplit records an inner page split.
func (t *BTree) InnerSplit() {
	if t != nil {
		t.innerSplits.Add(1)
	}
}

// RootSplit records the root splitting (the tree growing one level).
func (t *BTree) RootSplit() {
	if t != nil {
		t.rootSplits.Add(1)
	}
}

// Compaction records a Compact rebuild that freed n pages.
func (t *BTree) Compaction(pagesFreed int) {
	if t != nil {
		t.compactions.Add(1)
		t.pagesFreed.Add(int64(pagesFreed))
	}
}

// ObserveHeight folds in a tree's current height; the gauge keeps the
// maximum across instrumented trees.
func (t *BTree) ObserveHeight(h int) {
	if t == nil {
		return
	}
	for {
		cur := t.height.Load()
		if int64(h) <= cur || t.height.CompareAndSwap(cur, int64(h)) {
			return
		}
	}
}

// --- Transactions / WAL ---

// Txn counts transactional events and the write-ahead log's durability
// behavior, including the group-commit batch-size distribution.
type Txn struct {
	begins      atomic.Int64
	commits     atomic.Int64
	aborts      atomic.Int64
	checkpoints atomic.Int64
	walAppends  atomic.Int64
	walSyncs    atomic.Int64

	// CommitLatency observes wall time of Commit (append + protocol
	// durability + apply). CommitBatch observes commits per durable
	// sync — 1 under ForceCommit, the batch size under GroupCommit.
	// CommitStall observes how long a pipelined committer waited for
	// its group-commit leader to make the batch durable.
	CommitLatency *Histogram
	CommitBatch   *Histogram
	CommitStall   *Histogram
}

// Begin records a transaction start.
func (t *Txn) Begin() {
	if t != nil {
		t.begins.Add(1)
	}
}

// Commit records a successful commit.
func (t *Txn) Commit() {
	if t != nil {
		t.commits.Add(1)
	}
}

// Abort records an abort.
func (t *Txn) Abort() {
	if t != nil {
		t.aborts.Add(1)
	}
}

// Checkpoint records a checkpoint.
func (t *Txn) Checkpoint() {
	if t != nil {
		t.checkpoints.Add(1)
	}
}

// WalAppend records one log record appended.
func (t *Txn) WalAppend() {
	if t != nil {
		t.walAppends.Add(1)
	}
}

// WalSync records one durable log sync covering batch commits.
func (t *Txn) WalSync(batch int) {
	if t == nil {
		return
	}
	t.walSyncs.Add(1)
	if batch > 0 {
		t.CommitBatch.Observe(int64(batch))
	}
}

// StartCommit begins timing a commit; pass the result to DoneCommit.
// Returns 0 (and skips the clock read) when disabled.
func (t *Txn) StartCommit() int64 {
	if t == nil {
		return 0
	}
	return time.Now().UnixNano()
}

// DoneCommit finishes timing a commit started with StartCommit.
func (t *Txn) DoneCommit(start int64) {
	if t == nil || start == 0 {
		return
	}
	t.CommitLatency.Observe(time.Now().UnixNano() - start)
}

// StartStall begins timing a follower's wait on its group-commit
// leader; pass the result to DoneStall.
func (t *Txn) StartStall() int64 {
	if t == nil {
		return 0
	}
	return time.Now().UnixNano()
}

// DoneStall finishes timing a wait started with StartStall.
func (t *Txn) DoneStall(start int64) {
	if t == nil || start == 0 {
		return
	}
	t.CommitStall.Observe(time.Now().UnixNano() - start)
}

// --- SQL engine ---

// SQL counts statements by verb and the optimizer's plan choices.
type SQL struct {
	creates atomic.Int64
	drops   atomic.Int64
	inserts atomic.Int64
	selects atomic.Int64
	updates atomic.Int64
	deletes atomic.Int64

	indexScans   atomic.Int64
	fullScans    atomic.Int64
	pointLookups atomic.Int64

	// CompiledQueries feature: prepared statements, plan compilations,
	// and the shape-keyed plan cache.
	prepares    atomic.Int64
	compiles    atomic.Int64
	planHits    atomic.Int64
	planMisses  atomic.Int64
	planEvicts  atomic.Int64
	planInvalid atomic.Int64

	// StmtLatency observes wall time per executed statement.
	StmtLatency *Histogram
}

// Statement records one executed statement by verb ("create", "drop",
// "insert", "select", "update", "delete"). Unknown verbs are ignored.
func (s *SQL) Statement(verb string) {
	if s == nil {
		return
	}
	switch verb {
	case "create":
		s.creates.Add(1)
	case "drop":
		s.drops.Add(1)
	case "insert":
		s.inserts.Add(1)
	case "select":
		s.selects.Add(1)
	case "update":
		s.updates.Add(1)
	case "delete":
		s.deletes.Add(1)
	}
}

// Plan records the access path of one table scan ("point-lookup",
// "index-scan" or "full-scan").
func (s *SQL) Plan(plan string) {
	if s == nil {
		return
	}
	switch plan {
	case "point-lookup":
		s.pointLookups.Add(1)
	case "index-scan":
		s.indexScans.Add(1)
	default:
		s.fullScans.Add(1)
	}
}

// Prepare records one Engine.Prepare call (CompiledQueries feature).
func (s *SQL) Prepare() {
	if s != nil {
		s.prepares.Add(1)
	}
}

// Compile records one plan compilation — initial or after a DDL
// invalidation (CompiledQueries feature).
func (s *SQL) Compile() {
	if s != nil {
		s.compiles.Add(1)
	}
}

// CacheHit records a plan-cache hit on the unprepared Exec path.
func (s *SQL) CacheHit() {
	if s != nil {
		s.planHits.Add(1)
	}
}

// CacheMiss records a plan-cache miss on the unprepared Exec path.
func (s *SQL) CacheMiss() {
	if s != nil {
		s.planMisses.Add(1)
	}
}

// CacheEvict records one plan evicted from the bounded plan cache.
func (s *SQL) CacheEvict() {
	if s != nil {
		s.planEvicts.Add(1)
	}
}

// PlanInvalidate records a compiled plan found stale (DDL moved the
// engine epoch) and recompiled before execution.
func (s *SQL) PlanInvalidate() {
	if s != nil {
		s.planInvalid.Add(1)
	}
}

// Start begins timing a statement; pass the result to Done.
func (s *SQL) Start() int64 {
	if s == nil {
		return 0
	}
	return time.Now().UnixNano()
}

// Done finishes timing a statement started with Start.
func (s *SQL) Done(start int64) {
	if s == nil || start == 0 {
		return
	}
	s.StmtLatency.Observe(time.Now().UnixNano() - start)
}

// --- Record access ---

// Access observes per-operation latency at the record-store API. The
// histogram counts double as operation counts.
type Access struct {
	GetLatency *Histogram
	PutLatency *Histogram
}

// Start begins timing an operation; pass the result to DoneGet/DonePut.
func (a *Access) Start() int64 {
	if a == nil {
		return 0
	}
	return time.Now().UnixNano()
}

// DoneGet finishes timing a Get started with Start.
func (a *Access) DoneGet(start int64) {
	if a == nil || start == 0 {
		return
	}
	a.GetLatency.Observe(time.Now().UnixNano() - start)
}

// DonePut finishes timing a Put started with Start.
func (a *Access) DonePut(start int64) {
	if a == nil || start == 0 {
		return
	}
	a.PutLatency.Observe(time.Now().UnixNano() - start)
}
