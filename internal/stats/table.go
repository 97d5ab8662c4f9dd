package stats

import (
	"strings"
	"sync/atomic"
)

// kind is what a metric measures, and so how Sub differences it and
// which Prometheus TYPE it is exported as.
type kind uint8

const (
	counterKind   kind = iota // monotonic; Sub differences it
	gaugeKind                 // current level; Sub keeps the newer value
	histogramKind             // bucketed observations; Sub differences each bucket
)

// String is the kind's Prometheus TYPE.
func (k kind) String() string { return [...]string{"counter", "gauge", "histogram"}[k] }

// metric is one row of the metrics table: the single declaration of an
// exported metric. Counter and gauge rows bind a live atomic.Int64 and
// an int64 Snapshot field; histogram rows bind a *Histogram and a
// HistogramSnapshot field.
type metric struct {
	// name is the Prometheus family, famedb_<section>_...; the section
	// groups rows under one Format heading.
	name  string
	label string // `key="value"` sample label, "" for none
	help  string
	kind  kind

	live  func(*Registry) *atomic.Int64
	field func(*Snapshot) *int64

	hlive  func(*Registry) *Histogram
	hfield func(*Snapshot) *HistogramSnapshot
}

// counter, gauge and histogram build one table row of their kind.
func counter(name, help string, live func(*Registry) *atomic.Int64, field func(*Snapshot) *int64) metric {
	return metric{name: name, help: help, kind: counterKind, live: live, field: field}
}

func gauge(name, help string, live func(*Registry) *atomic.Int64, field func(*Snapshot) *int64) metric {
	return metric{name: name, help: help, kind: gaugeKind, live: live, field: field}
}

func histogram(name, help string, live func(*Registry) *Histogram, field func(*Snapshot) *HistogramSnapshot) metric {
	return metric{name: name, help: help, kind: histogramKind, hlive: live, hfield: field}
}

// by sets the row's sample label.
func (m metric) by(label string) metric {
	m.label = label
	return m
}

// metrics declares every counter, gauge and histogram of a Snapshot,
// once. Rows of one section are adjacent, and rows of one family are
// adjacent so the family's HELP/TYPE header is written once. Adding a
// metric means adding its live field, its Snapshot field and one row.
var metrics = []metric{
	gauge("famedb_buffer_shards", "Buffer pool lock stripes.", func(r *Registry) *atomic.Int64 { return &r.buffer.shards }, func(s *Snapshot) *int64 { return &s.Buffer.Shards }),
	counter("famedb_buffer_hits_total", "Buffer cache hits.", func(r *Registry) *atomic.Int64 { return &r.buffer.hits }, func(s *Snapshot) *int64 { return &s.Buffer.Hits }),
	counter("famedb_buffer_misses_total", "Buffer cache misses.", func(r *Registry) *atomic.Int64 { return &r.buffer.misses }, func(s *Snapshot) *int64 { return &s.Buffer.Misses }),
	counter("famedb_buffer_evictions_total", "Buffer cache evictions.", func(r *Registry) *atomic.Int64 { return &r.buffer.evictions }, func(s *Snapshot) *int64 { return &s.Buffer.Evictions }),
	counter("famedb_buffer_write_backs_total", "Dirty pages written back.", func(r *Registry) *atomic.Int64 { return &r.buffer.writeBacks }, func(s *Snapshot) *int64 { return &s.Buffer.WriteBacks }),

	counter("famedb_pager_reads_total", "Physical page reads.", func(r *Registry) *atomic.Int64 { return &r.pager.reads }, func(s *Snapshot) *int64 { return &s.Pager.Reads }),
	counter("famedb_pager_writes_total", "Physical page writes.", func(r *Registry) *atomic.Int64 { return &r.pager.writes }, func(s *Snapshot) *int64 { return &s.Pager.Writes }),
	counter("famedb_pager_allocs_total", "Pages allocated.", func(r *Registry) *atomic.Int64 { return &r.pager.allocs }, func(s *Snapshot) *int64 { return &s.Pager.Allocs }),
	counter("famedb_pager_frees_total", "Pages freed.", func(r *Registry) *atomic.Int64 { return &r.pager.frees }, func(s *Snapshot) *int64 { return &s.Pager.Frees }),
	counter("famedb_pager_syncs_total", "Page file syncs.", func(r *Registry) *atomic.Int64 { return &r.pager.syncs }, func(s *Snapshot) *int64 { return &s.Pager.Syncs }),

	counter("famedb_btree_leaf_splits_total", "B+-tree leaf splits.", func(r *Registry) *atomic.Int64 { return &r.btree.leafSplits }, func(s *Snapshot) *int64 { return &s.BTree.LeafSplits }),
	counter("famedb_btree_inner_splits_total", "B+-tree inner splits.", func(r *Registry) *atomic.Int64 { return &r.btree.innerSplits }, func(s *Snapshot) *int64 { return &s.BTree.InnerSplits }),
	counter("famedb_btree_root_splits_total", "B+-tree root splits.", func(r *Registry) *atomic.Int64 { return &r.btree.rootSplits }, func(s *Snapshot) *int64 { return &s.BTree.RootSplits }),
	counter("famedb_btree_compactions_total", "B+-tree compactions.", func(r *Registry) *atomic.Int64 { return &r.btree.compactions }, func(s *Snapshot) *int64 { return &s.BTree.Compactions }),
	counter("famedb_btree_pages_freed_total", "Pages freed by compaction.", func(r *Registry) *atomic.Int64 { return &r.btree.pagesFreed }, func(s *Snapshot) *int64 { return &s.BTree.PagesFreed }),
	gauge("famedb_btree_height", "Tallest instrumented B+-tree.", func(r *Registry) *atomic.Int64 { return &r.btree.height }, func(s *Snapshot) *int64 { return &s.BTree.Height }),

	counter("famedb_txn_begins_total", "Transactions begun.", func(r *Registry) *atomic.Int64 { return &r.txn.begins }, func(s *Snapshot) *int64 { return &s.Txn.Begins }),
	counter("famedb_txn_commits_total", "Transactions committed.", func(r *Registry) *atomic.Int64 { return &r.txn.commits }, func(s *Snapshot) *int64 { return &s.Txn.Commits }),
	counter("famedb_txn_aborts_total", "Transactions aborted.", func(r *Registry) *atomic.Int64 { return &r.txn.aborts }, func(s *Snapshot) *int64 { return &s.Txn.Aborts }),
	counter("famedb_txn_checkpoints_total", "Checkpoints taken.", func(r *Registry) *atomic.Int64 { return &r.txn.checkpoints }, func(s *Snapshot) *int64 { return &s.Txn.Checkpoints }),
	histogram("famedb_txn_commit_latency_ns", "Commit latency in nanoseconds.", func(r *Registry) *Histogram { return r.txn.CommitLatency }, func(s *Snapshot) *HistogramSnapshot { return &s.Txn.CommitLatency }),
	histogram("famedb_txn_commit_batch", "Commits per durable sync.", func(r *Registry) *Histogram { return r.txn.CommitBatch }, func(s *Snapshot) *HistogramSnapshot { return &s.Txn.CommitBatch }),
	histogram("famedb_txn_commit_stall_ns", "Follower wait on the group-commit leader in nanoseconds.", func(r *Registry) *Histogram { return r.txn.CommitStall }, func(s *Snapshot) *HistogramSnapshot { return &s.Txn.CommitStall }),
	counter("famedb_wal_appends_total", "WAL records appended.", func(r *Registry) *atomic.Int64 { return &r.txn.walAppends }, func(s *Snapshot) *int64 { return &s.Txn.WalAppends }),
	counter("famedb_wal_syncs_total", "Durable WAL syncs.", func(r *Registry) *atomic.Int64 { return &r.txn.walSyncs }, func(s *Snapshot) *int64 { return &s.Txn.WalSyncs }),

	counter("famedb_sql_statements_total", "SQL statements by verb.", func(r *Registry) *atomic.Int64 { return &r.sql.creates }, func(s *Snapshot) *int64 { return &s.SQL.Creates }).by(`verb="create"`),
	counter("famedb_sql_statements_total", "SQL statements by verb.", func(r *Registry) *atomic.Int64 { return &r.sql.drops }, func(s *Snapshot) *int64 { return &s.SQL.Drops }).by(`verb="drop"`),
	counter("famedb_sql_statements_total", "SQL statements by verb.", func(r *Registry) *atomic.Int64 { return &r.sql.inserts }, func(s *Snapshot) *int64 { return &s.SQL.Inserts }).by(`verb="insert"`),
	counter("famedb_sql_statements_total", "SQL statements by verb.", func(r *Registry) *atomic.Int64 { return &r.sql.selects }, func(s *Snapshot) *int64 { return &s.SQL.Selects }).by(`verb="select"`),
	counter("famedb_sql_statements_total", "SQL statements by verb.", func(r *Registry) *atomic.Int64 { return &r.sql.updates }, func(s *Snapshot) *int64 { return &s.SQL.Updates }).by(`verb="update"`),
	counter("famedb_sql_statements_total", "SQL statements by verb.", func(r *Registry) *atomic.Int64 { return &r.sql.deletes }, func(s *Snapshot) *int64 { return &s.SQL.Deletes }).by(`verb="delete"`),
	counter("famedb_sql_plans_total", "Chosen access paths.", func(r *Registry) *atomic.Int64 { return &r.sql.indexScans }, func(s *Snapshot) *int64 { return &s.SQL.IndexScans }).by(`plan="index-scan"`),
	counter("famedb_sql_plans_total", "Chosen access paths.", func(r *Registry) *atomic.Int64 { return &r.sql.fullScans }, func(s *Snapshot) *int64 { return &s.SQL.FullScans }).by(`plan="full-scan"`),
	counter("famedb_sql_plans_total", "Chosen access paths.", func(r *Registry) *atomic.Int64 { return &r.sql.pointLookups }, func(s *Snapshot) *int64 { return &s.SQL.PointLookups }).by(`plan="point-lookup"`),
	counter("famedb_sql_prepares_total", "Prepared statements created.", func(r *Registry) *atomic.Int64 { return &r.sql.prepares }, func(s *Snapshot) *int64 { return &s.SQL.Prepares }),
	counter("famedb_sql_compiles_total", "Plan compilations (initial and after invalidation).", func(r *Registry) *atomic.Int64 { return &r.sql.compiles }, func(s *Snapshot) *int64 { return &s.SQL.Compiles }),
	counter("famedb_sql_plan_cache_total", "Plan-cache lookups by outcome.", func(r *Registry) *atomic.Int64 { return &r.sql.planHits }, func(s *Snapshot) *int64 { return &s.SQL.PlanHits }).by(`outcome="hit"`),
	counter("famedb_sql_plan_cache_total", "Plan-cache lookups by outcome.", func(r *Registry) *atomic.Int64 { return &r.sql.planMisses }, func(s *Snapshot) *int64 { return &s.SQL.PlanMisses }).by(`outcome="miss"`),
	counter("famedb_sql_plan_cache_evictions_total", "Plans evicted from the bounded cache.", func(r *Registry) *atomic.Int64 { return &r.sql.planEvicts }, func(s *Snapshot) *int64 { return &s.SQL.PlanEvictions }),
	counter("famedb_sql_plans_invalidated_total", "Stale compiled plans recompiled after DDL.", func(r *Registry) *atomic.Int64 { return &r.sql.planInvalid }, func(s *Snapshot) *int64 { return &s.SQL.PlanInvalidated }),
	histogram("famedb_sql_stmt_latency_ns", "Statement latency in nanoseconds.", func(r *Registry) *Histogram { return r.sql.StmtLatency }, func(s *Snapshot) *HistogramSnapshot { return &s.SQL.StmtLatency }),

	histogram("famedb_access_get_latency_ns", "Get latency in nanoseconds.", func(r *Registry) *Histogram { return r.access.GetLatency }, func(s *Snapshot) *HistogramSnapshot { return &s.Access.GetLatency }),
	histogram("famedb_access_put_latency_ns", "Put latency in nanoseconds.", func(r *Registry) *Histogram { return r.access.PutLatency }, func(s *Snapshot) *HistogramSnapshot { return &s.Access.PutLatency }),

	gauge("famedb_trace_ring_capacity", "Trace ring slot count.", func(r *Registry) *atomic.Int64 { return &r.trace.ringCapacity }, func(s *Snapshot) *int64 { return &s.Trace.RingCapacity }),
	gauge("famedb_trace_ring_occupancy", "Spans currently held in the trace ring.", func(r *Registry) *atomic.Int64 { return &r.trace.ringOccupancy }, func(s *Snapshot) *int64 { return &s.Trace.RingOccupancy }),
	counter("famedb_trace_recorded_spans_total", "Spans ever recorded.", func(r *Registry) *atomic.Int64 { return &r.trace.recordedSpans }, func(s *Snapshot) *int64 { return &s.Trace.RecordedSpans }),
	counter("famedb_trace_dropped_spans_total", "Spans overwritten (oldest-first) in the trace ring.", func(r *Registry) *atomic.Int64 { return &r.trace.droppedSpans }, func(s *Snapshot) *int64 { return &s.Trace.DroppedSpans }),
	gauge("famedb_trace_slow_ops", "Span trees held in the slow-op log.", func(r *Registry) *atomic.Int64 { return &r.trace.slowOps }, func(s *Snapshot) *int64 { return &s.Trace.SlowOps }),
	counter("famedb_trace_slow_evicted_total", "Slow-op trees evicted by worse ones.", func(r *Registry) *atomic.Int64 { return &r.trace.slowEvicted }, func(s *Snapshot) *int64 { return &s.Trace.SlowEvicted }),

	counter("famedb_fault_transients_total", "Transient storage faults observed.", func(r *Registry) *atomic.Int64 { return &r.fault.transients }, func(s *Snapshot) *int64 { return &s.Fault.Transients }),
	counter("famedb_fault_retries_total", "Retries spent on transient faults.", func(r *Registry) *atomic.Int64 { return &r.fault.retries }, func(s *Snapshot) *int64 { return &s.Fault.Retries }),
	counter("famedb_fault_checksum_failures_total", "Pages failing CRC verification.", func(r *Registry) *atomic.Int64 { return &r.fault.checksumFailures }, func(s *Snapshot) *int64 { return &s.Fault.ChecksumFailures }),
	counter("famedb_fault_scrubbed_pages_total", "Pages checked by verify passes.", func(r *Registry) *atomic.Int64 { return &r.fault.scrubbedPages }, func(s *Snapshot) *int64 { return &s.Fault.ScrubbedPages }),

	counter("famedb_mvcc_versions_installed_total", "Committed roots installed in the version table.", func(r *Registry) *atomic.Int64 { return &r.mvcc.versionsInstalled }, func(s *Snapshot) *int64 { return &s.MVCC.VersionsInstalled }),
	counter("famedb_mvcc_pages_reclaimed_total", "Superseded pages returned to the free list.", func(r *Registry) *atomic.Int64 { return &r.mvcc.pagesReclaimed }, func(s *Snapshot) *int64 { return &s.MVCC.PagesReclaimed }),
	gauge("famedb_mvcc_versions_live", "Versions retained for pinned readers.", func(r *Registry) *atomic.Int64 { return &r.mvcc.versionsLive }, func(s *Snapshot) *int64 { return &s.MVCC.VersionsLive }),
	gauge("famedb_mvcc_snapshots_open", "Snapshots currently pinned.", func(r *Registry) *atomic.Int64 { return &r.mvcc.snapshotsOpen }, func(s *Snapshot) *int64 { return &s.MVCC.SnapshotsOpen }),
	gauge("famedb_mvcc_snapshot_age", "Versions the oldest pinned snapshot lags the current root.", func(r *Registry) *atomic.Int64 { return &r.mvcc.snapshotAge }, func(s *Snapshot) *int64 { return &s.MVCC.SnapshotAge }),

	counter("famedb_repl_shipped_chunks_total", "WAL chunks shipped to replica feeds.", func(r *Registry) *atomic.Int64 { return &r.repl.shippedChunks }, func(s *Snapshot) *int64 { return &s.Repl.ShippedChunks }),
	counter("famedb_repl_shipped_bytes_total", "WAL bytes shipped to replica feeds.", func(r *Registry) *atomic.Int64 { return &r.repl.shippedBytes }, func(s *Snapshot) *int64 { return &s.Repl.ShippedBytes }),
	counter("famedb_repl_acks_total", "Replica acknowledgements received.", func(r *Registry) *atomic.Int64 { return &r.repl.acks }, func(s *Snapshot) *int64 { return &s.Repl.Acks }),
	counter("famedb_repl_catchups_total", "Incremental catch-ups served from the WAL.", func(r *Registry) *atomic.Int64 { return &r.repl.catchups }, func(s *Snapshot) *int64 { return &s.Repl.CatchUps }),
	counter("famedb_repl_snapshot_resyncs_total", "Full snapshot resyncs served.", func(r *Registry) *atomic.Int64 { return &r.repl.snapshots }, func(s *Snapshot) *int64 { return &s.Repl.Snapshots }),
	counter("famedb_repl_drops_total", "Ops or chunks dropped on bounded replica feeds.", func(r *Registry) *atomic.Int64 { return &r.repl.drops }, func(s *Snapshot) *int64 { return &s.Repl.Drops }),
	counter("famedb_repl_stale_marks_total", "Replicas marked stale by feed overflow.", func(r *Registry) *atomic.Int64 { return &r.repl.staleMarks }, func(s *Snapshot) *int64 { return &s.Repl.StaleMarks }),
	gauge("famedb_repl_replicas_connected", "Replicas currently connected.", func(r *Registry) *atomic.Int64 { return &r.repl.connected }, func(s *Snapshot) *int64 { return &s.Repl.Connected }),
	gauge("famedb_repl_max_lag_bytes", "Worst per-replica lag in WAL bytes.", func(r *Registry) *atomic.Int64 { return &r.repl.maxLagBytes }, func(s *Snapshot) *int64 { return &s.Repl.MaxLagBytes }),
}

// section is the layer a row belongs to: the token after "famedb_".
func (m *metric) section() string {
	sec, _, _ := strings.Cut(strings.TrimPrefix(m.name, "famedb_"), "_")
	return sec
}

// text is the row's Format label: the family name without its prefix
// and unit suffixes, plus the label value ("plans full-scan").
func (m *metric) text() string {
	t := strings.TrimPrefix(m.name, "famedb_"+m.section()+"_")
	t = strings.ReplaceAll(strings.TrimSuffix(strings.TrimSuffix(t, "_total"), "_ns"), "_", " ")
	if _, v, ok := strings.Cut(m.label, "="); ok {
		t += " " + strings.Trim(v, `"`)
	}
	return t
}

// zero reports whether the row holds nothing in s.
func (m *metric) zero(s *Snapshot) bool {
	if m.kind == histogramKind {
		return m.hfield(s).Count == 0
	}
	return *m.field(s) == 0
}

// featureSections hold the metrics of optional features (Tracing, MVCC,
// Replication): WritePrometheus leaves them out while they are all zero,
// so a product without the feature exports none of its series.
var featureSections = map[string]bool{"trace": true, "mvcc": true, "repl": true}

// sections calls fn for each run of adjacent rows sharing a section,
// reporting whether any of the rows holds something in s.
func (s *Snapshot) sections(fn func(sec string, rows []metric, active bool)) {
	for i := 0; i < len(metrics); {
		j, active := i, false
		for ; j < len(metrics) && metrics[j].section() == metrics[i].section(); j++ {
			active = active || !metrics[j].zero(s)
		}
		fn(metrics[i].section(), metrics[i:j], active)
		i = j
	}
}

// Snapshot copies every metric. Safe on a nil registry (zero snapshot).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	for i := range metrics {
		m := &metrics[i]
		if m.kind == histogramKind {
			*m.hfield(&s) = m.hlive(r).Snapshot()
		} else {
			*m.field(&s) = m.live(r).Load()
		}
	}
	s.Buffer.Policy, _ = r.buffer.policy.Load().(string)
	s.Fault.Degraded = r.fault.degraded.Load() != 0
	s.Fault.DegradedReason, _ = r.fault.reason.Load().(string)
	s.Queries = r.query.snapshot()
	return s
}
