package stats

import "strings"

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
// exported metric. Counter and gauge rows bind an int64 Snapshot field;
// histogram rows bind a HistogramSnapshot field and the histogram's
// bucket bounds. The row's ID indexes the live value in a Registry.
type metric struct {
	// name is the Prometheus family, famedb_<section>_...; the section
	// groups rows under one Format heading.
	name  string
	label string // `key="value"` sample label, "" for none
	help  string
	kind  kind

	field  func(*Snapshot) *int64
	hfield func(*Snapshot) *HistogramSnapshot
	bounds func() []int64
}

// counter, gauge and histogram build one table row of their kind.
func counter(name, help string, field func(*Snapshot) *int64) metric {
	return metric{name: name, help: help, kind: counterKind, field: field}
}

func gauge(name, help string, field func(*Snapshot) *int64) metric {
	return metric{name: name, help: help, kind: gaugeKind, field: field}
}

func histogram(name, help string, bounds func() []int64, field func(*Snapshot) *HistogramSnapshot) metric {
	return metric{name: name, help: help, kind: histogramKind, hfield: field, bounds: bounds}
}

// by sets the row's sample label.
func (m metric) by(label string) metric {
	m.label = label
	return m
}

// metrics declares every counter, gauge and histogram of a Snapshot,
// once, at its ID. Rows of one section are adjacent, and rows of one
// family are adjacent so the family's HELP/TYPE header is written once.
// Adding a metric means adding its ID, its Snapshot field and one row.
var metrics = [numMetrics]metric{
	BufferShards:     gauge("famedb_buffer_shards", "Buffer pool lock stripes.", func(s *Snapshot) *int64 { return &s.Buffer.Shards }),
	BufferHits:       counter("famedb_buffer_hits_total", "Buffer cache hits.", func(s *Snapshot) *int64 { return &s.Buffer.Hits }),
	BufferMisses:     counter("famedb_buffer_misses_total", "Buffer cache misses.", func(s *Snapshot) *int64 { return &s.Buffer.Misses }),
	BufferEvictions:  counter("famedb_buffer_evictions_total", "Buffer cache evictions.", func(s *Snapshot) *int64 { return &s.Buffer.Evictions }),
	BufferWriteBacks: counter("famedb_buffer_write_backs_total", "Dirty pages written back.", func(s *Snapshot) *int64 { return &s.Buffer.WriteBacks }),

	PagerReads:  counter("famedb_pager_reads_total", "Physical page reads.", func(s *Snapshot) *int64 { return &s.Pager.Reads }),
	PagerWrites: counter("famedb_pager_writes_total", "Physical page writes.", func(s *Snapshot) *int64 { return &s.Pager.Writes }),
	PagerAllocs: counter("famedb_pager_allocs_total", "Pages allocated.", func(s *Snapshot) *int64 { return &s.Pager.Allocs }),
	PagerFrees:  counter("famedb_pager_frees_total", "Pages freed.", func(s *Snapshot) *int64 { return &s.Pager.Frees }),
	PagerSyncs:  counter("famedb_pager_syncs_total", "Page file syncs.", func(s *Snapshot) *int64 { return &s.Pager.Syncs }),

	BTreeLeafSplits:  counter("famedb_btree_leaf_splits_total", "B+-tree leaf splits.", func(s *Snapshot) *int64 { return &s.BTree.LeafSplits }),
	BTreeInnerSplits: counter("famedb_btree_inner_splits_total", "B+-tree inner splits.", func(s *Snapshot) *int64 { return &s.BTree.InnerSplits }),
	BTreeRootSplits:  counter("famedb_btree_root_splits_total", "B+-tree root splits.", func(s *Snapshot) *int64 { return &s.BTree.RootSplits }),
	BTreeCompactions: counter("famedb_btree_compactions_total", "B+-tree compactions.", func(s *Snapshot) *int64 { return &s.BTree.Compactions }),
	BTreePagesFreed:  counter("famedb_btree_pages_freed_total", "Pages freed by compaction.", func(s *Snapshot) *int64 { return &s.BTree.PagesFreed }),
	BTreeHeight:      gauge("famedb_btree_height", "Tallest instrumented B+-tree.", func(s *Snapshot) *int64 { return &s.BTree.Height }),

	TxnBegins:        counter("famedb_txn_begins_total", "Transactions begun.", func(s *Snapshot) *int64 { return &s.Txn.Begins }),
	TxnCommits:       counter("famedb_txn_commits_total", "Transactions committed.", func(s *Snapshot) *int64 { return &s.Txn.Commits }),
	TxnAborts:        counter("famedb_txn_aborts_total", "Transactions aborted.", func(s *Snapshot) *int64 { return &s.Txn.Aborts }),
	TxnCheckpoints:   counter("famedb_txn_checkpoints_total", "Checkpoints taken.", func(s *Snapshot) *int64 { return &s.Txn.Checkpoints }),
	TxnCommitLatency: histogram("famedb_txn_commit_latency_ns", "Commit latency in nanoseconds.", LatencyBounds, func(s *Snapshot) *HistogramSnapshot { return &s.Txn.CommitLatency }),
	TxnCommitBatch:   histogram("famedb_txn_commit_batch", "Commits per durable sync.", BatchBounds, func(s *Snapshot) *HistogramSnapshot { return &s.Txn.CommitBatch }),
	TxnCommitStall:   histogram("famedb_txn_commit_stall_ns", "Follower wait on the group-commit leader in nanoseconds.", LatencyBounds, func(s *Snapshot) *HistogramSnapshot { return &s.Txn.CommitStall }),
	TxnWalAppends:    counter("famedb_wal_appends_total", "WAL records appended.", func(s *Snapshot) *int64 { return &s.Txn.WalAppends }),
	TxnWalSyncs:      counter("famedb_wal_syncs_total", "Durable WAL syncs.", func(s *Snapshot) *int64 { return &s.Txn.WalSyncs }),

	SQLCreates:         counter("famedb_sql_statements_total", "SQL statements by verb.", func(s *Snapshot) *int64 { return &s.SQL.Creates }).by(`verb="create"`),
	SQLDrops:           counter("famedb_sql_statements_total", "SQL statements by verb.", func(s *Snapshot) *int64 { return &s.SQL.Drops }).by(`verb="drop"`),
	SQLInserts:         counter("famedb_sql_statements_total", "SQL statements by verb.", func(s *Snapshot) *int64 { return &s.SQL.Inserts }).by(`verb="insert"`),
	SQLSelects:         counter("famedb_sql_statements_total", "SQL statements by verb.", func(s *Snapshot) *int64 { return &s.SQL.Selects }).by(`verb="select"`),
	SQLUpdates:         counter("famedb_sql_statements_total", "SQL statements by verb.", func(s *Snapshot) *int64 { return &s.SQL.Updates }).by(`verb="update"`),
	SQLDeletes:         counter("famedb_sql_statements_total", "SQL statements by verb.", func(s *Snapshot) *int64 { return &s.SQL.Deletes }).by(`verb="delete"`),
	SQLIndexScans:      counter("famedb_sql_plans_total", "Chosen access paths.", func(s *Snapshot) *int64 { return &s.SQL.IndexScans }).by(`plan="index-scan"`),
	SQLFullScans:       counter("famedb_sql_plans_total", "Chosen access paths.", func(s *Snapshot) *int64 { return &s.SQL.FullScans }).by(`plan="full-scan"`),
	SQLPointLookups:    counter("famedb_sql_plans_total", "Chosen access paths.", func(s *Snapshot) *int64 { return &s.SQL.PointLookups }).by(`plan="point-lookup"`),
	SQLPrepares:        counter("famedb_sql_prepares_total", "Prepared statements created.", func(s *Snapshot) *int64 { return &s.SQL.Prepares }),
	SQLCompiles:        counter("famedb_sql_compiles_total", "Plan compilations (initial and after invalidation).", func(s *Snapshot) *int64 { return &s.SQL.Compiles }),
	SQLPlanHits:        counter("famedb_sql_plan_cache_total", "Plan-cache lookups by outcome.", func(s *Snapshot) *int64 { return &s.SQL.PlanHits }).by(`outcome="hit"`),
	SQLPlanMisses:      counter("famedb_sql_plan_cache_total", "Plan-cache lookups by outcome.", func(s *Snapshot) *int64 { return &s.SQL.PlanMisses }).by(`outcome="miss"`),
	SQLPlanEvictions:   counter("famedb_sql_plan_cache_evictions_total", "Plans evicted from the bounded cache.", func(s *Snapshot) *int64 { return &s.SQL.PlanEvictions }),
	SQLPlanInvalidated: counter("famedb_sql_plans_invalidated_total", "Stale compiled plans recompiled after DDL.", func(s *Snapshot) *int64 { return &s.SQL.PlanInvalidated }),
	SQLStmtLatency:     histogram("famedb_sql_stmt_latency_ns", "Statement latency in nanoseconds.", LatencyBounds, func(s *Snapshot) *HistogramSnapshot { return &s.SQL.StmtLatency }),

	AccessGetLatency: histogram("famedb_access_get_latency_ns", "Get latency in nanoseconds.", LatencyBounds, func(s *Snapshot) *HistogramSnapshot { return &s.Access.GetLatency }),
	AccessPutLatency: histogram("famedb_access_put_latency_ns", "Put latency in nanoseconds.", LatencyBounds, func(s *Snapshot) *HistogramSnapshot { return &s.Access.PutLatency }),

	TraceRingCapacity:  gauge("famedb_trace_ring_capacity", "Trace ring slot count.", func(s *Snapshot) *int64 { return &s.Trace.RingCapacity }),
	TraceRingOccupancy: gauge("famedb_trace_ring_occupancy", "Spans currently held in the trace ring.", func(s *Snapshot) *int64 { return &s.Trace.RingOccupancy }),
	TraceRecordedSpans: counter("famedb_trace_recorded_spans_total", "Spans ever recorded.", func(s *Snapshot) *int64 { return &s.Trace.RecordedSpans }),
	TraceDroppedSpans:  counter("famedb_trace_dropped_spans_total", "Spans overwritten (oldest-first) in the trace ring.", func(s *Snapshot) *int64 { return &s.Trace.DroppedSpans }),
	TraceSlowOps:       gauge("famedb_trace_slow_ops", "Span trees held in the slow-op log.", func(s *Snapshot) *int64 { return &s.Trace.SlowOps }),
	TraceSlowEvicted:   counter("famedb_trace_slow_evicted_total", "Slow-op trees evicted by worse ones.", func(s *Snapshot) *int64 { return &s.Trace.SlowEvicted }),

	FaultTransients:       counter("famedb_fault_transients_total", "Transient storage faults observed.", func(s *Snapshot) *int64 { return &s.Fault.Transients }),
	FaultRetries:          counter("famedb_fault_retries_total", "Retries spent on transient faults.", func(s *Snapshot) *int64 { return &s.Fault.Retries }),
	FaultChecksumFailures: counter("famedb_fault_checksum_failures_total", "Pages failing CRC verification.", func(s *Snapshot) *int64 { return &s.Fault.ChecksumFailures }),
	FaultScrubbedPages:    counter("famedb_fault_scrubbed_pages_total", "Pages checked by verify passes.", func(s *Snapshot) *int64 { return &s.Fault.ScrubbedPages }),

	MVCCVersionsInstalled: counter("famedb_mvcc_versions_installed_total", "Committed roots installed in the version table.", func(s *Snapshot) *int64 { return &s.MVCC.VersionsInstalled }),
	MVCCPagesReclaimed:    counter("famedb_mvcc_pages_reclaimed_total", "Superseded pages returned to the free list.", func(s *Snapshot) *int64 { return &s.MVCC.PagesReclaimed }),
	MVCCVersionsLive:      gauge("famedb_mvcc_versions_live", "Versions retained for pinned readers.", func(s *Snapshot) *int64 { return &s.MVCC.VersionsLive }),
	MVCCSnapshotsOpen:     gauge("famedb_mvcc_snapshots_open", "Snapshots currently pinned.", func(s *Snapshot) *int64 { return &s.MVCC.SnapshotsOpen }),
	MVCCSnapshotAge:       gauge("famedb_mvcc_snapshot_age", "Versions the oldest pinned snapshot lags the current root.", func(s *Snapshot) *int64 { return &s.MVCC.SnapshotAge }),

	ReplShippedChunks: counter("famedb_repl_shipped_chunks_total", "WAL chunks shipped to replica feeds.", func(s *Snapshot) *int64 { return &s.Repl.ShippedChunks }),
	ReplShippedBytes:  counter("famedb_repl_shipped_bytes_total", "WAL bytes shipped to replica feeds.", func(s *Snapshot) *int64 { return &s.Repl.ShippedBytes }),
	ReplAcks:          counter("famedb_repl_acks_total", "Replica acknowledgements received.", func(s *Snapshot) *int64 { return &s.Repl.Acks }),
	ReplCatchUps:      counter("famedb_repl_catchups_total", "Incremental catch-ups served from the WAL.", func(s *Snapshot) *int64 { return &s.Repl.CatchUps }),
	ReplSnapshots:     counter("famedb_repl_snapshot_resyncs_total", "Full snapshot resyncs served.", func(s *Snapshot) *int64 { return &s.Repl.Snapshots }),
	ReplDrops:         counter("famedb_repl_drops_total", "Ops or chunks dropped on bounded replica feeds.", func(s *Snapshot) *int64 { return &s.Repl.Drops }),
	ReplStaleMarks:    counter("famedb_repl_stale_marks_total", "Replicas marked stale by feed overflow.", func(s *Snapshot) *int64 { return &s.Repl.StaleMarks }),
	ReplConnected:     gauge("famedb_repl_replicas_connected", "Replicas currently connected.", func(s *Snapshot) *int64 { return &s.Repl.Connected }),
	ReplMaxLagBytes:   gauge("famedb_repl_max_lag_bytes", "Worst per-replica lag in WAL bytes.", func(s *Snapshot) *int64 { return &s.Repl.MaxLagBytes }),
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
