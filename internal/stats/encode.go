package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// fmtTotalNs renders a nanosecond total compactly for Format.
func fmtTotalNs(ns int64) string { return time.Duration(ns).String() }

// Snapshot is a point-in-time copy of every metric of a Registry: plain
// values, safe to retain, serialize, and compare after the product is
// closed.
type Snapshot struct {
	Buffer BufferSnapshot `json:"buffer"`
	Pager  PagerSnapshot  `json:"pager"`
	BTree  BTreeSnapshot  `json:"btree"`
	Txn    TxnSnapshot    `json:"txn"`
	SQL    SQLSnapshot    `json:"sql"`
	Access AccessSnapshot `json:"access"`
	Trace  TraceSnapshot  `json:"trace"`
	Fault  FaultSnapshot  `json:"fault"`
	MVCC   MVCCSnapshot   `json:"mvcc"`
	Repl   ReplSnapshot   `json:"repl"`
	// Queries is the QueryStats feature's per-shape profile section;
	// nil when that feature is not composed.
	Queries *QuerySnapshot `json:"queries,omitempty"`
}

// BufferSnapshot copies the buffer-manager counters.
type BufferSnapshot struct {
	Policy string `json:"policy,omitempty"`
	// Shards is the pool's lock-stripe count: 1 without the
	// ShardedBuffer feature, >1 with it, 0 without a cache.
	Shards     int64 `json:"shards,omitempty"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Evictions  int64 `json:"evictions"`
	WriteBacks int64 `json:"write_backs"`
}

// PagerSnapshot copies the page-file counters.
type PagerSnapshot struct {
	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`
	Allocs int64 `json:"allocs"`
	Frees  int64 `json:"frees"`
	Syncs  int64 `json:"syncs"`
}

// BTreeSnapshot copies the B+-tree counters.
type BTreeSnapshot struct {
	LeafSplits  int64 `json:"leaf_splits"`
	InnerSplits int64 `json:"inner_splits"`
	RootSplits  int64 `json:"root_splits"`
	Compactions int64 `json:"compactions"`
	PagesFreed  int64 `json:"pages_freed"`
	Height      int64 `json:"height"`
}

// TxnSnapshot copies the transaction and WAL counters.
type TxnSnapshot struct {
	Begins        int64             `json:"begins"`
	Commits       int64             `json:"commits"`
	Aborts        int64             `json:"aborts"`
	Checkpoints   int64             `json:"checkpoints"`
	WalAppends    int64             `json:"wal_appends"`
	WalSyncs      int64             `json:"wal_syncs"`
	CommitLatency HistogramSnapshot `json:"commit_latency_ns"`
	CommitBatch   HistogramSnapshot `json:"commit_batch"`
	CommitStall   HistogramSnapshot `json:"commit_stall_ns"`
}

// SQLSnapshot copies the query-engine counters.
type SQLSnapshot struct {
	Creates      int64 `json:"creates"`
	Drops        int64 `json:"drops"`
	Inserts      int64 `json:"inserts"`
	Selects      int64 `json:"selects"`
	Updates      int64 `json:"updates"`
	Deletes      int64 `json:"deletes"`
	IndexScans   int64 `json:"index_scans"`
	FullScans    int64 `json:"full_scans"`
	PointLookups int64 `json:"point_lookups"`
	// CompiledQueries feature: prepared statements, compilations and the
	// shape-keyed plan cache. All zero on products without the feature.
	Prepares        int64             `json:"prepares"`
	Compiles        int64             `json:"compiles"`
	PlanHits        int64             `json:"plan_cache_hits"`
	PlanMisses      int64             `json:"plan_cache_misses"`
	PlanEvictions   int64             `json:"plan_cache_evictions"`
	PlanInvalidated int64             `json:"plans_invalidated"`
	StmtLatency     HistogramSnapshot `json:"stmt_latency_ns"`
}

// AccessSnapshot copies the record-access latency histograms.
type AccessSnapshot struct {
	GetLatency HistogramSnapshot `json:"get_latency_ns"`
	PutLatency HistogramSnapshot `json:"put_latency_ns"`
}

// TraceSnapshot copies the Tracing feature's ring-recorder gauges; all
// zero unless both Statistics and Tracing are composed (the bridge).
type TraceSnapshot struct {
	RingCapacity  int64 `json:"ring_capacity"`
	RingOccupancy int64 `json:"ring_occupancy"`
	RecordedSpans int64 `json:"recorded_spans"`
	DroppedSpans  int64 `json:"dropped_spans"`
	SlowOps       int64 `json:"slow_ops"`
	SlowEvicted   int64 `json:"slow_evicted"`
}

// FaultSnapshot copies the fault-survival counters.
type FaultSnapshot struct {
	Transients       int64 `json:"transients"`
	Retries          int64 `json:"retries"`
	ChecksumFailures int64 `json:"checksum_failures"`
	ScrubbedPages    int64 `json:"scrubbed_pages"`
	// Degraded reports whether the engine poisoned into read-only mode;
	// DegradedReason carries the first poisoning cause.
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// MVCCSnapshot copies the version-table metrics; all zero unless the
// MVCC feature is composed.
type MVCCSnapshot struct {
	VersionsInstalled int64 `json:"versions_installed"`
	PagesReclaimed    int64 `json:"pages_reclaimed"`
	// VersionsLive retains superseded roots for pinned readers;
	// SnapshotAge is how many versions the oldest pinned snapshot lags
	// the current root.
	VersionsLive  int64 `json:"versions_live"`
	SnapshotsOpen int64 `json:"snapshots_open"`
	SnapshotAge   int64 `json:"snapshot_age"`
}

// ReplSnapshot copies the Replication shipping metrics; all zero unless
// the Replication feature is composed.
type ReplSnapshot struct {
	ShippedChunks int64 `json:"shipped_chunks"`
	ShippedBytes  int64 `json:"shipped_bytes"`
	Acks          int64 `json:"acks"`
	CatchUps      int64 `json:"catchups"`
	Snapshots     int64 `json:"snapshot_resyncs"`
	Drops         int64 `json:"drops"`
	StaleMarks    int64 `json:"stale_marks"`
	// Connected and MaxLagBytes are the replica-health gauges the
	// Monitor watchdog alerts on.
	Connected   int64 `json:"replicas_connected"`
	MaxLagBytes int64 `json:"replica_max_lag_bytes"`
}

// WriteJSON writes the snapshot as indented JSON (expvar style).
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format, all metrics prefixed famedb_: one HELP/TYPE header per family,
// then one sample line per label.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	header := func(name, help, typ string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	s.sections(func(sec string, rows []metric, active bool) {
		if !active && featureSections[sec] {
			return
		}
		for i := range rows {
			m := &rows[i]
			if i == 0 || rows[i-1].name != m.name {
				header(m.name, m.help, m.kind.String())
			}
			if m.kind == histogramKind {
				writeHistogram(&b, m.name, *m.hfield(&s))
				continue
			}
			label := m.label
			if sec == "buffer" && s.Buffer.Policy != "" {
				label = fmt.Sprintf("policy=%q", s.Buffer.Policy)
			}
			if label != "" {
				label = "{" + label + "}"
			}
			fmt.Fprintf(&b, "%s%s %d\n", m.name, label, *m.field(&s))
		}
	})
	degraded := 0
	if s.Fault.Degraded {
		degraded = 1
	}
	header("famedb_degraded", "1 when the engine is in degraded read-only mode.", "gauge")
	fmt.Fprintf(&b, "famedb_degraded %d\n", degraded)

	// QueryStats feature: per-shape statement profiles, one family per
	// profile field and one sample line per shape.
	if s.Queries != nil {
		shapeSeries := func(name, help string, value func(QueryShapeSnapshot) int64) {
			header(name, help, "counter")
			for _, sh := range s.Queries.Shapes {
				fmt.Fprintf(&b, "%s{shape=\"%s\"} %d\n", name, promLabel(sh.Shape), value(sh))
			}
		}
		shapeSeries("famedb_query_execs_total", "Statement executions by normalized shape.",
			func(sh QueryShapeSnapshot) int64 { return sh.Count })
		shapeSeries("famedb_query_errors_total", "Failed executions by shape.",
			func(sh QueryShapeSnapshot) int64 { return sh.Errors })
		shapeSeries("famedb_query_time_ns_total", "Total execution time by shape.",
			func(sh QueryShapeSnapshot) int64 { return sh.TotalNs })
		shapeSeries("famedb_query_rows_scanned_total", "Rows scanned by shape.",
			func(sh QueryShapeSnapshot) int64 { return sh.RowsScanned })
		shapeSeries("famedb_query_rows_returned_total", "Rows returned by shape.",
			func(sh QueryShapeSnapshot) int64 { return sh.RowsReturned })
		shapeSeries("famedb_query_plan_cache_hits_total", "Plan-cache hits by shape.",
			func(sh QueryShapeSnapshot) int64 { return sh.PlanHits })
		header("famedb_query_shapes", "Distinct statement shapes profiled.", "gauge")
		fmt.Fprintf(&b, "famedb_query_shapes %d\n", len(s.Queries.Shapes))
		header("famedb_query_slow_dropped_total", "Slow-query ring entries overwritten before reading.", "counter")
		fmt.Fprintf(&b, "famedb_query_slow_dropped_total %d\n", s.Queries.SlowDropped)
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram writes one histogram's cumulative buckets, sum and
// count.
func writeHistogram(b *strings.Builder, name string, h HistogramSnapshot) {
	var cum int64
	for i, c := range h.Counts {
		cum += c
		le := "+Inf"
		if i < len(h.Bounds) {
			le = fmt.Sprintf("%d", h.Bounds[i])
		}
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, le, cum)
	}
	fmt.Fprintf(b, "%s_sum %d\n%s_count %d\n", name, h.Sum, name, h.Count)
}

// promLabel escapes a string for use as a Prometheus label value
// (backslash, double quote and newline per the exposition format; %q
// would escape non-ASCII too, which the format does not want).
func promLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// Format pretty-prints the snapshot for humans (the REPL's .stats).
// Sections whose metrics are all zero are omitted.
func (s Snapshot) Format() string {
	var b strings.Builder
	s.sections(func(sec string, rows []metric, active bool) {
		if !active {
			return
		}
		if sec == "buffer" && s.Buffer.Policy != "" {
			sec += " (" + s.Buffer.Policy + ")"
		}
		b.WriteString(sec + "\n")
		for i := range rows {
			m := &rows[i]
			if m.kind != histogramKind {
				fmt.Fprintf(&b, "  %-24s %12d\n", m.text(), *m.field(&s))
				continue
			}
			h, prec, unit := *m.hfield(&s), 1, ""
			if strings.HasSuffix(m.name, "_ns") {
				prec, unit = 0, "ns"
			}
			fmt.Fprintf(&b, "  %-24s %12d   mean %.*f%s  p50 %.*f%s  p99 %.*f%s\n", m.text(), h.Count,
				prec, h.Mean(), unit, prec, h.P50(), unit, prec, h.P99(), unit)
		}
	})
	if s.Fault.Degraded {
		fmt.Fprintf(&b, "degraded (read-only): %s\n", s.Fault.DegradedReason)
	}
	if s.Queries != nil && len(s.Queries.Shapes) > 0 {
		fmt.Fprintf(&b, "queries (%d shapes, slowest first)\n", len(s.Queries.Shapes))
		for i, sh := range s.Queries.Shapes {
			if i == 8 {
				fmt.Fprintf(&b, "  ... %d more shapes\n", len(s.Queries.Shapes)-i)
				break
			}
			fmt.Fprintf(&b, "  %dx %-10s %8s total  p99 %.0fns  %s\n",
				sh.Count, sh.Verb, fmtTotalNs(sh.TotalNs), round1(sh.Latency.P99()), sh.Shape)
		}
		if len(s.Queries.Slow) > 0 || s.Queries.SlowDropped > 0 {
			fmt.Fprintf(&b, "  %-24s %12d   (%d overwritten)\n", "slow queries retained",
				int64(len(s.Queries.Slow)), int64(s.Queries.SlowDropped))
		}
	}
	if b.Len() == 0 {
		return "(no recorded activity)\n"
	}
	return b.String()
}
