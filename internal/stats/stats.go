// Package stats is the Statistics feature of FAME-DBMS: cross-cutting
// runtime instrumentation, following the paper's rule (Sec. 2.3) that
// cross-cutting concerns become optional features of mixed granularity.
// Every engine layer carries a nil-able *Registry; the composer points
// them at one shared Registry when the Statistics feature is selected
// and leaves them nil otherwise. All recording methods are safe on a
// nil receiver and reduce to a single branch then, so a product derived
// without Statistics pays no allocation and no atomic traffic on the
// hot path — the Go analog of instrumentation code that was never
// composed into the FeatureC++ binary.
//
// A metric is one ID, one row of the metrics table (table.go) and one
// Snapshot field: layers record by ID (Add, Set, Max, Observe,
// Start/Done), and the table drives Snapshot, Sub, WritePrometheus and
// Format. Counters and histogram buckets are atomic.Int64 values
// updated with atomic adds (no locks), so instrumentation never
// serializes the layers it observes; Go aligns atomic.Int64 on 32-bit
// targets too.
package stats

import (
	"sync/atomic"
	"time"
)

// ID names one metric: its row of the metrics table and its live value
// in a Registry.
type ID uint8

// The metric IDs, in table order, named after their Snapshot fields.
const (
	BufferShards ID = iota
	BufferHits
	BufferMisses
	BufferEvictions
	BufferWriteBacks

	PagerReads
	PagerWrites
	PagerAllocs
	PagerFrees
	PagerSyncs

	BTreeLeafSplits
	BTreeInnerSplits
	BTreeRootSplits
	BTreeCompactions
	BTreePagesFreed
	BTreeHeight

	TxnBegins
	TxnCommits
	TxnAborts
	TxnCheckpoints
	TxnCommitLatency
	TxnCommitBatch
	TxnCommitStall
	TxnWalAppends
	TxnWalSyncs

	SQLCreates
	SQLDrops
	SQLInserts
	SQLSelects
	SQLUpdates
	SQLDeletes
	SQLIndexScans
	SQLFullScans
	SQLPointLookups
	SQLPrepares
	SQLCompiles
	SQLPlanHits
	SQLPlanMisses
	SQLPlanEvictions
	SQLPlanInvalidated
	SQLStmtLatency

	AccessGetLatency
	AccessPutLatency

	TraceRingCapacity
	TraceRingOccupancy
	TraceRecordedSpans
	TraceDroppedSpans
	TraceSlowOps
	TraceSlowEvicted

	FaultTransients
	FaultRetries
	FaultChecksumFailures
	FaultScrubbedPages

	MVCCVersionsInstalled
	MVCCPagesReclaimed
	MVCCVersionsLive
	MVCCSnapshotsOpen
	MVCCSnapshotAge

	ReplShippedChunks
	ReplShippedBytes
	ReplAcks
	ReplCatchUps
	ReplSnapshots
	ReplDrops
	ReplStaleMarks
	ReplConnected
	ReplMaxLagBytes

	numMetrics
)

// Registry holds the live metrics of one composed product: one value
// per counter and gauge ID and one histogram per histogram ID, plus the
// three values that are not integers.
type Registry struct {
	vals  [numMetrics]atomic.Int64
	hists [numMetrics]*Histogram

	policy   atomic.Value // string: the buffer's replacement policy
	degraded atomic.Bool
	reason   atomic.Value // string: the first degrade reason
	// query is the QueryStats feature's per-shape profile registry;
	// nil unless that feature is composed on top of Statistics.
	query *QueryStats
}

// New creates a registry with every histogram row's histogram.
func New() *Registry {
	r := &Registry{}
	for id := range metrics {
		if m := &metrics[id]; m.kind == histogramKind {
			r.hists[id] = NewHistogram(m.bounds())
		}
	}
	return r
}

// Add adds n to counter id. Like every recording method, it is a no-op
// on a nil registry.
func (r *Registry) Add(id ID, n int64) {
	if r != nil {
		r.vals[id].Add(n)
	}
}

// Set replaces gauge id's value.
func (r *Registry) Set(id ID, v int64) {
	if r != nil {
		r.vals[id].Store(v)
	}
}

// Max raises gauge id to v when v is larger, so the gauge keeps the
// maximum across its recorders (the tallest B+-tree).
func (r *Registry) Max(id ID, v int64) {
	if r == nil {
		return
	}
	g := &r.vals[id]
	for cur := g.Load(); v > cur && !g.CompareAndSwap(cur, v); cur = g.Load() {
	}
}

// Observe records v in histogram id.
func (r *Registry) Observe(id ID, v int64) {
	if r != nil {
		r.hists[id].Observe(v)
	}
}

// Start begins timing an operation; pass the result to Done. It returns
// 0, and skips the clock read, on a nil registry.
func (r *Registry) Start() int64 {
	if r == nil {
		return 0
	}
	return clock()
}

// Done observes the time since start in histogram id.
func (r *Registry) Done(id ID, start int64) {
	if r != nil && start != 0 {
		r.done(id, start)
	}
}

// The recording methods keep to one branch before an out-of-line call,
// so each inlines into its caller; clock, done, setPolicy and degrade
// are the out-of-line parts.

func clock() int64 { return time.Now().UnixNano() }

func (r *Registry) done(id ID, start int64) { r.hists[id].Observe(clock() - start) }

// SetPolicy records the buffer's replacement feature ("LRU" or "LFU").
// Only a new name is stored, so setting the same one again allocates
// nothing.
func (r *Registry) SetPolicy(name string) {
	if r != nil {
		r.setPolicy(name)
	}
}

func (r *Registry) setPolicy(name string) {
	if r.policy.Load() != name {
		r.policy.Store(name)
	}
}

// Degrade latches the degraded flag with the poisoning reason. The
// first reason wins.
func (r *Registry) Degrade(reason string) {
	if r != nil && !r.degraded.Load() {
		r.degrade(reason)
	}
}

func (r *Registry) degrade(reason string) {
	if r.degraded.CompareAndSwap(false, true) {
		r.reason.Store(reason)
	}
}

// SetQueryStats attaches the QueryStats feature's registry; the
// composer calls it only when that feature is selected.
func (r *Registry) SetQueryStats(q *QueryStats) {
	if r != nil {
		r.query = q
	}
}

// Query returns the QueryStats feature's per-shape profile registry,
// or nil when that feature (or the whole Statistics registry) is not
// composed.
func (r *Registry) Query() *QueryStats {
	if r == nil {
		return nil
	}
	return r.query
}

// Snapshot copies every metric. Safe on a nil registry (zero snapshot).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	for id := range metrics {
		if m := &metrics[id]; m.kind == histogramKind {
			*m.hfield(&s) = r.hists[id].Snapshot()
		} else {
			*m.field(&s) = r.vals[id].Load()
		}
	}
	s.Buffer.Policy, _ = r.policy.Load().(string)
	s.Fault.Degraded = r.degraded.Load()
	s.Fault.DegradedReason, _ = r.reason.Load().(string)
	s.Queries = r.query.snapshot()
	return s
}
