// Package trace is the Tracing feature of FAME-DBMS: span-based,
// per-operation visibility into where a single request spends its time.
// Where the Statistics feature (internal/stats) aggregates counters and
// histograms, Tracing records *individual* operations as trees of
// spans — one SQL statement decomposes into its access → btree →
// buffer/pager → txn/WAL child spans — which is exactly the per-feature
// cost attribution the paper's feedback approach (Sec. 3.2) wants to
// store on features.
//
// The package follows the same nil-receiver zero-cost discipline as
// internal/stats: every engine layer carries a nil-able *Tracer, the
// composer points them at one shared tracer when the Tracing feature is
// selected and leaves them nil otherwise. Start on a nil (or disabled)
// tracer returns a nil *Span, and every Span method is safe on nil, so
// a product derived without Tracing pays a single branch and no
// allocation on the hot path.
//
// Parenting is explicit: Start takes the parent span, and every layer
// hands its own span to the calls it makes. A nil parent opens a root.
// Nothing is looked up per goroutine, so a span costs two monotonic
// clock reads, a pooled handle and one ring-slot copy.
//
// Memory is bounded, embedded-friendly: completed spans land in a
// fixed-capacity lock-striped ring buffer of preallocated slots
// (ring.go), live spans come from a sync.Pool, and the slow-op log
// (slow.go) keeps only the N worst complete span trees. Nothing grows
// with traffic; old spans are overwritten strictly oldest-first and the
// overwrite count is exported so dropped observability data is itself
// observable.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Layer names used in span records. They are package-level constants so
// span creation never allocates a string.
const (
	LayerSQL    = "sql"
	LayerAccess = "access"
	LayerBTree  = "btree"
	LayerBuffer = "buffer"
	LayerPager  = "pager"
	LayerTxn    = "txn"
	LayerWAL    = "wal"
)

// SpanRecord is one completed span: plain data, safe to retain and
// serialize. Records are what the ring buffer stores and the exporters
// consume.
type SpanRecord struct {
	// Seq is the record's global ring ticket: records are admitted (and
	// evicted) in strictly ascending Seq order.
	Seq uint64 `json:"seq"`
	// ID identifies the span; Parent is 0 for roots. Root names the
	// tree's root span (== ID for roots), so one operation's spans can
	// be regrouped from the flat ring.
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Root   uint64 `json:"root"`
	// Layer and Op locate the span in the engine ("buffer"/"read").
	Layer string `json:"layer"`
	Op    string `json:"op"`
	// Start is a UnixNano wall timestamp for export; Dur is elapsed
	// nanoseconds on the monotonic clock, so a wall-clock step can
	// neither make it negative nor fire the slow-op log.
	Start int64 `json:"start_ns"`
	Dur   int64 `json:"dur_ns"`
	// Page and Txn attribute the span to a page or transaction; 0 when
	// not applicable.
	Page uint32 `json:"page,omitempty"`
	Txn  uint64 `json:"txn,omitempty"`
	// Batch and Leader describe group-commit handoff: a follower span
	// records how many transactions its batch held and which leader
	// transaction drained it.
	Batch  int32  `json:"batch,omitempty"`
	Leader uint64 `json:"leader,omitempty"`
	// Bucket is the Statistics latency-histogram bucket this span's
	// duration landed in (le semantics), bridging traces to histograms
	// when both features are composed; -1 without the bridge.
	Bucket int32 `json:"bucket"`
	// Err marks spans whose operation returned an error.
	Err bool `json:"err,omitempty"`
}

// Span is a live, unfinished span handle. Handles are pooled; after End
// the handle must not be touched again, and a span must End before the
// parent it was started from does. All methods are safe on nil, so call
// sites need no feature conditionals.
type Span struct {
	rec  SpanRecord
	tr   *Tracer
	root *Span
	// kids accumulates completed descendant records on root handles so
	// the slow-op log can keep whole trees; bounded by slowTreeCap. The
	// engine ends every descendant on the goroutine that owns the root
	// (a group-commit leader's drain hangs under the leader's commit,
	// never under a follower's), so kidsMu is uncontended there; it
	// exists for callers that hand a parent to another goroutine.
	kidsMu   sync.Mutex
	kids     []SpanRecord
	kidsDrop int
}

// ID returns the span's identifier (0 on nil), the key that links
// external records — e.g. the QueryStats feature's slow-query ring —
// to this span's tree in the ring and slow-op log. Read it before
// End: ended handles return to the pool.
func (sp *Span) ID() uint64 {
	if sp == nil {
		return 0
	}
	return sp.rec.ID
}

// slowTreeCap bounds how many descendant spans a root retains for the
// slow-op log; further descendants are counted, not kept.
const slowTreeCap = 64

// The tracer's sizes: the ring's span count (memory is Capacity *
// sizeof(SpanRecord), preallocated) and lock-stripe count, the duration
// at which a root span is a slow op, and how many worst span trees the
// slow-op log keeps.
const (
	Capacity    = 4096
	ringStripes = 8
	slowRootNs  = int64(time.Millisecond)
	slowTrees   = 8
)

// Tracer records spans for one composed product.
type Tracer struct {
	enabled atomic.Bool
	ids     atomic.Uint64
	ring    *ring
	slow    *slowLog
	pool    sync.Pool
	// base carries the monotonic reading every span's clock is taken
	// against; wall is the same instant as UnixNano, so base-relative
	// readings export as wall timestamps.
	base time.Time
	wall int64
	// bounds, when set, are the Statistics latency-histogram bucket
	// bounds; each recorded span then carries the bucket its duration
	// landed in (the stats/trace bridge).
	bounds []int64
}

// New creates a tracer, recording. A nil *Tracer is itself valid (and
// free): every method no-ops.
func New() *Tracer {
	t := &Tracer{
		ring: newRing(Capacity, ringStripes),
		slow: &slowLog{threshold: slowRootNs, max: slowTrees},
	}
	t.pool.New = func() any { return new(Span) }
	t.base = time.Now()
	t.wall = t.base.UnixNano()
	t.enabled.Store(true)
	return t
}

// SetEnabled switches recording on or off at runtime. Spans already in
// flight finish normally. Safe on nil.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// Enabled reports whether the tracer is recording. False on nil.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetLatencyBounds installs the Statistics feature's histogram bucket
// bounds, so every recorded span also carries the bucket its duration
// landed in. Safe on nil.
func (t *Tracer) SetLatencyBounds(bounds []int64) {
	if t != nil {
		t.bounds = bounds
	}
}

// now reads the monotonic clock as a wall-anchored UnixNano value:
// differences of two readings are monotonic durations.
func (t *Tracer) now() int64 { return t.wall + int64(time.Since(t.base)) }

// Start opens a span in the given layer under parent; a nil parent
// opens a root. Returns nil when the tracer is nil or disabled.
func (t *Tracer) Start(parent *Span, layer, op string) *Span {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	sp := t.pool.Get().(*Span)
	sp.tr = t
	id := t.ids.Add(1)
	sp.rec = SpanRecord{ID: id, Root: id, Layer: layer, Op: op, Bucket: -1}
	sp.root = sp
	if parent != nil {
		sp.root = parent.root
		sp.rec.Parent = parent.rec.ID
		sp.rec.Root = parent.root.rec.ID
	}
	// Clock read last, so the span charges as little tracer overhead as
	// possible to the operation itself.
	sp.rec.Start = t.now()
	return sp
}

// Page attributes the span to a page. Safe on nil.
func (sp *Span) Page(id uint32) {
	if sp != nil {
		sp.rec.Page = id
	}
}

// Txn attributes the span to a transaction. Safe on nil.
func (sp *Span) Txn(id uint64) {
	if sp != nil {
		sp.rec.Txn = id
	}
}

// Handoff records group-commit attribution: the batch size this span's
// transaction was drained in and the leader transaction that drained
// it. Safe on nil.
func (sp *Span) Handoff(batch int, leader uint64) {
	if sp != nil {
		sp.rec.Batch = int32(batch)
		sp.rec.Leader = leader
	}
}

// Fail marks the span's operation as having returned an error. Safe on
// nil.
func (sp *Span) Fail(err error) {
	if sp != nil && err != nil {
		sp.rec.Err = true
	}
}

// End completes the span: it is copied into the ring and — for roots
// past the slow threshold — its whole tree is offered to the slow-op
// log. The handle returns to the pool; it must not be used afterwards.
// Safe on nil.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	t := sp.tr
	sp.rec.Dur = t.now() - sp.rec.Start
	if t.bounds != nil {
		sp.rec.Bucket = bucketOf(t.bounds, sp.rec.Dur)
	}
	t.ring.record(&sp.rec)
	if root := sp.root; root != sp {
		// Completed descendant: remember it on the (still live) root for
		// the slow-op log.
		root.kidsMu.Lock()
		if len(root.kids) < slowTreeCap {
			root.kids = append(root.kids, sp.rec)
		} else {
			root.kidsDrop++
		}
		root.kidsMu.Unlock()
	} else {
		if sp.rec.Dur >= t.slow.threshold {
			t.slow.add(sp.rec, sp.kids, sp.kidsDrop)
		}
		sp.kids = sp.kids[:0]
		sp.kidsDrop = 0
	}
	sp.tr = nil
	sp.root = nil
	t.pool.Put(sp)
}

// bucketOf returns the index of the first bound >= v (le semantics),
// or len(bounds) for the +Inf bucket — matching stats.Histogram.
func bucketOf(bounds []int64, v int64) int32 {
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	return int32(i)
}

// RingStats reports the recorder's occupancy accounting: the ring
// capacity, how many spans are currently held, how many were ever
// recorded, and how many were overwritten (dropped) — plus the slow-op
// log's size and eviction count. Zero values on nil.
func (t *Tracer) RingStats() (capacity, occupancy int, recorded, dropped uint64, slowOps int, slowEvicted int64) {
	if t == nil {
		return 0, 0, 0, 0, 0, 0
	}
	capacity = len(t.ring.slots)
	recorded = t.ring.ticket.Load()
	occupancy = int(recorded)
	if occupancy > capacity {
		occupancy = capacity
	}
	if recorded > uint64(capacity) {
		dropped = recorded - uint64(capacity)
	}
	slowOps, slowEvicted = t.slow.stats()
	return capacity, occupancy, recorded, dropped, slowOps, slowEvicted
}
