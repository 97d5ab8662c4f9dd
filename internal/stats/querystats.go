package stats

import (
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// QueryStats is the QueryStats feature's per-shape statement registry:
// execution profiles keyed on the normalized statement shape (literals
// replaced by `?`), plus a bounded ring of the slowest recent
// statements. It is attached to the Registry only when the feature is
// composed; a nil *QueryStats makes every method a no-op, so the SQL
// engine's recording sites cost nothing in products without the
// feature.
//
// The registry is lock-striped: a shape's profile lives in the stripe
// its hash selects, so concurrent executors of different shapes do not
// contend. The shape population is bounded (queryShapes); once the bound
// is reached, new shapes accumulate into the shared overflow profile
// (shape QueryOverflowShape) instead of growing the map, which keeps
// per-shape sums reconcilable with the global counters even under
// shape-explosion workloads.
type QueryStats struct {
	maxShapes int
	slowNs    int64
	// shapeCount is the number of distinct shapes admitted so far,
	// bumped optimistically before insertion (and rolled back when the
	// bound rejects), so the bound holds across stripes without a
	// global lock.
	shapeCount atomic.Int64
	stripes    [qsStripes]qsStripe
	slow       slowRing
}

const qsStripes = 8

// QueryOverflowShape is the pseudo-shape that absorbs executions of
// statements beyond the registry's shape bound.
const QueryOverflowShape = "~overflow"

// The QueryStats feature's sizes: distinct shapes profiled (later
// shapes share the overflow profile), the latency at or above which an
// execution enters the slow-query ring, and the ring's entry count (a
// full ring overwrites oldest-first and counts the overwrites).
const (
	queryShapes = 128
	slowQueryNs = int64(time.Millisecond)
	slowQueries = 32
)

type qsStripe struct {
	mu sync.Mutex
	m  map[string]*shapeProfile
}

// shapeProfile accumulates one shape's execution history: the exported
// per-shape fields, guarded by the owning stripe's mutex, plus the
// latency histogram, which is internally atomic. Shape and Latency stay
// empty here; snapshot fills them in.
type shapeProfile struct {
	QueryShapeSnapshot
	latency *Histogram
}

// NewQueryStats creates a registry for the QueryStats feature.
func NewQueryStats() *QueryStats {
	q := &QueryStats{maxShapes: queryShapes, slowNs: slowQueryNs}
	for i := range q.stripes {
		q.stripes[i].m = make(map[string]*shapeProfile)
	}
	q.slow.buf = make([]SlowQuery, slowQueries)
	return q
}

func (q *QueryStats) stripeFor(shape string) *qsStripe {
	h := fnv.New32a()
	h.Write([]byte(shape))
	return &q.stripes[h.Sum32()%qsStripes]
}

// profile returns the profile for shape with its stripe locked,
// creating it while the shape bound allows and redirecting to the
// overflow profile otherwise. The caller must unlock the returned
// stripe.
func (q *QueryStats) profile(shape string) (*shapeProfile, *qsStripe) {
	st := q.stripeFor(shape)
	st.mu.Lock()
	if p, ok := st.m[shape]; ok {
		return p, st
	}
	if q.shapeCount.Add(1) > int64(q.maxShapes) {
		q.shapeCount.Add(-1)
		st.mu.Unlock()
		return q.adoptOverflow()
	}
	p := &shapeProfile{latency: NewHistogram(LatencyBounds())}
	st.m[shape] = p
	return p, st
}

// adoptOverflow returns the overflow profile (creating it outside the
// shape bound) with its stripe locked.
func (q *QueryStats) adoptOverflow() (*shapeProfile, *qsStripe) {
	st := q.stripeFor(QueryOverflowShape)
	st.mu.Lock()
	p, ok := st.m[QueryOverflowShape]
	if !ok {
		p = &shapeProfile{latency: NewHistogram(LatencyBounds())}
		st.m[QueryOverflowShape] = p
	}
	return p, st
}

// QueryExec is one statement execution as observed by the engine —
// the unit the registry accumulates.
type QueryExec struct {
	Shape        string
	Verb         string
	Plan         string
	DurNs        int64
	RowsScanned  int64
	RowsReturned int64
	PagesVisited int64
	// TraceRoot is the statement's root span ID when the Tracing
	// feature is composed; 0 otherwise.
	TraceRoot uint64
	Err       error
}

// Observe records one execution into the shape's profile and, when it
// crosses the slow threshold, into the slow-query ring. No-op on nil.
func (q *QueryStats) Observe(e QueryExec) {
	if q == nil || e.Shape == "" {
		return
	}
	now := time.Now().UnixNano()
	p, st := q.profile(e.Shape)
	p.Count++
	p.TotalNs += e.DurNs
	p.RowsScanned += e.RowsScanned
	p.RowsReturned += e.RowsReturned
	p.PagesVisited += e.PagesVisited
	if e.Verb != "" {
		p.Verb = e.Verb
	}
	if e.Plan != "" {
		p.Plan = e.Plan
	}
	if e.Err != nil {
		p.Errors++
		p.LastError = e.Err.Error()
	}
	p.LastUnixNs = now
	hist := p.latency
	st.mu.Unlock()
	hist.Observe(e.DurNs)
	if e.DurNs >= q.slowNs {
		errText := ""
		if e.Err != nil {
			errText = e.Err.Error()
		}
		q.slow.push(SlowQuery{
			Shape:        e.Shape,
			Verb:         e.Verb,
			Plan:         e.Plan,
			DurNs:        e.DurNs,
			RowsScanned:  e.RowsScanned,
			RowsReturned: e.RowsReturned,
			TraceRoot:    e.TraceRoot,
			UnixNs:       now,
			Err:          errText,
		})
	}
}

// CacheHit attributes one plan-cache hit to shape. No-op on nil.
func (q *QueryStats) CacheHit(shape string) { q.bump(shape, func(p *shapeProfile) { p.PlanHits++ }) }

// CacheMiss attributes one plan-cache miss to shape. No-op on nil.
func (q *QueryStats) CacheMiss(shape string) { q.bump(shape, func(p *shapeProfile) { p.PlanMisses++ }) }

// CacheEvict attributes one plan-cache eviction to the shape whose
// plan was evicted. The profile outlives the cached plan: that is the
// point — eviction churn per shape is visible after the plan is gone.
// No-op on nil.
func (q *QueryStats) CacheEvict(shape string) {
	q.bump(shape, func(p *shapeProfile) { p.PlanEvicts++ })
}

// bump applies one counter update to shape's profile under its stripe
// lock. No-op on nil or for an empty shape.
func (q *QueryStats) bump(shape string, update func(*shapeProfile)) {
	if q == nil || shape == "" {
		return
	}
	p, st := q.profile(shape)
	update(p)
	st.mu.Unlock()
}

// SlowThresholdNs returns the latency at or above which executions
// enter the slow-query ring (0 on nil).
func (q *QueryStats) SlowThresholdNs() int64 {
	if q == nil {
		return 0
	}
	return q.slowNs
}

// SlowQueries returns the retained slow executions oldest-first plus
// how many older ones the bounded ring overwrote, without clearing
// the ring.
func (q *QueryStats) SlowQueries() ([]SlowQuery, uint64) {
	if q == nil {
		return nil, 0
	}
	return q.slow.snapshot()
}

// DrainSlowQueries returns the retained slow executions oldest-first
// and empties the ring; the overwrite counter keeps accumulating.
func (q *QueryStats) DrainSlowQueries() ([]SlowQuery, uint64) {
	if q == nil {
		return nil, 0
	}
	return q.slow.drain()
}

// snapshot copies the registry into an exportable QuerySnapshot,
// shapes ordered by total time descending (ties by shape text, so the
// order is deterministic).
func (q *QueryStats) snapshot() *QuerySnapshot {
	if q == nil {
		return nil
	}
	snap := &QuerySnapshot{SlowThresholdNs: q.slowNs, MaxShapes: q.maxShapes}
	for i := range q.stripes {
		st := &q.stripes[i]
		st.mu.Lock()
		for shape, p := range st.m {
			sh := p.QueryShapeSnapshot
			sh.Shape, sh.Latency = shape, p.latency.Snapshot()
			snap.Shapes = append(snap.Shapes, sh)
		}
		st.mu.Unlock()
	}
	sort.Slice(snap.Shapes, func(i, j int) bool {
		if snap.Shapes[i].TotalNs != snap.Shapes[j].TotalNs {
			return snap.Shapes[i].TotalNs > snap.Shapes[j].TotalNs
		}
		return snap.Shapes[i].Shape < snap.Shapes[j].Shape
	})
	snap.Slow, snap.SlowDropped = q.slow.snapshot()
	return snap
}

// SlowQuery is one retained slow execution: the normalized statement
// (literals already redacted to `?` by shape normalization), what the
// plan did, and — when the Tracing feature is composed — the root
// span ID whose subtree in the trace ring details the execution.
type SlowQuery struct {
	Shape        string `json:"shape"`
	Verb         string `json:"verb,omitempty"`
	Plan         string `json:"plan,omitempty"`
	DurNs        int64  `json:"dur_ns"`
	RowsScanned  int64  `json:"rows_scanned"`
	RowsReturned int64  `json:"rows_returned"`
	TraceRoot    uint64 `json:"trace_root,omitempty"`
	UnixNs       int64  `json:"unix_ns"`
	Err          string `json:"error,omitempty"`
}

// slowRing is the bounded slow-query ring: oldest entries are
// overwritten when full, and overwrites are counted so the drain
// reader knows what it lost.
type slowRing struct {
	mu      sync.Mutex
	buf     []SlowQuery
	next    int
	filled  int
	dropped uint64
}

func (r *slowRing) push(s SlowQuery) {
	r.mu.Lock()
	if r.filled == len(r.buf) {
		r.dropped++
	} else {
		r.filled++
	}
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	r.mu.Unlock()
}

// oldestFirstLocked copies the retained entries in arrival order.
func (r *slowRing) oldestFirstLocked() []SlowQuery {
	if r.filled == 0 {
		return nil
	}
	out := make([]SlowQuery, 0, r.filled)
	start := (r.next - r.filled + len(r.buf)) % len(r.buf)
	for i := 0; i < r.filled; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

func (r *slowRing) snapshot() ([]SlowQuery, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.oldestFirstLocked(), r.dropped
}

func (r *slowRing) drain() ([]SlowQuery, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.oldestFirstLocked()
	r.next, r.filled = 0, 0
	return out, r.dropped
}

// QueryShapeSnapshot is one shape's accumulated profile in a
// Snapshot.
type QueryShapeSnapshot struct {
	Shape        string            `json:"shape"`
	Verb         string            `json:"verb,omitempty"`
	Plan         string            `json:"plan,omitempty"`
	Count        int64             `json:"count"`
	Errors       int64             `json:"errors,omitempty"`
	TotalNs      int64             `json:"total_ns"`
	RowsScanned  int64             `json:"rows_scanned"`
	RowsReturned int64             `json:"rows_returned"`
	PagesVisited int64             `json:"pages_visited"`
	PlanHits     int64             `json:"plan_cache_hits"`
	PlanMisses   int64             `json:"plan_cache_misses"`
	PlanEvicts   int64             `json:"plan_cache_evictions"`
	Latency      HistogramSnapshot `json:"latency_ns"`
	LastError    string            `json:"last_error,omitempty"`
	LastUnixNs   int64             `json:"last_unix_ns,omitempty"`
}

// QuerySnapshot is the QueryStats feature's section of a Snapshot:
// per-shape profiles (total time descending) plus the slow-query
// ring. Present only when the feature is composed.
type QuerySnapshot struct {
	Shapes          []QueryShapeSnapshot `json:"shapes"`
	Slow            []SlowQuery          `json:"slow,omitempty"`
	SlowDropped     uint64               `json:"slow_dropped,omitempty"`
	SlowThresholdNs int64                `json:"slow_threshold_ns"`
	MaxShapes       int                  `json:"max_shapes"`
}

// Sub returns the delta snapshot cur − prev, matching shapes by text.
// Shapes absent from prev are kept whole; the slow ring and gauges
// keep cur's values. Used by the Monitor's windowed sampler.
func (s *QuerySnapshot) Sub(prev *QuerySnapshot) *QuerySnapshot {
	if s == nil {
		return nil
	}
	if prev == nil {
		cp := *s
		return &cp
	}
	prevBy := make(map[string]*QueryShapeSnapshot, len(prev.Shapes))
	for i := range prev.Shapes {
		prevBy[prev.Shapes[i].Shape] = &prev.Shapes[i]
	}
	out := &QuerySnapshot{
		Slow:            s.Slow,
		SlowDropped:     s.SlowDropped,
		SlowThresholdNs: s.SlowThresholdNs,
		MaxShapes:       s.MaxShapes,
	}
	for _, sh := range s.Shapes {
		if p, ok := prevBy[sh.Shape]; ok {
			sh.Count = subCounter(sh.Count, p.Count)
			sh.Errors = subCounter(sh.Errors, p.Errors)
			sh.TotalNs = subCounter(sh.TotalNs, p.TotalNs)
			sh.RowsScanned = subCounter(sh.RowsScanned, p.RowsScanned)
			sh.RowsReturned = subCounter(sh.RowsReturned, p.RowsReturned)
			sh.PagesVisited = subCounter(sh.PagesVisited, p.PagesVisited)
			sh.PlanHits = subCounter(sh.PlanHits, p.PlanHits)
			sh.PlanMisses = subCounter(sh.PlanMisses, p.PlanMisses)
			sh.PlanEvicts = subCounter(sh.PlanEvicts, p.PlanEvicts)
			sh.Latency = sh.Latency.Sub(p.Latency)
		}
		out.Shapes = append(out.Shapes, sh)
	}
	return out
}
