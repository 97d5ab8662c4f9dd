package stats

import (
	"testing"
	"time"
)

func TestHistogramSnapshotSubBuckets(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{5, 50, 50, 500} {
		h.Observe(v)
	}
	prev := h.Snapshot()
	for _, v := range []int64{7, 70, 5000, 5000, 5000} {
		h.Observe(v)
	}
	d := h.Snapshot().Sub(prev)

	if d.Count != 5 {
		t.Fatalf("delta count = %d, want 5", d.Count)
	}
	want := []int64{1, 1, 0, 3} // le10, le100, le1000, +Inf
	for i, c := range d.Counts {
		if c != want[i] {
			t.Errorf("delta bucket %d = %d, want %d", i, c, want[i])
		}
	}
	if d.Sum != 7+70+3*5000 {
		t.Errorf("delta sum = %d, want %d", d.Sum, 7+70+3*5000)
	}
	// The windowed quantile sees only the new observations: p50 lands in
	// the +Inf bucket, reported as the last finite bound.
	if got := d.P50(); got != 1000 {
		t.Errorf("windowed p50 = %.0f, want 1000", got)
	}
}

// TestHistogramSnapshotSubZeroPrev covers the nil-slice contract: a
// zero-value prev (the histogram's feature was not composed, or the
// baseline predates the registry) must yield the current snapshot
// unchanged instead of panicking on the nil Counts.
func TestHistogramSnapshotSubZeroPrev(t *testing.T) {
	h := NewHistogram(LatencyBounds())
	h.Observe(300)
	cur := h.Snapshot()

	d := cur.Sub(HistogramSnapshot{})
	if d.Count != cur.Count || d.Sum != cur.Sum {
		t.Fatalf("Sub(zero) = %+v, want the current snapshot", d)
	}
	// And the fully-zero case stays zero on both sides.
	z := HistogramSnapshot{}.Sub(HistogramSnapshot{})
	if z.Count != 0 || z.Counts != nil {
		t.Fatalf("zero.Sub(zero) = %+v, want zero", z)
	}
	// Mismatched bounds (a recomposed registry with different buckets):
	// the current snapshot wins whole.
	other := NewHistogram([]int64{1, 2}).Snapshot()
	if d := cur.Sub(other); d.Count != cur.Count {
		t.Fatalf("Sub(mismatched bounds) count = %d, want %d", d.Count, cur.Count)
	}
}

func TestSnapshotSubCountersAndGauges(t *testing.T) {
	r := New()
	r.SetPolicy("LRU")
	r.Set(BufferShards, 4)
	r.Add(BufferHits, 1)
	r.Add(BufferMisses, 1)
	r.Add(TxnBegins, 1)
	r.Add(TxnCommits, 1)
	r.Max(BTreeHeight, 2)
	prev := r.Snapshot()

	r.Add(BufferHits, 1)
	r.Add(BufferHits, 1)
	r.Add(TxnBegins, 1)
	r.Add(TxnCommits, 1)
	r.Add(TxnCommits, 1)
	r.Max(BTreeHeight, 3)
	d := r.Snapshot().Sub(prev)

	if d.Buffer.Hits != 2 || d.Buffer.Misses != 0 {
		t.Errorf("buffer delta = %+v, want 2 hits, 0 misses", d.Buffer)
	}
	if d.Txn.Begins != 1 || d.Txn.Commits != 2 {
		t.Errorf("txn delta = %+v, want 1 begin, 2 commits", d.Txn)
	}
	// Gauges carry the current value, not a difference.
	if d.Buffer.Policy != "LRU" || d.Buffer.Shards != 4 {
		t.Errorf("buffer gauges = %q/%d, want LRU/4", d.Buffer.Policy, d.Buffer.Shards)
	}
	if d.BTree.Height != 3 {
		t.Errorf("height gauge = %d, want current value 3", d.BTree.Height)
	}
}

// TestSnapshotSubUnderflowGuard: a counter moving backwards (registry
// restarted between samples) must report the current value, never a
// negative delta.
func TestSnapshotSubUnderflowGuard(t *testing.T) {
	prev := Snapshot{}
	prev.Pager.Reads = 1000
	prev.Trace.DroppedSpans = 50

	var cur Snapshot
	cur.Pager.Reads = 7 // fresh registry: restarted below prev
	cur.Trace.DroppedSpans = 3

	d := cur.Sub(prev)
	if d.Pager.Reads != 7 {
		t.Errorf("underflowed pager reads delta = %d, want 7", d.Pager.Reads)
	}
	if d.Trace.DroppedSpans != 3 {
		t.Errorf("underflowed dropped-spans delta = %d, want 3", d.Trace.DroppedSpans)
	}
	if sub := subCounter(10, 4); sub != 6 {
		t.Errorf("subCounter(10,4) = %d, want 6", sub)
	}
}

// TestSnapshotSubZeroBaseline: differencing against the zero snapshot
// is the identity on counters and histograms — the Monitor feature's
// "window since composition" case.
func TestSnapshotSubZeroBaseline(t *testing.T) {
	r := New()
	start := r.Start()
	time.Sleep(time.Microsecond)
	r.Done(AccessGetLatency, start)
	r.Add(SQLSelects, 1)
	cur := r.Snapshot()

	d := cur.Sub(Snapshot{})
	if d.SQL.Selects != cur.SQL.Selects {
		t.Errorf("selects = %d, want %d", d.SQL.Selects, cur.SQL.Selects)
	}
	if d.Access.GetLatency.Count != cur.Access.GetLatency.Count {
		t.Errorf("get latency count = %d, want %d",
			d.Access.GetLatency.Count, cur.Access.GetLatency.Count)
	}
}
