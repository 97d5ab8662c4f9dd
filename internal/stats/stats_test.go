package stats

import (
	"strings"
	"testing"
)

func TestLatencyBounds(t *testing.T) {
	b := LatencyBounds()
	if len(b) != 15 {
		t.Fatalf("len = %d, want 15", len(b))
	}
	if b[0] != 250 {
		t.Fatalf("first bound = %d, want 250", b[0])
	}
	for i := 1; i < len(b); i++ {
		if b[i] != 2*b[i-1] {
			t.Fatalf("bound %d = %d, want double of %d", i, b[i], b[i-1])
		}
	}
}

// TestHistogramBucketBoundaries pins down the "le" semantics: a value
// equal to a bucket's upper bound lands in that bucket, one above lands
// in the next, and values beyond the last bound land in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]int64{10, 20, 40})
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0},  // below everything
		{1, 0},  // inside first
		{10, 0}, // exactly on bound: le semantics, same bucket
		{11, 1}, // one above: next bucket
		{20, 1},
		{21, 2},
		{40, 2},
		{41, 3},   // above last bound: +Inf
		{9999, 3}, // way above: +Inf
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	s := h.Snapshot()
	want := make([]int64, 4)
	for _, c := range cases {
		want[c.bucket]++
	}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d count = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != int64(len(cases)) {
		t.Errorf("Count = %d, want %d", s.Count, len(cases))
	}
	var sum int64
	for _, c := range cases {
		sum += c.v
	}
	if s.Sum != sum {
		t.Errorf("Sum = %d, want %d", s.Sum, sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	// 10 observations of 5 (bucket le=10), 10 of 15 (bucket le=20):
	// p50 sits exactly at the end of the first bucket, p99 near the top
	// of the second.
	h := NewHistogram([]int64{10, 20})
	for i := 0; i < 10; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 10 {
		t.Errorf("p50 = %v, want 10 (end of first bucket)", got)
	}
	// rank 0.99*20 = 19.8 → 9.8/10 through the (10,20] bucket.
	if got := s.Quantile(0.99); got != 19.8 {
		t.Errorf("p99 = %v, want 19.8", got)
	}
	if got := s.Mean(); got != 10 {
		t.Errorf("mean = %v, want 10", got)
	}
}

func TestHistogramQuantileEdge(t *testing.T) {
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	// All mass in +Inf reports the last finite bound.
	h := NewHistogram([]int64{10, 20})
	h.Observe(1000)
	if got := h.Snapshot().Quantile(0.5); got != 20 {
		t.Errorf("+Inf quantile = %v, want last bound 20", got)
	}
}

// recordAll calls every recording entry point of a Registry once.
func recordAll(r *Registry) {
	r.Add(BufferHits, 1)
	r.Set(BufferShards, 4)
	r.Max(BTreeHeight, 5)
	r.Observe(TxnCommitBatch, 4)
	r.Done(AccessGetLatency, r.Start())
	r.SetPolicy("LRU")
	r.Degrade("device gone")
	r.SetQueryStats(r.Query())
}

// TestNilSafety exercises every recording method through a nil
// registry — the deselected-Statistics configuration — and checks none
// allocates.
func TestNilSafety(t *testing.T) {
	var r *Registry
	allocs := testing.AllocsPerRun(100, func() {
		recordAll(r)
		var h *Histogram
		h.Observe(42)
	})
	if allocs != 0 {
		t.Errorf("nil-receiver recording allocated %v times per run, want 0", allocs)
	}
	snap := r.Snapshot()
	if snap.Buffer.Hits != 0 || snap.Access.GetLatency.Count != 0 || r.Query() != nil {
		t.Error("nil registry snapshot must be zero")
	}
}

func TestEnabledRecordingAllocates(t *testing.T) {
	r := New()
	allocs := testing.AllocsPerRun(100, func() { recordAll(r) })
	if allocs != 0 {
		t.Errorf("enabled recording allocated %v times per run, want 0 (atomics only)", allocs)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := New()
	r.SetPolicy("LFU")
	r.Add(BufferHits, 3)
	r.Add(BufferMisses, 1)
	r.Add(BufferEvictions, 1)
	r.Add(BTreeLeafSplits, 1)
	r.Max(BTreeHeight, 2)
	r.Max(BTreeHeight, 3)
	r.Max(BTreeHeight, 1) // gauge keeps the max
	r.Add(TxnBegins, 1)
	r.Add(TxnCommits, 1)
	r.Add(TxnWalAppends, 1)
	r.Add(TxnWalSyncs, 1)
	r.Observe(TxnCommitBatch, 4)
	r.Add(SQLInserts, 1)
	r.Add(SQLSelects, 2)
	r.Add(SQLIndexScans, 1)
	r.Add(SQLFullScans, 1)
	r.Set(ReplConnected, 2)
	r.Set(ReplConnected, 1) // gauge keeps the last value
	r.Degrade("first")
	r.Degrade("second") // the first reason wins

	s := r.Snapshot()
	if s.Buffer.Policy != "LFU" {
		t.Errorf("policy = %q, want LFU", s.Buffer.Policy)
	}
	if s.Buffer.Hits != 3 || s.Buffer.Misses != 1 || s.Buffer.Evictions != 1 {
		t.Errorf("buffer counters = %+v", s.Buffer)
	}
	if s.BTree.LeafSplits != 1 || s.BTree.Height != 3 {
		t.Errorf("btree counters = %+v", s.BTree)
	}
	if s.Txn.Begins != 1 || s.Txn.Commits != 1 || s.Txn.WalAppends != 1 || s.Txn.WalSyncs != 1 {
		t.Errorf("txn counters = %+v", s.Txn)
	}
	if s.Txn.CommitBatch.Count != 1 || s.Txn.CommitBatch.Sum != 4 {
		t.Errorf("commit batch = %+v", s.Txn.CommitBatch)
	}
	if s.SQL.Inserts != 1 || s.SQL.Selects != 2 || s.SQL.IndexScans != 1 || s.SQL.FullScans != 1 {
		t.Errorf("sql counters = %+v", s.SQL)
	}
	if s.Repl.Connected != 1 {
		t.Errorf("replicas connected = %d, want 1", s.Repl.Connected)
	}
	if !s.Fault.Degraded || s.Fault.DegradedReason != "first" {
		t.Errorf("degraded = %v %q, want true \"first\"", s.Fault.Degraded, s.Fault.DegradedReason)
	}
}

// TestHistogramRowsUseTheirBounds: the commit-batch histogram counts
// commits per sync, every other histogram nanoseconds.
func TestHistogramRowsUseTheirBounds(t *testing.T) {
	s := New().Snapshot()
	if got := s.Txn.CommitBatch.Bounds; len(got) != len(BatchBounds()) || got[0] != 1 {
		t.Errorf("commit batch bounds = %v, want BatchBounds", got)
	}
	if got := s.Access.PutLatency.Bounds; len(got) != len(LatencyBounds()) || got[0] != 250 {
		t.Errorf("put latency bounds = %v, want LatencyBounds", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New()
	r.SetPolicy("LRU")
	r.Add(BufferHits, 2)
	r.Observe(AccessGetLatency, 100)
	r.Observe(AccessGetLatency, 300)

	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE famedb_buffer_hits_total counter",
		`famedb_buffer_hits_total{policy="LRU"} 2`,
		"# TYPE famedb_access_get_latency_ns histogram",
		`famedb_access_get_latency_ns_bucket{le="250"} 1`,
		// Buckets are cumulative: the 500ns bucket includes the 250ns one.
		`famedb_access_get_latency_ns_bucket{le="500"} 2`,
		`famedb_access_get_latency_ns_bucket{le="+Inf"} 2`,
		"famedb_access_get_latency_ns_sum 400",
		"famedb_access_get_latency_ns_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	r := New()
	r.Add(PagerAllocs, 1)
	var b strings.Builder
	if err := r.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"allocs": 1`) {
		t.Errorf("JSON output missing pager allocs: %s", b.String())
	}
}
