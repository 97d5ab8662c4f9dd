package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsFreeAndAllocationFree(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start(nil, LayerAccess, "get")
		sp.Page(7)
		sp.Txn(9)
		sp.Handoff(3, 1)
		sp.Fail(nil)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer span path allocates %.1f per op, want 0", allocs)
	}
	if snap := tr.Snapshot(); snap.Capacity != 0 || len(snap.Spans) != 0 {
		t.Fatalf("nil tracer snapshot not empty: %+v", snap)
	}
}

func TestDisabledTracerRecordsNothing(t *testing.T) {
	tr := New()
	tr.SetEnabled(false)
	if tr.Enabled() {
		t.Fatal("disabled tracer reports enabled")
	}
	sp := tr.Start(nil, LayerAccess, "get")
	if sp != nil {
		t.Fatal("disabled tracer handed out a span")
	}
	sp.End()
	tr.SetEnabled(true)
	if sp := tr.Start(nil, LayerAccess, "get"); sp == nil {
		t.Fatal("re-enabled tracer returned nil span")
	} else {
		sp.End()
	}
	if _, occ, _, _, _, _ := tr.RingStats(); occ != 1 {
		t.Fatalf("occupancy = %d, want 1", occ)
	}
}

func TestSpanParentingFollowsTheExplicitParent(t *testing.T) {
	tr := New()
	root := tr.Start(nil, LayerSQL, "insert")
	child := tr.Start(root, LayerAccess, "put")
	grand := tr.Start(child, LayerBTree, "insert")
	grand.End()
	child.End()
	// A sibling started from the root after the first child ended
	// parents to the root, not the finished sibling.
	sib := tr.Start(root, LayerBuffer, "write")
	sib.End()
	root.End()

	snap := tr.Snapshot()
	byLayer := map[string]SpanRecord{}
	for _, r := range snap.Spans {
		byLayer[r.Layer] = r
	}
	rt := byLayer[LayerSQL]
	if rt.Parent != 0 || rt.Root != rt.ID {
		t.Fatalf("root: parent=%d root=%d id=%d", rt.Parent, rt.Root, rt.ID)
	}
	if c := byLayer[LayerAccess]; c.Parent != rt.ID || c.Root != rt.ID {
		t.Fatalf("child: parent=%d root=%d, want both %d", c.Parent, c.Root, rt.ID)
	}
	if g := byLayer[LayerBTree]; g.Parent != byLayer[LayerAccess].ID || g.Root != rt.ID {
		t.Fatalf("grandchild: parent=%d root=%d", g.Parent, g.Root)
	}
	if s := byLayer[LayerBuffer]; s.Parent != rt.ID {
		t.Fatalf("sibling: parent=%d, want root %d", s.Parent, rt.ID)
	}
}

// TestSpansOnDifferentGoroutinesDoNotNest: nothing is inherited from
// the goroutine. Two goroutines' concurrent operations never share a
// root, however their spans interleave — and a child started from an
// explicit parent on another goroutine links to that parent.
func TestSpansOnDifferentGoroutinesDoNotNest(t *testing.T) {
	tr := New()
	const workers, ops = 2, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				root := tr.Start(nil, LayerSQL, "select")
				root.Txn(uint64(w + 1)) // tags the tree with its worker
				kid := tr.Start(root, LayerBuffer, "read")
				kid.Txn(uint64(w + 1))
				kid.End()
				root.End()
			}
		}(w)
	}
	wg.Wait()
	snap := tr.Snapshot()
	if len(snap.Spans) != workers*ops*2 {
		t.Fatalf("recorded %d spans, want %d", len(snap.Spans), workers*ops*2)
	}
	owner := map[uint64]uint64{} // root id -> worker
	for _, r := range snap.Spans {
		if r.ID == r.Root {
			owner[r.ID] = r.Txn
		}
	}
	if len(owner) != workers*ops {
		t.Fatalf("%d roots, want one per operation (%d)", len(owner), workers*ops)
	}
	for _, r := range snap.Spans {
		if owner[r.Root] != r.Txn {
			t.Fatalf("span %d of worker %d grouped under worker %d's root %d", r.ID, r.Txn, owner[r.Root], r.Root)
		}
	}

	tr = New()
	tr.slow.threshold = 1
	root := tr.Start(nil, LayerSQL, "select")
	rootID := root.ID()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.Start(root, LayerBuffer, "read")
			sp.End()
		}()
	}
	wg.Wait()
	root.End()
	snap = tr.Snapshot()
	for _, r := range snap.Spans {
		if r.Layer == LayerBuffer && (r.Parent != rootID || r.Root != rootID) {
			t.Fatalf("handed-over child: parent=%d root=%d, want both %d", r.Parent, r.Root, rootID)
		}
	}
	if len(snap.Slow) != 1 || len(snap.Slow[0].Spans) != 4 {
		t.Fatalf("slow tree kept %+v, want the root with its 4 handed-over children", snap.Slow)
	}
}

// TestSpanPathDoesNotAllocate pins the hot path's cost contract: root,
// child and End allocate nothing on an enabled tracer, a disabled one,
// and a nil one.
func TestSpanPathDoesNotAllocate(t *testing.T) {
	var nilTracer *Tracer
	disabled := New()
	disabled.SetEnabled(false)
	for name, tr := range map[string]*Tracer{
		"enabled":  New(),
		"disabled": disabled,
		"nil":      nilTracer,
	} {
		allocs := testing.AllocsPerRun(1000, func() {
			sp := tr.Start(nil, LayerAccess, "get")
			c := tr.Start(sp, LayerBTree, "get")
			c.Page(3)
			c.End()
			sp.End()
		})
		if allocs != 0 {
			t.Errorf("%s tracer: span path allocates %.1f per op, want 0", name, allocs)
		}
	}
}

// TestDurationsAreMonotonic: Dur comes off the monotonic clock, so it
// is never negative under concurrent load, and Start still exports as a
// wall timestamp.
func TestDurationsAreMonotonic(t *testing.T) {
	tr := New()
	tr.ring = newRing(1<<15, ringStripes)
	before := time.Now().UnixNano()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				sp := tr.Start(nil, LayerAccess, "get")
				c := tr.Start(sp, LayerBTree, "get")
				c.End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	after := time.Now().UnixNano()
	byID := map[uint64]SpanRecord{}
	spans := tr.Snapshot().Spans
	for _, r := range spans {
		byID[r.ID] = r
	}
	// The wall clock may be stepped between the tracer's anchor and
	// now; a minute of slack still tells a UnixNano from a bare offset.
	const slack = int64(time.Minute)
	for _, r := range spans {
		if r.Dur < 0 {
			t.Fatalf("span %d: Dur = %d", r.ID, r.Dur)
		}
		if r.Start < before-slack || r.Start > after+slack {
			t.Fatalf("span %d: Start %d is not a wall timestamp in [%d, %d]", r.ID, r.Start, before, after)
		}
		if p, ok := byID[r.Parent]; ok && (r.Start < p.Start || r.Start+r.Dur > p.Start+p.Dur) {
			t.Fatalf("child %d [%d+%d] outside parent %d [%d+%d]", r.ID, r.Start, r.Dur, p.ID, p.Start, p.Dur)
		}
	}
}

func TestRingEvictsStrictlyOldestFirst(t *testing.T) {
	tr := New()
	tr.ring = newRing(64, 4)
	const total = 200
	for i := 0; i < total; i++ {
		tr.Start(nil, LayerPager, "write").End()
	}
	capacity, occ, recorded, dropped, _, _ := tr.RingStats()
	if capacity != 64 || occ != 64 {
		t.Fatalf("capacity=%d occupancy=%d, want 64/64", capacity, occ)
	}
	if recorded != total || dropped != total-64 {
		t.Fatalf("recorded=%d dropped=%d, want %d/%d", recorded, dropped, total, total-64)
	}
	snap := tr.Snapshot()
	if len(snap.Spans) != 64 {
		t.Fatalf("snapshot holds %d spans, want 64", len(snap.Spans))
	}
	// Survivors are exactly the newest 64 seqs, ascending and
	// contiguous: eviction is strictly oldest-first.
	for i, r := range snap.Spans {
		want := uint64(total - 64 + i)
		if r.Seq != want {
			t.Fatalf("spans[%d].Seq = %d, want %d", i, r.Seq, want)
		}
	}
}

func TestSlowLogKeepsWorstTrees(t *testing.T) {
	tr := New()
	tr.slow.threshold, tr.slow.max = 1, 2
	durs := []time.Duration{3 * time.Millisecond, time.Millisecond, 5 * time.Millisecond}
	for _, d := range durs {
		sp := tr.Start(nil, LayerSQL, "insert")
		kid := tr.Start(sp, LayerAccess, "put")
		kid.End()
		sp.rec.Start -= d.Nanoseconds() // backdate instead of sleeping
		sp.End()
	}
	snap := tr.Snapshot()
	if len(snap.Slow) != 2 {
		t.Fatalf("slow log holds %d trees, want 2", len(snap.Slow))
	}
	if snap.Slow[0].Root.Dur < snap.Slow[1].Root.Dur {
		t.Fatal("slow log not sorted worst-first")
	}
	if snap.Slow[0].Root.Dur < (5 * time.Millisecond).Nanoseconds() {
		t.Fatalf("worst tree dur = %d, want the 5ms op", snap.Slow[0].Root.Dur)
	}
	if snap.SlowEvicted != 1 {
		t.Fatalf("slow evicted = %d, want 1", snap.SlowEvicted)
	}
	if len(snap.Slow[0].Spans) != 1 || snap.Slow[0].Spans[0].Layer != LayerAccess {
		t.Fatalf("worst tree lost its child spans: %+v", snap.Slow[0].Spans)
	}
}

func TestLatencyBoundsBridgeSetsBucket(t *testing.T) {
	tr := New()
	sp := tr.Start(nil, LayerAccess, "get")
	sp.End()
	if got := tr.Snapshot().Spans[0].Bucket; got != -1 {
		t.Fatalf("bucket without bounds = %d, want -1", got)
	}

	tr = New()
	tr.SetLatencyBounds([]int64{1_000, 1_000_000, 1_000_000_000})
	sp = tr.Start(nil, LayerAccess, "get")
	sp.rec.Start -= (2 * time.Millisecond).Nanoseconds()
	sp.End()
	if got := tr.Snapshot().Spans[0].Bucket; got != 2 {
		t.Fatalf("2ms span bucket = %d, want 2 (le 1s)", got)
	}
	if got := bucketOf([]int64{10, 20}, 30); got != 2 {
		t.Fatalf("overflow bucket = %d, want len(bounds)", got)
	}
}

func TestExporters(t *testing.T) {
	tr := New()
	tr.slow.threshold = 1
	sp := tr.Start(nil, LayerAccess, "put")
	sp.Page(3)
	kid := tr.Start(sp, LayerPager, "write")
	kid.End()
	sp.rec.Start -= time.Millisecond.Nanoseconds()
	sp.End()
	snap := tr.Snapshot()

	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("JSON does not round-trip: %v", err)
	}
	if len(round.Spans) != 2 {
		t.Fatalf("round-tripped %d spans, want 2", len(round.Spans))
	}

	buf.Reset()
	if err := snap.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	if len(chrome.TraceEvents) != 2 {
		t.Fatalf("chrome trace has %d events, want 2", len(chrome.TraceEvents))
	}
	if ph := chrome.TraceEvents[0]["ph"]; ph != "X" {
		t.Fatalf(`chrome event ph = %v, want "X"`, ph)
	}
	// One lane per operation: every event's tid is its root's id.
	for _, ev := range chrome.TraceEvents {
		args := ev["args"].(map[string]any)
		if ev["tid"] != args["root"] {
			t.Fatalf("chrome event %v: tid %v, want its root %v", ev["name"], ev["tid"], args["root"])
		}
	}

	buf.Reset()
	if err := snap.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "access.put") || !strings.Contains(text, "pager.write") {
		t.Fatalf("text export missing spans:\n%s", text)
	}
	// The child renders indented under its parent.
	if !strings.Contains(text, "  pager.write") {
		t.Fatalf("child span not indented:\n%s", text)
	}
	if strings.Contains(text, "goro=") {
		t.Fatalf("text export still names a goroutine:\n%s", text)
	}

	buf.Reset()
	if err := snap.WriteSlow(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "access.put") {
		t.Fatalf("slow export missing the slow root:\n%s", buf.String())
	}
}

func TestTreesRegroupsByRoot(t *testing.T) {
	tr := New()
	a := tr.Start(nil, LayerSQL, "insert")
	tr.Start(a, LayerAccess, "put").End()
	a.End()
	b := tr.Start(nil, LayerSQL, "select")
	b.End()
	trees := tr.Snapshot().Trees()
	if len(trees) != 2 {
		t.Fatalf("got %d trees, want 2", len(trees))
	}
	if len(trees[0].Spans)+len(trees[1].Spans) != 1 {
		t.Fatal("descendant spans misassigned")
	}
}
