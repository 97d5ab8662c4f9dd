package composer

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"famedb/internal/access"
	"famedb/internal/osal"
	"famedb/internal/trace"
)

func TestTraceNotComposedErrors(t *testing.T) {
	inst, err := ComposeProduct(Options{}, "Linux", "BPlusTree", "Put", "Get")
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if inst.Tracer() != nil {
		t.Fatal("product without Tracing has a tracer")
	}
	if _, err := inst.Trace(); !errors.Is(err, access.ErrNotComposed) {
		t.Fatalf("Trace() = %v, want ErrNotComposed", err)
	}
	if err := inst.SetTracing(true); !errors.Is(err, access.ErrNotComposed) {
		t.Fatalf("SetTracing() = %v, want ErrNotComposed", err)
	}
}

// TestTracePutDecomposesAcrossLayers is the acceptance scenario: with a
// cache too small to hold the working set, one put's span tree reaches
// from the access layer down to the pager.
func TestTracePutDecomposesAcrossLayers(t *testing.T) {
	inst, err := ComposeProduct(Options{CachePages: 2},
		"Linux", "BPlusTree", "BufferManager", "LRU", "DynamicAlloc",
		"Put", "Get", "Tracing")
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	// Grow the tree past the cache so later puts fault pages back in.
	value := make([]byte, 256)
	for i := 0; i < 64; i++ {
		if err := inst.Store.Put([]byte(fmt.Sprintf("warm%04d", i)), value); err != nil {
			t.Fatal(err)
		}
	}
	// The measured put: a fresh tree in the snapshot.
	if err := inst.Store.Put([]byte("probe"), value); err != nil {
		t.Fatal(err)
	}

	snap, err := inst.Trace()
	if err != nil {
		t.Fatal(err)
	}
	trees := snap.Trees()
	var probe *trace.Tree
	for i := range trees {
		if trees[i].Root.Layer == trace.LayerAccess && trees[i].Root.Op == "put" {
			probe = &trees[i] // keep the newest access.put tree
		}
	}
	if probe == nil {
		t.Fatal("no access.put root span recorded")
	}
	layers := map[string]bool{probe.Root.Layer: true}
	for _, r := range probe.Spans {
		if r.Root != probe.Root.ID {
			t.Fatalf("span %d grouped under root %d, want %d", r.ID, r.Root, probe.Root.ID)
		}
		layers[r.Layer] = true
	}
	for _, want := range []string{trace.LayerAccess, trace.LayerBTree, trace.LayerBuffer, trace.LayerPager} {
		if !layers[want] {
			t.Fatalf("put tree misses layer %q; got %v (%d spans)", want, layers, len(probe.Spans))
		}
	}
	if len(layers) < 4 {
		t.Fatalf("put decomposed into %d layers, want >= 4", len(layers))
	}
}

func TestTraceStatsBridge(t *testing.T) {
	inst, err := ComposeProduct(Options{},
		"Linux", "BPlusTree", "Put", "Get", "Statistics", "Tracing")
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	// Put until the ring has wrapped.
	for i := 0; i < 1<<16; i++ {
		if err := inst.Store.Put([]byte(fmt.Sprintf("k%06d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if capacity, _, recorded, _, _, _ := inst.Tracer().RingStats(); recorded > uint64(capacity) {
			break
		}
	}
	snap, err := inst.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Trace.RingCapacity != trace.Capacity {
		t.Fatalf("ring capacity gauge = %d, want %d", snap.Trace.RingCapacity, trace.Capacity)
	}
	if snap.Trace.RingOccupancy != trace.Capacity || snap.Trace.DroppedSpans == 0 {
		t.Fatalf("occupancy=%d dropped=%d, want full ring with drops",
			snap.Trace.RingOccupancy, snap.Trace.DroppedSpans)
	}
	// The bridge also stamps histogram buckets onto recorded spans.
	tsnap, err := inst.Trace()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tsnap.Spans {
		if r.Bucket < 0 {
			t.Fatalf("span %d bucket = %d, want bridged bucket >= 0", r.ID, r.Bucket)
		}
	}
}

// TestTraceRaceStress drives 16 committers through the sharded buffer
// and the group-commit pipeline with tracing on (run under -race in
// CI): every commit span must carry its own transaction's ID, follower
// handoffs must name a real leader, and the ring must have evicted
// strictly oldest-first.
func TestTraceRaceStress(t *testing.T) {
	// The default ring holds the whole commit phase (about seven spans a
	// commit), so follower spans cannot be evicted before the attribution
	// checks; a later get phase overflows it for the eviction check. Syncs are slowed so the leader's fsync
	// opens a batching window — on an instant MemFS every commit drains
	// alone and no follower handoffs would form.
	fs := osal.NewDelayFS(osal.NewMemFS(), 0, 200*time.Microsecond)
	inst, err := ComposeProduct(Options{FS: fs, GroupCommitBatch: 8},
		"Linux", "BPlusTree", "BufferManager", "LRU", "DynamicAlloc",
		"ShardedBuffer", "Put", "Get", "Transaction", "GroupCommit",
		"Locking", "Statistics", "Tracing")
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	const workers = 16
	const txPerWorker = 20
	var mu sync.Mutex
	committed := map[uint64]bool{} // every txn ID any worker committed
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txPerWorker; i++ {
				tx := inst.Txn.Begin()
				id := tx.ID()
				key := fmt.Sprintf("w%02d-k%04d", w, i)
				if err := tx.Put([]byte(key), []byte("v")); err != nil {
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
				mu.Lock()
				committed[id] = true
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := inst.Txn.Flush(); err != nil {
		t.Fatal(err)
	}

	snap, err := inst.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Dropped != 0 {
		t.Fatalf("commit phase overflowed the %d-span ring by %d spans; the attribution checks need it whole",
			snap.Capacity, snap.Dropped)
	}
	byID := map[uint64]trace.SpanRecord{}
	for _, r := range snap.Spans {
		byID[r.ID] = r
	}
	// ownCommit asserts r hangs directly under the txn.commit root of
	// transaction txn: a follower waits under its own commit, a leader
	// drains — whoever's writes the batch carries — under the leader's.
	ownCommit := func(r trace.SpanRecord, txn uint64) {
		t.Helper()
		p, ok := byID[r.Parent]
		if !ok || p.Layer != trace.LayerTxn || p.Op != "commit" || p.Parent != 0 || p.Txn != txn {
			t.Fatalf("txn.%s span %d (txn %d) hangs under %s.%s span %d of txn %d, want txn %d's own commit root",
				r.Op, r.ID, r.Txn, p.Layer, p.Op, p.ID, p.Txn, txn)
		}
		if r.Root != p.ID {
			t.Fatalf("txn.%s span %d names root %d, want its commit %d", r.Op, r.ID, r.Root, p.ID)
		}
	}
	drained := map[uint64]bool{} // leader txn -> it drained at least one batch
	var commitSpans, followerSpans int
	for _, r := range snap.Spans {
		if r.Layer != trace.LayerTxn {
			continue
		}
		switch r.Op {
		case "commit":
			commitSpans++
			if !committed[r.Txn] {
				t.Fatalf("commit span names txn %d, which no worker committed", r.Txn)
			}
			if r.Parent != 0 {
				t.Fatalf("commit span %d of txn %d has parent %d, want a root", r.ID, r.Txn, r.Parent)
			}
		case "follower-wait":
			followerSpans++
			if !committed[r.Txn] {
				t.Fatalf("follower span names txn %d, which no worker committed", r.Txn)
			}
			if r.Batch < 1 || !committed[r.Leader] {
				t.Fatalf("follower handoff batch=%d leader=%d invalid", r.Batch, r.Leader)
			}
			if r.Leader == r.Txn {
				t.Fatalf("follower span %d claims to be its own leader", r.ID)
			}
			ownCommit(r, r.Txn)
		case "drain":
			if r.Batch < 1 {
				t.Fatalf("drain span batch = %d", r.Batch)
			}
			if r.Leader != r.Txn {
				t.Fatalf("drain span %d: txn %d, leader %d; a drain is its leader's", r.ID, r.Txn, r.Leader)
			}
			ownCommit(r, r.Leader)
			drained[r.Leader] = true
		}
	}
	for _, r := range snap.Spans {
		if r.Layer == trace.LayerTxn && r.Op == "follower-wait" && !drained[r.Leader] {
			t.Fatalf("follower of txn %d names leader %d, which drained no batch", r.Txn, r.Leader)
		}
		// The log and the index are written by the leader, inside its
		// drain: nothing below a commit may hang off a follower's tree.
		// (The closing Flush syncs the log outside any commit: a root.)
		if (r.Layer == trace.LayerWAL || r.Layer == trace.LayerBTree) && r.Parent != 0 {
			if p := byID[r.Parent]; p.Layer != trace.LayerTxn || p.Op != "drain" {
				t.Fatalf("%s.%s span %d hangs under %s.%s, want a drain", r.Layer, r.Op, r.ID, p.Layer, p.Op)
			}
		}
	}
	if commitSpans == 0 {
		t.Fatal("no commit spans survived in the ring")
	}
	if followerSpans == 0 {
		t.Fatal("no follower-wait spans recorded despite 16 concurrent committers")
	}

	// Phase 2: concurrent reads until the ring has wrapped, then check
	// eviction was strictly oldest-first — the surviving seqs are the
	// newest `capacity` tickets, ascending and contiguous.
	for {
		capacity, _, recorded, _, _, _ := inst.Tracer().RingStats()
		if recorded > uint64(capacity) {
			break
		}
		var rwg sync.WaitGroup
		for w := 0; w < workers; w++ {
			rwg.Add(1)
			go func(w int) {
				defer rwg.Done()
				for i := 0; i < 100; i++ {
					key := fmt.Sprintf("w%02d-k%04d", w, i%txPerWorker)
					if _, err := inst.Store.Get([]byte(key)); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		rwg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}
	snap, err = inst.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Spans) != snap.Capacity {
		t.Fatalf("snapshot holds %d spans, want full ring of %d", len(snap.Spans), snap.Capacity)
	}
	first := snap.Recorded - uint64(snap.Capacity)
	for i, r := range snap.Spans {
		if want := first + uint64(i); r.Seq != want {
			t.Fatalf("spans[%d].Seq = %d, want %d (oldest-first eviction violated)", i, r.Seq, want)
		}
	}
}

// TestTraceConcurrentOpsKeepTheirOwnTrees is the explicit-parenting
// contract under concurrency (run under -race in CI): eight goroutines
// commit at once, then read at once, and no span may land in another
// operation's tree — every access.get tree has exactly the shape
// access.get → btree.get → one buffer.read per tree level, and every
// commit's tree holds only its own transaction.
func TestTraceConcurrentOpsKeepTheirOwnTrees(t *testing.T) {
	inst, err := ComposeProduct(Options{CachePages: 4096, GroupCommitBatch: 4},
		"Linux", "BPlusTree", "BufferManager", "LRU", "DynamicAlloc",
		"ShardedBuffer", "Put", "Get", "Transaction", "GroupCommit",
		"Locking", "Statistics", "Tracing")
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	const workers, perWorker = 8, 60
	key := func(w, i int) []byte { return []byte(fmt.Sprintf("w%d-k%04d", w, i)) }
	each := func(fn func(w int) error) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if err := fn(w); err != nil {
					errs <- err
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	// phase runs one phase and checks the span trees it recorded,
	// returning how many access.get trees it holds.
	phase := func(run func()) (gets int) {
		t.Helper()
		start := inst.Tracer().Snapshot().Recorded
		run()
		snap, err := inst.Trace()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Recorded-start > uint64(snap.Capacity) {
			t.Fatalf("phase recorded %d spans into a %d-span ring; the test needs every tree whole",
				snap.Recorded-start, snap.Capacity)
		}
		kept := snap.Spans[:0]
		for _, r := range snap.Spans {
			if r.Seq >= start {
				kept = append(kept, r)
			}
		}
		snap.Spans = kept
		byID := map[uint64]trace.SpanRecord{}
		for _, r := range snap.Spans {
			byID[r.ID] = r
		}
		for _, r := range snap.Spans {
			if r.Dur < 0 {
				t.Fatalf("span %d: Dur = %d", r.ID, r.Dur)
			}
			// Root is the top of the span's own parent chain.
			top := r
			for top.Parent != 0 {
				p, ok := byID[top.Parent]
				if !ok {
					t.Fatalf("span %d: parent %d was never recorded", top.ID, top.Parent)
				}
				top = p
			}
			if r.Root != top.ID {
				t.Fatalf("%s.%s span %d names root %d, its parent chain ends at %d", r.Layer, r.Op, r.ID, r.Root, top.ID)
			}
		}
		for _, tree := range snap.Trees() {
			switch {
			case tree.Root.Layer == trace.LayerAccess && tree.Root.Op == "get":
				gets++
				// access.get → btree.get → buffer.read per level; the cache
				// holds the whole tree, so a miss adds at most a pager.read
				// under its buffer.read.
				var btreeGet trace.SpanRecord
				reads := 0
				for _, r := range tree.Spans {
					p := byID[r.Parent]
					switch {
					case r.Layer == trace.LayerBTree && r.Op == "get" && r.Parent == tree.Root.ID && btreeGet.ID == 0:
						btreeGet = r
					case r.Layer == trace.LayerBuffer && r.Op == "read" && p.Layer == trace.LayerBTree:
						reads++
					case r.Layer == trace.LayerPager && r.Op == "read" && p.Layer == trace.LayerBuffer:
					default:
						t.Fatalf("access.get tree %d holds a stray %s.%s span %d under %s.%s",
							tree.Root.ID, r.Layer, r.Op, r.ID, p.Layer, p.Op)
					}
				}
				if btreeGet.ID == 0 || reads < 1 || reads > 4 {
					t.Fatalf("access.get tree %d: btree.get=%d, %d buffer reads; want one descent of 1-4 levels",
						tree.Root.ID, btreeGet.ID, reads)
				}
			case tree.Root.Layer == trace.LayerTxn && tree.Root.Op == "commit":
				for _, r := range tree.Spans {
					if r.Layer == trace.LayerTxn && r.Txn != tree.Root.Txn {
						t.Fatalf("commit tree of txn %d holds txn.%s span %d of txn %d",
							tree.Root.Txn, r.Op, r.ID, r.Txn)
					}
				}
			}
		}
		return gets
	}
	// The tree is not safe for unsynchronized readers next to a
	// committing leader, so puts and gets alternate in rounds; within a
	// round all eight goroutines run the same kind of op concurrently.
	// The ring is read after every phase, and only that phase's spans
	// are checked: each phase fits in the default ring whole.
	gets := 0
	for round := 0; round < 3; round++ {
		lo, hi := round*perWorker/3, (round+1)*perWorker/3
		phase(func() {
			each(func(w int) error {
				for i := lo; i < hi; i++ {
					tx := inst.Txn.Begin()
					if err := tx.Put(key(w, i), []byte("v")); err != nil {
						return err
					}
					if err := tx.Commit(); err != nil {
						return err
					}
				}
				return nil
			})
		})
		gets += phase(func() {
			each(func(w int) error {
				for i := 0; i < hi; i++ {
					if _, err := inst.Store.Get(key(w, i)); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
	want := 0
	for round := 1; round <= 3; round++ {
		want += workers * (round * perWorker / 3)
	}
	if gets != want {
		t.Fatalf("%d access.get trees, want %d", gets, want)
	}
}

// TestTraceFirstStatementAfterReopenIsOneTree pins the SQL layer's span
// parenting on the one path that used to escape it: the first statement
// on a reopened product faults the table in from the catalog, and that
// read must land under the statement, not as a root of its own. A
// product that keeps plans (CompiledQueries) records the plan-cache
// miss's compile as a second sql root; below the sql layer nothing may
// be parentless on either product.
func TestTraceFirstStatementAfterReopenIsOneTree(t *testing.T) {
	base := []string{"Linux", "BPlusTree", "BufferManager", "LRU", "DynamicAlloc",
		"Put", "Get", "SQLEngine", "Optimizer", "Tracing"}
	for _, tc := range []struct {
		name      string
		features  []string
		wantRoots int
	}{
		{"SQLEngine", base, 1},
		{"CompiledQueries", append(append([]string(nil), base...), "CompiledQueries"), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := osal.NewMemFS()
			inst, err := ComposeProduct(Options{FS: fs}, tc.features...)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []string{
				"CREATE TABLE t (id INT PRIMARY KEY, v TEXT)",
				"INSERT INTO t VALUES (1, 'one'), (2, 'two')",
			} {
				if _, err := inst.SQL.Exec(q); err != nil {
					t.Fatal(err)
				}
			}
			if err := inst.Close(); err != nil {
				t.Fatal(err)
			}

			inst, err = ComposeProduct(Options{FS: fs}, tc.features...)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.Close()
			before, err := inst.Trace()
			if err != nil {
				t.Fatal(err)
			}
			var opened uint64 // spans of the reopen itself are not the statement's
			for _, r := range before.Spans {
				if r.Seq > opened {
					opened = r.Seq
				}
			}
			r, err := inst.SQL.Exec("SELECT v FROM t WHERE id = 2")
			if err != nil || len(r.Rows) != 1 || r.Rows[0][0].Str != "two" {
				t.Fatalf("SELECT after reopen = %v, %v", r, err)
			}
			snap, err := inst.Trace()
			if err != nil {
				t.Fatal(err)
			}
			roots, lower := 0, 0
			for _, r := range snap.Spans {
				if r.Seq <= opened {
					continue
				}
				if r.Layer != trace.LayerSQL {
					lower++
				}
				if r.Parent != 0 {
					continue
				}
				roots++
				if r.Layer != trace.LayerSQL {
					t.Errorf("parentless %s.%s span %d: every span of a statement belongs under its sql root",
						r.Layer, r.Op, r.ID)
				}
			}
			if roots != tc.wantRoots {
				t.Errorf("statement recorded %d root spans, want %d", roots, tc.wantRoots)
			}
			if lower == 0 {
				t.Error("statement recorded no spans below the sql layer; the catalog read is missing")
			}
		})
	}
}
