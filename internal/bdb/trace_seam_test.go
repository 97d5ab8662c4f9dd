package bdb

import (
	"fmt"
	"testing"
	"time"

	"famedb/internal/access"
	"famedb/internal/buffer"
	"famedb/internal/index"
	"famedb/internal/osal"
	"famedb/internal/storage"
	"famedb/internal/trace"
)

// tracedStack assembles page file → decorate(page file) → two-frame
// buffer pool → B+-tree → store with one tracer on every layer, writes
// enough to fault pages through the decorator, and returns the spans.
func tracedStack(t *testing.T, decorate func(*storage.PageFile) storage.Pager) []trace.SpanRecord {
	t.Helper()
	tr := trace.New()
	f, err := osal.NewMemFS().Create("seam.db")
	if err != nil {
		t.Fatal(err)
	}
	pf, err := storage.CreatePageFile(f, 512)
	if err != nil {
		t.Fatal(err)
	}
	pf.SetTracer(tr)
	under := decorate(pf)
	bm, err := buffer.NewManager(under, 2, buffer.NewLRU(), buffer.NewDynamicAllocator(under.PageSize()))
	if err != nil {
		t.Fatal(err)
	}
	bm.SetTracer(tr)
	bt, _, err := index.CreateBTree(bm, index.AllBTreeOps())
	if err != nil {
		t.Fatal(err)
	}
	bt.Tree().SetTracer(tr)
	store := access.New(bt, access.AllOps())
	store.SetTracer(tr)
	for i := 0; i < 64; i++ {
		if err := store.Put([]byte(fmt.Sprintf("k%04d", i)), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		if _, err := store.Get([]byte(fmt.Sprintf("k%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	snap := tr.Snapshot()
	if snap.Dropped != 0 {
		t.Fatalf("the ring dropped %d of %d spans; the checks need every parent", snap.Dropped, snap.Recorded)
	}
	return snap.Spans
}

// TestSpanSeamThroughPagerDecorators pins the contract of the span
// seam at storage.Pager: the checksum and retry pagers forward the
// caller's span, so page-file I/O stays in the operation's tree; a
// decorator that knows nothing of spans (CryptoPager) still works, and
// the I/O below it surfaces as parentless roots.
func TestSpanSeamThroughPagerDecorators(t *testing.T) {
	pagerSpans := func(spans []trace.SpanRecord) (roots, parented int) {
		byID := map[uint64]trace.SpanRecord{}
		for _, r := range spans {
			byID[r.ID] = r
		}
		for _, r := range spans {
			switch {
			case r.Layer == trace.LayerBuffer:
				// Creating the tree writes its first pages outside any
				// operation; every other access belongs to one.
				if p := byID[r.Parent]; r.Parent != 0 && p.Layer != trace.LayerBTree {
					t.Fatalf("buffer.%s span %d hangs under %q, want the tree operation", r.Op, r.ID, p.Layer)
				}
			case r.Layer != trace.LayerPager:
			case r.Parent == 0:
				if r.Root != r.ID {
					t.Fatalf("parentless pager span %d names root %d", r.ID, r.Root)
				}
				roots++
			default:
				if p := byID[r.Parent]; p.Layer != trace.LayerBuffer || p.Root != r.Root {
					t.Fatalf("pager.%s span %d hangs under %s span %d of root %d", r.Op, r.ID, p.Layer, p.ID, p.Root)
				}
				parented++
			}
		}
		return roots, parented
	}

	roots, parented := pagerSpans(tracedStack(t, func(pf *storage.PageFile) storage.Pager {
		ck, err := storage.NewChecksumPager(pf)
		if err != nil {
			t.Fatal(err)
		}
		return storage.NewRetryPager(ck, storage.RetryPolicy{Attempts: 2, Backoff: time.Microsecond}, nil)
	}))
	if parented == 0 || roots != 0 {
		t.Fatalf("checksum+retry pagers: %d pager spans in their operation's tree, %d parentless; want all forwarded", parented, roots)
	}

	roots, parented = pagerSpans(tracedStack(t, func(pf *storage.PageFile) storage.Pager {
		cp, err := NewCryptoPager(pf, []byte("passphrase"))
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}))
	if roots == 0 || parented != 0 {
		t.Fatalf("crypto pager: %d parentless pager spans, %d parented; want every one a root", roots, parented)
	}
}
