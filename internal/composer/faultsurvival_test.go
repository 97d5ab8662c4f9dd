package composer

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"famedb/internal/access"
	"famedb/internal/osal"
	"famedb/internal/storage"
	"famedb/internal/trace"
)

// checksumFeatures is a persistent Checksums product with a cache, so
// the trailer pager sits under real write-back traffic.
var checksumFeatures = []string{
	"Linux", "BPlusTree", "BTreeUpdate", "BTreeRemove",
	"BufferManager", "LRU", "DynamicAlloc",
	"Put", "Get", "Remove", "Update", "Checksums",
}

func TestComposeChecksumsRoundTrip(t *testing.T) {
	fs := osal.NewMemFS()
	inst, err := ComposeProduct(Options{FS: fs}, checksumFeatures...)
	if err != nil {
		t.Fatal(err)
	}
	// The trailer steals 4 bytes from every page.
	if got, want := inst.pager.PageSize(), inst.Platform.PageSize-storage.ChecksumSize; got != want {
		t.Fatalf("logical page size = %d, want %d", got, want)
	}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if err := inst.Store.Put([]byte(k), []byte("value of "+k)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := inst.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() || rep.Pages == nil {
		t.Fatalf("fresh instance fails scrub: %s", rep)
	}
	if err := inst.Close(); err != nil {
		t.Fatal(err)
	}

	// Recompose over the same filesystem: every page re-verifies.
	inst2, err := ComposeProduct(Options{FS: fs}, checksumFeatures...)
	if err != nil {
		t.Fatal(err)
	}
	defer inst2.Close()
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%04d", i)
		v, err := inst2.Store.Get([]byte(k))
		if err != nil || string(v) != "value of "+k {
			t.Fatalf("Get(%s) = %q, %v", k, v, err)
		}
	}
}

func TestComposeChecksumsLayoutMismatch(t *testing.T) {
	fs := osal.NewMemFS()
	inst, err := ComposeProduct(Options{FS: fs}, checksumFeatures...)
	if err != nil {
		t.Fatal(err)
	}
	inst.Store.Put([]byte("k"), []byte("v"))
	inst.Close()

	// Reopening without Checksums must refuse: the pages carry trailers
	// a plain product would hand to the tree as payload.
	plain := checksumFeatures[:len(checksumFeatures)-1]
	if _, err := ComposeProduct(Options{FS: fs}, plain...); err == nil {
		t.Fatal("recompose without Checksums over a trailered store must fail")
	}

	// And the converse: a plain store must not be scrubbed as trailered.
	fs2 := osal.NewMemFS()
	inst2, err := ComposeProduct(Options{FS: fs2}, plain...)
	if err != nil {
		t.Fatal(err)
	}
	inst2.Store.Put([]byte("k"), []byte("v"))
	inst2.Close()
	if _, err := ComposeProduct(Options{FS: fs2}, checksumFeatures...); err == nil {
		t.Fatal("recompose with Checksums over a plain store must fail")
	}
}

func TestComposeChecksumsCatchAtRestCorruption(t *testing.T) {
	fs := osal.NewMemFS()
	inst, err := ComposeProduct(Options{FS: fs}, checksumFeatures...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if err := inst.Store.Put([]byte(k), []byte("value of "+k)); err != nil {
			t.Fatal(err)
		}
	}
	inst.Close()

	// Bit rot while the engine is down: flip one bit in the middle of
	// the data file.
	f, err := fs.Open("fame.db")
	if err != nil {
		t.Fatal(err)
	}
	size, _ := f.Size()
	var b [1]byte
	if _, err := f.ReadAt(b[:], size/2); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := f.WriteAt(b[:], size/2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	inst2, err := ComposeProduct(Options{FS: fs}, checksumFeatures...)
	if err != nil {
		// The flip may land in a page the reopen itself reads (meta or
		// root): then composition is the detector.
		if !errors.Is(err, storage.ErrPageCorrupt) {
			t.Fatalf("recompose = %v, want ErrPageCorrupt", err)
		}
		return
	}
	defer inst2.Close()
	rep, err := inst2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() || rep.Pages == nil || len(rep.Pages.Corrupt) == 0 {
		t.Fatalf("scrub missed the at-rest flip: %s", rep)
	}
	// The damaged page is named, so an operator can map it back.
	var perr *storage.PageError
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if _, err := inst2.Store.Get([]byte(k)); errors.Is(err, storage.ErrPageCorrupt) {
			if !errors.As(err, &perr) || perr.Page != rep.Pages.Corrupt[0] {
				t.Fatalf("read error %v does not name scrubbed page %d", err, rep.Pages.Corrupt[0])
			}
			return
		}
	}
	// The flip may sit on a free page or non-key bytes; the scrub
	// finding it is the contract.
}

// TestComposeDegradedTransitionConcurrentReads drives the engine into
// degraded mode while readers hammer it — run under -race in CI. The
// contract: reads never block or corrupt, writes fail with ErrDegraded
// after the poison, and the stats/trace plumbing reports the reason.
func TestComposeDegradedTransitionConcurrentReads(t *testing.T) {
	ffs := osal.NewFaultFS(osal.NewMemFS())
	inst, err := ComposeProduct(Options{
		FS:         ffs,
		CachePages: 4, // tiny cache: reads fault pages in from the device
		Retry:      storage.RetryPolicy{Attempts: 2, Sleep: func(time.Duration) {}},
	}, append(checksumFeatures, "Statistics", "Tracing")...)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if err := inst.Store.Put([]byte(k), []byte("value of "+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := inst.Sync(); err != nil {
		t.Fatal(err)
	}

	// Every device write from now on fails transiently, forever.
	sched := osal.NewSchedule(7)
	sched.Add(osal.Rule{Class: osal.OpWrite, At: 1, Kind: osal.FaultError, Heal: 1 << 30})
	ffs.SetSchedule(sched)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("key-%04d", (seed*37+i)%n)
				v, err := inst.Store.Get([]byte(k))
				if err != nil {
					t.Errorf("read during degrade transition: %v", err)
					return
				}
				if string(v) != "value of "+k {
					t.Errorf("Get(%s) = %q", k, v)
					return
				}
			}
		}(r)
	}

	// Writer side: dirty pages and flush until the retry budget runs
	// out and the latch poisons.
	for i := 0; !inst.Degraded() && i < 100; i++ {
		inst.Store.Put([]byte(fmt.Sprintf("w-%d", i)), []byte("x"))
		inst.Sync()
	}
	close(stop)
	wg.Wait()
	if !inst.Degraded() {
		t.Fatal("retry exhaustion did not degrade the engine")
	}
	if err := inst.Sync(); !errors.Is(err, storage.ErrDegraded) {
		t.Fatalf("degraded Sync = %v, want ErrDegraded", err)
	}

	// The poison reason lands in the stats counters...
	snap, err := inst.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Fault.Degraded || snap.Fault.DegradedReason == "" {
		t.Fatalf("stats fault section = %+v, want degraded with reason", snap.Fault)
	}
	if snap.Fault.Transients == 0 || snap.Fault.Retries == 0 {
		t.Fatalf("stats fault counters = %+v, want transients and retries", snap.Fault)
	}
	// ...and in exactly one trace span.
	ts, err := inst.Trace()
	if err != nil {
		t.Fatal(err)
	}
	degradeSpans := 0
	for _, sp := range ts.Spans {
		if sp.Op == "degrade" && sp.Layer == trace.LayerPager {
			degradeSpans++
			if !sp.Err {
				t.Error("degrade span not marked failed")
			}
		}
	}
	if degradeSpans != 1 {
		t.Fatalf("%d degrade spans, want 1", degradeSpans)
	}

	// Reads still serve after the dust settles; Close succeeds.
	if _, err := inst.Store.Get([]byte("key-0000")); err != nil {
		t.Fatalf("degraded read = %v", err)
	}
	ffs.SetSchedule(nil)
	if err := inst.Close(); err != nil {
		t.Fatalf("degraded close = %v", err)
	}
}

// TestComposeVerifyNotComposed: a product with neither Checksums nor
// Transaction has nothing to scrub.
func TestComposeVerifyNotComposed(t *testing.T) {
	inst, err := ComposeProduct(Options{}, "NutOS", "ListIndex", "Put", "Get")
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if _, err := inst.Verify(); !errors.Is(err, access.ErrNotComposed) {
		t.Fatalf("Verify = %v, want ErrNotComposed", err)
	}
}

// TestComposeVerifyCoversJournal: without Checksums but with
// Transaction, Verify still scrubs the WAL.
func TestComposeVerifyCoversJournal(t *testing.T) {
	inst, err := ComposeProduct(Options{},
		"Linux", "BPlusTree", "BufferManager", "LRU", "DynamicAlloc",
		"Put", "Get", "Transaction", "ForceCommit")
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	tx := inst.Txn.Begin()
	tx.Put([]byte("k"), []byte("v"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rep, err := inst.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pages != nil {
		t.Fatal("page scrub composed without Checksums")
	}
	if rep.Log == nil || !rep.Log.Ok() || rep.Log.Commits != 1 {
		t.Fatalf("journal scrub = %v", rep.Log)
	}
}

// TestComposeVerifyCatchesBrokenTree: a separator rewritten through the
// page stack gets a valid CRC trailer, so only the tree check can see
// that the tree no longer orders its keys.
func TestComposeVerifyCatchesBrokenTree(t *testing.T) {
	inst, err := ComposeProduct(Options{FS: osal.NewMemFS()}, checksumFeatures...)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if err := inst.Store.Put([]byte(k), []byte("value of "+k)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := inst.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() || rep.Tree == nil {
		t.Fatalf("fresh tree fails its check: %s", rep)
	}
	// An inner page holds keys but no values: raise its first
	// separator above every key in the tree.
	buf := make([]byte, inst.pager.PageSize())
	corrupted := false
	for id := storage.PageID(1); id < storage.PageID(inst.pf.NumPages()) && !corrupted; id++ {
		if err := inst.pager.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		at := bytes.Index(buf, []byte("key-"))
		if at < 0 || bytes.Contains(buf, []byte("value of")) {
			continue
		}
		copy(buf[at:], "key-9999")
		if err := inst.pager.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
		corrupted = true
	}
	if !corrupted {
		t.Fatal("no inner page found")
	}
	rep, err = inst.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pages == nil || !rep.Pages.Ok() {
		t.Fatalf("the rewritten page should keep a valid trailer: %s", rep)
	}
	if rep.Ok() || rep.Tree == nil || rep.Tree.Ok() {
		t.Fatalf("Verify missed the broken separator: %s", rep)
	}

	// Without Checksums nothing stops a flipped byte before the tree
	// decodes the page: point a leaf's first cell past the page end.
	// Verify must report the damage, not panic.
	plain, err := ComposeProduct(Options{FS: osal.NewMemFS()},
		"Linux", "BPlusTree", "BufferManager", "LRU", "DynamicAlloc",
		"Put", "Get", "Transaction")
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if err := plain.Txn.Put([]byte(k), []byte("value of "+k)); err != nil {
			t.Fatal(err)
		}
	}
	buf = make([]byte, plain.pager.PageSize())
	corrupted = false
	for id := storage.PageID(1); id < storage.PageID(plain.pf.NumPages()) && !corrupted; id++ {
		if err := plain.pager.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(buf, []byte("value of")) {
			continue
		}
		binary.LittleEndian.PutUint16(buf[16:18], 0x2020) // first cell offset
		if err := plain.pager.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
		corrupted = true
	}
	if !corrupted {
		t.Fatal("no leaf page found")
	}
	rep, err = plain.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() || rep.Tree == nil || rep.Tree.Ok() {
		t.Fatalf("Verify missed the out-of-page cell offset: %s", rep)
	}
}
