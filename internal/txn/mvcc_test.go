package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"famedb/internal/access"
	"famedb/internal/btree"
	"famedb/internal/index"
	"famedb/internal/osal"
	"famedb/internal/storage"
)

// testVersions adapts a version table to the manager's VersionSource,
// exactly as the composer does for an MVCC product.
type testVersions struct{ vt *btree.VersionTable }

func (s testVersions) Pin() SnapshotReader { return s.vt.Pin() }
func (s testVersions) Install() error      { return s.vt.Install() }

// openMvccMgr opens a manager over e with the MVCC feature composed:
// the env's B+-tree switches to copy-on-write and a version table feeds
// Options.Versions.
func (e *env) openMvccMgr(t *testing.T, opts Options) (*Manager, *btree.VersionTable) {
	t.Helper()
	vt := btree.NewVersionTable(e.store.Index().(*index.BTree).Tree())
	opts.Versions = testVersions{vt: vt}
	return e.openMgr(t, opts), vt
}

// TestNotFoundAllPaths pins the ErrNotFound contract across every read
// path of the transactional API: a key hidden by the transaction's own
// buffered remove, a key absent from the pinned snapshot, a key absent
// from the locked store (MVCC not composed), and a key absent from a
// read-only snapshot transaction all satisfy errors.Is(err, ErrNotFound).
func TestNotFoundAllPaths(t *testing.T) {
	e := newEnv(t)
	m, _ := e.openMvccMgr(t, Options{Locking: true})
	seed := m.Begin()
	if err := seed.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	tx := m.Begin()
	if err := tx.Remove([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Get([]byte("a")); !errors.Is(err, ErrNotFound) {
		t.Errorf("write-set-deleted key: err = %v, want ErrNotFound", err)
	}
	if _, err := tx.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Errorf("snapshot-path missing key: err = %v, want ErrNotFound", err)
	}
	if err := tx.Update([]byte("missing"), []byte("x")); !errors.Is(err, ErrNotFound) {
		t.Errorf("Update of missing key: err = %v, want ErrNotFound", err)
	}
	if err := tx.Remove([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Errorf("Remove of missing key: err = %v, want ErrNotFound", err)
	}
	tx.Abort()

	snap, err := m.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Errorf("snapshot txn missing key: err = %v, want ErrNotFound", err)
	}
	snap.Abort()

	// And the locked store path, with MVCC not composed.
	e2 := newEnv(t)
	m2 := e2.openMgr(t, Options{Locking: true})
	tx2 := m2.Begin()
	if _, err := tx2.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Errorf("store-path missing key: err = %v, want ErrNotFound", err)
	}
	tx2.Abort()
}

// countingLocker wraps a real RWMutex and counts acquisitions — the
// instrument behind the lock-free read-path guarantee.
type countingLocker struct {
	mu     sync.RWMutex
	locks  atomic.Int64
	rlocks atomic.Int64
}

func (c *countingLocker) Lock()    { c.locks.Add(1); c.mu.Lock() }
func (c *countingLocker) Unlock()  { c.mu.Unlock() }
func (c *countingLocker) RLock()   { c.rlocks.Add(1); c.mu.RLock() }
func (c *countingLocker) RUnlock() { c.mu.RUnlock() }

func (c *countingLocker) counts() (int64, int64) {
	return c.locks.Load(), c.rlocks.Load()
}

// TestSnapshotReadsTakeNoManagerLock is the MVCC feature's core
// promise: after Begin pins a version, no read — Get, Scan, Len, or a
// visibility check feeding Update/Remove — acquires Manager.mu in
// either mode. Begin itself takes exactly one read lock (the pin).
func TestSnapshotReadsTakeNoManagerLock(t *testing.T) {
	e := newEnv(t)
	m, _ := e.openMvccMgr(t, Options{Locking: true})
	seed := m.Begin()
	for i := 0; i < 64; i++ {
		if err := seed.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	cl := &countingLocker{}
	m.mu = cl

	tx := m.Begin()
	snap, err := m.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if l, r := cl.counts(); l != 0 || r != 2 {
		t.Fatalf("two Begins took %d write and %d read locks, want 0 and 2 (one pin each)", l, r)
	}

	cl.locks.Store(0)
	cl.rlocks.Store(0)
	for i := 0; i < 64; i++ {
		key := []byte(fmt.Sprintf("k%03d", i))
		if _, err := tx.Get(key); err != nil {
			t.Fatal(err)
		}
		if _, err := snap.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []*Txn{tx, snap} {
		n := 0
		if err := r.Scan(nil, nil, func(k, v []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n != 64 {
			t.Fatalf("scan saw %d keys, want 64", n)
		}
		if got, err := r.Len(); err != nil || got != 64 {
			t.Fatalf("Len = %d, %v, want 64", got, err)
		}
	}
	// Update/Remove share the same single visibility check.
	if err := tx.Update([]byte("k000"), []byte("w")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Remove([]byte("k001")); err != nil {
		t.Fatal(err)
	}
	if l, r := cl.counts(); l != 0 || r != 0 {
		t.Fatalf("read path took %d write and %d read locks, want zero", l, r)
	}
	tx.Abort()
	snap.Abort()
}

// TestSnapshotSeesBeginTimeState pins the isolation contract: a
// snapshot keeps returning exactly the state at its Begin, no matter
// how many commits land after it, while a later snapshot sees them.
func TestSnapshotSeesBeginTimeState(t *testing.T) {
	e := newEnv(t)
	m, _ := e.openMvccMgr(t, Options{Locking: true})
	seed := m.Begin()
	seed.Put([]byte("a"), []byte("old"))
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	snap, err := m.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	seq1, ok := snap.SnapshotSeq()
	if !ok {
		t.Fatal("snapshot transaction has no pinned version")
	}

	w := m.Begin()
	w.Update([]byte("a"), []byte("new"))
	w.Put([]byte("b"), []byte("2"))
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	if v, err := snap.Get([]byte("a")); err != nil || string(v) != "old" {
		t.Fatalf("snapshot Get(a) = %q, %v, want old", v, err)
	}
	if _, err := snap.Get([]byte("b")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("snapshot sees post-begin key b: %v", err)
	}
	if n, _ := snap.Len(); n != 1 {
		t.Fatalf("snapshot Len = %d, want 1", n)
	}

	snap2, err := m.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if seq2, _ := snap2.SnapshotSeq(); seq2 <= seq1 {
		t.Fatalf("later snapshot seq %d not after %d", seq2, seq1)
	}
	if v, err := snap2.Get([]byte("a")); err != nil || string(v) != "new" {
		t.Fatalf("fresh snapshot Get(a) = %q, %v, want new", v, err)
	}
	snap.Abort()
	snap2.Abort()
}

// TestSnapshotTxnIsReadOnly: mutations on a snapshot transaction are
// refused, and finishing it releases the pin so versions reclaim.
func TestSnapshotTxnIsReadOnly(t *testing.T) {
	e := newEnv(t)
	m, vt := e.openMvccMgr(t, Options{Locking: true})
	snap, err := m.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Put([]byte("x"), []byte("1")); !errors.Is(err, ErrReadOnly) {
		t.Errorf("Put on snapshot: err = %v, want ErrReadOnly", err)
	}
	if err := snap.Update([]byte("x"), []byte("1")); !errors.Is(err, ErrReadOnly) {
		t.Errorf("Update on snapshot: err = %v, want ErrReadOnly", err)
	}
	if err := snap.Remove([]byte("x")); !errors.Is(err, ErrReadOnly) {
		t.Errorf("Remove on snapshot: err = %v, want ErrReadOnly", err)
	}
	if err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.SnapshotSeq(); ok {
		t.Error("finished snapshot transaction still pinned")
	}
	// With the pin gone, committing writes must reclaim old versions.
	for i := 0; i < 4; i++ {
		w := m.Begin()
		w.Put([]byte{byte(i)}, []byte("v"))
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if live := vt.VersionsLive(); live != 1 {
		t.Errorf("VersionsLive = %d after all pins released, want 1", live)
	}
}

// TestBeginSnapshotNotComposed: without the MVCC feature the snapshot
// API refuses with the composition error.
func TestBeginSnapshotNotComposed(t *testing.T) {
	e := newEnv(t)
	m := e.openMgr(t, Options{Locking: true})
	if _, err := m.BeginSnapshot(); !errors.Is(err, access.ErrNotComposed) {
		t.Fatalf("BeginSnapshot without MVCC: err = %v, want ErrNotComposed", err)
	}
}

// TestRecoveryInstallsVersion simulates a crash of an MVCC product: the
// WAL holds committed transactions the store never saw. Reopening with
// Recovery replays them copy-on-write and publishes the recovered state
// as one version, so the first snapshot pins it.
func TestRecoveryInstallsVersion(t *testing.T) {
	fs := osal.NewMemFS()
	{
		f, _ := fs.Create("data.db")
		pf, _ := storage.CreatePageFile(f, 512)
		idx, _, _ := index.CreateBTree(pf, index.AllBTreeOps())
		store := access.New(idx, access.AllOps())
		m, err := Open(fs, "wal.log", store, Options{Locking: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			tx := m.Begin()
			tx.Put([]byte(fmt.Sprintf("r%d", i)), []byte("v"))
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		// Crash: no Close, and the second session gets a fresh store.
	}
	f2, _ := fs.Create("data2.db")
	pf2, _ := storage.CreatePageFile(f2, 512)
	idx2, _, _ := index.CreateBTree(pf2, index.AllBTreeOps())
	store2 := access.New(idx2, access.AllOps())
	vt := btree.NewVersionTable(idx2.Tree())
	m2, err := Open(fs, "wal.log", store2, Options{
		Locking: true, Recovery: true,
		Versions: testVersions{vt: vt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Recovered != 3 {
		t.Fatalf("Recovered = %d, want 3", m2.Recovered)
	}
	if vt.Current().Seq() == 0 {
		t.Fatal("recovery did not install a version")
	}
	snap, err := m2.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if v, err := snap.Get([]byte(fmt.Sprintf("r%d", i))); err != nil || string(v) != "v" {
			t.Fatalf("recovered key r%d = %q, %v", i, v, err)
		}
	}
	if n, _ := snap.Len(); n != 3 {
		t.Fatalf("recovered snapshot Len = %d, want 3", n)
	}
	snap.Abort()
}

// TestSnapshotAdoptsDirectStorePuts: non-transactional writes advance
// the copy-on-write root without installing a version; Begin adopts
// that state so snapshots are never stale.
func TestSnapshotAdoptsDirectStorePuts(t *testing.T) {
	e := newEnv(t)
	m, _ := e.openMvccMgr(t, Options{Locking: true})
	if err := e.store.Put([]byte("direct"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	snap, err := m.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Abort()
	if v, err := snap.Get([]byte("direct")); err != nil || string(v) != "1" {
		t.Fatalf("snapshot missed direct store put: %q, %v", v, err)
	}
}
