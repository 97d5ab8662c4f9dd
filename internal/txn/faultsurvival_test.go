package txn

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"famedb/internal/access"
	"famedb/internal/index"
	"famedb/internal/osal"
	"famedb/internal/storage"
)

// buildStore makes a fresh in-memory transactional store.
func buildStore(t *testing.T) *access.Store {
	t.Helper()
	f, err := osal.NewMemFS().Create("data.db")
	if err != nil {
		t.Fatal(err)
	}
	pf, err := storage.CreatePageFile(f, 512)
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := index.CreateBTree(pf, index.AllBTreeOps())
	if err != nil {
		t.Fatal(err)
	}
	return access.New(idx, access.AllOps())
}

// TestRecoveryTornTailOnRecordBoundary: the torn tail ends EXACTLY on a
// frame boundary — the nastiest cut, because no partial frame flags the
// damage. Transaction B's put record survives intact but its commit
// record is gone; recovery must treat B as uncommitted and replay only
// A, and the log must scan as clean (the cut is indistinguishable from
// a log that simply ends there).
func TestRecoveryTornTailOnRecordBoundary(t *testing.T) {
	fs := osal.NewMemFS()
	s1 := buildStore(t)
	m1, err := Open(fs, "wal.log", s1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	commit := func(k string) uint64 {
		tx := m1.Begin()
		if err := tx.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		return tx.ID()
	}
	commit("a")
	bID := commit("b")

	// Cut exactly B's commit frame off the tail: the file now ends on
	// the frame boundary after B's put record.
	commitFrame := encodeFrame(nil, logRecord{typ: recCommit, txnID: bID})
	f, err := fs.Open("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(size - int64(len(commitFrame))); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := buildStore(t)
	m2, err := Open(fs, "wal.log", s2, Options{Recovery: true})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1 (only A committed)", m2.Recovered)
	}
	if _, err := s2.Get([]byte("a")); err != nil {
		t.Fatalf("committed 'a' lost: %v", err)
	}
	if _, err := s2.Get([]byte("b")); !errors.Is(err, access.ErrNotFound) {
		t.Fatalf("uncommitted 'b' replayed: %v", err)
	}
	// The boundary cut is clean: a scrub finds no torn bytes, and B's
	// orphaned put record still counts as a valid frame.
	rep, err := m2.VerifyLog()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("boundary-cut log scrubbed as torn: %+v", rep)
	}
	if rep.Commits != 1 || rep.Records != 3 {
		t.Fatalf("scrub = %+v, want 3 records / 1 commit", rep)
	}
	// New commits append cleanly after the cut.
	tx := m2.Begin()
	tx.Put([]byte("c"), []byte("v"))
	if err := tx.Commit(); err != nil {
		t.Fatalf("append after boundary cut: %v", err)
	}
}

// TestTornBatchNeverAdopted: a torn batch leaves its put frame in the
// log with no commit. Transaction IDs must continue past it after a
// reopen; a later transaction that reused the orphan's ID would commit
// the torn write along with its own at the next recovery.
func TestTornBatchNeverAdopted(t *testing.T) {
	fs := osal.NewMemFS()
	m1, err := Open(fs, "wal.log", buildStore(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "torn"} {
		if err := m1.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Cut the second batch after its put frame.
	commitFrame := encodeFrame(nil, logRecord{typ: recCommit, txnID: 2})
	f, err := fs.Open("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(size - int64(len(commitFrame))); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2, err := Open(fs, "wal.log", buildStore(t), Options{Recovery: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"b", "c"} {
		if err := m2.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	s3 := buildStore(t)
	m3, err := Open(fs, "wal.log", s3, Options{Recovery: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if m3.Recovered != 3 {
		t.Fatalf("Recovered = %d, want 3 (a, b, c)", m3.Recovered)
	}
	if _, err := s3.Get([]byte("torn")); !errors.Is(err, access.ErrNotFound) {
		t.Fatalf("torn batch adopted by a later transaction: %v", err)
	}
}

// TestRecoveryTornTailMidFrame: the complementary cut — the tail ends
// inside a frame. The scan must stop at the last whole frame and a
// scrub must report the torn bytes.
func TestRecoveryTornTailMidFrame(t *testing.T) {
	fs := osal.NewMemFS()
	s1 := buildStore(t)
	m1, err := Open(fs, "wal.log", s1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b"} {
		tx := m1.Begin()
		tx.Put([]byte(k), []byte("v"))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	f, err := fs.Open("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	size, _ := f.Size()
	// Tear three bytes into the tail — mid-frame with certainty (the
	// smallest frame is a 8-byte header plus payload).
	if err := f.Truncate(size - 3); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := buildStore(t)
	m2, err := Open(fs, "wal.log", s2, Options{Recovery: true})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", m2.Recovered)
	}
	if _, err := s2.Get([]byte("b")); !errors.Is(err, access.ErrNotFound) {
		t.Fatalf("half-torn 'b' replayed: %v", err)
	}
}

// TestDoubleCrashDuringRecovery: the device dies again while recovery
// is replaying the log. The failed recovery must not mutate the log,
// and — because redo is idempotent and replay never writes the WAL — a
// third boot over the same log must recover everything.
func TestDoubleCrashDuringRecovery(t *testing.T) {
	walFS := osal.NewMemFS()
	s1 := buildStore(t)
	m1, err := Open(walFS, "wal.log", s1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		tx := m1.Begin()
		tx.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	logSize := m1.LogSize()

	// Crash #1 happened (we just reopen over a fresh store). Crash #2:
	// the store's device dies mid-replay — the third page write of
	// recovery fails terminally.
	dataFS := osal.NewFaultFS(osal.NewMemFS())
	f, err := dataFS.Create("data.db")
	if err != nil {
		t.Fatal(err)
	}
	pf, err := storage.CreatePageFile(f, 512)
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := index.CreateBTree(pf, index.AllBTreeOps())
	if err != nil {
		t.Fatal(err)
	}
	s2 := access.New(idx, access.AllOps())
	dataFS.SetSchedule(dieAt(3))
	_, err = Open(walFS, "wal.log", s2, Options{Recovery: true})
	if !errors.Is(err, osal.ErrInjected) {
		t.Fatalf("recovery over dying device = %v, want injected fault", err)
	}

	// The log is untouched by the failed replay...
	vf, err := walFS.Open("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if size, _ := vf.Size(); size != logSize {
		t.Fatalf("failed recovery changed the log: %d -> %d bytes", logSize, size)
	}
	vf.Close()

	// ...so the next boot recovers all n commits.
	s3 := buildStore(t)
	m3, err := Open(walFS, "wal.log", s3, Options{Recovery: true})
	if err != nil {
		t.Fatal(err)
	}
	if m3.Recovered != n {
		t.Fatalf("Recovered = %d, want %d", m3.Recovered, n)
	}
	for i := 0; i < n; i++ {
		if _, err := s3.Get([]byte(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("k%d lost after double crash: %v", i, err)
		}
	}
}

// TestWalRetryHealsTransient: a transient device glitch inside the
// retry budget is invisible to the committer.
func TestWalRetryHealsTransient(t *testing.T) {
	logFS := osal.NewFaultFS(osal.NewMemFS())
	s := buildStore(t)
	m, err := Open(logFS, "wal.log", s, Options{
		Retry:  storage.RetryPolicy{Attempts: 3, Sleep: func(time.Duration) {}},
		Health: storage.NewHealth(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sched := osal.NewSchedule(11)
	sched.Add(osal.Rule{Class: osal.OpWrite, At: 1, Kind: osal.FaultError, Heal: 2})
	logFS.SetSchedule(sched)
	tx := m.Begin()
	tx.Put([]byte("k"), []byte("v"))
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit through transient glitch: %v", err)
	}
	if _, err := s.Get([]byte("k")); err != nil {
		t.Fatalf("committed key lost: %v", err)
	}
}

// TestWalExhaustionDegrades: a transient outage outliving the budget
// poisons the engine — later commits refuse with ErrDegraded, reads
// keep serving, and Close still succeeds.
func TestWalExhaustionDegrades(t *testing.T) {
	logFS := osal.NewFaultFS(osal.NewMemFS())
	s := buildStore(t)
	h := storage.NewHealth()
	m, err := Open(logFS, "wal.log", s, Options{
		Retry:  storage.RetryPolicy{Attempts: 2, Sleep: func(time.Duration) {}},
		Health: h,
	})
	if err != nil {
		t.Fatal(err)
	}
	commit := func(k string) error {
		tx := m.Begin()
		if err := tx.Put([]byte(k), []byte("v")); err != nil {
			return err
		}
		return tx.Commit()
	}
	if err := commit("before"); err != nil {
		t.Fatal(err)
	}
	sched := osal.NewSchedule(12)
	sched.Add(osal.Rule{Class: osal.OpWrite, At: 1, Kind: osal.FaultError, Heal: 100})
	logFS.SetSchedule(sched)
	if err := commit("doomed"); !errors.Is(err, osal.ErrTransient) {
		t.Fatalf("exhausting commit = %v, want the transient error", err)
	}
	if !h.Degraded() {
		t.Fatal("WAL retry exhaustion must poison the latch")
	}
	logFS.SetSchedule(nil)
	// Even with the device healed, the latch holds: read-only.
	if err := commit("after"); !errors.Is(err, storage.ErrDegraded) {
		t.Fatalf("degraded commit = %v, want ErrDegraded", err)
	}
	if err := m.Checkpoint(); !errors.Is(err, storage.ErrDegraded) {
		t.Fatalf("degraded checkpoint = %v, want ErrDegraded", err)
	}
	if _, err := s.Get([]byte("before")); err != nil {
		t.Fatalf("degraded read = %v, want success", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("degraded close = %v, want success", err)
	}
}
