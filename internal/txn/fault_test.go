package txn

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"famedb/internal/access"
	"famedb/internal/index"
	"famedb/internal/osal"
	"famedb/internal/storage"
)

// dieAt plans a device that dies at its n-th write-class operation and
// stays dead until the schedule is removed.
func dieAt(n int64) *osal.Schedule {
	return osal.NewSchedule(0).Add(osal.Rule{Class: osal.OpAnyWrite, At: n, Kind: osal.FaultDead})
}

// faultEnv builds a transactional store over a fault-injecting
// filesystem. The data file lives on a separate (reliable) filesystem
// so only journal I/O is subject to faults.
func faultEnv(t *testing.T) (*osal.FaultFS, *Manager, *access.Store) {
	t.Helper()
	dataFS := osal.NewMemFS()
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
	store := access.New(idx, access.AllOps())
	logFS := osal.NewFaultFS(osal.NewMemFS())
	m, err := Open(logFS, "wal.log", store, Options{Recovery: true})
	if err != nil {
		t.Fatal(err)
	}
	return logFS, m, store
}

func TestCommitFailsCleanlyWhenLogWriteFails(t *testing.T) {
	fs, m, store := faultEnv(t)
	// Fail the first journal write of the commit.
	fs.SetSchedule(dieAt(1))
	tx := m.Begin()
	if err := tx.Put([]byte("doomed"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, osal.ErrInjected) {
		t.Fatalf("Commit = %v, want injected fault", err)
	}
	// The write set was never applied to the store.
	if _, err := store.Get([]byte("doomed")); !errors.Is(err, access.ErrNotFound) {
		t.Fatal("failed commit leaked into the store")
	}
	fs.Disarm()
	// The manager keeps working after the fault clears.
	tx2 := m.Begin()
	tx2.Put([]byte("ok"), []byte("v"))
	if err := tx2.Commit(); err != nil {
		t.Fatalf("commit after recovery from fault: %v", err)
	}
	if _, err := store.Get([]byte("ok")); err != nil {
		t.Fatal("post-fault commit lost")
	}
}

func TestCommitFailsWhenSyncFails(t *testing.T) {
	fs, m, store := faultEnv(t)
	tx := m.Begin()
	tx.Put([]byte("k"), []byte("v"))
	// Let the record write pass (put + commit record are one coalesced
	// write) and fail the durability sync.
	fs.SetSchedule(dieAt(2))
	if err := tx.Commit(); !errors.Is(err, osal.ErrInjected) {
		t.Fatalf("Commit = %v, want injected fault at sync", err)
	}
	// Batch limit 1 (ForceCommit): not durable -> not applied.
	if _, err := store.Get([]byte("k")); !errors.Is(err, access.ErrNotFound) {
		t.Fatal("unsynced commit applied to the store")
	}
}

func TestCheckpointFaultSurfaces(t *testing.T) {
	fs, _, _ := faultEnv(t)
	_ = fs
	// Build a manager with a SyncStore that itself fails.
	dataFS := osal.NewMemFS()
	f, _ := dataFS.Create("d.db")
	pf, _ := storage.CreatePageFile(f, 512)
	idx, _, _ := index.CreateBTree(pf, index.AllBTreeOps())
	store := access.New(idx, access.AllOps())
	m, err := Open(osal.NewMemFS(), "wal.log", store, Options{
		SyncStore: func() error { return osal.ErrInjected },
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := m.Begin()
	tx.Put([]byte("k"), []byte("v"))
	tx.Commit()
	if err := m.Checkpoint(); !errors.Is(err, osal.ErrInjected) {
		t.Fatalf("Checkpoint = %v, want injected fault", err)
	}
	// The log was not truncated, so the committed data survives a
	// replay.
	if m.LogSize() <= int64(len("FAMEWAL1")) {
		t.Fatal("log truncated despite failed checkpoint")
	}
}

// groupEnv builds a transactional store with the group-commit pipeline
// active (Locking + a GroupCommit batch limit) whose journal lives on logFS.
func groupEnv(t *testing.T, logFS osal.FS, batch int) (*Manager, *access.Store) {
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
	store := access.New(idx, access.AllOps())
	m, err := Open(logFS, "wal.log", store, Options{
		BatchLimit: batch,
		Locking:    true,
		Recovery:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, store
}

func TestGroupSyncFaultFailsWholeBatch(t *testing.T) {
	logFS := osal.NewFaultFS(osal.NewMemFS())
	const limit = 4
	m, store := groupEnv(t, logFS, limit)
	// Stage a batch of limit commits: nobody waits until all are staged,
	// so the first waiter drains them as one batch, and a batch that
	// brings the unsynced commits to the limit syncs before any of its
	// committers learns its outcome — the failure we want.
	var staged []*Staged
	var keys []string
	for i := 0; i < limit; i++ {
		k := fmt.Sprintf("k%d", i)
		tx := m.Begin()
		if err := tx.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
		staged = append(staged, tx.CommitAsync())
	}
	for i, s := range staged {
		if s.Ready() {
			t.Fatalf("commit %d resolved before anyone waited", i)
		}
	}
	base := m.wal.offset()
	// The batch body is ONE coalesced WriteAt (op 1); fail the Sync
	// (op 2).
	logFS.SetSchedule(dieAt(2))
	errs := make([]error, limit)
	var wg sync.WaitGroup
	for i, s := range staged {
		wg.Add(1)
		go func(i int, s *Staged) {
			defer wg.Done()
			errs[i] = s.Wait()
		}(i, s)
	}
	wg.Wait()
	if got := m.LogSyncs(); got != 0 {
		t.Fatalf("LogSyncs = %d after a failed sync, want 0", got)
	}
	for i, err := range errs {
		if !errors.Is(err, osal.ErrInjected) {
			t.Fatalf("waiter %d: err = %v, want injected fault", i, err)
		}
	}
	// The unacknowledged tail was cut off so recovery cannot replay it.
	if got := m.wal.offset(); got != base {
		t.Fatalf("failed batch left %d bytes in the log", got-base)
	}
	for _, k := range keys {
		if _, err := store.Get([]byte(k)); !errors.Is(err, access.ErrNotFound) {
			t.Fatalf("failed batch leaked %q into the store", k)
		}
	}
	logFS.Disarm()
	// The pipeline keeps working once the device recovers.
	tx := m.Begin()
	tx.Put([]byte("ok"), []byte("v"))
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit after fault: %v", err)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get([]byte("ok")); err != nil {
		t.Fatal("post-fault commit lost")
	}
}

func TestConcurrentCommitFaultFailsEveryWaiter(t *testing.T) {
	logFS := osal.NewFaultFS(osal.NewMemFS())
	m, store := groupEnv(t, logFS, 4)
	// Every write-class operation fails: whatever batches the committers
	// land in, every waiter must get the batch's error, none may hang,
	// and nothing may reach the store.
	logFS.SetSchedule(dieAt(1))
	const workers = 8
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx := m.Begin()
			if err := tx.Put([]byte(fmt.Sprintf("k%d", w)), []byte("v")); err != nil {
				errs[w] = err
				return
			}
			errs[w] = tx.Commit()
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if !errors.Is(err, osal.ErrInjected) {
			t.Fatalf("committer %d: err = %v, want injected fault", w, err)
		}
	}
	for w := 0; w < workers; w++ {
		k := []byte(fmt.Sprintf("k%d", w))
		if _, err := store.Get(k); !errors.Is(err, access.ErrNotFound) {
			t.Fatalf("failed commit %d leaked into the store", w)
		}
	}
	logFS.Disarm()
	tx := m.Begin()
	tx.Put([]byte("ok"), []byte("v"))
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit after fault: %v", err)
	}
}

func TestCrashWindowSkipsUnsyncedCommits(t *testing.T) {
	// GroupCommit defers the sync of every batch, whatever its size,
	// until the unsynced commits reach the batch limit; a power loss
	// inside that durability window must lose exactly the deferred
	// transactions — recovery may not replay records that never hit the
	// device.
	crashFS := osal.NewCrashFS(osal.NewMemFS())
	build := func() *access.Store {
		f, _ := osal.NewMemFS().Create("d.db")
		pf, _ := storage.CreatePageFile(f, 512)
		idx, _, _ := index.CreateBTree(pf, index.AllBTreeOps())
		return access.New(idx, access.AllOps())
	}
	s1 := build()
	m1, err := Open(crashFS, "wal.log", s1, Options{
		BatchLimit: 8,
		Locking:    true,
		Recovery:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	commit := func(k string) {
		tx := m1.Begin()
		if err := tx.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Two commits made durable by an explicit flush...
	commit("k0")
	commit("k1")
	if err := m1.Flush(); err != nil {
		t.Fatal(err)
	}
	// ...and two more left inside the deferred durability window (the
	// unsynced commits stay below the batch limit of 8, so no sync
	// happens).
	commit("k2")
	commit("k3")
	syncs := m1.LogSyncs()

	if err := crashFS.Crash(); err != nil {
		t.Fatal(err)
	}
	s2 := build()
	m2, err := Open(crashFS, "wal.log", s2, Options{
		BatchLimit: 8,
		Locking:    true,
		Recovery:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Recovered != 2 {
		t.Fatalf("Recovered = %d, want 2 (synced commits only); syncs before crash = %d",
			m2.Recovered, syncs)
	}
	for _, k := range []string{"k0", "k1"} {
		if _, err := s2.Get([]byte(k)); err != nil {
			t.Fatalf("synced commit %q lost: %v", k, err)
		}
	}
	for _, k := range []string{"k2", "k3"} {
		if _, err := s2.Get([]byte(k)); !errors.Is(err, access.ErrNotFound) {
			t.Fatalf("unsynced commit %q replayed after crash", k)
		}
	}
}

func TestGroupCommitConcurrentStress(t *testing.T) {
	// Many committers racing the pipeline, with a flusher quiescing it
	// mid-flight; meant to run under -race. Every commit must land, and
	// syncs must stay sublinear in commits.
	m, store := groupEnv(t, osal.NewMemFS(), 8)
	const workers = 8
	const per = 50
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tx := m.Begin()
				key := fmt.Sprintf("w%d-k%03d", w, i)
				if err := tx.Put([]byte(key), []byte("v")); err != nil {
					errs[w] = err
					return
				}
				if err := tx.Commit(); err != nil {
					errs[w] = err
					return
				}
				if i%16 == 0 && w == 0 {
					if err := m.Flush(); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < per; i++ {
			key := fmt.Sprintf("w%d-k%03d", w, i)
			if _, err := store.Get([]byte(key)); err != nil {
				t.Fatalf("%s lost: %v", key, err)
			}
		}
	}
	if syncs := m.LogSyncs(); syncs >= workers*per {
		t.Fatalf("LogSyncs = %d for %d commits; group commit is not coalescing", syncs, workers*per)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashDuringCommitWindowRecovers(t *testing.T) {
	// Commit several transactions, then simulate a crash where the
	// last commit's records reached the log but the store apply never
	// ran (we model this with a fresh store + the surviving log).
	logFS := osal.NewMemFS()
	build := func(n string) *access.Store {
		f, _ := osal.NewMemFS().Create(n)
		pf, _ := storage.CreatePageFile(f, 512)
		idx, _, _ := index.CreateBTree(pf, index.AllBTreeOps())
		return access.New(idx, access.AllOps())
	}
	s1 := build("a")
	m1, err := Open(logFS, "wal.log", s1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tx := m1.Begin()
		tx.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// "Crash": reopen over a fresh store.
	s2 := build("b")
	m2, err := Open(logFS, "wal.log", s2, Options{Recovery: true})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Recovered != 5 {
		t.Fatalf("Recovered = %d", m2.Recovered)
	}
	for i := 0; i < 5; i++ {
		if _, err := s2.Get([]byte(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("k%d lost: %v", i, err)
		}
	}
}

// TestFailedCommitNotReplayed: a commit whose sync fails returns an
// error, so it must never come back — not after a later good sync makes
// the log durable, and not when a reopen replays that log. Products with
// and without Locking run the same commit body, so both cut the failed
// tail off the log.
func TestFailedCommitNotReplayed(t *testing.T) {
	for _, locking := range []bool{false, true} {
		t.Run(fmt.Sprintf("locking=%v", locking), func(t *testing.T) {
			logFS := osal.NewFaultFS(osal.NewMemFS())
			opts := Options{Locking: locking, Recovery: true}
			m, err := Open(logFS, "wal.log", buildStore(t), opts)
			if err != nil {
				t.Fatal(err)
			}
			commit := func(k string) error {
				tx := m.Begin()
				if err := tx.Put([]byte(k), []byte("v")); err != nil {
					t.Fatal(err)
				}
				return tx.Commit()
			}
			// The coalesced write (op 1) lands; the sync (op 2) fails.
			logFS.SetSchedule(dieAt(2))
			if err := commit("failed"); !errors.Is(err, osal.ErrInjected) {
				t.Fatalf("commit 1 = %v, want injected fault at sync", err)
			}
			logFS.Disarm()
			if err := commit("good"); err != nil {
				t.Fatalf("commit 2: %v", err)
			}
			s2 := buildStore(t)
			m2, err := Open(logFS, "wal.log", s2, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s2.Get([]byte("failed")); !errors.Is(err, access.ErrNotFound) {
				t.Fatalf("failed commit replayed by recovery: %v", err)
			}
			if _, err := s2.Get([]byte("good")); err != nil {
				t.Fatalf("good commit lost: %v", err)
			}
			if m2.Recovered != 1 {
				t.Fatalf("Recovered = %d, want 1", m2.Recovered)
			}
		})
	}
}
