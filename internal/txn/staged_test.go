package txn

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"famedb/internal/access"
	"famedb/internal/osal"
)

// within fails the test unless fn returns within d.
func within(t *testing.T, d time.Duration, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

func TestCommitAsyncStagesUntilWaited(t *testing.T) {
	m, store := groupEnv(t, osal.NewMemFS(), 8)
	var staged []*Staged
	for i := 0; i < 3; i++ {
		tx := m.Begin()
		if err := tx.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		staged = append(staged, tx.CommitAsync())
	}
	// Nobody waited: nothing is logged or applied yet.
	if m.LogSize() != int64(len(walMagic)) {
		t.Fatalf("log holds %d bytes before any wait", m.LogSize()-int64(len(walMagic)))
	}
	if _, err := store.Get([]byte("k0")); !errors.Is(err, access.ErrNotFound) {
		t.Fatalf("staged commit applied before any wait: %v", err)
	}
	// The last waiter drains the whole open batch: one write, and no
	// sync below the batch limit.
	if err := staged[2].Wait(); err != nil {
		t.Fatal(err)
	}
	for i, s := range staged {
		if !s.Ready() {
			t.Fatalf("commit %d unresolved after its batch drained", i)
		}
		if err := s.Wait(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		if _, err := store.Get([]byte(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("commit %d not applied: %v", i, err)
		}
	}
	if got := m.LogSyncs(); got != 0 {
		t.Fatalf("LogSyncs = %d for 3 commits under a limit of 8, want 0", got)
	}
	// A finished transaction cannot be committed again, and Abort
	// leaves a staged commit alone.
	tx := m.Begin()
	tx.Put([]byte("late"), []byte("v"))
	s := tx.CommitAsync()
	tx.Abort()
	if err := tx.CommitAsync().Wait(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("second CommitAsync = %v, want ErrTxnDone", err)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get([]byte("late")); err != nil {
		t.Fatalf("Abort after CommitAsync dropped the staged write: %v", err)
	}
}

// TestOneSyncRuleAtTheLimit checks the commit body's one sync rule: a
// batch syncs exactly when it brings the unsynced commits to the batch
// limit, whatever its size.
func TestOneSyncRuleAtTheLimit(t *testing.T) {
	const limit = 4
	m, _ := groupEnv(t, osal.NewMemFS(), limit)
	stage := func(n int) []*Staged {
		var out []*Staged
		for i := 0; i < n; i++ {
			tx := m.Begin()
			tx.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
			out = append(out, tx.CommitAsync())
		}
		return out
	}
	// A batch of two stays unsynced; a second batch of two reaches the
	// limit and syncs both; a batch above the limit is never sealed and
	// syncs once.
	for _, step := range []struct{ batch, syncs int }{{2, 0}, {2, 1}, {limit + 3, 2}} {
		staged := stage(step.batch)
		if err := staged[0].Wait(); err != nil {
			t.Fatal(err)
		}
		if got := m.LogSyncs(); got != int64(step.syncs) {
			t.Fatalf("after a batch of %d: LogSyncs = %d, want %d", step.batch, got, step.syncs)
		}
		for _, s := range staged {
			if !s.Ready() {
				t.Fatalf("a batch of %d was split", step.batch)
			}
		}
	}
}

// TestQuiesceDrainsUnwaitedCommits stages commits nobody ever waits
// for: Checkpoint and Close must still return, and both drain them.
func TestQuiesceDrainsUnwaitedCommits(t *testing.T) {
	e := newEnv(t)
	m := e.openMgr(t, Options{BatchLimit: 8, Locking: true, Recovery: true})
	stage := func(k string) *Staged {
		tx := m.Begin()
		if err := tx.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
		return tx.CommitAsync()
	}
	a := []*Staged{stage("a0"), stage("a1")}
	within(t, 5*time.Second, "Checkpoint", m.Checkpoint)
	b := stage("b0")
	within(t, 5*time.Second, "Close", m.Close)
	for i, s := range append(a, b) {
		if !s.Ready() {
			t.Fatalf("commit %d unresolved after the pipeline quiesced", i)
		}
		if err := s.Wait(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	for _, k := range []string{"a0", "a1", "b0"} {
		if _, err := e.store.Get([]byte(k)); err != nil {
			t.Fatalf("%s not applied: %v", k, err)
		}
	}
	if err := stage("c0").Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after Close = %v, want ErrClosed", err)
	}
}

// TestPowerCutLosesFewerThanBatchLimit cuts the log device's power at
// seeded points while committers run through Commit and through
// windows of CommitAsync. After recovery at most BatchLimit-1
// acknowledged commits may be missing (the deferred-sync window), and
// no commit whose committer saw an error may be replayed.
func TestPowerCutLosesFewerThanBatchLimit(t *testing.T) {
	const (
		limit   = 8
		workers = 4
		perW    = 60
	)
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		crashFS := osal.NewCrashFS(osal.NewMemFS())
		logFS := osal.NewFaultFS(crashFS)
		m, _ := groupEnv(t, logFS, limit)
		// The device dies at a seeded write-class op (append or sync):
		// from then on every commit fails, and the power cut keeps only
		// what the last good sync made durable.
		logFS.SetSchedule(dieAt(int64(2 + rng.Intn(60))))
		var mu sync.Mutex
		outcome := map[string]error{}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int, window int) {
				defer wg.Done()
				for i := 0; i < perW; {
					var keys []string
					var staged []*Staged
					for j := 0; j < window && i < perW; j, i = j+1, i+1 {
						k := fmt.Sprintf("w%d-%03d", w, i)
						tx := m.Begin()
						if err := tx.Put([]byte(k), []byte("v")); err != nil {
							t.Error(err)
							return
						}
						keys = append(keys, k)
						if window == 1 {
							staged = append(staged, &Staged{err: tx.Commit()})
						} else {
							staged = append(staged, tx.CommitAsync())
						}
					}
					failed := false
					for j, s := range staged {
						err := s.Wait()
						mu.Lock()
						outcome[keys[j]] = err
						mu.Unlock()
						failed = failed || err != nil
					}
					if failed {
						return
					}
				}
			}(w, 1+w%2*(1+rng.Intn(6))) // even workers call Commit
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		if err := crashFS.Crash(); err != nil {
			t.Fatal(err)
		}
		m2, s2 := groupEnv(t, crashFS, limit)
		var acked, lost, failed int
		for k, err := range outcome {
			_, gerr := s2.Get([]byte(k))
			present := gerr == nil
			if gerr != nil && !errors.Is(gerr, access.ErrNotFound) {
				t.Fatal(gerr)
			}
			switch {
			case err == nil:
				acked++
				if !present {
					lost++
				}
			case present:
				t.Fatalf("seed %d: %s failed (%v) but was replayed", seed, k, err)
			default:
				failed++
			}
		}
		if lost > limit-1 {
			t.Fatalf("seed %d: %d of %d acknowledged commits lost, want at most %d", seed, lost, acked, limit-1)
		}
		if failed == 0 {
			t.Fatalf("seed %d: the device never died (%d commits acked)", seed, acked)
		}
		m2.Close()
	}
}
