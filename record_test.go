package fame

// Tests of the facade's record path: on a Transaction product every
// facade write is an auto-commit transaction, so it is logged, survives
// a reopen or a power cut, and reaches replicas; without Transaction it
// writes the store directly. Error identities hold on both paths.

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"famedb/internal/composer"
	"famedb/internal/core"
	"famedb/internal/osal"
	"famedb/internal/repl"
)

// recoveryFeatures is a single-goroutine durable product.
var recoveryFeatures = []string{
	"Linux", "BPlusTree", "BufferManager", "LRU",
	"Put", "Get", "Remove", "Update",
	"Transaction", "ForceCommit", "Recovery",
}

// replFeatures is the network product: concurrent transactional stack,
// WAL shipping and the TCP front end.
var replFeatures = []string{
	"Linux", "BPlusTree", "BufferManager", "LRU", "DynamicAlloc",
	"Put", "Get", "Update", "Remove",
	"Transaction", "GroupCommit", "Locking", "Recovery",
	"Replication", "Server",
}

func mustGet(t *testing.T, db *DB, key, want string) {
	t.Helper()
	v, err := db.Get([]byte(key))
	if err != nil || string(v) != want {
		t.Fatalf("Get(%s) = %q, %v; want %q", key, v, err, want)
	}
}

func TestFacadeWritesSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir}, recoveryFeatures...)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := db.Put([]byte(k), []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Update([]byte("b"), []byte("updated")); err != nil {
		t.Fatal(err)
	}
	if err := db.Remove([]byte("c")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(Options{Dir: dir}, recoveryFeatures...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustGet(t, db, "a", "v-a")
	mustGet(t, db, "b", "updated")
	if _, err := db.Get([]byte("c")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("removed key after reopen: %v, want ErrNotFound", err)
	}
}

// TestUnstorableWriteNeverReachesLog: an entry the index can never hold
// is refused before it is logged, so a refused facade write cannot make
// the next recovery fail or leave a commit record behind.
func TestUnstorableWriteNeverReachesLog(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir}, recoveryFeatures...)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("a"), []byte("v-a")); err != nil {
		t.Fatal(err)
	}
	huge := make([]byte, 1<<16)
	for _, w := range []struct {
		name string
		err  error
	}{
		{"Put(nil)", db.Put(nil, []byte("v"))},
		{"Put(oversize)", db.Put([]byte("big"), huge)},
		{"Update(oversize)", db.Update([]byte("a"), huge)},
	} {
		if w.err == nil {
			t.Fatalf("%s succeeded", w.name)
		}
	}
	if err := db.Put([]byte("b"), []byte("v-b")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(Options{Dir: dir}, recoveryFeatures...)
	if err != nil {
		t.Fatalf("reopen after refused writes: %v", err)
	}
	defer db.Close()
	mustGet(t, db, "a", "v-a")
	mustGet(t, db, "b", "v-b")
	if n, err := db.Len(); err != nil || n != 2 {
		t.Fatalf("Len = %d, %v; want 2", n, err)
	}
}

// composeOver derives features over fs, the seam the facade's Options
// do not expose, and wraps the instance the way OpenConfig does.
func composeOver(t *testing.T, fs osal.FS, features ...string) *DB {
	t.Helper()
	cfg, err := core.FAMEModel().Product(features...)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := composer.Compose(cfg, composer.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	return newDB(inst)
}

func TestFacadePutSurvivesCrash(t *testing.T) {
	fs := osal.NewCrashFS(osal.NewMemFS())
	db := composeOver(t, fs, recoveryFeatures...)
	if err := db.Put([]byte("acked"), []byte("durable")); err != nil {
		t.Fatal(err)
	}
	// Power cut: only what was synced survives. The crashed instance is
	// abandoned, as a dead process would be.
	if err := fs.Crash(); err != nil {
		t.Fatal(err)
	}
	db = composeOver(t, fs, recoveryFeatures...)
	defer db.Close()
	mustGet(t, db, "acked", "durable")
}

// TestFacadeReadsBesideGroupCommitWriters: on a GroupCommit+Locking
// product the facade's Get, Scan and Len read under the transaction
// manager's read lock, so beside concurrent facade Puts every read sees
// committed state: an acknowledged key is found with its value, any
// other key is found or ErrNotFound, and no read errors. Run it under
// -race.
func TestFacadeReadsBesideGroupCommitWriters(t *testing.T) {
	db, err := Open(Options{GroupCommitBatch: 8},
		"Linux", "BPlusTree", "BufferManager", "LRU", "DynamicAlloc",
		"Put", "Get", "Transaction", "GroupCommit", "Locking")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const writers, perWriter = 4, 300
	key := func(w, i int) []byte { return []byte(fmt.Sprintf("w%d-%04d", w, i)) }
	value := func(k []byte) []byte { return append([]byte("v-"), k...) }
	// acked[w] counts writer w's Puts that have returned.
	var acked [writers]atomic.Int64
	ackedTotal := func() (n uint64) {
		for w := range acked {
			n += uint64(acked[w].Load())
		}
		return n
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := db.Put(key(w, i), value(key(w, i))); err != nil {
					errs <- fmt.Errorf("put: %w", err)
					return
				}
				acked[w].Add(1)
			}
		}(w)
	}
	read := func(n int) error {
		w := n % writers
		c := int(acked[w].Load())
		i := (n * 7) % perWriter
		k := key(w, i)
		v, err := db.Get(k)
		switch {
		case errors.Is(err, ErrNotFound) && i >= c:
		case err != nil:
			return fmt.Errorf("get %s (acked %d of writer %d): %w", k, c, w, err)
		case !bytes.Equal(v, value(k)):
			return fmt.Errorf("get %s = %q", k, v)
		}
		before := ackedTotal()
		var seen uint64
		var prev, bad []byte
		err = db.Scan(nil, nil, func(k, v []byte) bool {
			if !bytes.Equal(v, value(k)) || (prev != nil && bytes.Compare(prev, k) >= 0) {
				bad = append([]byte(nil), k...)
				return false
			}
			prev = append(prev[:0], k...)
			seen++
			return true
		})
		switch {
		case err != nil:
			return fmt.Errorf("scan: %w", err)
		case bad != nil:
			return fmt.Errorf("scan out of order or torn at %s", bad)
		case seen < before:
			return fmt.Errorf("scan saw %d entries, %d were acked", seen, before)
		}
		before = ackedTotal()
		if l, err := db.Len(); err != nil || l < before {
			return fmt.Errorf("len = %d with %d acked, %v", l, before, err)
		}
		return nil
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for n := r; ; n += 2 {
				select {
				case <-done:
					return
				default:
				}
				if err := read(n); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(done)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n, err := db.Len(); err != nil || n != writers*perWriter {
		t.Fatalf("Len = %d, %v; want %d", n, err, writers*perWriter)
	}
}

// startReplica serves a fresh replFeatures primary and attaches a fresh
// replica to it; cleanup tears both down.
func startReplica(t *testing.T) (primary, replica *DB, rep *Replica) {
	t.Helper()
	primary, err := Open(Options{}, replFeatures...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	srv, err := primary.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	replica, err = Open(Options{}, replFeatures...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replica.Close() })
	rep, err = replica.ReplicateFrom(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Stop)
	return primary, replica, rep
}

func TestFacadePutReachesReplica(t *testing.T) {
	primary, replica, rep := startReplica(t)
	if err := primary.Put([]byte("city"), []byte("dresden")); err != nil {
		t.Fatal(err)
	}
	if !rep.WaitFor(primary.inst.Txn.WALEnd(), 10*time.Second) {
		t.Fatalf("replica stuck at %d of %d", rep.Offset(), primary.inst.Txn.WALEnd())
	}
	mustGet(t, replica, "city", "dresden")
}

func TestReplicaRefusesLocalCommits(t *testing.T) {
	primary, replica, rep := startReplica(t)
	for i := 0; i < 20; i++ {
		if err := primary.Put(fmt.Appendf(nil, "k%02d", i), fmt.Appendf(nil, "v%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := replica.Put([]byte("local"), []byte("x")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Put on a replica = %v, want ErrReadOnly", err)
	}
	tx, err := replica.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put([]byte("local"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Commit on a replica = %v, want ErrReadOnly", err)
	}

	// The refused commits wrote nothing: the replica log stays a
	// byte-exact prefix of the primary's and the indexes match.
	end := primary.inst.Txn.WALEnd()
	if !rep.WaitFor(end, 10*time.Second) {
		t.Fatalf("replica stuck at %d of %d", rep.Offset(), end)
	}
	ap, err := replica.inst.ShipApplier()
	if err != nil {
		t.Fatal(err)
	}
	rend, rcrc, err := ap.PrefixCRC()
	if err != nil {
		t.Fatal(err)
	}
	pcrc, err := primary.inst.Txn.WALPrefixCRC(end)
	if err != nil {
		t.Fatal(err)
	}
	if rend != end || rcrc != pcrc {
		t.Fatalf("replica log (%d, %08x), primary (%d, %08x)", rend, rcrc, end, pcrc)
	}
	if err := repl.VerifyIndexes(primary.inst.Store.Index(), replica.inst.Store.Index()); err != nil {
		t.Fatal(err)
	}

	rep.Stop()
	if err := replica.Put([]byte("local"), []byte("x")); err != nil {
		t.Fatalf("Put after Stop = %v", err)
	}
	mustGet(t, replica, "local", "x")
}

func TestFacadeErrorIdentities(t *testing.T) {
	for _, tc := range []struct {
		name     string
		features []string
	}{
		{"store", []string{"Linux", "BPlusTree", "BufferManager", "LRU", "Put", "Get", "Update"}},
		{"transaction", []string{"Linux", "BPlusTree", "BufferManager", "LRU", "Put", "Get", "Update",
			"Transaction", "ForceCommit", "Recovery"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(Options{}, tc.features...)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if _, err := db.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
				t.Errorf("Get missing = %v, want ErrNotFound", err)
			}
			if err := db.Update([]byte("missing"), []byte("v")); !errors.Is(err, ErrNotFound) {
				t.Errorf("Update missing = %v, want ErrNotFound", err)
			}
			if err := db.Remove([]byte("k")); !errors.Is(err, ErrNotComposed) {
				t.Errorf("Remove without the feature = %v, want ErrNotComposed", err)
			}
			if err := db.Put([]byte("k"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			db.inst.Health().Poison(errors.New("device gone"))
			// A degraded product refuses the write: at once on the
			// transactional path, at the latest when it must reach the
			// device on the store path.
			err = db.Put([]byte("k2"), []byte("v"))
			if err == nil {
				err = db.Sync()
			}
			if !errors.Is(err, ErrDegraded) {
				t.Errorf("write on a degraded product = %v, want ErrDegraded", err)
			}
			mustGet(t, db, "k", "v")
		})
	}
}
