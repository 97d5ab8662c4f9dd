package composer

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"famedb/internal/access"
	"famedb/internal/repl"
	"famedb/internal/server"
)

// serverFeatures is the canonical network product: the concurrent
// transactional stack, WAL shipping, and the TCP front end.
var serverFeatures = []string{
	"Linux", "BPlusTree", "BufferManager", "LRU", "DynamicAlloc",
	"Put", "Get", "Update", "Remove",
	"Transaction", "GroupCommit", "Locking", "Recovery",
	"Statistics", "Replication", "Server",
}

func TestComposeServerReplication(t *testing.T) {
	primary, err := ComposeProduct(Options{}, serverFeatures...)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if primary.Shipper() == nil {
		t.Fatal("Replication product has no shipper")
	}
	srv, err := primary.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	replica, err := ComposeProduct(Options{}, serverFeatures...)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	rep, err := replica.ReplicateFrom(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()

	for i := 0; i < 25; i++ {
		tx := primary.Txn.Begin()
		tx.Put(fmt.Appendf(nil, "k%02d", i), fmt.Appendf(nil, "v%02d", i))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if !rep.WaitFor(primary.Txn.WALEnd(), 10*time.Second) {
		t.Fatalf("replica stuck at %d of %d", rep.Offset(), primary.Txn.WALEnd())
	}
	if err := repl.VerifyIndexes(primary.Store.Index(), replica.Store.Index()); err != nil {
		t.Fatalf("replicated index verify: %v", err)
	}
	if v, err := replica.Store.Get([]byte("k07")); err != nil || string(v) != "v07" {
		t.Fatalf("replica read = %q, %v", v, err)
	}

	snap, err := primary.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Repl.ShippedChunks == 0 || snap.Repl.Connected != 1 {
		t.Fatalf("repl stats not wired: %+v", snap.Repl)
	}
}

func TestServerReplicationGating(t *testing.T) {
	// Without the features, the accessors refuse with ErrNotComposed
	// (feature-oriented gating, like Stats/Trace/Monitor).
	inst, err := ComposeProduct(Options{}, mvccFeatures...)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if inst.Shipper() != nil {
		t.Fatal("Shipper composed without the Replication feature")
	}
	if _, err := inst.ShipApplier(); !errors.Is(err, access.ErrNotComposed) {
		t.Fatalf("ShipApplier = %v, want ErrNotComposed", err)
	}
	if _, err := inst.Serve("127.0.0.1:0"); !errors.Is(err, access.ErrNotComposed) {
		t.Fatalf("Serve = %v, want ErrNotComposed", err)
	}
	if _, err := inst.ReplicateFrom("127.0.0.1:1"); !errors.Is(err, access.ErrNotComposed) {
		t.Fatalf("ReplicateFrom = %v, want ErrNotComposed", err)
	}
}

func TestServerClosesWithInstance(t *testing.T) {
	inst, err := ComposeProduct(Options{}, serverFeatures...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := inst.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if err := inst.Close(); err != nil {
		t.Fatal(err)
	}
	// The listener must be gone: Close owns Server-feature listeners.
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatal("server still accepting after instance Close")
	}
}

// TestServerGetsAreReads: a wire get is a read of the store under the
// manager's read lock, not a transaction, so it moves the access-layer
// get counters (what Monitor's gets/s and get p99 read) and no
// transaction counter.
func TestServerGetsAreReads(t *testing.T) {
	inst, err := ComposeProduct(Options{}, serverFeatures...)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	srv, err := inst.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := server.DialClient(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Timeout = 5 * time.Second
	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	before, err := inst.Stats()
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if v, err := c.Get([]byte("k")); err != nil || string(v) != "v" {
			t.Fatalf("Get = %q, %v", v, err)
		}
	}
	after, err := inst.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if after.Txn.Begins != before.Txn.Begins || after.Txn.Aborts != before.Txn.Aborts {
		t.Errorf("wire gets moved txn begins %d->%d, aborts %d->%d",
			before.Txn.Begins, after.Txn.Begins, before.Txn.Aborts, after.Txn.Aborts)
	}
	if got := after.Access.GetLatency.Count - before.Access.GetLatency.Count; got != n {
		t.Errorf("access get count grew by %d, want %d", got, n)
	}
}
