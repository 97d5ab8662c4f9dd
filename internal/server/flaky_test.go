package server

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"famedb/internal/osal"
	"famedb/internal/stats"
)

// flakyDialer wraps each replica connection in a seeded FlakyConn until
// heal() is called; after that connections are clean, so convergence is
// guaranteed once the fault window closes.
type flakyDialer struct {
	seed   int64
	rules  func(attempt int64) []osal.NetRule
	dials  atomic.Int64
	healed atomic.Bool
	faulty atomic.Int64
}

func (d *flakyDialer) dial(addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	n := d.dials.Add(1)
	if d.healed.Load() {
		return conn, nil
	}
	d.faulty.Add(1)
	return osal.NewFlakyConn(conn, d.seed+n, d.rules(n)...), nil
}

func (d *flakyDialer) heal() { d.healed.Store(true) }

// TestReplicaResyncUnderFlakyConn is the satellite-3 scenario: the
// replica's transport drops mid-frame while the primary keeps
// committing; every reconnect handshakes with the WAL fingerprint, the
// missed range is detected, and the catch-up resync converges to a
// byte-exact prefix with identical indexes.
func TestReplicaResyncUnderFlakyConn(t *testing.T) {
	reg := stats.New()
	primary, srv, _ := primaryNode(t, reg)

	dialer := &flakyDialer{
		seed: 42,
		rules: func(attempt int64) []osal.NetRule {
			// Each session survives a few frame reads, then the
			// connection drops partway through the next one.
			return []osal.NetRule{{Class: osal.NetRead, At: 4 + attempt, Kind: osal.NetDrop}}
		},
	}
	rn := newNode(t)
	r, err := StartReplica(ReplicaConfig{
		Addr:        srv.Addr(),
		Applier:     rn.mgr.ShipApplier(),
		Dial:        dialer.dial,
		seed:        7,
		baseBackoff: time.Millisecond,
		maxBackoff:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	for i := 0; i < 60; i++ {
		tx := primary.mgr.Begin()
		tx.Put(fmt.Appendf(nil, "flaky-%03d", i), fmt.Appendf(nil, "v%03d", i))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	// Close the fault window so the tail can land, then require full
	// convergence.
	dialer.heal()
	if !r.WaitFor(primary.mgr.WALEnd(), 10*time.Second) {
		t.Fatalf("replica stuck at %d of %d after faults healed",
			r.Offset(), primary.mgr.WALEnd())
	}
	assertReplicated(t, primary, rn)

	if dialer.faulty.Load() == 0 || dialer.dials.Load() < 2 {
		t.Fatalf("fault schedule never engaged: %d dials, %d faulty",
			dialer.dials.Load(), dialer.faulty.Load())
	}
	snap := reg.Snapshot()
	if snap.Repl.CatchUps+snap.Repl.Snapshots < 2 {
		t.Fatalf("expected repeated resyncs across reconnects, got %+v", snap.Repl)
	}
}

// TestReplicaPartitionedThenHeals uses the partition fault (timeouts
// instead of clean drops): the replica's reads stall, its session dies
// on the wedged transport, and backoff+retry still converge.
func TestReplicaPartitionedThenHeals(t *testing.T) {
	reg := stats.New()
	primary, srv, _ := primaryNode(t, reg)

	dialer := &flakyDialer{
		seed: 99,
		rules: func(attempt int64) []osal.NetRule {
			return []osal.NetRule{{Class: osal.NetRead, At: 3, Kind: osal.NetPartition, Heal: 2}}
		},
	}
	rn := newNode(t)
	r, err := StartReplica(ReplicaConfig{
		Addr:        srv.Addr(),
		Applier:     rn.mgr.ShipApplier(),
		Dial:        dialer.dial,
		seed:        8,
		baseBackoff: time.Millisecond,
		maxBackoff:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	for i := 0; i < 20; i++ {
		tx := primary.mgr.Begin()
		tx.Put(fmt.Appendf(nil, "part-%02d", i), []byte("v"))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	dialer.heal()
	if !r.WaitFor(primary.mgr.WALEnd(), 10*time.Second) {
		t.Fatalf("replica stuck at %d after partition healed", r.Offset())
	}
	assertReplicated(t, primary, rn)
}

// TestServerStress is the CI race target: 16 pipelined clients hammer
// the primary while two replicas stream, one of them through a faulty
// transport. Run with -race.
func TestServerStress(t *testing.T) {
	reg := stats.New()
	primary, srv, _ := primaryNode(t, reg)

	const (
		clients       = 16
		opsPerClient  = 40
		pipelineDepth = 10
	)

	// Replica 1: clean transport. Replica 2: drops on a schedule.
	r1n := newNode(t)
	r1, err := StartReplica(ReplicaConfig{Addr: srv.Addr(), Applier: r1n.mgr.ShipApplier(), seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Stop()
	dialer := &flakyDialer{
		seed: 1234,
		rules: func(attempt int64) []osal.NetRule {
			return []osal.NetRule{{Class: osal.NetRead, At: 6 + 3*attempt, Kind: osal.NetDrop}}
		},
	}
	r2n := newNode(t)
	r2, err := StartReplica(ReplicaConfig{
		Addr:        srv.Addr(),
		Applier:     r2n.mgr.ShipApplier(),
		Dial:        dialer.dial,
		seed:        12,
		baseBackoff: time.Millisecond,
		maxBackoff:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Stop()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := DialClient(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			cl.Timeout = 30 * time.Second
			for base := 0; base < opsPerClient; base += pipelineDepth {
				for i := 0; i < pipelineDepth; i++ {
					k := fmt.Appendf(nil, "c%02d-%03d", c, base+i)
					if err := cl.QueuePut(k, fmt.Appendf(nil, "v-%d", base+i)); err != nil {
						errs <- err
						return
					}
				}
				if err := cl.Flush(); err != nil {
					errs <- err
					return
				}
				for i := 0; i < pipelineDepth; i++ {
					if err := cl.AwaitOK(); err != nil {
						errs <- fmt.Errorf("client %d: %w", c, err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	dialer.heal()
	target := primary.mgr.WALEnd()
	if !r1.WaitFor(target, 15*time.Second) {
		t.Fatalf("clean replica stuck at %d of %d", r1.Offset(), target)
	}
	if !r2.WaitFor(target, 15*time.Second) {
		t.Fatalf("faulty replica stuck at %d of %d", r2.Offset(), target)
	}
	assertReplicated(t, primary, r1n)
	assertReplicated(t, primary, r2n)

	// Spot-check the data actually written, through the wire.
	cl, err := DialClient(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for c := 0; c < clients; c++ {
		v, err := cl.Get(fmt.Appendf(nil, "c%02d-%03d", c, opsPerClient-1))
		if err != nil {
			t.Fatalf("client %d last key: %v", c, err)
		}
		if want := fmt.Sprintf("v-%d", opsPerClient-1); string(v) != want {
			t.Fatalf("client %d last key = %q, want %q", c, v, want)
		}
	}
}
