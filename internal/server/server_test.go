package server

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"famedb/internal/access"
	"famedb/internal/index"
	"famedb/internal/osal"
	"famedb/internal/repl"
	"famedb/internal/stats"
	"famedb/internal/storage"
	"famedb/internal/txn"
)

// node is one in-process database: store, index, and transaction
// manager over a MemFS — the same stack the composer builds for a
// Replication product.
type node struct {
	fs  osal.FS
	idx index.Index
	mgr *txn.Manager
}

func newNode(t *testing.T) *node { return newNodeOver(t, nil) }

// newNodeOver builds a node whose store sees the index through wrap
// (nil: directly) — the seam tests use to hold the apply path open.
func newNodeOver(t *testing.T, wrap func(index.Index) index.Index) *node {
	t.Helper()
	fs := osal.NewMemFS()
	f, err := fs.Create("p.db")
	if err != nil {
		t.Fatal(err)
	}
	pf, err := storage.CreatePageFile(f, 512)
	if err != nil {
		t.Fatal(err)
	}
	bt, _, err := index.CreateBTree(pf, index.AllBTreeOps())
	if err != nil {
		t.Fatal(err)
	}
	var idx index.Index = bt
	if wrap != nil {
		idx = wrap(bt)
	}
	store := access.New(idx, access.AllOps())
	mgr, err := txn.Open(fs, "wal.log", store, txn.Options{
		Locking:  true,
		Recovery: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	return &node{fs: fs, idx: idx, mgr: mgr}
}

// newGroupNode builds a node with the group-commit pipeline (a batch
// limit of 8) whose log lives on logFS, and whose Checkpoint works.
func newGroupNode(t *testing.T, logFS osal.FS) *node {
	t.Helper()
	fs := osal.NewMemFS()
	f, err := fs.Create("p.db")
	if err != nil {
		t.Fatal(err)
	}
	pf, err := storage.CreatePageFile(f, 512)
	if err != nil {
		t.Fatal(err)
	}
	bt, _, err := index.CreateBTree(pf, index.AllBTreeOps())
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := txn.Open(logFS, "wal.log", access.New(bt, access.AllOps()), txn.Options{
		BatchLimit: txn.GroupCommit(0),
		Locking:    true,
		Recovery:   true,
		SyncStore:  pf.Sync,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	return &node{fs: logFS, idx: bt, mgr: mgr}
}

// primaryNode wires a node to a Shipper and serves it.
func primaryNode(t *testing.T, reg *stats.Registry) (*node, *Server, *repl.Shipper) {
	t.Helper()
	n := newNode(t)
	shipper := repl.NewShipper(reg)
	n.mgr.SetOnShip(shipper.OnShip)
	srv, err := Serve("127.0.0.1:0", Config{
		Mgr:     n.mgr,
		Shipper: shipper,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		shipper.Close()
	})
	return n, srv, shipper
}

// assertPrefix asserts the replica WAL is a byte-exact prefix of the
// primary's (via the same CRC fingerprint the handshake uses) and the
// two indexes hold identical data.
func assertReplicated(t *testing.T, primary, replica *node) {
	t.Helper()
	end, crc, err := replica.mgr.ShipApplier().PrefixCRC()
	if err != nil {
		t.Fatal(err)
	}
	if end != primary.mgr.WALEnd() {
		t.Fatalf("replica wal end %d, primary %d", end, primary.mgr.WALEnd())
	}
	pcrc, err := primary.mgr.WALPrefixCRC(end)
	if err != nil {
		t.Fatal(err)
	}
	if crc != pcrc {
		t.Fatalf("replica wal prefix crc %08x, primary %08x", crc, pcrc)
	}
	if err := repl.VerifyIndexes(primary.idx, replica.idx); err != nil {
		t.Fatalf("index verify: %v", err)
	}
}

func TestProtoRoundTrip(t *testing.T) {
	ops := []Op{
		{Key: []byte("a"), Value: []byte("1")},
		{Remove: true, Key: []byte("b")},
		{Key: []byte(""), Value: bytes.Repeat([]byte("x"), 300)},
	}
	got, err := decodeBatch(encodeBatch(ops))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(ops))
	}
	for i := range ops {
		if got[i].Remove != ops[i].Remove ||
			!bytes.Equal(got[i].Key, ops[i].Key) ||
			!bytes.Equal(got[i].Value, ops[i].Value) {
			t.Fatalf("op %d mismatch: %+v vs %+v", i, got[i], ops[i])
		}
	}
	h := hello{Offset: 12345, CRC: 0xdeadbeef, ForceSnap: true}
	hd, err := decodeHello(encodeHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if hd != h {
		t.Fatalf("hello %+v round-tripped to %+v", h, hd)
	}
	f := frameMsg{Seq: 7, Base: 99, Bytes: []byte("chunk")}
	fd, err := decodeFrameMsg(encodeFrameMsg(f))
	if err != nil {
		t.Fatal(err)
	}
	if fd.Seq != f.Seq || fd.Base != f.Base || !bytes.Equal(fd.Bytes, f.Bytes) {
		t.Fatalf("frame %+v round-tripped to %+v", f, fd)
	}
	// Malformed inputs must error, not panic.
	for _, bad := range [][]byte{nil, {0xff}, {3, 1}} {
		if _, err := decodeBatch(bad); err == nil {
			t.Fatalf("decodeBatch(%v) accepted garbage", bad)
		}
		if _, err := decodeHello(bad); err == nil {
			t.Fatalf("decodeHello(%v) accepted garbage", bad)
		}
	}
}

// TestWireClaimsDoNotAllocate: a length or count a peer claims is not
// an allocation it gets. A frame header claiming MaxFrame bytes that
// never arrive, and a batch claiming 1<<20 ops in an 8-byte payload,
// fail without allocating what they claim.
func TestWireClaimsDoNotAllocate(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := readFrame(bytes.NewReader([]byte{0x04, 0, 0, 0, cmdPut})); err == nil {
		t.Fatal("readFrame accepted a frame whose bytes never arrived")
	}
	if _, err := decodeBatch([]byte{0x80, 0x80, 0x40, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("decodeBatch accepted 1<<20 ops in 8 bytes")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("two truncated inputs allocated %d bytes", grew)
	}
}

func TestClientServerBasic(t *testing.T) {
	n := newNode(t)
	srv, err := Serve("127.0.0.1:0", Config{Mgr: n.mgr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := DialClient(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Timeout = 5 * time.Second

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get([]byte("k1"))
	if err != nil || !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("Get k1 = %q, %v", got, err)
	}
	if _, err := c.Get([]byte("nope")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing = %v, want ErrNotFound", err)
	}
	if err := c.Update([]byte("nope"), []byte("x")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Update missing = %v, want ErrNotFound", err)
	}
	if err := c.Update([]byte("k1"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove([]byte("nope")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Remove missing = %v, want ErrNotFound", err)
	}
	if err := c.Batch([]Op{
		{Key: []byte("b1"), Value: []byte("1")},
		{Key: []byte("b2"), Value: []byte("2")},
	}); err != nil {
		t.Fatal(err)
	}
	// A batch that fails midway aborts wholesale: b3 must not appear.
	err = c.Batch([]Op{
		{Key: []byte("b3"), Value: []byte("3")},
		{Remove: true, Key: []byte("missing")},
	})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("failing batch = %v, want RemoteError", err)
	}
	if _, err := c.Get([]byte("b3")); !errors.Is(err, ErrNotFound) {
		t.Fatal("aborted batch leaked b3")
	}
	if err := c.Remove([]byte("k1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get([]byte("k1")); !errors.Is(err, ErrNotFound) {
		t.Fatal("Remove did not remove k1")
	}
}

func TestClientPipelining(t *testing.T) {
	n := newNode(t)
	srv, err := Serve("127.0.0.1:0", Config{Mgr: n.mgr, maxInflight: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := DialClient(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Timeout = 10 * time.Second

	// Queue far more than maxInflight: the admission bound must
	// backpressure, not drop or deadlock.
	const N = 200
	for i := 0; i < N; i++ {
		if err := c.QueuePut(fmt.Appendf(nil, "key-%03d", i), fmt.Appendf(nil, "val-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < N; i++ {
		if err := c.AwaitOK(); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < N; i++ {
		if err := c.QueueGet(fmt.Appendf(nil, "key-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < N; i++ {
		v, err := c.AwaitValue()
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if want := fmt.Sprintf("val-%03d", i); string(v) != want {
			t.Fatalf("get %d = %q, want %q (responses out of order?)", i, v, want)
		}
	}
}

// TestPipelinedMixedWindowInOrder sends windows of 2×MaxInflight frames
// mixing every command — reads, commits that may wait on the device,
// pings, batches that abort — in one flush each. Every response must
// match a sequential model in order: the session stages writes and runs
// gets at once, so a get that overtook the staged write of its own key,
// or a response answered out of order or never flushed, shows up as a
// wrong or stalled answer.
func TestPipelinedMixedWindowInOrder(t *testing.T) {
	const inflight = 8
	n := newNode(t)
	srv, err := Serve("127.0.0.1:0", Config{Mgr: n.mgr, maxInflight: inflight})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mixedWindows(t, srv.Addr(), inflight, 5, "k")
}

// TestPipelinedMixedWindowInOrderTwoClients runs the mixed windows from
// two sessions at once on disjoint keys over a group-commit product, so
// the sessions' staged writes share batches.
func TestPipelinedMixedWindowInOrderTwoClients(t *testing.T) {
	const inflight = 8
	n := newGroupNode(t, osal.NewDelayFS(osal.NewMemFS(), 0, 200*time.Microsecond))
	srv, err := Serve("127.0.0.1:0", Config{Mgr: n.mgr, maxInflight: inflight})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mixedWindows(t, srv.Addr(), inflight, int64(5+c), fmt.Sprintf("c%d-k", c))
		}(c)
	}
	wg.Wait()
}

// mixedWindows drives one session through 20 mixed windows of
// 2×inflight frames on keys prefix00..prefix11, checking every response
// against a sequential model, then reads the model back.
func mixedWindows(t *testing.T, addr string, inflight int, seed int64, prefix string) {
	c, err := DialClient(addr)
	if err != nil {
		t.Error(err)
		return
	}
	defer c.Close()
	c.Timeout = 10 * time.Second
	type expect struct {
		get    bool
		value  string // get: the value; empty with notFound
		status error  // nil, ErrNotFound, or errRemote
	}
	errRemote := errors.New("remote error")
	model := map[string]string{}
	rng := rand.New(rand.NewSource(seed))
	key := func() []byte { return fmt.Appendf(nil, "%s%02d", prefix, rng.Intn(12)) }
	missing := func(k []byte) error {
		if _, ok := model[string(k)]; ok {
			return nil
		}
		return ErrNotFound
	}
	for window := 0; window < 20; window++ {
		var want []expect
		for i := 0; i < 2*inflight; i++ {
			var err error
			switch op := rng.Intn(6); op {
			case 0, 1: // put, update
				k, v := key(), fmt.Sprintf("v%d-%d", window, i)
				typ := cmdPut
				st := error(nil)
				if op == 1 {
					typ, st = cmdUpdate, missing(k)
				}
				if st == nil {
					model[string(k)] = v
				}
				err = c.queue(typ, encodeKV(k, []byte(v)))
				want = append(want, expect{status: st})
			case 2: // get
				k := key()
				v, ok := model[string(k)]
				st := error(nil)
				if !ok {
					st = ErrNotFound
				}
				err = c.QueueGet(k)
				want = append(want, expect{get: true, value: v, status: st})
			case 3: // remove
				k := key()
				st := missing(k)
				delete(model, string(k))
				err = c.queue(cmdRemove, appendBytes(nil, k))
				want = append(want, expect{status: st})
			case 4: // batch: two puts, then half the time a remove that aborts it
				ops := []Op{{Key: key(), Value: []byte("b1")}, {Key: key(), Value: []byte("b2")}}
				st := error(nil)
				if rng.Intn(2) == 0 {
					ops = append(ops, Op{Remove: true, Key: []byte("absent")})
					st = errRemote
				} else {
					for _, op := range ops {
						model[string(op.Key)] = string(op.Value)
					}
				}
				err = c.QueueBatch(ops)
				want = append(want, expect{status: st})
			case 5:
				err = c.queue(cmdPing, nil)
				want = append(want, expect{})
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
		if err := c.Flush(); err != nil {
			t.Error(err)
			return
		}
		for i, w := range want {
			var got []byte
			var err error
			if w.get {
				got, err = c.AwaitValue()
			} else {
				err = c.AwaitOK()
			}
			var re *RemoteError
			if errors.As(err, &re) {
				err = errRemote
			}
			if err != w.status || string(got) != w.value {
				t.Errorf("window %d frame %d: got %q, %v; want %q, %v", window, i, got, err, w.value, w.status)
				return
			}
		}
	}
	for k, v := range model {
		got, err := c.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Errorf("final Get(%s) = %q, %v; want %q", k, got, err, v)
			return
		}
	}
}

// TestSessionEndWithStagedCommits drops a session right after it sent
// a window of writes to a slow log device, so its commits are staged
// and unresolved when the session ends: Checkpoint, the server's Close
// and the manager's Close must all return.
func TestSessionEndWithStagedCommits(t *testing.T) {
	n := newGroupNode(t, osal.NewDelayFS(osal.NewMemFS(), 0, 2*time.Millisecond))
	srv, err := Serve("127.0.0.1:0", Config{Mgr: n.mgr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for round := 0; round < 3; round++ {
		c, err := DialClient(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			if err := c.QueuePut(fmt.Appendf(nil, "r%d-%02d", round, i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		c.Close()
		returns(t, "Checkpoint", n.mgr.Checkpoint)
	}
	returns(t, "Server.Close", srv.Close)
	returns(t, "Manager.Close", n.mgr.Close)
}

// returns fails the test unless fn returns nil within five seconds.
func returns(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return with a session's commits staged", what)
	}
}

func TestServerReadDeadlineReapsIdleClient(t *testing.T) {
	n := newNode(t)
	srv, err := Serve("127.0.0.1:0", Config{Mgr: n.mgr, readTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing. The server must cut us off, observable as EOF.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var one [1]byte
	if _, err := conn.Read(one[:]); err == nil {
		t.Fatal("idle connection survived the read deadline")
	}
}

func TestReplicationEndToEnd(t *testing.T) {
	reg := stats.New()
	primary, srv, _ := primaryNode(t, reg)

	// Seed some state before any replica exists: the first handshake
	// catches up from offset 0 (empty-log CRC matches — it is a valid
	// prefix).
	for i := 0; i < 10; i++ {
		tx := primary.mgr.Begin()
		tx.Put(fmt.Appendf(nil, "seed-%02d", i), []byte("s"))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	r1n, r2n := newNode(t), newNode(t)
	r1, err := StartReplica(ReplicaConfig{Addr: srv.Addr(), Applier: r1n.mgr.ShipApplier(), seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Stop()
	r2, err := StartReplica(ReplicaConfig{Addr: srv.Addr(), Applier: r2n.mgr.ShipApplier(), seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Live commits while both replicas stream.
	for i := 0; i < 40; i++ {
		tx := primary.mgr.Begin()
		tx.Put(fmt.Appendf(nil, "live-%02d", i), fmt.Appendf(nil, "v%02d", i))
		if i%5 == 0 {
			tx.Remove(fmt.Appendf(nil, "seed-%02d", i/5))
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	target := primary.mgr.WALEnd()
	if !r1.WaitFor(target, 5*time.Second) {
		t.Fatalf("replica 1 stuck at %d, want %d", r1.Offset(), target)
	}
	if !r2.WaitFor(target, 5*time.Second) {
		t.Fatalf("replica 2 stuck at %d, want %d", r2.Offset(), target)
	}
	assertReplicated(t, primary, r1n)
	assertReplicated(t, primary, r2n)

	snap := reg.Snapshot()
	if snap.Repl.Connected != 2 {
		t.Fatalf("connected gauge = %d, want 2", snap.Repl.Connected)
	}
	if snap.Repl.ShippedChunks == 0 {
		t.Fatalf("repl counters flat: %+v", snap.Repl)
	}
	// WaitFor returns once the replica has applied and *sent* its ack;
	// the primary may not have read it yet, so poll the counter.
	ackDeadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Repl.Acks == 0 {
		if time.Now().After(ackDeadline) {
			t.Fatalf("repl ack counter flat: %+v", reg.Snapshot().Repl)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Losing a replica updates the gauge without disturbing the other.
	r2.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Repl.Connected != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("connected gauge stuck at %d after replica stop", reg.Snapshot().Repl.Connected)
		}
		time.Sleep(5 * time.Millisecond)
	}
	tx := primary.mgr.Begin()
	tx.Put([]byte("after-loss"), []byte("ok"))
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit with one dead replica: %v", err)
	}
	if !r1.WaitFor(primary.mgr.WALEnd(), 5*time.Second) {
		t.Fatal("surviving replica stopped streaming")
	}
	assertReplicated(t, primary, r1n)
}

// gateIndex holds every Insert at a gate, so a test can stop the
// replica's redo between "chunk durable in the log" and "chunk applied
// to the store".
type gateIndex struct {
	index.Index
	entered chan struct{} // one token per Insert that reached the gate
	release chan struct{} // closed to let Inserts through
}

func (g *gateIndex) Insert(key, value []byte) error {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.release
	return g.Index.Insert(key, value)
}

// TestWaitForMeansApplied is the regression for the durable-vs-applied
// ordering flake: a shipped chunk is durable in the replica's log
// before it is redone, and WaitFor must not report the offset reached
// until the redo and the version install are done — its callers go on
// to read the replica's store.
func TestWaitForMeansApplied(t *testing.T) {
	primary, srv, _ := primaryNode(t, stats.New())
	gate := &gateIndex{entered: make(chan struct{}, 1), release: make(chan struct{})}
	rn := newNodeOver(t, func(idx index.Index) index.Index {
		gate.Index = idx
		return gate
	})
	ap := rn.mgr.ShipApplier()
	r, err := StartReplica(ReplicaConfig{Addr: srv.Addr(), Applier: ap, seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	// Runs before Stop and the node's Close, which would otherwise wait
	// on an apply a failed assertion left at the gate.
	open := sync.OnceFunc(func() { close(gate.release) })
	defer open()

	tx := primary.mgr.Begin()
	tx.Put([]byte("k"), []byte("v"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	target := primary.mgr.WALEnd()

	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the shipped commit never reached the replica's redo")
	}
	// Redo is held open: the chunk is in the replica's log, not in its
	// store.
	if end := ap.End(); end < target {
		t.Fatalf("replica log end %d < %d with redo in progress: the chunk must be durable first", end, target)
	}
	if r.WaitFor(target, 50*time.Millisecond) {
		t.Fatalf("WaitFor(%d) returned while redo was still held open (offset %d)", target, r.Offset())
	}
	if _, found, _ := gate.Index.Get([]byte("k")); found {
		t.Fatal("key visible before the gate opened")
	}

	open()
	if !r.WaitFor(target, 5*time.Second) {
		t.Fatalf("replica stuck at %d of %d after redo was released", r.Offset(), target)
	}
	assertReplicated(t, primary, rn)
}

func TestReplicaSnapshotResyncOnDivergence(t *testing.T) {
	reg := stats.New()
	primary, srv, _ := primaryNode(t, reg)

	for i := 0; i < 20; i++ {
		tx := primary.mgr.Begin()
		tx.Put(fmt.Appendf(nil, "p-%02d", i), []byte("v"))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	// The replica node carries unrelated local history: its WAL is not a
	// prefix of the primary's, so the handshake CRC mismatches and the
	// primary must ship a full snapshot (wiping the junk key).
	rn := newNode(t)
	tx := rn.mgr.Begin()
	tx.Put([]byte("junk"), []byte("divergent"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r, err := StartReplica(ReplicaConfig{Addr: srv.Addr(), Applier: rn.mgr.ShipApplier(), seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	if !r.WaitFor(primary.mgr.WALEnd(), 5*time.Second) {
		t.Fatalf("replica stuck at %d", r.Offset())
	}
	assertReplicated(t, primary, rn)
	if _, ok, _ := rn.idx.Get([]byte("junk")); ok {
		t.Fatal("snapshot resync left divergent key behind")
	}
	// The primary counts the resync once its last frame is written, which
	// can be after the replica has applied it, so poll the counter.
	snapDeadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Repl.Snapshots == 0 {
		if time.Now().After(snapDeadline) {
			t.Fatal("no snapshot resync recorded")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// And the resynced replica streams live traffic afterwards.
	tx = primary.mgr.Begin()
	tx.Put([]byte("post-snap"), []byte("v"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !r.WaitFor(primary.mgr.WALEnd(), 5*time.Second) {
		t.Fatal("replica not streaming after snapshot resync")
	}
	assertReplicated(t, primary, rn)
}

// TestReplicaSeqGapForcesSnapshot drives the replica client against a
// fake primary that skips a sequence number; the reconnect handshake
// must carry ForceSnap per the robustness contract.
func TestReplicaSeqGapForcesSnapshot(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	forceSnap := make(chan bool, 2)
	go func() {
		for i := 0; i < 2; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			typ, payload, err := readFrame(conn)
			if err != nil || typ != replHello {
				conn.Close()
				continue
			}
			h, err := decodeHello(payload)
			if err != nil {
				conn.Close()
				continue
			}
			forceSnap <- h.ForceSnap
			if i == 0 {
				// Ship seq 1 then 3: a gap. The chunk bytes are empty,
				// so the gap check is all that fires. Then drain acks
				// until the replica hangs up — closing early could fail
				// the replica's ack before it even reads the gap frame.
				writeFrame(conn, replFrames, encodeFrameMsg(frameMsg{Seq: 1, Base: 8, Bytes: nil}))
				writeFrame(conn, replFrames, encodeFrameMsg(frameMsg{Seq: 3, Base: 8, Bytes: nil}))
				for {
					if _, _, err := readFrame(conn); err != nil {
						break
					}
				}
			}
			conn.Close()
		}
	}()

	rn := newNode(t)
	r, err := StartReplica(ReplicaConfig{Addr: ln.Addr().String(), Applier: rn.mgr.ShipApplier(), seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	if got := <-forceSnap; got {
		t.Fatal("first handshake already forced a snapshot")
	}
	select {
	case got := <-forceSnap:
		if !got {
			t.Fatal("post-gap handshake did not force a snapshot")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("replica never reconnected after sequence gap")
	}
}

func TestServerWithoutShipperRefusesRepl(t *testing.T) {
	n := newNode(t)
	srv, err := Serve("127.0.0.1:0", Config{Mgr: n.mgr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, replHello, encodeHello(hello{})); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != respErr {
		t.Fatalf("response %d %q, want respErr", typ, payload)
	}
}
