package txn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"famedb/internal/access"
	"famedb/internal/index"
)

// shipPair builds a primary manager whose durable batches feed directly
// into a fresh replica manager's applier.
type shipPair struct {
	primary *env
	replica *env
	pm, rm  *Manager
	applier *ShipApplier
	chunks  []shipChunk
}

type shipChunk struct {
	base int64
	buf  []byte
}

func newShipPair(t *testing.T) *shipPair {
	t.Helper()
	p := &shipPair{primary: newEnv(t), replica: newEnv(t)}
	p.pm = p.primary.openMgr(t, Options{Locking: true, Recovery: true})
	p.rm = p.replica.openMgr(t, Options{Locking: true, Recovery: true})
	p.applier = p.rm.ShipApplier()
	p.pm.SetOnShip(func(base int64, buf []byte) {
		p.chunks = append(p.chunks, shipChunk{base, append([]byte(nil), buf...)})
	})
	return p
}

func (p *shipPair) commit(t *testing.T, k, v string) {
	t.Helper()
	tx := p.pm.Begin()
	if err := tx.Put([]byte(k), []byte(v)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func (p *shipPair) applyAll(t *testing.T) {
	t.Helper()
	for _, c := range p.chunks {
		if err := p.applier.Apply(c.base, c.buf); err != nil {
			t.Fatalf("apply base %d: %v", c.base, err)
		}
	}
	p.chunks = nil
}

// assertPrefix checks the replica WAL is a byte-exact prefix of the
// primary's and the stores agree on every replica key.
func (p *shipPair) assertPrefix(t *testing.T) {
	t.Helper()
	re := p.rm.WALEnd()
	pe := p.pm.WALEnd()
	if re > pe {
		t.Fatalf("replica wal end %d past primary %d", re, pe)
	}
	rb := make([]byte, re)
	pb := make([]byte, re)
	if _, err := p.rm.wal.f.ReadAt(rb, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.pm.wal.f.ReadAt(pb, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rb, pb) {
		t.Fatalf("replica wal is not a byte-exact prefix of primary")
	}
}

func TestShipChunksReplicate(t *testing.T) {
	p := newShipPair(t)
	for i := 0; i < 10; i++ {
		p.commit(t, fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d", i))
	}
	p.applyAll(t)
	p.assertPrefix(t)
	if p.rm.WALEnd() != p.pm.WALEnd() {
		t.Fatalf("replica end %d != primary end %d", p.rm.WALEnd(), p.pm.WALEnd())
	}
	for i := 0; i < 10; i++ {
		v, err := p.replica.store.Get([]byte(fmt.Sprintf("k%03d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("replica k%03d = %q, %v", i, v, err)
		}
	}
}

func TestShipDuplicateAndGap(t *testing.T) {
	p := newShipPair(t)
	p.commit(t, "a", "1")
	p.commit(t, "b", "2")
	p.commit(t, "c", "3")
	chunks := p.chunks
	p.chunks = nil
	// Gap: applying chunk 2 before chunk 0 must be rejected.
	if err := p.applier.Apply(chunks[2].base, chunks[2].buf); !errors.Is(err, ErrShipGap) {
		t.Fatalf("gap apply: want ErrShipGap, got %v", err)
	}
	// In order works, and re-applying a chunk is a verified no-op.
	for _, c := range chunks {
		if err := p.applier.Apply(c.base, c.buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.applier.Apply(chunks[1].base, chunks[1].buf); err != nil {
		t.Fatalf("duplicate apply: %v", err)
	}
	p.assertPrefix(t)
}

func TestShipDivergedChunkRejected(t *testing.T) {
	p := newShipPair(t)
	p.commit(t, "a", "1")
	c := p.chunks[0]
	bad := append([]byte(nil), c.buf...)
	bad[len(bad)-1] ^= 0xff
	if err := p.applier.Apply(c.base, bad); !errors.Is(err, ErrShipDiverged) {
		t.Fatalf("corrupt chunk: want ErrShipDiverged, got %v", err)
	}
	// A truncated-mid-frame chunk is rejected before touching the log.
	if err := p.applier.Apply(c.base, c.buf[:len(c.buf)/2]); !errors.Is(err, ErrShipDiverged) {
		t.Fatalf("truncated chunk: want ErrShipDiverged, got %v", err)
	}
	if p.rm.WALEnd() != int64(len(walMagic)) {
		t.Fatalf("rejected chunks advanced the log to %d", p.rm.WALEnd())
	}
	// The intact chunk still applies.
	if err := p.applier.Apply(c.base, c.buf); err != nil {
		t.Fatal(err)
	}
	p.assertPrefix(t)
}

func TestShipPrefixCRCHandshake(t *testing.T) {
	p := newShipPair(t)
	p.commit(t, "a", "1")
	p.commit(t, "b", "2")
	p.applyAll(t)
	off, crc, err := p.applier.PrefixCRC()
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.pm.WALPrefixCRC(off)
	if err != nil {
		t.Fatal(err)
	}
	if crc != want {
		t.Fatalf("handshake crc mismatch: replica %08x primary %08x", crc, want)
	}
	// More primary traffic, then incremental catch-up via range read.
	p.commit(t, "c", "3")
	p.commit(t, "d", "4")
	tail, err := p.pm.ReadWALRange(off, p.pm.WALEnd())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.applier.Apply(off, tail); err != nil {
		t.Fatal(err)
	}
	p.assertPrefix(t)
	if v, err := p.replica.store.Get([]byte("d")); err != nil || string(v) != "4" {
		t.Fatalf("after catch-up d = %q, %v", v, err)
	}
}

func TestShipSnapshotInstall(t *testing.T) {
	p := newShipPair(t)
	for i := 0; i < 8; i++ {
		p.commit(t, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	// Replica holds unrelated junk that must be wiped.
	jtx := p.rm.Begin()
	jtx.Put([]byte("junk"), []byte("old"))
	if err := jtx.Commit(); err != nil {
		t.Fatal(err)
	}
	snap, err := p.pm.ShipSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.applier.InstallSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if p.applier.NeedsResync() {
		t.Fatal("marker survived a completed install")
	}
	p.assertPrefix(t)
	if p.rm.WALEnd() != p.pm.WALEnd() {
		t.Fatalf("replica end %d != primary end %d", p.rm.WALEnd(), p.pm.WALEnd())
	}
	if _, err := p.replica.store.Get([]byte("junk")); err == nil {
		t.Fatal("stale replica key survived the snapshot install")
	}
	for i := 0; i < 8; i++ {
		v, err := p.replica.store.Get([]byte(fmt.Sprintf("k%d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("replica k%d = %q, %v", i, v, err)
		}
	}
	// Post-snapshot live chunks keep applying.
	p.chunks = nil
	p.commit(t, "after", "snap")
	p.applyAll(t)
	if v, err := p.replica.store.Get([]byte("after")); err != nil || string(v) != "snap" {
		t.Fatalf("post-snapshot chunk: %q, %v", v, err)
	}
}

func TestShipCheckpointRewindHealsViaSnapshot(t *testing.T) {
	p := newShipPair(t)
	p.commit(t, "a", "1")
	p.commit(t, "b", "2")
	p.applyAll(t)
	// Primary checkpoints: its log resets, the replica's handshake CRC
	// no longer matches any primary prefix at that offset.
	if err := p.pm.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	p.chunks = nil
	p.commit(t, "c", "3")
	// The post-reset chunk does not chain onto the replica's end.
	off, crc, err := p.applier.PrefixCRC()
	if err != nil {
		t.Fatal(err)
	}
	if off <= p.pm.WALEnd() {
		if want, err := p.pm.WALPrefixCRC(off); err == nil && want == crc {
			t.Fatal("handshake should have detected divergence")
		}
	}
	snap, err := p.pm.ShipSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.applier.InstallSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	p.assertPrefix(t)
	for _, kv := range [][2]string{{"a", "1"}, {"b", "2"}, {"c", "3"}} {
		v, err := p.replica.store.Get([]byte(kv[0]))
		if err != nil || string(v) != kv[1] {
			t.Fatalf("after resync %s = %q, %v", kv[0], v, err)
		}
	}
}

// TestShipApplierResumesMidBatch covers the torn-tail resume path: a
// replica whose log ends inside a batch (the put frame landed, the
// commit frame did not — what openWAL's torn-tail truncation produces)
// restarts with a FRESH applier, and the commit arrives in the next
// chunk. The new applier must have seeded the dangling records as
// pending, or the commit would apply an empty transaction.
func TestShipApplierResumesMidBatch(t *testing.T) {
	p := newShipPair(t)
	p.commit(t, "survivor", "v1")
	c := p.chunks[0]
	// Split the batch at its first frame boundary: [len][crc][payload].
	flen := int64(8 + binary.LittleEndian.Uint32(c.buf[0:4]))
	if flen >= int64(len(c.buf)) {
		t.Fatalf("batch %d bytes holds a single frame; cannot split", len(c.buf))
	}
	if err := p.applier.Apply(c.base, c.buf[:flen]); err != nil {
		t.Fatal(err)
	}
	// Restart: the dangling put is durable, its commit is not.
	fresh := p.rm.ShipApplier()
	if err := fresh.Apply(c.base+flen, c.buf[flen:]); err != nil {
		t.Fatal(err)
	}
	p.assertPrefix(t)
	v, err := p.replica.store.Get([]byte("survivor"))
	if err != nil || string(v) != "v1" {
		t.Fatalf("mid-batch resume lost the write: %q, %v", v, err)
	}
}

// errRefused is the refusingIndex's write error.
var errRefused = errors.New("store refuses writes")

// refusingIndex is a store whose device refuses every insert.
type refusingIndex struct{ index.Index }

func (refusingIndex) Insert(key, value []byte) error { return errRefused }

// TestReplicaApplyFailsWhenStoreRefuses: a chunk whose redo the store
// refuses is not applied, so Apply reports the store's error and Applied
// — the offset the replica acks as applied — does not move.
func TestReplicaApplyFailsWhenStoreRefuses(t *testing.T) {
	primary, replica := newEnv(t), newEnv(t)
	replica.store = access.New(refusingIndex{replica.store.Index()}, access.AllOps())
	pm := primary.openMgr(t, Options{Locking: true, Recovery: true})
	rm := replica.openMgr(t, Options{Locking: true, Recovery: true})
	var chunks []shipChunk
	pm.SetOnShip(func(base int64, buf []byte) {
		chunks = append(chunks, shipChunk{base, append([]byte(nil), buf...)})
	})
	tx := pm.Begin()
	if err := tx.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	a := rm.ShipApplier()
	before := a.Applied()
	if err := a.Apply(chunks[0].base, chunks[0].buf); !errors.Is(err, errRefused) {
		t.Fatalf("Apply = %v, want the store's refusal", err)
	}
	if got := a.Applied(); got != before {
		t.Fatalf("Applied moved %d -> %d over a refused chunk", before, got)
	}
}

// TestAttachedManagerRefusesCommits: while a replica client is
// attached, concurrent committers get ErrReadOnly and the log does not
// move; after Detach they commit again.
func TestAttachedManagerRefusesCommits(t *testing.T) {
	e := newEnv(t)
	m := e.openMgr(t, Options{Locking: true, BatchLimit: GroupCommit(4)})
	defer m.Close()
	a := m.ShipApplier()
	var committed, refused atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				err := m.Put(fmt.Appendf(nil, "k%d-%d", g, i%64), []byte("v"))
				switch {
				case err == nil:
					committed.Add(1)
				case errors.Is(err, ErrReadOnly):
					refused.Add(1)
				default:
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(g)
	}
	// grows waits until n grows by 8, and reports whether it did in time.
	grows := func(n *atomic.Int64) bool {
		deadline := time.Now().Add(10 * time.Second)
		for seen := n.Load(); n.Load() < seen+8; runtime.Gosched() {
			if t.Failed() || time.Now().After(deadline) {
				return false
			}
		}
		return true
	}
	for round := 0; round < 20 && !t.Failed(); round++ {
		a.Attach()
		end := m.WALEnd()
		if !grows(&refused) {
			t.Errorf("round %d: no commit refused while attached", round)
		}
		if got := m.WALEnd(); got != end {
			t.Errorf("round %d: log moved %d -> %d while attached", round, end, got)
		}
		a.Detach()
		if !grows(&committed) {
			t.Errorf("round %d: no commit after Detach", round)
		}
	}
	close(stop)
	wg.Wait()
}
