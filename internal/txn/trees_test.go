package txn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"sort"
	"testing"

	"famedb/internal/access"
	"famedb/internal/btree"
	"famedb/internal/index"
	"famedb/internal/osal"
	"famedb/internal/storage"
	"famedb/internal/trace"
)

// memTrees is a resolver over B+-trees on one page file, recording every
// apply so a test can see where each write went.
type memTrees struct {
	stores  map[uint64]*access.Store
	applied []uint64
}

func newMemTrees(t *testing.T, ids ...uint64) *memTrees {
	t.Helper()
	f, err := osal.NewMemFS().Create("trees.db")
	if err != nil {
		t.Fatal(err)
	}
	pf, err := storage.CreatePageFile(f, 512)
	if err != nil {
		t.Fatal(err)
	}
	r := &memTrees{stores: map[uint64]*access.Store{}}
	for _, id := range ids {
		idx, _, err := index.CreateBTree(pf, index.AllBTreeOps())
		if err != nil {
			t.Fatal(err)
		}
		r.stores[id] = access.New(idx, access.AllOps())
	}
	return r
}

func (r *memTrees) Tree(id uint64) (*access.Store, error) {
	if s, ok := r.stores[id]; ok {
		return s, nil
	}
	return nil, errors.New("memTrees: no such tree")
}

func (r *memTrees) IDs() ([]uint64, error) {
	var ids []uint64
	for id := range r.stores {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

func (r *memTrees) Apply(_ *trace.Span, id uint64, key, value []byte, remove bool) error {
	s, err := r.Tree(id)
	if err != nil {
		return err
	}
	r.applied = append(r.applied, id)
	if remove {
		_, err = s.Index().Delete(key)
		return err
	}
	return s.Index().Insert(key, value)
}

func (r *memTrees) get(t *testing.T, id uint64, key string) (string, bool) {
	t.Helper()
	v, found, err := r.stores[id].Index().Get([]byte(key))
	if err != nil {
		t.Fatal(err)
	}
	return string(v), found
}

// TestTreeWritesRouteByID: one transaction writes tree 0 and two
// resolver trees; the commit applies each write to its tree, reads see
// the transaction's own writes per tree, and recovery redoes the same
// routing from the log.
func TestTreeWritesRouteByID(t *testing.T) {
	e := newEnv(t)
	trees := newMemTrees(t, 5, 9)
	open := func() *Manager {
		m, err := OpenTrees(e.fs, "wal.log", e.store, trees, Options{Locking: true, Recovery: true})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := open()
	tx := m.Begin()
	for _, w := range []struct {
		tree uint64
		k, v string
	}{{0, "k", "zero"}, {5, "k", "five"}, {9, "k", "nine"}, {9, "gone", "x"}} {
		if err := tx.Tree(w.tree).Put([]byte(w.k), []byte(w.v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Tree(9).Remove([]byte("gone")); err != nil {
		t.Fatal(err)
	}
	if v, err := tx.Tree(5).Get([]byte("k")); err != nil || string(v) != "five" {
		t.Fatalf("read-your-writes on tree 5 = %q, %v", v, err)
	}
	if _, err := tx.Tree(5).Get([]byte("gone")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tree 9's key visible in tree 5: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, err := m.Get([]byte("k")); err != nil || string(v) != "zero" {
		t.Fatalf("tree 0 = %q, %v", v, err)
	}
	for id, want := range map[uint64]string{5: "five", 9: "nine"} {
		if v, ok := trees.get(t, id, "k"); !ok || v != want {
			t.Fatalf("tree %d = %q, %v", id, v, ok)
		}
	}
	if _, ok := trees.get(t, 9, "gone"); ok {
		t.Fatal("removed key left in tree 9")
	}
	if err := tx.Tree(7).Put([]byte("k"), nil); err == nil {
		t.Fatal("a finished transaction took a write")
	}
	if err := m.Begin().Tree(7).Put([]byte("k"), nil); err == nil {
		t.Fatal("a write to an unknown tree was buffered")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery redoes the log through the resolver: wipe the trees and
	// reopen.
	trees.applied = nil
	for _, id := range []uint64{5, 9} {
		if _, err := trees.stores[id].Index().Delete([]byte("k")); err != nil {
			t.Fatal(err)
		}
	}
	m = open()
	defer m.Close()
	if v, ok := trees.get(t, 9, "k"); !ok || v != "nine" {
		t.Fatalf("tree 9 after recovery = %q, %v", v, ok)
	}
	if len(trees.applied) != 4 {
		t.Fatalf("recovery applied %v to resolver trees, want 4 writes", trees.applied)
	}
}

// TestShipApplierRoutesTrees: a replica's applier redoes shipped tree
// frames through its own resolver, so a resolver tree converges like
// the store does.
func TestShipApplierRoutesTrees(t *testing.T) {
	primary, replica := newEnv(t), newEnv(t)
	ptrees, rtrees := newMemTrees(t, 4), newMemTrees(t, 4)
	pm, err := OpenTrees(primary.fs, "wal.log", primary.store, ptrees, Options{Locking: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pm.Close()
	rm, err := OpenTrees(replica.fs, "wal.log", replica.store, rtrees, Options{Locking: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	applier := rm.ShipApplier()
	var chunks []shipChunk
	pm.SetOnShip(func(base int64, buf []byte) {
		chunks = append(chunks, shipChunk{base, append([]byte(nil), buf...)})
	})
	for _, k := range []string{"a", "b", "c"} {
		if err := pm.Do(func(tx *Txn) error { return tx.Tree(4).Put([]byte(k), []byte("v"+k)) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := pm.Do(func(tx *Txn) error { return tx.Tree(4).Remove([]byte("b")) }); err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if err := applier.Apply(c.base, c.buf); err != nil {
			t.Fatal(err)
		}
	}
	for k, want := range map[string]bool{"a": true, "b": false, "c": true} {
		if v, ok := rtrees.get(t, 4, k); ok != want || (ok && v != "v"+k) {
			t.Fatalf("replica tree 4 %q = %q, %v", k, v, ok)
		}
	}
	if n, _ := replica.store.Len(); n != 0 {
		t.Fatalf("tree writes reached the replica's store: %d entries", n)
	}
}

// TestShipSnapshotCarriesTrees: a snapshot dumps every resolver tree
// beside the store, and installing it replaces the replica's trees —
// an entry only the replica held is gone. The primary checkpointed
// first, so its log image holds none of the entries.
func TestShipSnapshotCarriesTrees(t *testing.T) {
	primary, replica := newEnv(t), newEnv(t)
	ptrees, rtrees := newMemTrees(t, 4, 6), newMemTrees(t, 4, 6)
	pm, err := OpenTrees(primary.fs, "wal.log", primary.store, ptrees,
		Options{Locking: true, SyncStore: func() error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer pm.Close()
	rm, err := OpenTrees(replica.fs, "wal.log", replica.store, rtrees, Options{Locking: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	if err := rtrees.stores[4].Index().Insert([]byte("stale"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := pm.Do(func(tx *Txn) error {
		if err := tx.Put([]byte("k0"), []byte("v0")); err != nil {
			return err
		}
		if err := tx.Tree(4).Put([]byte("a"), []byte("va")); err != nil {
			return err
		}
		return tx.Tree(6).Put([]byte("b"), []byte("vb"))
	}); err != nil {
		t.Fatal(err)
	}
	// The checkpoint empties the log, so only the dump carries them.
	if err := pm.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap, err := pm.ShipSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Trees) != 2 || snap.Trees[0].ID != 4 || snap.Trees[1].ID != 6 {
		t.Fatalf("snapshot trees = %+v", snap.Trees)
	}
	applier := rm.ShipApplier()
	applier.Attach()
	defer applier.Detach()
	if err := applier.InstallSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		id        uint64
		key, want string
	}{{4, "a", "va"}, {6, "b", "vb"}, {4, "stale", ""}} {
		if v, ok := rtrees.get(t, c.id, c.key); v != c.want || ok != (c.want != "") {
			t.Fatalf("replica tree %d %q = %q, %v; want %q", c.id, c.key, v, ok, c.want)
		}
	}
	if v, err := replica.store.Get([]byte("k0")); err != nil || string(v) != "v0" {
		t.Fatalf("replica store k0 = %q, %v", v, err)
	}
}

// TestTreeZeroFramesUnchanged: a tree-0 write encodes as the recPut and
// recRemove frames of a single-tree log, byte for byte, and a tree
// frame carries its tree id through a decode.
func TestTreeZeroFramesUnchanged(t *testing.T) {
	legacy := func(typ byte, key, value []byte) []byte {
		// The single-tree frame layout: type, txn id, key, value.
		p := []byte{typ, 7, byte(len(key))}
		p = append(append(p, key...), byte(len(value)))
		p = append(p, value...)
		return encodeRaw(p)
	}
	tx := &Txn{id: 7}
	tx.record(writeOp{key: []byte("k"), value: []byte("v")})
	tx.record(writeOp{remove: true, key: []byte("r")})
	got, n := tx.encodeWriteSet(nil)
	want := append(legacy(recPut, []byte("k"), []byte("v")), legacy(recRemove, []byte("r"), nil)...)
	want = append(want, legacy(recCommit, nil, nil)...)
	if n != 3 || !bytes.Equal(got, want) {
		t.Fatalf("tree-0 frames changed:\n got %x\nwant %x", got, want)
	}

	tx = &Txn{id: 7}
	tx.record(writeOp{tree: 300, key: []byte("k"), value: []byte("v")})
	buf, _ := tx.encodeWriteSet(nil)
	recs, err := decodeChunk(buf)
	if err != nil || len(recs) != 2 {
		t.Fatalf("decode = %v, %v", recs, err)
	}
	if tree, remove, ok := recs[0].write(); !ok || remove || tree != 300 || string(recs[0].value) != "v" {
		t.Fatalf("tree frame decoded as %+v", recs[0])
	}
}

// encodeRaw frames a payload as the log does: length, CRC, payload.
func encodeRaw(p []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(p)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
	return append(out, p...)
}

// TestSnapshotRefusesOtherTrees: a snapshot pins tree 0 only, so its
// read of any other tree fails with the composition error instead of
// answering from the live store, which holds commits made after the
// pin. A read-write transaction on the same manager keeps reading the
// other trees.
func TestSnapshotRefusesOtherTrees(t *testing.T) {
	e := newEnv(t)
	trees := newMemTrees(t, 5)
	vt := btree.NewVersionTable(e.store.Index().(*index.BTree).Tree())
	m, err := OpenTrees(e.fs, "wal.log", e.store, trees,
		Options{Locking: true, Versions: testVersions{vt: vt}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	commit := func(value string) {
		t.Helper()
		tx := m.Begin()
		if err := tx.Tree(5).Put([]byte("k"), []byte(value)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit("old")
	snap, err := m.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Abort()
	commit("new")

	if v, err := snap.Tree(5).Get([]byte("k")); !errors.Is(err, access.ErrNotComposed) {
		t.Fatalf("snapshot read of tree 5 = %q, %v; want ErrNotComposed", v, err)
	}
	tx := m.Begin()
	defer tx.Abort()
	if v, err := tx.Tree(5).Get([]byte("k")); err != nil || string(v) != "new" {
		t.Fatalf("read-write read of tree 5 = %q, %v; want new", v, err)
	}
}
