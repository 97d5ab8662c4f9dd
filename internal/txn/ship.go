// WAL shipping: the log-level half of the Replication feature.
//
// The unit of replication is the raw byte run of one durable append —
// exactly the buffer appendEncoded wrote, at exactly the offset it
// landed. A replica's WAL is therefore a byte-exact prefix of the
// primary's between rewinds, which makes verification trivial (compare
// bytes) and recovery free (the replica's own redo recovery already
// knows the format).
//
// The reconnect handshake is (offset, CRC of the replica's WAL bytes
// [0, offset)). The primary recomputes the CRC over its own prefix: a
// match means the replica holds a true prefix and an incremental
// catch-up from offset suffices; a mismatch — or an offset past the
// primary's end — means the logs diverged (the primary checkpointed and
// reset its log, rewound a failed batch, or shipped bytes that never
// became durable before a primary crash) and the replica needs a full
// snapshot resync. No epochs, no generation numbers: the CRC subsumes
// them.
//
// Snapshot installs are made crash-restartable by a durable resync
// marker next to the log: it is created before the replica's state is
// first touched and removed only after the install completes, so a
// replica that dies mid-install asks for a fresh snapshot on reconnect
// instead of trusting its half-rebuilt state.

package txn

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"sync/atomic"

	"famedb/internal/index"
)

// Ship errors. Both force the caller into a full snapshot resync.
var (
	// ErrShipGap means a shipped chunk starts past the replica's log
	// end — frames were lost between primary and replica.
	ErrShipGap = errors.New("txn: ship gap: chunk starts past log end")
	// ErrShipDiverged means a shipped chunk overlaps the replica's log
	// with different bytes, or holds a corrupt frame.
	ErrShipDiverged = errors.New("txn: ship diverged: chunk conflicts with log")
)

// SetOnShip installs fn as the observer of every successful WAL append:
// base is the log offset the chunk landed at, buf its raw frame bytes.
// fn runs after the write and before any sync, so it sees bytes that a
// power cut can still take back (see WAL.onShip).
// Appends are serial, so calls arrive in base order and chain
// contiguously until the log rewinds (failed-batch truncate or
// checkpoint reset); a rewind shows up as a base that does not extend
// the last-seen end. buf is only valid during the call. Pass nil to
// detach.
func (m *Manager) SetOnShip(fn func(base int64, buf []byte)) {
	m.wal.mu.Lock()
	m.wal.onShip = fn
	m.wal.mu.Unlock()
}

// WALEnd returns the primary log's current append offset.
func (m *Manager) WALEnd() int64 { return m.wal.offset() }

// WALPrefixCRC returns the CRC32-IEEE of the log bytes [0, off). It is
// the handshake fingerprint: equal CRCs at equal offsets mean equal
// prefixes.
func (m *Manager) WALPrefixCRC(off int64) (uint32, error) {
	return walPrefixCRC(m.wal, off)
}

func walPrefixCRC(w *WAL, off int64) (uint32, error) {
	w.mu.Lock()
	end := w.end
	w.mu.Unlock()
	if off < 0 || off > end {
		return 0, fmt.Errorf("txn: prefix crc range [0,%d) outside log [0,%d)", off, end)
	}
	crc := crc32.NewIEEE()
	buf := make([]byte, 64<<10)
	for pos := int64(0); pos < off; {
		n := int64(len(buf))
		if off-pos < n {
			n = off - pos
		}
		if _, err := w.f.ReadAt(buf[:n], pos); err != nil {
			return 0, err
		}
		crc.Write(buf[:n])
		pos += n
	}
	return crc.Sum32(), nil
}

// ReadWALRange returns a copy of the raw log bytes [from, to) for
// incremental catch-up. Both bounds must be frame boundaries the caller
// learned from WALEnd or shipped bases; the bytes below end are stable
// while the pipeline is live (only a checkpoint or failed-batch rewind
// moves them, and either invalidates the handshake that led here).
func (m *Manager) ReadWALRange(from, to int64) ([]byte, error) {
	w := m.wal
	w.mu.Lock()
	end := w.end
	w.mu.Unlock()
	if from < int64(len(walMagic)) || from > to || to > end {
		return nil, fmt.Errorf("txn: wal range [%d,%d) outside log [%d,%d)", from, to, len(walMagic), end)
	}
	buf := make([]byte, to-from)
	if _, err := w.f.ReadAt(buf, from); err != nil {
		return nil, err
	}
	return buf, nil
}

// ShipSnap is a full-resync payload: a consistent key/value dump of
// every tree the manager journals plus the log image the dump is no
// newer than. Replaying the image's committed records over the dump is
// idempotent and converges on exactly the state at WAL offset
// len(WALImage).
type ShipSnap struct {
	// WALImage is the whole log file [0, end), magic included.
	WALImage []byte
	// Keys and Vals are the dump of tree 0, the store, pairwise.
	Keys [][]byte
	Vals [][]byte
	// Trees dumps every other tree, in the order of the resolver's IDs.
	Trees []TreeDump
}

// TreeDump is one tree of a snapshot besides tree 0.
type TreeDump struct {
	ID   uint64
	Keys [][]byte
	Vals [][]byte
}

// dumpIndex appends every entry of idx to keys and vals.
func dumpIndex(idx index.Index, keys, vals *[][]byte) error {
	return idx.Scan(nil, nil, func(k, v []byte) bool {
		*keys = append(*keys, append([]byte(nil), k...))
		*vals = append(*vals, append([]byte(nil), v...))
		return true
	})
}

// ShipSnapshot captures a snapshot for a full replica resync. It holds
// the manager lock for the duration, so commits stall briefly; the dump
// state is at-or-before the log image's end, which the replay on the
// replica heals.
func (m *Manager) ShipSnapshot() (*ShipSnap, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	end := m.wal.offset()
	img := make([]byte, end)
	if _, err := m.wal.f.ReadAt(img, 0); err != nil {
		return nil, err
	}
	s := &ShipSnap{WALImage: img}
	if err := dumpIndex(m.store.Index(), &s.Keys, &s.Vals); err != nil {
		return nil, err
	}
	if m.trees == nil {
		return s, nil
	}
	ids, err := m.trees.IDs()
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		st, err := m.trees.Tree(id)
		if err != nil {
			return nil, err
		}
		d := TreeDump{ID: id}
		if err := dumpIndex(st.Index(), &d.Keys, &d.Vals); err != nil {
			return nil, err
		}
		s.Trees = append(s.Trees, d)
	}
	return s, nil
}

// ShipApplier applies shipped chunks and snapshots on the replica side.
// It writes chunk bytes verbatim into the replica's own log (keeping it
// a byte-exact primary prefix), syncs, and only then redoes the
// committed records into the store — the same ordering the primary's
// own durability story relies on, so a replica crash at any point
// recovers through the ordinary redo path.
type ShipApplier struct {
	m *Manager
	// applied is the log offset the store reflects: published only
	// after a chunk's records are redone and their version installed.
	// The log's end offset runs ahead of it — bytes are durable before
	// they are applied — so the handshake and acks read End, and anyone
	// about to read the store reads Applied.
	applied atomic.Int64
}

// ShipApplier returns the manager's chunk applier. It redoes chunks
// through the manager's redo, starting from the uncommitted tail that
// recovery left: a replica log can end mid-batch after a torn-tail
// truncation, and the records whose commit arrives in a future chunk
// wait there. Recovery already redid everything committed.
func (m *Manager) ShipApplier() *ShipApplier {
	a := &ShipApplier{m: m}
	a.applied.Store(m.wal.offset())
	return a
}

// Attach makes the manager a replica's: until Detach, every commit fails
// with ErrReadOnly before any log I/O, so a local commit can never land
// on the log offsets shipped chunks are written at. The pipeline is
// quiesced first, so no commit that passed the check is still in flight.
func (a *ShipApplier) Attach() { a.m.attachReplicas(1) }

// Detach reverses one Attach.
func (a *ShipApplier) Detach() { a.m.attachReplicas(-1) }

func (m *Manager) attachReplicas(n int) {
	defer m.quiesce()()
	m.mu.Lock()
	m.replicas += n
	m.mu.Unlock()
}

// End returns the replica log's current end offset: everything below it
// is durable, not necessarily applied yet.
func (a *ShipApplier) End() int64 { return a.m.wal.offset() }

// Applied returns the log offset the store reflects. It trails End
// while a chunk is being redone and is 0 during a snapshot install.
func (a *ShipApplier) Applied() int64 { return a.applied.Load() }

// PrefixCRC returns the handshake pair (end, CRC of [0, end)).
func (a *ShipApplier) PrefixCRC() (int64, uint32, error) {
	end := a.m.wal.offset()
	crc, err := walPrefixCRC(a.m.wal, end)
	return end, crc, err
}

// resyncMarker is the durable flag of an in-progress snapshot install.
func (a *ShipApplier) resyncMarker() string { return a.m.logName + ".resync" }

// NeedsResync reports whether a snapshot install was interrupted — the
// replica must not trust its state and should request a full snapshot.
func (a *ShipApplier) NeedsResync() bool {
	names, err := a.m.fs.List()
	if err != nil {
		return false
	}
	for _, n := range names {
		if n == a.resyncMarker() {
			return true
		}
	}
	return false
}

// Apply ingests one shipped chunk whose bytes landed at base on the
// primary. A chunk extending the log is written, synced, and its
// committed records redone into the store; a chunk entirely below end
// is verified as a duplicate (catch-up overlap); a chunk past end
// returns ErrShipGap; conflicting bytes or a corrupt frame return
// ErrShipDiverged. Gap and divergence both mean: full snapshot resync.
// A redo the store refuses returns its error and leaves Applied where
// it was.
func (a *ShipApplier) Apply(base int64, buf []byte) error {
	m := a.m
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.wal
	end := w.offset()
	if base > end {
		return ErrShipGap
	}
	if overlap := end - base; overlap > 0 {
		// Compare the overlapping run against what we already hold.
		n := overlap
		if int64(len(buf)) < n {
			n = int64(len(buf))
		}
		have := make([]byte, n)
		if _, err := w.f.ReadAt(have, base); err != nil {
			return err
		}
		if !bytes.Equal(have, buf[:n]) {
			return ErrShipDiverged
		}
		if int64(len(buf)) <= overlap {
			return nil // pure duplicate from a catch-up overlap
		}
		buf = buf[overlap:]
		base = end
	}
	// Validate framing before the log grows: a truncated or corrupt
	// chunk must not leave torn bytes behind.
	recs, err := decodeChunk(buf)
	if err != nil {
		return err
	}
	if err := w.adopt(buf, base); err != nil {
		return err
	}
	return a.redo(recs)
}

// adopt writes shipped bytes at off and syncs them; only then does the
// log's end move past them, so a replica log grows by durable bytes
// only.
func (w *WAL) adopt(buf []byte, off int64) error {
	if _, err := w.f.WriteAt(buf, off); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.mu.Lock()
	w.end = off + int64(len(buf))
	w.syncedTo = w.end
	w.mu.Unlock()
	return nil
}

// decodeChunk splits a shipped chunk into records, failing unless the
// bytes are a whole number of CRC-clean frames.
func decodeChunk(buf []byte) ([]logRecord, error) {
	var recs []logRecord
	for len(buf) > 0 {
		r, n, err := decodeFrame(buf)
		if err != nil {
			return nil, ErrShipDiverged
		}
		recs = append(recs, r)
		buf = buf[n:]
	}
	return recs, nil
}

// redo feeds records that just became durable through the manager's
// redo, installs their version and publishes the log's end as applied.
// A redo the store refuses leaves Applied where it was. Must run under
// m.mu.
func (a *ShipApplier) redo(recs []logRecord) error {
	for _, r := range recs {
		if err := a.m.redo(r); err != nil {
			return err
		}
	}
	if err := a.m.installVersion(); err != nil {
		return err
	}
	a.applied.Store(a.m.wal.offset())
	return nil
}

// InstallSnapshot replaces the replica's entire state with snap. The
// ordering makes every crash point recoverable: the resync marker goes
// durable first, so any interruption below leaves a replica that asks
// for a fresh snapshot instead of trusting half-installed state.
func (a *ShipApplier) InstallSnapshot(snap *ShipSnap) error {
	if len(snap.WALImage) < len(walMagic) || string(snap.WALImage[:len(walMagic)]) != walMagic {
		return ErrShipDiverged
	}
	recs, err := decodeChunk(snap.WALImage[len(walMagic):])
	if err != nil {
		return err
	}
	if len(snap.Keys) != len(snap.Vals) {
		return ErrShipDiverged
	}
	for _, d := range snap.Trees {
		if d.ID == 0 || len(d.Keys) != len(d.Vals) || a.m.trees == nil {
			return ErrShipDiverged
		}
	}
	m := a.m
	m.mu.Lock()
	defer m.mu.Unlock()
	// The store is about to be torn down and rebuilt: it reflects no
	// offset until the install completes.
	a.applied.Store(0)
	// 1. Durable marker: from here until removal, a crash means resync.
	mf, err := m.fs.Create(a.resyncMarker())
	if err != nil {
		return err
	}
	if _, err := mf.WriteAt([]byte("resync"), 0); err != nil {
		return err
	}
	if err := mf.Sync(); err != nil {
		return err
	}
	if err := mf.Close(); err != nil {
		return err
	}
	// 2. Cut the old log so stale records can never replay over the
	// incoming dump.
	if err := m.wal.reset(); err != nil {
		return err
	}
	// 3. Rebuild the store from the dump and make it durable — the new
	// checkpoint the log image replays over.
	idx := m.store.Index()
	var stale [][]byte
	if err := idx.Scan(nil, nil, func(k, _ []byte) bool {
		stale = append(stale, append([]byte(nil), k...))
		return true
	}); err != nil {
		return err
	}
	for _, k := range stale {
		if _, err := idx.Delete(k); err != nil {
			return err
		}
	}
	for i := range snap.Keys {
		if err := idx.Insert(snap.Keys[i], snap.Vals[i]); err != nil {
			return err
		}
	}
	if err := m.rebuildTrees(snap.Trees); err != nil {
		return err
	}
	if m.opts.SyncStore != nil {
		if err := m.opts.SyncStore(); err != nil {
			return err
		}
	}
	// 4. Adopt the primary's log image byte for byte.
	if err := m.wal.adopt(snap.WALImage, 0); err != nil {
		return err
	}
	// 5. Redo the image's committed records: the dump may lag the image
	// by an applied-but-not-dumped tail, and redo is idempotent.
	m.tail = map[uint64][]logRecord{}
	m.resyncing = true
	err = a.redo(recs)
	m.resyncing = false
	if err != nil {
		return err
	}
	// 6. Done: drop the marker.
	return m.fs.Remove(a.resyncMarker())
}

// rebuildTrees replaces every tree but 0 with dumps. It empties the
// local trees, each after the trees its entries create, then applies
// the dumps in order, all through the resolver's Apply, so a tree a
// front end derives from another (the SQL catalog's tables) is freed
// and created as a committed write would. Must run under m.mu.
func (m *Manager) rebuildTrees(dumps []TreeDump) error {
	if m.trees == nil {
		return nil
	}
	ids, err := m.trees.IDs()
	if err != nil {
		return err
	}
	for i := len(ids) - 1; i >= 0; i-- {
		st, err := m.trees.Tree(ids[i])
		if err != nil {
			return err
		}
		var keys, vals [][]byte
		if err := dumpIndex(st.Index(), &keys, &vals); err != nil {
			return err
		}
		for _, k := range keys {
			if err := m.trees.Apply(nil, ids[i], k, nil, true); err != nil {
				return err
			}
		}
	}
	for _, d := range dumps {
		for i := range d.Keys {
			if err := m.trees.Apply(nil, d.ID, d.Keys[i], d.Vals[i], false); err != nil {
				return err
			}
		}
	}
	return nil
}
