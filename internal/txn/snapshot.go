// Snapshot transactions: the transaction-manager half of the MVCC
// feature.
//
// With MVCC composed the B+-tree mutates copy-on-write and a version
// table retains every committed root some reader still pins. The
// manager plugs into that through two narrow interfaces below, so this
// package stays decoupled from the tree: Begin pins the newest version
// (every transactional read then resolves against an immutable root
// without touching Manager.mu), and the commit path publishes the next
// version with a single atomic root swap after the batch applies —
// readers opened before the swap keep reading their version untouched.

package txn

import (
	"fmt"

	"famedb/internal/access"
	"famedb/internal/stats"
)

// SnapshotReader is a pinned, immutable view of the store at one
// committed version. Reads take no locks; Release drops the pin so the
// version's superseded pages can reclaim.
type SnapshotReader interface {
	Get(key []byte) ([]byte, bool, error)
	Scan(from, to []byte, fn func(key, value []byte) bool) error
	Len() uint64
	Seq() uint64
	Release()
}

// VersionSource is the MVCC version table: Pin opens a snapshot of the
// newest committed version, Install publishes the store's current
// state as the next version (called at the end of a commit batch,
// under Manager.mu).
type VersionSource interface {
	Pin() SnapshotReader
	Install() error
}

// ErrReadOnly is returned by mutations on a snapshot transaction and by
// every commit on a manager a replica client is attached to.
var ErrReadOnly = fmt.Errorf("txn: read-only: snapshot transaction or replica")

// notFound wraps a missing key uniformly: every read path of the
// transactional API — write-set delete, pinned snapshot, and locked
// store read — satisfies errors.Is(err, ErrNotFound).
func notFound(key []byte) error {
	return fmt.Errorf("txn: %q: %w", key, ErrNotFound)
}

// BeginSnapshot starts a read-only snapshot transaction pinned to the
// newest committed version. Its Get/Scan/Len run entirely against the
// pinned root — no lock is taken on the read path — and keep seeing
// the begin-time state regardless of concurrent commits. It fails when
// the MVCC feature is not composed.
func (m *Manager) BeginSnapshot() (*Txn, error) {
	if m.opts.Versions == nil {
		return nil, fmt.Errorf("BeginSnapshot: %w", access.ErrNotComposed)
	}
	id := m.nextTxn.Add(1)
	m.opts.Metrics.Add(stats.TxnBegins, 1)
	return &Txn{m: m, id: id, snap: m.pinVersion(), readOnly: true}, nil
}

// pinVersion adopts any out-of-band state and pins the newest version.
// Non-transactional writes (direct store puts in an MVCC product)
// advance the tree's root without installing a version; the install
// here publishes that state so the snapshot is not stale, and is a
// no-op whenever the last commit already installed. The read lock is
// what makes the adoption safe: a group-commit apply holds the write
// lock for its whole batch, so the root seen here is never a
// half-applied batch. Held only across Begin — every read after this
// runs against the pinned root without any lock.
func (m *Manager) pinVersion() SnapshotReader {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_ = m.opts.Versions.Install() // failure = reclamation retry, never stale reads
	return m.opts.Versions.Pin()
}

// SnapshotSeq returns the commit sequence number of the version this
// transaction reads, and whether it is pinned to one (MVCC composed
// and the transaction still open).
func (t *Txn) SnapshotSeq() (uint64, bool) {
	if t.snap == nil {
		return 0, false
	}
	return t.snap.Seq(), true
}

// visible is the single visibility check every transactional read
// shares: the write set wins, then the pinned snapshot (no lock), and
// only without MVCC the store under the manager's read lock. Snapshots
// and that lock cover tree 0. A read-write transaction reads any other
// tree from its live store under the caller's lock (see TreeTxn); a
// snapshot transaction refuses, because the live store would show it
// commits made after its pin. The returned value aliases the write set
// or the index copy; callers that hand it out copy it.
func (t *Txn) visible(tree uint64, key []byte) ([]byte, bool, error) {
	if w, ok := t.lookupWriteSet(tree, key); ok {
		if w.remove {
			return nil, false, nil
		}
		return w.value, true, nil
	}
	if tree != 0 {
		if t.readOnly {
			return nil, false, fmt.Errorf("snapshot read of tree %d: %w", tree, access.ErrNotComposed)
		}
		s, err := t.m.storeOf(tree)
		if err != nil {
			return nil, false, err
		}
		return s.Index().Get(key)
	}
	if t.snap != nil {
		return t.snap.Get(key)
	}
	t.m.mu.RLock()
	defer t.m.mu.RUnlock()
	return t.m.store.Index().Get(key)
}

// releaseSnap drops the transaction's version pin, if any.
func (t *Txn) releaseSnap() {
	if t.snap != nil {
		t.snap.Release()
		t.snap = nil
	}
}

// Len returns the number of visible committed entries. On a snapshot
// transaction this is the pinned version's count; otherwise the
// store's current count under the read lock. The transaction's own
// uncommitted writes are not folded in.
func (t *Txn) Len() (uint64, error) {
	if t.done {
		return 0, ErrTxnDone
	}
	if t.snap != nil {
		return t.snap.Len(), nil
	}
	t.m.mu.RLock()
	defer t.m.mu.RUnlock()
	return t.m.store.Len()
}

// Scan visits entries with from <= key < to in key order, merging the
// committed state (the pinned version under MVCC, else the store under
// the read lock) with the transaction's own writes: buffered puts and
// updates are visible, buffered removes hide their keys. Returning
// false from fn stops the scan. Requires the Get operation (the scan
// composition rule of the access layer).
func (t *Txn) Scan(from, to []byte, fn func(key, value []byte) bool) error {
	if t.done {
		return ErrTxnDone
	}
	if !t.m.store.Ops().Get {
		return fmt.Errorf("Scan: %w", access.ErrNotComposed)
	}
	overlay := t.overlayRange(from, to)
	i := 0
	stopped := false
	// step emits one committed entry, first draining every buffered
	// write that sorts before it and substituting the buffered value on
	// a key collision.
	step := func(k, v []byte) bool {
		for i < len(overlay) && string(overlay[i].key) < string(k) {
			w := overlay[i]
			i++
			if w.remove {
				continue
			}
			if !fn(w.key, w.value) {
				stopped = true
				return false
			}
		}
		if i < len(overlay) && string(overlay[i].key) == string(k) {
			w := overlay[i]
			i++
			if w.remove {
				return true
			}
			if !fn(w.key, w.value) {
				stopped = true
				return false
			}
			return true
		}
		if !fn(k, v) {
			stopped = true
			return false
		}
		return true
	}
	var err error
	if t.snap != nil {
		err = t.snap.Scan(from, to, step)
	} else {
		t.m.mu.RLock()
		err = t.m.store.Scan(from, to, step)
		t.m.mu.RUnlock()
	}
	if err != nil || stopped {
		return err
	}
	// Buffered writes past the last committed key.
	for ; i < len(overlay); i++ {
		w := overlay[i]
		if w.remove {
			continue
		}
		if !fn(w.key, w.value) {
			return nil
		}
	}
	return nil
}

// overlayRange returns the write set's latest entry per key of tree 0
// within [from, to), sorted by key.
func (t *Txn) overlayRange(from, to []byte) []writeOp {
	if len(t.widx) == 0 {
		return nil
	}
	out := make([]writeOp, 0, len(t.widx))
	for wk, i := range t.widx {
		k := wk.key
		if wk.tree != 0 {
			continue
		}
		if from != nil && k < string(from) {
			continue
		}
		if to != nil && k >= string(to) {
			continue
		}
		out = append(out, t.writes[i])
	}
	// Insertion sort: write sets are small and often nearly ordered.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && string(out[j-1].key) > string(out[j].key); j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// installVersion publishes the store's state as the next version at
// the end of a commit batch. The caller holds m.mu, so the version the
// atomic swap exposes is exactly the batch's final state. A failure
// here is a reclamation failure (the publish itself cannot fail): the
// affected pages stay queued and retry on the next install or release,
// so the committed transaction is not failed retroactively.
func (m *Manager) installVersion() error {
	if m.opts.Versions == nil {
		return nil
	}
	return m.opts.Versions.Install()
}
