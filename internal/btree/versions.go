// The version table: the read half of the MVCC feature.
//
// Every committed batch installs one Version — an immutable (root,
// count) pair. Readers pin the newest version, traverse it without any
// locking, and release it when done. Reclamation is epoch-based: the
// pages a version's successor superseded are attached to that version
// and return to the pager's free list only once no pin at or before it
// remains, so a reader opened before a root swap keeps reading its
// version untouched for as long as it likes.

package btree

import (
	"errors"
	"sync"
	"sync/atomic"

	"famedb/internal/stats"
	"famedb/internal/storage"
)

// ErrSnapshotReleased is returned by reads on a released snapshot.
var ErrSnapshotReleased = errors.New("btree: snapshot already released")

// Version is one committed root. It is immutable after installation
// except for the pin count and the freed set, both guarded by the
// owning table's mutex.
type Version struct {
	seq   uint64
	root  storage.PageID
	count uint64
	// pins counts snapshots reading this version.
	pins int
	// freed holds the pages this version's successor superseded: they
	// are still reachable from this root (and possibly older ones), so
	// they reclaim only when no pin at or before seq remains.
	freed []storage.PageID
}

// Seq returns the version's commit sequence number.
func (v *Version) Seq() uint64 { return v.seq }

// Root returns the version's root page.
func (v *Version) Root() storage.PageID { return v.root }

// VersionTable tracks the committed roots of one copy-on-write tree.
// Its mutex guards only the version list and pin counts — it is taken
// at pin, release and install time, never during page I/O, and it is
// NOT the transaction manager's lock: snapshot reads are invisible to
// the commit path.
type VersionTable struct {
	t  *Tree
	mu sync.Mutex
	// versions holds every unreclaimed version, oldest first; the last
	// entry is current.
	versions []*Version
	// current duplicates the newest version behind an atomic pointer —
	// the single-swap root install the commit path publishes with.
	current atomic.Pointer[Version]
	nextSeq uint64
	// retry holds pages whose free failed; they are picked up again by
	// the next reclamation pass.
	retry     []storage.PageID
	reclaimed uint64
	metrics   *stats.Registry
}

// NewVersionTable switches t to copy-on-write mutations and seeds the
// table with t's current root as version 0.
func NewVersionTable(t *Tree) *VersionTable {
	t.EnableCopyOnWrite()
	vt := &VersionTable{t: t}
	v0 := &Version{seq: 0, root: t.root, count: t.count}
	vt.versions = []*Version{v0}
	vt.current.Store(v0)
	return vt
}

// SetMetrics attaches the Statistics feature's version-table metrics.
func (vt *VersionTable) SetMetrics(m *stats.Registry) { vt.metrics = m }

// Install publishes the tree's current root as a new version — the
// single atomic root swap at the end of a commit batch. The caller
// must hold whatever lock serializes tree mutations (the transaction
// manager's); Install itself only touches the version list. Superseded
// pages collected from the tree attach to the previous version and
// reclaim as soon as no reader pins it.
func (vt *VersionTable) Install() error {
	vt.mu.Lock()
	freed := vt.t.TakeSuperseded()
	prev := vt.versions[len(vt.versions)-1]
	if vt.t.root == prev.root && vt.t.count == prev.count && len(freed) == 0 {
		vt.mu.Unlock()
		return nil // nothing committed since the last install
	}
	prev.freed = append(prev.freed, freed...)
	vt.nextSeq++
	v := &Version{seq: vt.nextSeq, root: vt.t.root, count: vt.t.count}
	vt.versions = append(vt.versions, v)
	vt.current.Store(v)
	vt.metrics.Add(stats.MVCCVersionsInstalled, 1)
	pages := vt.collectLocked()
	vt.updateGaugesLocked()
	vt.mu.Unlock()
	return vt.freePages(pages)
}

// collectLocked detaches the transition sets of versions no snapshot
// can reach anymore: versions are ordered, so the walk starts at the
// oldest and stops at the first pinned one (or at current, which never
// reclaims). Previously failed frees ride along. The pages are freed
// by the caller OUTSIDE the table mutex, so readers pinning and
// releasing snapshots never wait behind free-list I/O.
func (vt *VersionTable) collectLocked() []storage.PageID {
	pages := vt.retry
	vt.retry = nil
	for len(vt.versions) > 1 && vt.versions[0].pins == 0 {
		v := vt.versions[0]
		pages = append(pages, v.freed...)
		v.freed = nil
		vt.versions = vt.versions[1:]
	}
	return pages
}

// freePages returns collected pages to the pager's free list. Failed
// frees queue for the next reclamation pass; the first error is
// reported but never affects the versions already detached.
func (vt *VersionTable) freePages(pages []storage.PageID) error {
	if len(pages) == 0 {
		return nil
	}
	var firstErr error
	var failed []storage.PageID
	freed := 0
	for _, id := range pages {
		if err := vt.t.pager.Free(id); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			failed = append(failed, id)
			continue
		}
		freed++
	}
	vt.mu.Lock()
	vt.reclaimed += uint64(freed)
	vt.retry = append(vt.retry, failed...)
	vt.mu.Unlock()
	vt.metrics.Add(stats.MVCCPagesReclaimed, int64(freed))
	return firstErr
}

func (vt *VersionTable) updateGaugesLocked() {
	if vt.metrics == nil {
		return
	}
	open := 0
	oldestPinned := vt.versions[len(vt.versions)-1].seq
	for _, v := range vt.versions {
		open += v.pins
		if v.pins > 0 && v.seq < oldestPinned {
			oldestPinned = v.seq
		}
	}
	age := vt.versions[len(vt.versions)-1].seq - oldestPinned
	vt.metrics.Set(stats.MVCCVersionsLive, int64(len(vt.versions)))
	vt.metrics.Set(stats.MVCCSnapshotsOpen, int64(open))
	vt.metrics.Set(stats.MVCCSnapshotAge, int64(age))
}

// Pin opens a snapshot of the newest committed version. The returned
// snapshot reads without any locking until Release.
func (vt *VersionTable) Pin() *Snapshot {
	vt.mu.Lock()
	v := vt.versions[len(vt.versions)-1]
	v.pins++
	vt.updateGaugesLocked()
	vt.mu.Unlock()
	return &Snapshot{vt: vt, v: v}
}

// release drops one pin and reclaims whatever became unreachable.
func (vt *VersionTable) release(v *Version) {
	vt.mu.Lock()
	v.pins--
	pages := vt.collectLocked()
	vt.updateGaugesLocked()
	vt.mu.Unlock()
	_ = vt.freePages(pages) // failed frees stay queued for the next pass
}

// Current returns the newest committed version without locking — the
// atomic pointer the commit path swaps.
func (vt *VersionTable) Current() *Version { return vt.current.Load() }

// VersionsLive returns how many versions are retained.
func (vt *VersionTable) VersionsLive() int {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	return len(vt.versions)
}

// Reclaimed returns how many superseded pages were returned to the
// free list so far.
func (vt *VersionTable) Reclaimed() uint64 {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	return vt.reclaimed
}

// Snapshot is a pinned, immutable view of the tree at one committed
// version. It is safe for use from the goroutine that pinned it;
// distinct snapshots are safe concurrently. Reads take no locks.
type Snapshot struct {
	vt       *VersionTable
	v        *Version
	released atomic.Bool
}

// Seq returns the pinned version's commit sequence number.
func (s *Snapshot) Seq() uint64 { return s.v.seq }

// Len returns the entry count at the pinned version.
func (s *Snapshot) Len() uint64 { return s.v.count }

// Get reads key at the pinned version.
func (s *Snapshot) Get(key []byte) ([]byte, bool, error) {
	if s.released.Load() {
		return nil, false, ErrSnapshotReleased
	}
	return s.vt.t.getFrom(s.v.root, key)
}

// Scan visits entries with from <= key < to at the pinned version, in
// key order; semantics match Tree.Scan.
func (s *Snapshot) Scan(from, to []byte, fn func(key, value []byte) bool) error {
	if s.released.Load() {
		return ErrSnapshotReleased
	}
	return s.vt.t.scanFrom(nil, s.v.root, from, to, fn)
}

// Release drops the pin; the version's pages become reclaimable once
// no older pin remains. Release is idempotent.
func (s *Snapshot) Release() {
	if s.released.CompareAndSwap(false, true) {
		s.vt.release(s.v)
	}
}
