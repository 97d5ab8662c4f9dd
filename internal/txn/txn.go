package txn

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"famedb/internal/access"
	"famedb/internal/osal"
	"famedb/internal/stats"
	"famedb/internal/storage"
	"famedb/internal/trace"
)

// Errors of the transactional API.
var (
	// ErrTxnDone is returned when using a committed or aborted
	// transaction.
	ErrTxnDone = errors.New("txn: transaction already finished")
	// ErrNotFound mirrors access.ErrNotFound for transactional reads.
	ErrNotFound = access.ErrNotFound
	// ErrClosed is returned by operations on a closed manager.
	ErrClosed = errors.New("txn: manager is closed")
)

// Options configures the transaction manager from the product's feature
// selection.
type Options struct {
	// BatchLimit is the CommitProtocol alternative (Fig. 2) as a number:
	// how many commits one log sync may cover — ForceCommit() or
	// GroupCommit(n); less than 1 means 1.
	// A batch of several commits always syncs before its committers
	// return; a batch of one defers its sync until BatchLimit commits
	// are unsynced (call Manager.Flush to force it).
	BatchLimit int
	// Locking serializes transactions and guards reads against
	// concurrent applies; products used from a single goroutine can
	// deselect it.
	Locking bool
	// Recovery replays committed transactions from the log at Open
	// (feature Recovery).
	Recovery bool
	// SyncStore makes the underlying store durable; used by
	// Checkpoint. Optional: checkpointing is skipped when nil.
	SyncStore func() error
	// Metrics receives transactional, WAL and retry counters when the
	// Statistics feature is composed; nil otherwise (recording is then a
	// no-op).
	Metrics *stats.Registry
	// Tracer records commit, WAL and group-commit handoff spans when
	// the Tracing feature is composed; nil otherwise.
	Tracer *trace.Tracer
	// Health is the engine-wide degraded-mode latch shared with the
	// page path. Once poisoned, commits, flushes and checkpoints return
	// storage.ErrDegraded while reads keep serving. Nil disables the
	// gate.
	Health *storage.Health
	// Retry bounds WAL append/sync retries on transient device errors
	// (osal.ErrTransient); the zero value means single attempts.
	Retry storage.RetryPolicy
	// Versions is the MVCC version table when that feature is composed;
	// nil otherwise. With it set, Begin pins the newest committed
	// version so transactional reads never take the manager lock, and
	// every commit batch publishes a new version after it applies.
	Versions VersionSource
}

// ForceCommit is the batch limit of the ForceCommit protocol: every
// commit is a batch of its own and syncs.
func ForceCommit() int { return 1 }

// GroupCommit is the batch limit of the GroupCommit protocol: up to
// batch commits share one sync (8 when batch is not positive).
func GroupCommit(batch int) int {
	if batch <= 0 {
		return 8
	}
	return batch
}

// Trees resolves the trees a manager journals besides its store, which
// is tree 0. A front end that keeps several trees in one page file (the
// SQL engine's catalog and tables, the BDB case study's databases) hands
// its resolver to OpenTrees, so one log covers every tree and recovery,
// the commit apply and a replica's applier all route a write by the
// tree id its frame carries.
type Trees interface {
	// Tree returns the store of tree id: a transaction checks its
	// writes to the tree against the store's operations and index, and
	// reads the tree through it.
	Tree(id uint64) (*access.Store, error)
	// Apply installs one committed write into tree id. The manager
	// calls it in log order under its lock, from a commit, from
	// recovery and from a replica's applier, so everything a write
	// means to the front end beyond the index entry (a catalog entry
	// that creates or frees a tree, a forward to a replica) happens
	// here, live and in redo alike.
	Apply(sp *trace.Span, id uint64, key, value []byte, remove bool) error
	// IDs lists the trees besides 0, each before any tree its entries
	// create, so that applying their entries in this order rebuilds
	// them (a replica's snapshot install does).
	IDs() ([]uint64, error)
}

// ErrNoTree is wrapped by a resolver's error for a tree id that names
// no tree.
var ErrNoTree = errors.New("txn: no such tree")

// Manager coordinates transactions over a store.
type Manager struct {
	store *access.Store
	// trees resolves every tree id but 0; nil when the store is the
	// only tree.
	trees Trees
	// resyncing is set while a snapshot install redoes its log image
	// (see ShipApplier.InstallSnapshot).
	resyncing bool
	wal       *WAL
	opts      Options
	// fs and logName let the Replication feature keep its durable
	// resync marker (see ship.go) next to the log.
	fs      osal.FS
	logName string

	// mu serializes commits and guards the store during apply. It is a
	// no-op when the Locking feature is deselected.
	mu      rwLocker
	nextTxn atomic.Uint64
	closed  bool
	// replicas counts the replica clients attached through
	// ShipApplier.Attach; while it is above zero every commit is
	// refused, because shipped chunks own the log's end.
	replicas int
	// tail holds, per transaction, the logged records whose commit
	// record the log does not hold yet. Recovery leaves the log's
	// uncommitted tail here, and a replica's chunks extend it: a replica
	// log can end mid-batch, and the commit that arrives in a later
	// chunk must redo the records that arrived before it.
	tail map[uint64][]logRecord

	// gc is the leader-elected group-commit pipeline, active when the
	// Locking feature is composed (the single-goroutine products keep
	// the plain path: without concurrency there is nobody to share a
	// sync with).
	gc *groupCommit

	// Recovered reports how many committed transactions the opening
	// recovery pass replayed.
	Recovered int
}

// rwLocker lets Locking be a selectable feature: the null locker does
// nothing.
type rwLocker interface {
	Lock()
	Unlock()
	RLock()
	RUnlock()
}

type nullLocker struct{}

func (nullLocker) Lock()    {}
func (nullLocker) Unlock()  {}
func (nullLocker) RLock()   {}
func (nullLocker) RUnlock() {}

// Open creates the transaction manager over store alone, opening (and
// if configured, recovering) the log file logName on fs.
func Open(fs osal.FS, logName string, store *access.Store, opts Options) (*Manager, error) {
	return OpenTrees(fs, logName, store, nil, opts)
}

// OpenTrees is Open for a manager that journals the trees trees
// resolves beside store, tree 0. The resolver must work before
// OpenTrees returns: recovery redoes the log through it.
func OpenTrees(fs osal.FS, logName string, store *access.Store, trees Trees, opts Options) (*Manager, error) {
	if opts.BatchLimit < 1 {
		opts.BatchLimit = 1
	}
	m := &Manager{store: store, trees: trees, opts: opts, fs: fs, logName: logName, tail: map[uint64][]logRecord{}}
	w, err := openWAL(fs, logName, func(r logRecord) error {
		if opts.Recovery {
			return m.recover(r)
		}
		m.seeTxn(r.txnID)
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.wal = w
	w.metrics = opts.Metrics
	w.tracer = opts.Tracer
	w.retry = opts.Retry
	w.health = opts.Health
	if opts.Locking {
		m.mu = &sync.RWMutex{}
		m.gc = newGroupCommit(m)
	} else {
		m.mu = nullLocker{}
	}
	if opts.Recovery {
		// With MVCC composed the replay mutated copy-on-write: publish the
		// recovered state as one version so the first snapshot pins it and
		// the replay's superseded pages reclaim.
		if err := m.installVersion(); err != nil {
			return nil, fmt.Errorf("txn: recovery version install: %w", err)
		}
	}
	return m, nil
}

// recover is the Recovery feature: it sees the log's valid prefix record
// by record while Open finds the log's end, and redoes the write sets of
// committed transactions in log order. The operations are idempotent,
// so replaying already-applied transactions is harmless.
func (m *Manager) recover(r logRecord) error {
	if r.typ == recCommit {
		m.Recovered++
	}
	return m.redo(r)
}

// redo is the one redo of the package: recovery, replica chunks and
// snapshot installs feed the log's records through it in log order. A
// write joins its transaction's tail; a commit record applies the
// transaction's whole write set to the store and retires the tail. It
// returns the first index error. The caller holds m.mu, or owns the
// manager (Open).
func (m *Manager) redo(r logRecord) error {
	m.seeTxn(r.txnID)
	if _, _, ok := r.write(); ok {
		m.tail[r.txnID] = append(m.tail[r.txnID], r)
		return nil
	}
	if r.typ == recCommit {
		for _, o := range m.tail[r.txnID] {
			tree, remove, _ := o.write()
			if err := m.apply(nil, tree, o.key, o.value, remove); err != nil {
				return fmt.Errorf("txn: redo txn %d: %w", r.txnID, err)
			}
		}
		delete(m.tail, r.txnID)
	}
	return nil
}

// apply is the one place a committed write reaches a tree: tree 0 is
// the store's index, every other id goes to the resolver. The caller
// holds m.mu, or owns the manager (Open).
func (m *Manager) apply(sp *trace.Span, tree uint64, key, value []byte, remove bool) error {
	if tree != 0 {
		if m.trees == nil {
			return fmt.Errorf("txn: no tree %d", tree)
		}
		err := m.trees.Apply(sp, tree, key, value, remove)
		if m.resyncing && errors.Is(err, ErrNoTree) {
			// A snapshot's dump can be newer than the first records of
			// its log image: a tree the image writes and later drops is
			// already gone, and the drop follows in the image.
			return nil
		}
		return err
	}
	idx := m.store.IndexSeam()
	if remove {
		_, err := idx.DeleteIn(sp, key)
		return err
	}
	return idx.InsertIn(sp, key, value)
}

// storeOf returns the store of tree id: the manager's own for 0, the
// resolver's otherwise.
func (m *Manager) storeOf(tree uint64) (*access.Store, error) {
	if tree == 0 {
		return m.store, nil
	}
	if m.trees == nil {
		return nil, fmt.Errorf("txn: no tree %d", tree)
	}
	return m.trees.Tree(tree)
}

// seeTxn moves the next transaction ID past id, an ID the log holds, so
// a new transaction can never adopt a torn batch's orphaned records.
func (m *Manager) seeTxn(id uint64) {
	for cur := m.nextTxn.Load(); id > cur && !m.nextTxn.CompareAndSwap(cur, id); cur = m.nextTxn.Load() {
	}
}

// Read runs fn under the manager's read lock — the lock transactional
// reads take and the commit leader, the replica applier and maintenance
// hold as writers — so a plain read of the store never observes a
// half-applied batch. It begins no transaction and counts nothing.
func (m *Manager) Read(fn func() error) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return fn()
}

// Do is the one auto-commit: it begins a transaction, runs fn in it and
// commits, or aborts when fn fails.
func (m *Manager) Do(fn func(*Txn) error) error {
	t := m.Begin()
	if err := fn(t); err != nil {
		t.Abort()
		return err
	}
	return t.Commit()
}

// The record API of a transactional product: each write is an
// auto-commit transaction, each read runs the store's operation under
// Read, so it counts no transaction and never sees a half-applied
// batch. Scan holds the read lock for the whole scan: fn must not
// commit.

// Put stores value under key in its own transaction. Its latency, the
// commit included, is recorded as the product's put latency.
func (m *Manager) Put(key, value []byte) error {
	defer m.opts.Metrics.Done(stats.AccessPutLatency, m.opts.Metrics.Start())
	return m.Do(func(t *Txn) error { return t.Put(key, value) })
}

// Update replaces the value of an existing key in its own transaction.
func (m *Manager) Update(key, value []byte) error {
	return m.Do(func(t *Txn) error { return t.Update(key, value) })
}

// Remove deletes an existing key in its own transaction.
func (m *Manager) Remove(key []byte) error {
	return m.Do(func(t *Txn) error { return t.Remove(key) })
}

// Get returns the committed value under key.
func (m *Manager) Get(key []byte) (v []byte, err error) {
	err = m.Read(func() error {
		v, err = m.store.Get(key)
		return err
	})
	return v, err
}

// Scan visits committed entries with from <= key < to.
func (m *Manager) Scan(from, to []byte, fn func(key, value []byte) bool) error {
	return m.Read(func() error { return m.store.Scan(from, to, fn) })
}

// Len returns the number of committed records.
func (m *Manager) Len() (n uint64, err error) {
	err = m.Read(func() error {
		n, err = m.store.Len()
		return err
	})
	return n, err
}

// writeOp is one entry of a transaction's private write set.
type writeOp struct {
	tree   uint64
	remove bool
	key    []byte
	value  []byte
}

// wkey names one key of one tree in a write set.
type wkey struct {
	tree uint64
	key  string
}

// Txn is a transaction: reads see committed state plus the
// transaction's own writes; writes stay private until Commit.
type Txn struct {
	m      *Manager
	id     uint64
	writes []writeOp
	// widx maps a tree's key to the index of its latest entry in
	// writes, so read-your-writes lookups stay O(1) for large write
	// sets.
	widx map[wkey]int
	done bool
	// snap is the pinned committed version all reads resolve against
	// when MVCC is composed; nil otherwise (reads then lock).
	snap SnapshotReader
	// readOnly marks snapshot transactions: mutations are refused.
	readOnly bool
}

// Begin starts a transaction. Allocating the ID is a single atomic, so
// concurrent Begins never contend on the commit lock. With MVCC
// composed the transaction pins the newest committed version: reads
// are then lock-free and see the begin-time state plus the
// transaction's own writes.
func (m *Manager) Begin() *Txn {
	id := m.nextTxn.Add(1)
	m.opts.Metrics.Add(stats.TxnBegins, 1)
	t := &Txn{m: m, id: id}
	if m.opts.Versions != nil {
		t.snap = m.pinVersion()
	}
	return t
}

// ID returns the transaction's identifier — the value trace spans and
// group-commit leader attribution carry.
func (t *Txn) ID() uint64 { return t.id }

// lookupWriteSet finds the latest private write for key in tree.
func (t *Txn) lookupWriteSet(tree uint64, key []byte) (writeOp, bool) {
	if i, ok := t.widx[wkey{tree, string(key)}]; ok {
		return t.writes[i], true
	}
	return writeOp{}, false
}

// record appends w to the write set and indexes its key.
func (t *Txn) record(w writeOp) {
	t.writes = append(t.writes, w)
	if t.widx == nil {
		t.widx = make(map[wkey]int)
	}
	t.widx[wkey{w.tree, string(w.key)}] = len(t.writes) - 1
}

// Get reads a key: the transaction's own writes win over committed
// state. Missing keys — whether hidden by a buffered remove or absent
// from the committed state — satisfy errors.Is(err, ErrNotFound).
func (t *Txn) Get(key []byte) ([]byte, error) { return t.Tree(0).Get(key) }

// TreeTxn is a transaction's view of one tree: its writes join the
// transaction's write set under the tree's id and commit with it.
// Tree 0 is the manager's store, which the Txn methods of the same
// names write. A read of any other tree takes no lock: the front end
// runs it under Manager.Read, or under a lock of its own that every
// commit to the tree also holds.
type TreeTxn struct {
	t  *Txn
	id uint64
}

// Tree returns the transaction's view of tree id.
func (t *Txn) Tree(id uint64) TreeTxn { return TreeTxn{t: t, id: id} }

// Get reads a key of the tree, the transaction's own writes first.
func (v TreeTxn) Get(key []byte) ([]byte, error) {
	t := v.t
	if t.done {
		return nil, ErrTxnDone
	}
	val, ok, err := t.visible(v.id, key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, notFound(key)
	}
	return append([]byte(nil), val...), nil
}

// writable gates a buffered write: the transaction must be open and not
// a snapshot, and the product must compose op.
func (t *Txn) writable(op string, composed bool) error {
	switch {
	case t.done:
		return ErrTxnDone
	case t.readOnly:
		return ErrReadOnly
	case !composed:
		return fmt.Errorf("%s: %w", op, access.ErrNotComposed)
	}
	return nil
}

// exists fails with ErrNotFound unless key is visible to the
// transaction in tree. It shares the single visibility check with Get,
// so Update/Remove cost one lock acquisition at most (and none with
// MVCC composed).
func (t *Txn) exists(tree uint64, key []byte) error {
	_, ok, err := t.visible(tree, key)
	if err == nil && !ok {
		err = fmt.Errorf("txn: %q: %w", key, ErrNotFound)
	}
	return err
}

// Put buffers a write of value under key. An entry the index can never
// hold is refused here, before it can reach the log.
func (t *Txn) Put(key, value []byte) error { return t.Tree(0).Put(key, value) }

// Update buffers a replacement of an existing key's value, refusing a
// value the index can never hold.
func (t *Txn) Update(key, value []byte) error { return t.Tree(0).Update(key, value) }

// Remove buffers a deletion of an existing key.
func (t *Txn) Remove(key []byte) error { return t.Tree(0).Remove(key) }

// Put buffers a write of value under key in the tree, refusing an
// entry the tree's index can never hold.
func (v TreeTxn) Put(key, value []byte) error {
	s, err := v.t.m.storeOf(v.id)
	if err != nil {
		return err
	}
	if err := v.t.writable("Put", s.Ops().Put); err != nil {
		return err
	}
	if err := s.IndexSeam().Check(key, value); err != nil {
		return err
	}
	v.t.record(writeOp{tree: v.id, key: bytes.Clone(key), value: bytes.Clone(value)})
	return nil
}

// Update buffers a replacement of an existing key's value in the tree.
func (v TreeTxn) Update(key, value []byte) error {
	s, err := v.t.m.storeOf(v.id)
	if err != nil {
		return err
	}
	if err := v.t.writable("Update", s.Ops().Update); err != nil {
		return err
	}
	if err := v.t.exists(v.id, key); err != nil {
		return err
	}
	if err := s.IndexSeam().Check(key, value); err != nil {
		return err
	}
	v.t.record(writeOp{tree: v.id, key: bytes.Clone(key), value: bytes.Clone(value)})
	return nil
}

// Remove buffers a deletion of an existing key of the tree.
func (v TreeTxn) Remove(key []byte) error {
	s, err := v.t.m.storeOf(v.id)
	if err != nil {
		return err
	}
	if err := v.t.writable("Remove", s.Ops().Remove); err != nil {
		return err
	}
	if err := v.t.exists(v.id, key); err != nil {
		return err
	}
	v.t.record(writeOp{tree: v.id, remove: true, key: bytes.Clone(key)})
	return nil
}

// encodeWriteSet appends the transaction's log frames (writes, then the
// commit record) to dst and returns the extended slice plus the frame
// count.
func (t *Txn) encodeWriteSet(dst []byte) ([]byte, int) {
	for _, w := range t.writes {
		rec := logRecord{typ: recPut, txnID: t.id, key: w.key, value: w.value}
		if w.remove {
			rec = logRecord{typ: recRemove, txnID: t.id, key: w.key}
		}
		if w.tree != 0 {
			rec.typ += recTreePut - recPut
			rec.tree = w.tree
		}
		dst = encodeFrame(dst, rec)
	}
	dst = encodeFrame(dst, logRecord{typ: recCommit, txnID: t.id})
	return dst, len(t.writes) + 1
}

// applyLocked installs a logged-and-durable write set into the store,
// recording the index work under sp (the commit or drain span). The
// caller holds m.mu.
func (m *Manager) applyLocked(sp *trace.Span, t *Txn) error {
	for _, w := range t.writes {
		if err := m.apply(sp, w.tree, w.key, w.value, w.remove); err != nil {
			return err
		}
	}
	m.opts.Metrics.Add(stats.TxnCommits, 1)
	return nil
}

// Commit logs the write set, makes it durable per the batch limit, and
// applies it to the store. Without Locking the transaction is a batch of
// one through the commit body; with Locking it is staged into the
// group-commit pipeline, whose leader runs the same body once per batch.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	t.releaseSnap()
	m := t.m
	start := m.opts.Metrics.Start()
	if len(t.writes) == 0 {
		m.opts.Metrics.Add(stats.TxnCommits, 1)
		m.opts.Metrics.Done(stats.TxnCommitLatency, start)
		return nil
	}
	sp := m.opts.Tracer.Start(nil, trace.LayerTxn, "commit")
	sp.Txn(t.id)
	defer sp.End()
	// Degraded read-only mode refuses the commit before any log I/O.
	if err := m.opts.Health.Err(); err != nil {
		sp.Fail(err)
		return err
	}
	scratch := getScratch()
	buf, records := t.encodeWriteSet(*scratch)
	var err error
	if m.gc != nil {
		err = m.gc.commit(sp, t, buf, records)
	} else {
		txns, errs := [1]*Txn{t}, [1]error{}
		m.commitBatch(sp, buf, records, txns[:], errs[:])
		err = errs[0]
	}
	*scratch = buf
	putScratch(scratch)
	if err == nil {
		m.opts.Metrics.Done(stats.TxnCommitLatency, start)
	}
	sp.Fail(err)
	return err
}

// commitBatch is the one commit body. It refuses the batch on a closed
// manager or an attached replica, appends its encoded frames (txns in
// log order) in one write, syncs when the batch holds several commits or
// the unsynced commits reach the batch limit, cuts a failed tail off the
// log so recovery can never replay a commit whose committer saw an
// error, and only then applies the batch to the store under m.mu and
// publishes one version for it. errs, parallel to txns, receives each
// committer's outcome. The caller must not hold m.mu.
func (m *Manager) commitBatch(sp *trace.Span, buf []byte, records int, txns []*Txn, errs []error) {
	var err error
	m.mu.RLock()
	if m.closed {
		err = ErrClosed
	} else if m.replicas > 0 {
		err = ErrReadOnly
	}
	m.mu.RUnlock()
	if err == nil {
		base := m.wal.offset()
		err = m.wal.appendEncoded(sp, buf, records, len(txns))
		if err == nil && (len(txns) > 1 || m.wal.unsyncedCommits() >= m.opts.BatchLimit) {
			err = m.wal.syncIn(sp)
		}
		if err != nil {
			m.wal.truncateTo(base, len(txns))
		}
	}
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return
	}
	m.mu.Lock()
	for i, t := range txns {
		errs[i] = m.applyLocked(sp, t)
	}
	// One version per batch, published while m.mu is held, so readers
	// pin either the whole batch or none of it. A failure is only a
	// reclamation failure (the pages retry on the next install), never
	// a commit failure: the batch is durable and applied.
	_ = m.installVersion()
	m.mu.Unlock()
}

// Abort discards the transaction's writes.
func (t *Txn) Abort() {
	if !t.done {
		t.m.opts.Metrics.Add(stats.TxnAborts, 1)
	}
	t.done = true
	t.releaseSnap()
	t.writes = nil
}

// quiesce drains the group-commit pipeline (if any) so the caller can
// take m.mu without racing a leader, and returns the matching resume.
// It must be called BEFORE m.mu is acquired: the leader needs m.mu to
// apply its batch, so pausing after locking would deadlock.
func (m *Manager) quiesce() func() {
	if m.gc == nil {
		return func() {}
	}
	m.gc.pause()
	return m.gc.resume
}

// Flush forces durability of all committed transactions (relevant when
// the batch limit is above 1).
func (m *Manager) Flush() error {
	if err := m.opts.Health.Err(); err != nil {
		return err
	}
	defer m.quiesce()()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.wal.Sync()
}

// Checkpoint makes the store durable and truncates the log. Requires
// Options.SyncStore.
func (m *Manager) Checkpoint() error {
	if err := m.opts.Health.Err(); err != nil {
		return err
	}
	defer m.quiesce()()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.opts.SyncStore == nil {
		return errors.New("txn: checkpointing requires Options.SyncStore")
	}
	if err := m.wal.Sync(); err != nil {
		return err
	}
	if err := m.opts.SyncStore(); err != nil {
		return err
	}
	if err := m.wal.reset(); err != nil {
		return err
	}
	m.opts.Metrics.Add(stats.TxnCheckpoints, 1)
	return nil
}

// VerifyLog re-walks the whole WAL verifying every frame checksum —
// the log half of the engine's scrub pass (DB.Verify / shell .verify).
// The pipeline is quiesced so the scan sees a stable log.
func (m *Manager) VerifyLog() (LogVerifyReport, error) {
	defer m.quiesce()()
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.wal.verify()
}

// LogSyncs returns how many durable log syncs have happened — the
// metric the commit-protocol ablation compares.
func (m *Manager) LogSyncs() int64 { return m.wal.SyncCount() }

// LogSize returns the current log size in bytes.
func (m *Manager) LogSize() int64 { return m.wal.offset() }

// Locking reports whether the manager was opened with the Locking
// feature: only then does Read keep every commit's apply out.
func (m *Manager) Locking() bool { return m.opts.Locking }

// Close flushes and closes the log.
func (m *Manager) Close() error {
	defer m.quiesce()()
	m.gc.shutdown()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("txn: manager already closed")
	}
	m.closed = true
	if m.opts.Health.Degraded() {
		// A degraded engine cannot make its tail durable — the device
		// is refusing writes. Release the handle without failing the
		// shutdown; everything unsynced was never acknowledged as
		// durable.
		return m.wal.close()
	}
	if err := m.wal.Sync(); err != nil {
		return err
	}
	return m.wal.close()
}
