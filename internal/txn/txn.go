package txn

import (
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

// Protocol is the CommitProtocol alternative of the Transaction feature
// (Fig. 2): it decides when appended commit records become durable.
type Protocol interface {
	// Name returns the feature name ("ForceCommit" or "GroupCommit").
	Name() string
	// OnCommit is called after a transaction's records (including the
	// commit record) were appended. Only the unpipelined commit path
	// uses it; with Locking composed the group-commit pipeline decides
	// durability from BatchLimit instead.
	OnCommit(parent *trace.Span, w *WAL) error
	// Flush forces durability of everything appended so far.
	Flush(w *WAL) error
	// BatchLimit returns how many transactions the pipelined
	// group-commit leader may coalesce into one durable sync.
	// ForceCommit returns 1 — the degenerate one-transaction batch —
	// which preserves its sync-per-commit durability contract.
	BatchLimit() int
}

// Force syncs the log on every commit: maximal durability, one sync per
// transaction.
type Force struct{}

// Name implements Protocol.
func (Force) Name() string { return "ForceCommit" }

// OnCommit implements Protocol.
func (Force) OnCommit(parent *trace.Span, w *WAL) error { return w.syncIn(parent) }

// Flush implements Protocol.
func (Force) Flush(w *WAL) error { return w.Sync() }

// BatchLimit implements Protocol: every batch is one transaction.
func (Force) BatchLimit() int { return 1 }

// Group batches commits and syncs once per BatchSize commits,
// amortizing sync cost at the price of a durability window. Commit
// returns once the records are appended; durability follows with the
// batch (call Manager.Flush to force it).
type Group struct {
	// BatchSize is the number of commits per sync (default 8).
	BatchSize int
	pending   int
}

// Name implements Protocol.
func (g *Group) Name() string { return "GroupCommit" }

// OnCommit implements Protocol.
func (g *Group) OnCommit(parent *trace.Span, w *WAL) error {
	n := g.BatchSize
	if n <= 0 {
		n = 8
	}
	g.pending++
	if g.pending >= n {
		g.pending = 0
		return w.syncIn(parent)
	}
	return nil
}

// Flush implements Protocol.
func (g *Group) Flush(w *WAL) error {
	g.pending = 0
	return w.Sync()
}

// BatchLimit implements Protocol.
func (g *Group) BatchLimit() int {
	if g.BatchSize <= 0 {
		return 8
	}
	return g.BatchSize
}

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
	// Protocol is the selected commit protocol (required).
	Protocol Protocol
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
	// OnApply, if set, observes every committed operation as it is
	// applied to the store (in commit order, under the manager lock).
	// The Replication feature ships these to replicas. Recovery replays
	// are not observed.
	OnApply func(remove bool, key, value []byte) error
	// Metrics receives transactional and WAL counters when the
	// Statistics feature is composed; nil otherwise (recording is then a
	// no-op).
	Metrics *stats.Txn
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
	// Fault receives retry/degraded counters when the Statistics
	// feature is composed; nil otherwise.
	Fault *stats.Fault
	// Versions is the MVCC version table when that feature is composed;
	// nil otherwise. With it set, Begin pins the newest committed
	// version so transactional reads never take the manager lock, and
	// every commit batch publishes a new version after it applies.
	Versions VersionSource
}

// Manager coordinates transactions over a store.
type Manager struct {
	store *access.Store
	wal   *WAL
	opts  Options
	// fs and logName let the Replication feature keep its durable
	// resync marker (see ship.go) next to the log.
	fs      osal.FS
	logName string

	// mu serializes commits and guards the store during apply. It is a
	// no-op when the Locking feature is deselected.
	mu      rwLocker
	nextTxn atomic.Uint64
	closed  bool

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

// Open creates the transaction manager, opening (and if configured,
// recovering) the log file logName on fs.
func Open(fs osal.FS, logName string, store *access.Store, opts Options) (*Manager, error) {
	if opts.Protocol == nil {
		return nil, errors.New("txn: a commit protocol must be selected")
	}
	w, err := openWAL(fs, logName)
	if err != nil {
		return nil, err
	}
	m := &Manager{store: store, wal: w, opts: opts, fs: fs, logName: logName}
	w.metrics = opts.Metrics
	w.tracer = opts.Tracer
	w.retry = opts.Retry
	w.health = opts.Health
	w.fault = opts.Fault
	if opts.Locking {
		m.mu = &sync.RWMutex{}
		m.gc = newGroupCommit(m, opts.Protocol.BatchLimit())
	} else {
		m.mu = nullLocker{}
	}
	if opts.Recovery {
		if err := m.recover(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// recover replays the write sets of committed transactions in log
// order. The operations are idempotent, so replaying already-applied
// transactions is harmless.
func (m *Manager) recover() error {
	type op struct {
		remove bool
		key    []byte
		value  []byte
	}
	pending := map[uint64][]op{}
	var order []op
	if err := m.wal.scan(func(r logRecord) error {
		switch r.typ {
		case recPut:
			pending[r.txnID] = append(pending[r.txnID], op{key: r.key, value: r.value})
		case recRemove:
			pending[r.txnID] = append(pending[r.txnID], op{remove: true, key: r.key})
		case recCommit:
			order = append(order, pending[r.txnID]...)
			m.Recovered++
			delete(pending, r.txnID)
		case recCheckpoint:
			// Everything before the checkpoint is already in the store.
			order = order[:0]
			m.Recovered = 0
		}
		return nil
	}); err != nil {
		return err
	}
	idx := m.store.Index()
	for _, o := range order {
		if o.remove {
			if _, err := idx.Delete(o.key); err != nil {
				return fmt.Errorf("txn: recovery delete: %w", err)
			}
		} else {
			if err := idx.Insert(o.key, o.value); err != nil {
				return fmt.Errorf("txn: recovery insert: %w", err)
			}
		}
	}
	// With MVCC composed the replay mutated copy-on-write: publish the
	// recovered state as one version so the first snapshot pins it and
	// the replay's superseded pages reclaim.
	if err := m.installVersion(); err != nil {
		return fmt.Errorf("txn: recovery version install: %w", err)
	}
	return nil
}

// writeOp is one entry of a transaction's private write set.
type writeOp struct {
	remove bool
	key    []byte
	value  []byte
}

// Txn is a transaction: reads see committed state plus the
// transaction's own writes; writes stay private until Commit.
type Txn struct {
	m      *Manager
	id     uint64
	writes []writeOp
	// widx maps a key to the index of its latest entry in writes, so
	// read-your-writes lookups stay O(1) for large write sets.
	widx map[string]int
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
	m.opts.Metrics.Begin()
	t := &Txn{m: m, id: id}
	if m.opts.Versions != nil {
		t.snap = m.pinVersion()
	}
	return t
}

// ID returns the transaction's identifier — the value trace spans and
// group-commit leader attribution carry.
func (t *Txn) ID() uint64 { return t.id }

// lookupWriteSet finds the latest private write for key.
func (t *Txn) lookupWriteSet(key []byte) (writeOp, bool) {
	if i, ok := t.widx[string(key)]; ok {
		return t.writes[i], true
	}
	return writeOp{}, false
}

// record appends w to the write set and indexes its key.
func (t *Txn) record(w writeOp) {
	t.writes = append(t.writes, w)
	if t.widx == nil {
		t.widx = make(map[string]int)
	}
	t.widx[string(w.key)] = len(t.writes) - 1
}

// Get reads a key: the transaction's own writes win over committed
// state. Missing keys — whether hidden by a buffered remove or absent
// from the committed state — satisfy errors.Is(err, ErrNotFound).
func (t *Txn) Get(key []byte) ([]byte, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	v, ok, err := t.visible(key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, notFound(key)
	}
	return append([]byte(nil), v...), nil
}

// Put buffers a write of value under key.
func (t *Txn) Put(key, value []byte) error {
	if t.done {
		return ErrTxnDone
	}
	if t.readOnly {
		return ErrReadOnly
	}
	if !t.m.store.Ops().Put {
		return fmt.Errorf("Put: %w", access.ErrNotComposed)
	}
	t.record(writeOp{
		key:   append([]byte(nil), key...),
		value: append([]byte(nil), value...),
	})
	return nil
}

// exists reports whether key is visible to the transaction. It shares
// the single visibility check with Get, so Update/Remove cost one lock
// acquisition at most (and none with MVCC composed).
func (t *Txn) exists(key []byte) (bool, error) {
	_, ok, err := t.visible(key)
	return ok, err
}

// Update buffers a replacement of an existing key's value.
func (t *Txn) Update(key, value []byte) error {
	if t.done {
		return ErrTxnDone
	}
	if t.readOnly {
		return ErrReadOnly
	}
	if !t.m.store.Ops().Update {
		return fmt.Errorf("Update: %w", access.ErrNotComposed)
	}
	ok, err := t.exists(key)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("txn: %q: %w", key, ErrNotFound)
	}
	t.record(writeOp{
		key:   append([]byte(nil), key...),
		value: append([]byte(nil), value...),
	})
	return nil
}

// Remove buffers a deletion of an existing key.
func (t *Txn) Remove(key []byte) error {
	if t.done {
		return ErrTxnDone
	}
	if t.readOnly {
		return ErrReadOnly
	}
	if !t.m.store.Ops().Remove {
		return fmt.Errorf("Remove: %w", access.ErrNotComposed)
	}
	ok, err := t.exists(key)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("txn: %q: %w", key, ErrNotFound)
	}
	t.record(writeOp{remove: true, key: append([]byte(nil), key...)})
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
		dst = encodeFrame(dst, rec)
	}
	dst = encodeFrame(dst, logRecord{typ: recCommit, txnID: t.id})
	return dst, len(t.writes) + 1
}

// applyLocked installs a logged-and-durable write set into the store,
// recording the index work under sp (the commit or drain span). The
// caller holds m.mu.
func (m *Manager) applyLocked(sp *trace.Span, t *Txn) error {
	idx := m.store.IndexSeam()
	for _, w := range t.writes {
		if w.remove {
			if _, err := idx.DeleteIn(sp, w.key); err != nil {
				return err
			}
		} else {
			if err := idx.InsertIn(sp, w.key, w.value); err != nil {
				return err
			}
		}
		if m.opts.OnApply != nil {
			if err := m.opts.OnApply(w.remove, w.key, w.value); err != nil {
				return err
			}
		}
	}
	m.opts.Metrics.Commit()
	return nil
}

// Commit logs the write set, makes it durable per the commit protocol,
// and applies it to the store. With Locking composed the commit goes
// through the group-commit pipeline: the write set is staged into the
// shared log buffer and one leader drains the whole batch with a single
// WriteAt and a single Sync while the latch is free.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	t.releaseSnap()
	m := t.m
	start := m.opts.Metrics.StartCommit()
	if len(t.writes) == 0 {
		m.opts.Metrics.Commit()
		m.opts.Metrics.DoneCommit(start)
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
	if m.gc != nil {
		err := m.gc.commit(sp, t)
		if err == nil {
			m.opts.Metrics.DoneCommit(start)
		}
		sp.Fail(err)
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		sp.Fail(ErrClosed)
		return ErrClosed
	}
	// Write-ahead: records first, then the commit record, then the
	// protocol decides durability, and only then the store changes.
	scratch := getScratch()
	buf, records := t.encodeWriteSet(*scratch)
	err := m.wal.appendEncoded(sp, buf, records, 1)
	*scratch = buf
	putScratch(scratch)
	if err != nil {
		sp.Fail(err)
		return err
	}
	if err := m.opts.Protocol.OnCommit(sp, m.wal); err != nil {
		sp.Fail(err)
		return err
	}
	if err := m.applyLocked(sp, t); err != nil {
		sp.Fail(err)
		return err
	}
	// Publish the new root; a failure here is only a reclamation
	// failure (the pages retry on the next install), never a commit
	// failure — the write set is durable and applied.
	_ = m.installVersion()
	m.opts.Metrics.DoneCommit(start)
	return nil
}

// Abort discards the transaction's writes.
func (t *Txn) Abort() {
	if !t.done {
		t.m.opts.Metrics.Abort()
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

// Flush forces durability of all committed transactions (relevant under
// GroupCommit).
func (m *Manager) Flush() error {
	if err := m.opts.Health.Err(); err != nil {
		return err
	}
	defer m.quiesce()()
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.opts.Protocol.Flush(m.wal); err != nil {
		return err
	}
	m.gc.clearDeferred()
	return nil
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
	if err := m.opts.Protocol.Flush(m.wal); err != nil {
		return err
	}
	if err := m.opts.SyncStore(); err != nil {
		return err
	}
	if err := m.wal.reset(); err != nil {
		return err
	}
	m.gc.clearDeferred()
	m.opts.Metrics.Checkpoint()
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
func (m *Manager) LogSize() int64 { return m.wal.Size() }

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
	if err := m.opts.Protocol.Flush(m.wal); err != nil {
		return err
	}
	return m.wal.close()
}
