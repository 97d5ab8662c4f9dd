package txn

import (
	"sync"

	"famedb/internal/trace"
)

// This file is the leader-elected group-commit pipeline (the classic
// MySQL/etcd arrangement). Committers encode their write set OUTSIDE
// any lock, stage the frames into the open batch under a short latch,
// and the first stager becomes the batch's leader. The leader drains
// batches FIFO: one coalesced WriteAt, one Sync for the whole batch —
// both performed with the latch released, so later committers keep
// staging into the next batch while the device works — then applies the
// batch to the store under Manager.mu and wakes every follower on the
// batch's done channel. Followers just wait: their commit is durable
// (or failed) when the channel closes.
//
// ForceCommit rides the same pipeline as the degenerate case: its batch
// limit is 1, so every batch is a single transaction and every batch
// syncs — the sync-per-commit contract is untouched, but commits still
// queue FIFO instead of fighting over Manager.mu. GroupCommit batches
// up to BatchSize transactions per sync. A batch that holds just one
// transaction (no concurrency to share a sync with) keeps GroupCommit's
// historical deferred-durability behavior: the sync is postponed until
// BatchSize commits have accumulated, so single-goroutine products see
// exactly the sync counts they always did.

// gcBatch is one group of transactions sharing a WriteAt and a Sync.
type gcBatch struct {
	buf     []byte  // coalesced encoded frames, staging order
	txns    []*Txn  // committers, staging (= log) order
	errs    []error // per-committer outcome, parallel to txns
	records int     // frame count across buf, for the WAL metrics
	// leaderID is the transaction whose committer drained this batch;
	// written before done closes, so followers read it race-free after
	// their wait and can attribute the handoff in their trace span.
	leaderID uint64
	done     chan struct{}
}

// groupCommit is the pipeline state hung off a Manager when Locking is
// composed.
type groupCommit struct {
	m *Manager
	// max is the protocol's batch limit: how many transactions one sync
	// may cover, and — for singleton batches — how many commits may
	// defer durability before a sync is forced.
	max int

	mu   sync.Mutex
	cond *sync.Cond // leading/paused/closed transitions
	// tail is the open batch accepting stagers; nil when none is open.
	tail *gcBatch
	// ready holds sealed batches awaiting the leader, FIFO.
	ready []*gcBatch
	// leading is true while some committer is draining batches.
	leading bool
	// paused counts quiesce requests (Flush/Checkpoint/Close); stagers
	// block while it is non-zero.
	paused int
	// deferred counts commits appended but not yet synced — the
	// singleton-batch deferral budget against max.
	deferred int
	closed   bool
}

func newGroupCommit(m *Manager, batchLimit int) *groupCommit {
	if batchLimit <= 0 {
		batchLimit = 1
	}
	g := &groupCommit{m: m, max: batchLimit}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// commit runs one transaction through the pipeline and returns once its
// outcome is decided (durable per protocol and applied, or failed). sp
// is the transaction's commit span: a follower's wait hangs under its
// own, a leader's drains — whoever's transactions they carry — under
// the leader's.
func (g *groupCommit) commit(sp *trace.Span, t *Txn) error {
	// Encode outside every lock; staging is then a memcpy.
	scratch := getScratch()
	buf, records := t.encodeWriteSet(*scratch)

	g.mu.Lock()
	for g.paused > 0 && !g.closed {
		g.cond.Wait()
	}
	if g.closed {
		g.mu.Unlock()
		*scratch = buf
		putScratch(scratch)
		return ErrClosed
	}
	b := g.tail
	if b == nil {
		b = &gcBatch{done: make(chan struct{})}
		g.tail = b
	}
	idx := len(b.txns)
	b.buf = append(b.buf, buf...)
	b.txns = append(b.txns, t)
	b.errs = append(b.errs, nil)
	b.records += records
	if len(b.txns) >= g.max {
		// Sealed: the next stager opens a fresh batch.
		g.tail = nil
		g.ready = append(g.ready, b)
	}
	lead := !g.leading
	if lead {
		g.leading = true
	}
	g.mu.Unlock()
	*scratch = buf
	putScratch(scratch)

	if lead {
		g.lead(sp, t.id)
		// The leader's own batch was drained by the loop above (it
		// cannot exit while any batch is open or ready).
	} else {
		stall := g.m.opts.Metrics.StartStall()
		wsp := g.m.opts.Tracer.Start(sp, trace.LayerTxn, "follower-wait")
		wsp.Txn(t.id)
		<-b.done
		// The batch is fully drained once done closes; its size and
		// leader are final.
		wsp.Handoff(len(b.txns), b.leaderID)
		wsp.End()
		g.m.opts.Metrics.DoneStall(stall)
		return b.errs[idx]
	}
	<-b.done
	return b.errs[idx]
}

// lead drains batches FIFO until none remain, then steps down.
// leaderID is the draining committer's transaction, recorded on every
// batch it drains for follower span attribution.
func (g *groupCommit) lead(commit *trace.Span, leaderID uint64) {
	for {
		g.mu.Lock()
		var b *gcBatch
		if len(g.ready) > 0 {
			b = g.ready[0]
			g.ready = g.ready[1:]
		} else if g.tail != nil {
			b = g.tail
			g.tail = nil
		} else {
			g.leading = false
			g.cond.Broadcast()
			g.mu.Unlock()
			return
		}
		g.mu.Unlock()
		g.drain(commit, b, leaderID)
	}
}

// drain makes one batch durable and applies it: ONE WriteAt, at most
// ONE Sync, then the store apply under Manager.mu.
func (g *groupCommit) drain(commit *trace.Span, b *gcBatch, leaderID uint64) {
	m := g.m
	b.leaderID = leaderID
	sp := m.opts.Tracer.Start(commit, trace.LayerTxn, "drain")
	sp.Txn(leaderID)
	sp.Handoff(len(b.txns), leaderID)
	defer sp.End()
	base := m.wal.offset()
	commits := len(b.txns)
	err := m.wal.appendEncoded(sp, b.buf, b.records, commits)
	if err == nil {
		// A multi-transaction batch syncs before waking its followers:
		// Commit returning implies the group is durable. A singleton
		// batch defers per the protocol's budget (ForceCommit's budget
		// is 1, so it always syncs).
		g.mu.Lock()
		g.deferred += commits
		needSync := commits > 1 || g.deferred >= g.max
		g.mu.Unlock()
		if needSync {
			if err = m.wal.syncIn(sp); err == nil {
				g.clearDeferred()
			}
		}
	}
	if err != nil {
		// The tail past base was never acknowledged to anyone: cut it
		// off so a later recovery scan cannot replay these commits.
		m.wal.truncateTo(base, commits)
		for i := range b.errs {
			b.errs[i] = err
		}
		close(b.done)
		return
	}
	m.mu.Lock()
	if m.closed {
		for i := range b.errs {
			b.errs[i] = ErrClosed
		}
	} else {
		for i, t := range b.txns {
			b.errs[i] = m.applyLocked(sp, t)
		}
		// One version per batch: the leader publishes the batch's final
		// root with a single atomic swap while still holding m.mu, so
		// readers pin either the whole batch or none of it. A failure is
		// only a reclamation failure and retries on the next install.
		_ = m.installVersion()
	}
	m.mu.Unlock()
	close(b.done)
}

// pause quiesces the pipeline: it blocks new stagers, waits until no
// leader is active and no batch is open or queued, and leaves the
// pipeline stopped until resume. Callers must not hold Manager.mu (the
// leader needs it to finish).
func (g *groupCommit) pause() {
	g.mu.Lock()
	g.paused++
	for g.leading || g.tail != nil || len(g.ready) > 0 {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// resume reverses one pause and wakes blocked stagers.
func (g *groupCommit) resume() {
	g.mu.Lock()
	g.paused--
	g.cond.Broadcast()
	g.mu.Unlock()
}

// clearDeferred resets the deferral budget after a durable sync. Safe
// on a nil pipeline (products without Locking).
func (g *groupCommit) clearDeferred() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.deferred = 0
	g.mu.Unlock()
}

// shutdown makes every later commit fail with ErrClosed. Safe on a nil
// pipeline.
func (g *groupCommit) shutdown() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.closed = true
	g.cond.Broadcast()
	g.mu.Unlock()
}
