package txn

import (
	"sync"

	"famedb/internal/stats"
	"famedb/internal/trace"
)

// This file is the Locking feature's half of the commit path: the
// leader-elected group-commit pipeline (the classic MySQL/etcd
// arrangement). Committers encode their write set OUTSIDE any lock,
// stage the frames into the open batch under a short latch, and the
// first stager becomes the batch's leader. The leader drains batches
// FIFO through the one commit body (Manager.commitBatch): one coalesced
// WriteAt and at most one Sync per batch, both with the latch released,
// so later committers keep staging into the next batch while the device
// works. Followers just wait: their commit is durable (or failed) when
// the batch's done channel closes.
//
// The batch limit caps how many transactions one batch may hold.
// ForceCommit's limit is 1, so every batch is a single transaction and
// syncs — but commits still queue FIFO instead of fighting over
// Manager.mu. A batch of one under a larger limit defers its sync the
// way the commit body always does, until the limit's worth of commits
// is unsynced, so single-goroutine use sees the same sync counts with
// and without Locking.

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
	m    *Manager
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
	closed bool
}

func newGroupCommit(m *Manager) *groupCommit {
	g := &groupCommit{m: m}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// commit stages one transaction's encoded frames (buf, records of
// them) into the pipeline and returns once its outcome is decided
// (durable per the batch limit and applied, or failed). sp is the
// transaction's commit span: a follower's wait hangs under its own, a
// leader's drains — whoever's transactions they carry — under the
// leader's.
func (g *groupCommit) commit(sp *trace.Span, t *Txn, buf []byte, records int) error {
	g.mu.Lock()
	for g.paused > 0 && !g.closed {
		g.cond.Wait()
	}
	if g.closed {
		g.mu.Unlock()
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
	if len(b.txns) >= g.m.opts.BatchLimit {
		// Sealed: the next stager opens a fresh batch.
		g.tail = nil
		g.ready = append(g.ready, b)
	}
	lead := !g.leading
	if lead {
		g.leading = true
	}
	g.mu.Unlock()

	if lead {
		g.lead(sp, t.id)
		// The leader's own batch was drained by the loop above (it
		// cannot exit while any batch is open or ready).
	} else {
		stall := g.m.opts.Metrics.Start()
		wsp := g.m.opts.Tracer.Start(sp, trace.LayerTxn, "follower-wait")
		wsp.Txn(t.id)
		<-b.done
		// The batch is fully drained once done closes; its size and
		// leader are final.
		wsp.Handoff(len(b.txns), b.leaderID)
		wsp.End()
		g.m.opts.Metrics.Done(stats.TxnCommitStall, stall)
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

// drain runs one batch through the commit body and wakes its
// committers.
func (g *groupCommit) drain(commit *trace.Span, b *gcBatch, leaderID uint64) {
	b.leaderID = leaderID
	sp := g.m.opts.Tracer.Start(commit, trace.LayerTxn, "drain")
	sp.Txn(leaderID)
	sp.Handoff(len(b.txns), leaderID)
	g.m.commitBatch(sp, b.buf, b.records, b.txns, b.errs)
	sp.End()
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
