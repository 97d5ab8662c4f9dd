package txn

import (
	"sync"

	"famedb/internal/stats"
	"famedb/internal/trace"
)

// This file is the Locking feature's half of the commit path: the
// leader-elected group-commit pipeline (the classic MySQL/etcd
// arrangement). Committers encode their write set OUTSIDE any lock and
// stage the frames into the open batch under a short latch
// (Txn.CommitAsync); staging never blocks on the device. A committer
// that waits on its staged commit (Staged.Wait; Commit is stage + wait)
// and finds no leader becomes one: it takes the open batch — whatever
// every committer staged so far, its own commit included — and drains
// it through the one commit body (Manager.commitBatch): one coalesced
// WriteAt and at most one Sync, both with the latch released, so later
// committers keep staging into the next batch while the device works.
// Then it steps down, and a waiter of the next batch takes over.
// Followers just wait: their commit is resolved when the batch's done
// channel closes.
//
// Batches are never sealed by size: a batch holds everything staged
// while the previous one drained. Whether it syncs is the commit body's
// one rule, unsynced commits >= the batch limit, so a batch of any size
// below the limit defers its sync like a lone commit does, and the
// acknowledged-but-unsynced commits never reach the limit. ForceCommit's
// limit is 1, so every batch syncs.

// gcBatch is one group of transactions sharing a WriteAt and a Sync.
type gcBatch struct {
	buf     []byte  // coalesced encoded frames, staging order
	txns    []*Txn  // committers, staging (= log) order
	errs    []error // per-committer outcome, parallel to txns
	records int     // frame count across buf, for the WAL metrics
	// leaderID is the transaction whose waiter drained this batch (0
	// for a quiesce); written before done closes, so followers read it
	// race-free after their wait and can attribute the handoff in their
	// trace span.
	leaderID uint64
	done     chan struct{}
}

// drained reports whether the batch's outcome is decided.
func (b *gcBatch) drained() bool {
	select {
	case <-b.done:
		return true
	default:
		return false
	}
}

// groupCommit is the pipeline state hung off a Manager when Locking is
// composed.
type groupCommit struct {
	m    *Manager
	mu   sync.Mutex
	cond *sync.Cond // paused/closed transitions and leader step-downs
	// tail is the open batch accepting stagers; nil when none is open.
	tail *gcBatch
	// leading is true while some waiter (or a quiesce) drains a batch.
	// leader is that waiter's transaction, and free closes when it
	// steps down, waking the followers it leaves behind.
	leading bool
	leader  uint64
	free    chan struct{}
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

// stage appends one transaction's encoded frames (buf, records of them)
// to the open batch and returns the batch and the transaction's index
// in it. buf is copied.
func (g *groupCommit) stage(t *Txn, buf []byte, records int) (*gcBatch, int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.paused > 0 && !g.closed {
		g.cond.Wait()
	}
	if g.closed {
		return nil, 0, ErrClosed
	}
	b := g.tail
	if b == nil {
		b = &gcBatch{done: make(chan struct{})}
		g.tail = b
	}
	b.buf = append(b.buf, buf...)
	b.txns = append(b.txns, t)
	b.errs = append(b.errs, nil)
	b.records += records
	return b, len(b.txns) - 1, nil
}

// wait returns once b, which holds transaction id's commit, is drained.
// sp is that commit's span: a leader's drain hangs under it, and so
// does a follower's wait, which the commit-stall histogram also times.
// A follower whose leader steps down before b is drained retries the
// leadership.
func (g *groupCommit) wait(sp *trace.Span, id uint64, b *gcBatch) {
	// A follower's wait runs from when it first finds another leader
	// until b is drained or it takes the leadership itself.
	following := false
	var wsp *trace.Span
	var stall int64
	var followed uint64
	unfollow := func(batch int, leader uint64) {
		if following {
			wsp.Handoff(batch, leader)
			wsp.End()
			g.m.opts.Metrics.Done(stats.TxnCommitStall, stall)
		}
	}
	for {
		g.mu.Lock()
		// A batch is drained before its leader steps down, so once no
		// leader is active an undrained b is still the open batch.
		if b.drained() {
			g.mu.Unlock()
			// b is final once done closes: its size and leader.
			unfollow(len(b.txns), b.leaderID)
			return
		}
		if !g.leading {
			unfollow(len(b.txns), followed)
			g.lead(sp, id)
			return
		}
		free := g.free
		followed = g.leader
		g.mu.Unlock()
		if !following {
			following = true
			stall = g.m.opts.Metrics.Start()
			wsp = g.m.opts.Tracer.Start(sp, trace.LayerTxn, "follower-wait")
			wsp.Txn(id)
		}
		select {
		case <-b.done:
		case <-free:
		}
	}
}

// lead claims the leadership for transaction id, drains the open batch
// and steps down. The caller holds g.mu, found no leader and an open
// batch; lead returns with g.mu released.
func (g *groupCommit) lead(sp *trace.Span, id uint64) {
	g.leading, g.leader, g.free = true, id, make(chan struct{})
	b := g.tail
	g.tail = nil
	g.mu.Unlock()
	g.drain(sp, b, id)
	g.mu.Lock()
	g.leading = false
	close(g.free)
	g.cond.Broadcast()
	g.mu.Unlock()
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
// leader is active, drains any batch still open — its committers may
// never wait on it — and leaves the pipeline stopped until resume.
// Callers must not hold Manager.mu (a drain needs it to finish).
func (g *groupCommit) pause() {
	g.mu.Lock()
	g.paused++
	for g.leading || g.tail != nil {
		if g.leading {
			g.cond.Wait()
			continue
		}
		g.lead(nil, 0)
		g.mu.Lock()
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
