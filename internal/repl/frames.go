// Package repl is the primary side of the Replication feature: the
// fan-out of WAL frames between the transaction manager's ship hook and
// the network sessions feeding replicas, plus VerifyIndexes, the check
// that a replica converged on the primary's contents.
//
// One Shipper hangs off the primary's WAL (txn.Manager.SetOnShip →
// Shipper.OnShip). Each connected replica session subscribes a bounded
// Feed; frames carry a monotonic sequence number and the WAL base
// offset their bytes landed at, so both ends can detect loss: a
// sequence gap or non-chaining base means the replica must fall back to
// a full snapshot resync. A WAL rewind on the primary (checkpoint reset
// or failed-batch truncate) breaks the base chain; the shipper detects
// it and breaks every feed, forcing subscribers to resync rather than
// stream bytes that no longer extend what the replica holds.
//
// A Feed never blocks the commit path: when a slow subscriber fills its
// buffer, the feed is broken (frames dropped, counter bumped) instead
// of the primary waiting. Replica failure never blocks commits.
package repl

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"famedb/internal/index"
	"famedb/internal/stats"
)

// FeedDepth is a Feed's buffered frame count: a subscriber that falls
// this many shipped chunks behind is broken.
const FeedDepth = 256

// Frame is one shipped WAL chunk: the raw bytes of one durable append.
type Frame struct {
	// Seq is the shipper's monotonic frame number; a subscriber seeing
	// a gap lost frames and must resync.
	Seq uint64
	// Base is the primary WAL offset the bytes landed at; consecutive
	// frames chain (next.Base = prev.Base + len(prev.Bytes)) until the
	// log rewinds.
	Base int64
	// Bytes is the frame run, owned by the receiver.
	Bytes []byte
}

// Feed is one subscriber's bounded frame queue.
type Feed struct {
	c       chan Frame
	broken  atomic.Bool
	dropped atomic.Int64
	closed  bool // guarded by the owning Shipper's mu
}

// C returns the frame channel. It is closed on Unsubscribe and on
// Shipper.Close.
func (f *Feed) C() <-chan Frame { return f.c }

// Broken reports whether the feed lost frames (overflow) or saw the
// primary WAL rewind; either way the subscriber must snapshot-resync.
func (f *Feed) Broken() bool { return f.broken.Load() }

// Dropped returns how many frames overflow discarded.
func (f *Feed) Dropped() int64 { return f.dropped.Load() }

// Shipper fans WAL chunks out to subscribed feeds. OnShip is wired to
// txn.Manager.SetOnShip and runs on the commit path, so it never
// blocks: it copies the chunk once and does non-blocking sends.
type Shipper struct {
	mu      sync.Mutex
	subs    map[*Feed]struct{}
	seq     uint64
	lastEnd int64 // -1 until the first chunk
	// depth is each feed's buffered frame count: FeedDepth, lowered
	// only by this package's tests to force overflow.
	depth   int
	metrics *stats.Registry
}

// NewShipper returns a shipper whose feeds buffer FeedDepth frames
// each. metrics may be nil.
func NewShipper(metrics *stats.Registry) *Shipper {
	return &Shipper{subs: map[*Feed]struct{}{}, lastEnd: -1, depth: FeedDepth, metrics: metrics}
}

// Subscribe registers a new feed that will receive every chunk shipped
// from now on.
func (s *Shipper) Subscribe() *Feed {
	f := &Feed{c: make(chan Frame, s.depth)}
	s.mu.Lock()
	s.subs[f] = struct{}{}
	s.mu.Unlock()
	return f
}

// Unsubscribe removes the feed and closes its channel.
func (s *Shipper) Unsubscribe(f *Feed) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.subs[f]; ok {
		delete(s.subs, f)
		f.closed = true
		close(f.c)
	}
}

// Close closes every subscribed feed.
func (s *Shipper) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for f := range s.subs {
		f.closed = true
		close(f.c)
	}
	s.subs = map[*Feed]struct{}{}
}

// OnShip ingests one WAL chunk as soon as it is written to the
// primary's log, before any sync: the chunk is appended, not yet
// durable. Under GroupCommit a batch is not synced until the unsynced
// commits reach the batch limit, so a replica can apply commits that a
// power cut on the primary then loses. Pass this method to
// txn.Manager.SetOnShip; buf is copied before the hook returns.
func (s *Shipper) OnShip(base int64, buf []byte) {
	cp := append([]byte(nil), buf...)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastEnd >= 0 && base != s.lastEnd {
		// The WAL rewound under us (checkpoint reset or failed-batch
		// truncate): streamed bytes no longer chain. Break every feed;
		// each subscriber heals with a snapshot resync.
		for f := range s.subs {
			if f.broken.CompareAndSwap(false, true) {
				s.metrics.Add(stats.ReplStaleMarks, 1)
			}
		}
	}
	s.lastEnd = base + int64(len(cp))
	s.seq++
	fr := Frame{Seq: s.seq, Base: base, Bytes: cp}
	s.metrics.Add(stats.ReplShippedChunks, 1)
	s.metrics.Add(stats.ReplShippedBytes, int64(len(cp)))
	for f := range s.subs {
		if f.broken.Load() {
			continue
		}
		select {
		case f.c <- fr:
		default:
			// Full: the subscriber is too slow. Drop and break rather
			// than stall the commit path.
			f.dropped.Add(1)
			f.broken.Store(true)
			s.metrics.Add(stats.ReplDrops, 1)
			s.metrics.Add(stats.ReplStaleMarks, 1)
		}
	}
}

// Repair re-arms a broken feed after its subscriber completed a
// snapshot resync: the stale buffered frames are discarded and the feed
// streams again from the next shipped chunk.
func (s *Shipper) Repair(f *Feed) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f.closed {
		return
	}
	for {
		select {
		case <-f.c:
		default:
			f.broken.Store(false)
			return
		}
	}
}

// VerifyIndexes checks that replica holds exactly primary's contents:
// same entry count, byte-equal value under every primary key.
func VerifyIndexes(primary, replica index.Index) error {
	var count uint64
	var mismatch error
	if err := primary.Scan(nil, nil, func(k, v []byte) bool {
		count++
		rv, found, err := replica.Get(k)
		if err != nil {
			mismatch = err
			return false
		}
		if !found || !bytes.Equal(rv, v) {
			mismatch = fmt.Errorf("diverges at key %q", k)
			return false
		}
		return true
	}); err != nil {
		return err
	}
	if mismatch != nil {
		return mismatch
	}
	n, err := replica.Len()
	if err != nil {
		return err
	}
	if n != count {
		return fmt.Errorf("replica has %d entries, primary %d", n, count)
	}
	return nil
}
