package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"

	"famedb/internal/txn"
)

// Replica-client timing: the reconnect backoff's bounds, and the
// keepalive cadence at which the replica re-acks its current offset
// even when no frames arrive, so the primary's read deadline does not
// reap an idle-but-healthy session.
const (
	DefaultBaseBackoff = 10 * time.Millisecond
	DefaultMaxBackoff  = time.Second
	ackInterval        = 5 * time.Second
)

// ReplicaConfig wires a replica client to a primary.
type ReplicaConfig struct {
	// Addr is the primary's listen address.
	Addr string
	// Applier is the local manager's ship applier; it owns the replica
	// WAL and store.
	Applier *txn.ShipApplier
	// Dial opens the transport; nil means plain TCP. Tests inject a
	// FlakyConn-wrapping dialer here.
	Dial func(addr string) (net.Conn, error)

	// The reconnect timing below is fixed outside this package's tests,
	// which seed it to replay exactly and shorten it to reconnect fast.
	//
	// seed drives the reconnect jitter.
	seed int64
	// baseBackoff and maxBackoff bound the capped exponential reconnect
	// backoff. Zero means the defaults.
	baseBackoff time.Duration
	maxBackoff  time.Duration
}

// Replica is a running replica client: it dials the primary, handshakes
// with its WAL fingerprint, applies shipped frames (or a full snapshot
// when the fingerprint does not match), and keeps reconnecting with
// capped exponential backoff until Stop. A lost primary never blocks
// the replica's local reads, and a lost replica never blocks the
// primary's commits — the two ends are glued only by this loop.
type Replica struct {
	cfg ReplicaConfig
	rng *rand.Rand

	mu     sync.Mutex
	conn   net.Conn
	closed bool

	stop chan struct{}
	done chan struct{}
}

// StartReplica validates cfg and starts the replication loop. Until
// Stop returns, the local manager refuses commits (txn.ErrReadOnly). If
// the local log carries a resync marker (a snapshot install was
// interrupted by a crash), the first handshake forces a fresh snapshot.
func StartReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.Applier == nil {
		return nil, errors.New("server: ReplicaConfig.Applier is required")
	}
	if cfg.Addr == "" {
		return nil, errors.New("server: ReplicaConfig.Addr is required")
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	if cfg.baseBackoff <= 0 {
		cfg.baseBackoff = DefaultBaseBackoff
	}
	if cfg.maxBackoff <= 0 {
		cfg.maxBackoff = DefaultMaxBackoff
	}
	r := &Replica{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.seed)),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	cfg.Applier.Attach()
	go r.loop()
	return r, nil
}

// Offset returns the WAL offset the replica's store reflects: shipped
// bytes count once they are redone and their version is installed, not
// when they become durable in the replica's log.
func (r *Replica) Offset() int64 { return r.cfg.Applier.Applied() }

// WaitFor polls until the replica has applied at least target WAL bytes
// or the timeout expires, reporting success: on true, a read of the
// replica sees every commit below target. A convenience for tests and
// the CLI's catch-up wait.
func (r *Replica) WaitFor(target int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if r.Offset() >= target {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// Stop ends the loop and severs any live connection.
func (r *Replica) Stop() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		<-r.done
		return
	}
	r.closed = true
	conn := r.conn
	r.mu.Unlock()
	close(r.stop)
	if conn != nil {
		conn.Close()
	}
	<-r.done
}

func (r *Replica) stopping() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

// loop is the reconnect driver: dial, run one session, back off, redo.
// A session that made progress (applied at least one frame or a
// snapshot) resets the backoff.
func (r *Replica) loop() {
	defer close(r.done)
	defer r.cfg.Applier.Detach()
	forceSnap := r.cfg.Applier.NeedsResync()
	attempt := 0
	for !r.stopping() {
		conn, err := r.cfg.Dial(r.cfg.Addr)
		if err != nil {
			attempt++
			if !r.sleep(attempt) {
				return
			}
			continue
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			conn.Close()
			return
		}
		r.conn = conn
		r.mu.Unlock()

		progress, nextSnap := r.session(conn, forceSnap)
		conn.Close()
		r.mu.Lock()
		r.conn = nil
		r.mu.Unlock()

		forceSnap = nextSnap
		if progress {
			attempt = 0
		} else {
			attempt++
		}
		if !r.sleep(attempt) {
			return
		}
	}
}

// sleep applies the capped exponential backoff with seeded jitter
// (half fixed, half random) and reports false when Stop fired.
func (r *Replica) sleep(attempt int) bool {
	d := r.cfg.baseBackoff
	for i := 1; i < attempt && d < r.cfg.maxBackoff; i++ {
		d *= 2
	}
	if d > r.cfg.maxBackoff {
		d = r.cfg.maxBackoff
	}
	d = d/2 + time.Duration(r.rng.Int63n(int64(d/2)+1))
	select {
	case <-r.stop:
		return false
	case <-time.After(d):
		return true
	}
}

// session runs one connection: handshake, then apply whatever the
// primary streams. It returns whether any state was applied and
// whether the next handshake must force a snapshot (sequence gap,
// divergence, or a failed install).
func (r *Replica) session(conn net.Conn, forceSnap bool) (progress, nextSnap bool) {
	end, crc, err := r.cfg.Applier.PrefixCRC()
	if err != nil {
		// Cannot fingerprint the local log; a snapshot rebuilds it.
		forceSnap, end, crc = true, 0, 0
	}
	var wmu sync.Mutex // hello + acks interleave with the keepalive
	send := func(typ byte, payload []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		conn.SetWriteDeadline(time.Now().Add(DefaultWriteTimeout))
		return writeFrame(conn, typ, payload)
	}
	// An ack names the durable offset (what a reconnect resumes from)
	// and the applied one (what the primary's lag gauge tracks).
	ack := func() error {
		p := binary.AppendUvarint(nil, uint64(r.cfg.Applier.End()))
		return send(replAck, binary.AppendUvarint(p, uint64(r.cfg.Applier.Applied())))
	}
	if err := send(replHello, encodeHello(hello{Offset: end, CRC: crc, ForceSnap: forceSnap})); err != nil {
		return false, forceSnap
	}

	// Keepalive: re-ack periodically so the primary's per-connection
	// read deadline does not cut an idle session.
	kaDone := make(chan struct{})
	defer close(kaDone)
	go func() {
		t := time.NewTicker(ackInterval)
		defer t.Stop()
		for {
			select {
			case <-kaDone:
				return
			case <-t.C:
				if ack() != nil {
					return
				}
			}
		}
	}()

	var snap *txn.ShipSnap
	var lastSeq uint64
	br := bufio.NewReader(conn)
	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			return progress, false
		}
		switch typ {
		case replFrames:
			f, err := decodeFrameMsg(payload)
			if err != nil {
				return progress, false
			}
			if f.Seq != lastSeq+1 {
				// Lost frames on this session: the local log may be
				// arbitrarily behind a stream we cannot rejoin. Per the
				// robustness contract a gap forces a full snapshot.
				return progress, true
			}
			lastSeq = f.Seq
			if err := r.cfg.Applier.Apply(f.Base, f.Bytes); err != nil {
				// Gap or divergence against the local log: resync.
				return progress, true
			}
			progress = true
			if ack() != nil {
				return progress, false
			}
		case replSnapBegin:
			snap = &txn.ShipSnap{}
		case replSnapKV:
			if snap == nil {
				return progress, false
			}
			k, v, err := decodeKV(payload)
			if err != nil {
				return progress, false
			}
			if n := len(snap.Trees); n > 0 {
				d := &snap.Trees[n-1]
				d.Keys, d.Vals = append(d.Keys, k), append(d.Vals, v)
			} else {
				snap.Keys = append(snap.Keys, k)
				snap.Vals = append(snap.Vals, v)
			}
		case replSnapTree:
			if snap == nil {
				return progress, false
			}
			id, rest, err := takeUvarint(payload)
			if err != nil || len(rest) != 0 {
				return progress, false
			}
			snap.Trees = append(snap.Trees, txn.TreeDump{ID: id})
		case replSnapEnd:
			if snap == nil {
				return progress, false
			}
			snap.WALImage = payload
			if err := r.cfg.Applier.InstallSnapshot(snap); err != nil {
				return progress, true
			}
			snap = nil
			progress = true
			if ack() != nil {
				return progress, false
			}
		case respErr:
			// The primary refused the session (e.g. replication not
			// composed there). Back off and retry; the operator may fix
			// the primary without touching the replica.
			return progress, forceSnap
		default:
			return progress, false
		}
	}
}
