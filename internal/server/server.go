package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"famedb/internal/repl"
	"famedb/internal/stats"
	"famedb/internal/txn"
)

// Defaults for Config zero values.
const (
	DefaultMaxInflight  = 64
	DefaultReadTimeout  = 30 * time.Second
	DefaultWriteTimeout = 10 * time.Second
)

// Config wires a Server to a composed product.
type Config struct {
	// Mgr executes every client command through its record API: a write
	// is an auto-commit transaction through the WAL (and group commit,
	// when composed), a get a read under the manager's read lock.
	Mgr *txn.Manager
	// Shipper fans shipped WAL frames out to replication sessions. Nil
	// disables replication sessions (Server without Replication).
	Shipper *repl.Shipper
	// Metrics receives the replication counters and gauges when the
	// Statistics feature is composed; nil otherwise.
	Metrics *stats.Registry

	// The session limits below are the Default constants, lowered only
	// by this package's tests.
	//
	// maxInflight bounds how many pipelined requests one connection may
	// stage ahead of execution. The reader stops pulling frames once
	// the bound is hit, so backpressure reaches the client through TCP.
	maxInflight int
	// readTimeout bounds the wait for each inbound frame once a session
	// is active; an idle or wedged peer is cut off.
	readTimeout time.Duration
	// writeTimeout bounds each outbound frame write.
	writeTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.maxInflight <= 0 {
		c.maxInflight = DefaultMaxInflight
	}
	if c.readTimeout <= 0 {
		c.readTimeout = DefaultReadTimeout
	}
	if c.writeTimeout <= 0 {
		c.writeTimeout = DefaultWriteTimeout
	}
	return c
}

// Server accepts client and replication sessions on one listener. The
// first frame of a connection picks the session kind: a command starts
// a client session, a replHello starts a replication session.
type Server struct {
	cfg Config
	ln  net.Listener

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	acked   map[*replSession]int64
	closed  bool
	accepts int64

	wg sync.WaitGroup
}

// Serve binds addr and starts accepting. The listener is bound
// synchronously, so Addr is valid on return.
func Serve(addr string, cfg Config) (*Server, error) {
	if cfg.Mgr == nil {
		return nil, errors.New("server: Config.Mgr is required")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s := &Server{
		cfg:   cfg.withDefaults(),
		ln:    ln,
		conns: make(map[net.Conn]struct{}),
		acked: make(map[*replSession]int64),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener, severs every session, and waits for the
// session goroutines to drain. Safe to call twice.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.accepts++
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) dropConn(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// serveConn reads the first frame and dispatches on its type. One
// buffered reader serves the connection for its whole life: a frame
// costs no read syscall of its own while earlier reads buffered it, and
// bytes buffered past the first frame stay with the session.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	conn.SetReadDeadline(time.Now().Add(s.cfg.readTimeout))
	br := bufio.NewReader(conn)
	typ, payload, err := readFrame(br)
	if err != nil {
		return
	}
	if typ == replHello {
		s.serveRepl(conn, br, payload)
		return
	}
	s.serveClient(conn, br, typ, payload)
}

// request is one staged client frame.
type request struct {
	typ     byte
	payload []byte
}

// serveClient runs a client session: a reader goroutine stages frames
// into a bounded queue (the admission bound) while the session
// goroutine executes them in order and buffers in-order responses, so a
// client may pipeline up to maxInflight requests ahead. Responses go
// out when the queue runs dry — one write per pipelined window — and
// before any command that commits: answered requests must not wait
// behind a later write's device sync.
func (s *Server) serveClient(conn net.Conn, br *bufio.Reader, typ byte, payload []byte) {
	queue := make(chan request, s.cfg.maxInflight)
	queue <- request{typ, payload}
	go func() {
		defer close(queue)
		for {
			conn.SetReadDeadline(time.Now().Add(s.cfg.readTimeout))
			typ, payload, err := readFrame(br)
			if err != nil {
				return
			}
			queue <- request{typ, payload}
		}
	}()
	bw := bufio.NewWriter(conn)
	for req := range queue {
		if bw.Buffered() > 0 && commits(req.typ) {
			if bw.Flush() != nil {
				break
			}
		}
		rtyp, rpayload := s.execute(req.typ, req.payload)
		if bw.Buffered() == 0 {
			// The window's first response: one deadline covers every
			// write up to and including its flush.
			conn.SetWriteDeadline(time.Now().Add(s.cfg.writeTimeout))
		}
		if err := writeFrame(bw, rtyp, rpayload); err != nil {
			break
		}
		if len(queue) == 0 && bw.Flush() != nil {
			break
		}
	}
	// Sever the transport, then drain the queue: the reader may be
	// blocked on a full queue send, and draining unblocks it so its next
	// read fails and it closes the channel.
	conn.Close()
	for range queue {
	}
}

// commits reports whether a command runs a committing transaction,
// which may wait on the device.
func commits(typ byte) bool {
	switch typ {
	case cmdPut, cmdUpdate, cmdRemove, cmdBatch:
		return true
	}
	return false
}

// execute runs one client command through the manager's record API —
// a get is a locked read, a write an auto-commit transaction — and
// returns the response frame. Protocol-level garbage gets a respErr; the
// connection survives unless the transport itself failed.
func (s *Server) execute(typ byte, payload []byte) (byte, []byte) {
	mgr := s.cfg.Mgr
	var err error
	switch typ {
	case cmdPing:
	case cmdGet:
		key, rest, derr := takeBytes(payload)
		if derr != nil || len(rest) != 0 {
			return respErr, []byte("malformed get")
		}
		val, err := mgr.Get(key)
		if err == nil {
			return respValue, val
		}
		return respond(err)
	case cmdPut, cmdUpdate:
		key, val, derr := decodeKV(payload)
		if derr != nil {
			return respErr, []byte("malformed put")
		}
		if typ == cmdPut {
			err = mgr.Put(key, val)
		} else {
			err = mgr.Update(key, val)
		}
	case cmdRemove:
		key, rest, derr := takeBytes(payload)
		if derr != nil || len(rest) != 0 {
			return respErr, []byte("malformed remove")
		}
		err = mgr.Remove(key)
	case cmdBatch:
		ops, derr := decodeBatch(payload)
		if derr != nil {
			return respErr, []byte("malformed batch")
		}
		err = mgr.Do(func(tx *txn.Txn) error {
			for _, op := range ops {
				var err error
				if op.Remove {
					err = tx.Remove(op.Key)
				} else {
					err = tx.Put(op.Key, op.Value)
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			// A batch answers only respOK or respErr: a missing key
			// fails the whole transaction.
			return respErr, []byte(err.Error())
		}
	default:
		return respErr, []byte(fmt.Sprintf("unknown command %d", typ))
	}
	return respond(err)
}

// respond maps a command's outcome to its response frame.
func respond(err error) (byte, []byte) {
	switch {
	case err == nil:
		return respOK, nil
	case errors.Is(err, txn.ErrNotFound):
		return respNotFound, nil
	default:
		return respErr, []byte(err.Error())
	}
}

// replSession is one connected replica, tracked for the lag gauges.
// The id keeps the struct non-zero-sized so each session allocates a
// distinct map key.
type replSession struct{ id int64 }

// updateGauges recomputes the replica-health gauges from the per-
// session ack table. Called on connect, disconnect, and every ack.
func (s *Server) updateGauges() {
	end := s.cfg.Mgr.WALEnd()
	s.mu.Lock()
	connected := int64(len(s.acked))
	var maxLag int64
	for _, off := range s.acked {
		if lag := end - off; lag > maxLag {
			maxLag = lag
		}
	}
	s.mu.Unlock()
	s.cfg.Metrics.Set(stats.ReplConnected, connected)
	s.cfg.Metrics.Set(stats.ReplMaxLagBytes, maxLag)
}

// serveRepl runs a replication session. Ordering matters and mirrors
// the in-process ship layer's contract: subscribe the feed FIRST, then
// capture the catch-up range (or snapshot), then stream — frames that
// arrive in the feed while the catch-up is in flight overlap the range
// and are deduplicated byte-exactly by the replica's applier. br is the
// connection's reader: acks the replica sent right behind its hello may
// already sit in its buffer.
func (s *Server) serveRepl(conn net.Conn, br *bufio.Reader, payload []byte) {
	if s.cfg.Shipper == nil {
		writeFrame(conn, respErr, []byte("replication not composed"))
		return
	}
	h, err := decodeHello(payload)
	if err != nil {
		return
	}

	s.mu.Lock()
	sess := &replSession{id: s.accepts}
	s.acked[sess] = h.Offset
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.acked, sess)
		s.mu.Unlock()
		s.updateGauges()
	}()
	s.updateGauges()

	feed := s.cfg.Shipper.Subscribe()
	defer s.cfg.Shipper.Unsubscribe(feed)

	// Decide catch-up vs snapshot. A fingerprint match on the replica's
	// offset means its WAL is a byte-exact prefix of ours: ship the
	// missing range. Anything else — offset past our end (we rewound),
	// CRC mismatch (divergence), or an explicit forceSnap after an
	// interrupted install — gets a full snapshot.
	var seq uint64
	snapshot := h.ForceSnap
	if !snapshot {
		crc, err := s.cfg.Mgr.WALPrefixCRC(h.Offset)
		snapshot = err != nil || crc != h.CRC
	}
	if snapshot {
		snap, err := s.cfg.Mgr.ShipSnapshot()
		if err != nil {
			return
		}
		if err := s.writeRepl(conn, replSnapBegin, nil); err != nil {
			return
		}
		for i := range snap.Keys {
			if err := s.writeRepl(conn, replSnapKV, encodeKV(snap.Keys[i], snap.Vals[i])); err != nil {
				return
			}
		}
		for _, d := range snap.Trees {
			if err := s.writeRepl(conn, replSnapTree, binary.AppendUvarint(nil, d.ID)); err != nil {
				return
			}
			for i := range d.Keys {
				if err := s.writeRepl(conn, replSnapKV, encodeKV(d.Keys[i], d.Vals[i])); err != nil {
					return
				}
			}
		}
		if err := s.writeRepl(conn, replSnapEnd, snap.WALImage); err != nil {
			return
		}
		s.cfg.Metrics.Add(stats.ReplSnapshots, 1)
	} else if end := s.cfg.Mgr.WALEnd(); end > h.Offset {
		chunk, err := s.cfg.Mgr.ReadWALRange(h.Offset, end)
		if err != nil {
			return
		}
		seq++
		msg := encodeFrameMsg(frameMsg{Seq: seq, Base: h.Offset, Bytes: chunk})
		if err := s.writeRepl(conn, replFrames, msg); err != nil {
			return
		}
		s.cfg.Metrics.Add(stats.ReplCatchUps, 1)
	}

	// Ack reader: consumes replAck frames until the peer goes away,
	// updating the lag table. Its exit tears the connection down, which
	// in turn unblocks the streaming loop's writes.
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		for {
			conn.SetReadDeadline(time.Now().Add(s.cfg.readTimeout))
			typ, p, err := readFrame(br)
			if err != nil {
				conn.Close()
				return
			}
			if typ != replAck {
				conn.Close()
				return
			}
			// [durable][applied]: lag is how far the replica's store
			// trails, so the table keeps the applied offset.
			_, rest, err := takeUvarint(p)
			var applied uint64
			if err == nil {
				applied, _, err = takeUvarint(rest)
			}
			if err != nil {
				conn.Close()
				return
			}
			s.mu.Lock()
			s.acked[sess] = int64(applied)
			s.mu.Unlock()
			s.cfg.Metrics.Add(stats.ReplAcks, 1)
			s.updateGauges()
		}
	}()

	// Stream live frames. Frames already covered by the catch-up or
	// snapshot are forwarded anyway: the applier's
	// overlap verification drops exact duplicates and applies partial
	// suffixes. Sequence numbers are renumbered per session so the
	// replica's gap detector sees a contiguous stream regardless of how
	// many sessions the shipper has served. The ticker catches a feed
	// broken while idle (rewind or overflow delivers no further frames,
	// so a blocked receive would never notice on its own).
	// Every exit severs the connection and waits for the ack reader.
	brokenPoll := time.NewTicker(250 * time.Millisecond)
	defer brokenPoll.Stop()
	defer func() {
		conn.Close()
		<-ackDone
	}()
	for {
		select {
		case <-brokenPoll.C:
			if feed.Broken() {
				return
			}
		case f, ok := <-feed.C():
			if !ok {
				// Shipper closed, or the WAL rewound and broke the feed:
				// end the session; the reconnect handshake sorts it out.
				return
			}
			seq++
			msg := encodeFrameMsg(frameMsg{Seq: seq, Base: f.Base, Bytes: f.Bytes})
			if err := s.writeRepl(conn, replFrames, msg); err != nil || feed.Broken() {
				return
			}
		case <-ackDone:
			return
		}
	}
}

func (s *Server) writeRepl(conn net.Conn, typ byte, payload []byte) error {
	conn.SetWriteDeadline(time.Now().Add(s.cfg.writeTimeout))
	return writeFrame(conn, typ, payload)
}
