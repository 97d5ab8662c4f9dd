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
	// Mgr executes every client command: a write is an auto-commit
	// transaction staged through the WAL (and group commit, when
	// composed) by Manager.DoAsync, a get a read under the manager's
	// read lock.
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
	// queue ahead of execution, and how many executed ones may wait for
	// their answer. The reader stops pulling frames once the bounds are
	// hit, so backpressure reaches the client through TCP.
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

// request is one admitted client frame.
type request struct {
	typ     byte
	payload []byte
}

// reply is one response in the making: a frame known at once, or a
// write's staged commit, answered once it resolves.
type reply struct {
	typ     byte
	payload []byte
	// commit is a write's staged auto-commit; nil when typ and payload
	// are the answer.
	commit *txn.Staged
	// batch marks a cmdBatch commit, which answers only respOK or
	// respErr; put marks a cmdPut, whose latency is the product's put
	// latency, timed from start.
	batch, put bool
	start      int64
}

// serveClient runs a client session in three goroutines, so a
// pipelined window's writes share group-commit batches instead of
// syncing one by one. A reader admits frames into a bounded queue (the
// admission bound). The session goroutine takes them in order: it
// stages each write as an auto-commit (Manager.DoAsync) without waiting
// for the device, and runs each get at once — unless the frame touches
// a key that one of the session's staged writes has not resolved yet,
// which it waits for first, so a session always reads its own writes.
// A responder answers strictly in order: it waits for each write's
// commit, flushes the responses it already holds before it blocks on an
// unresolved one, and flushes whenever it runs out of answers.
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
	out := make(chan reply, s.cfg.maxInflight)
	answered := make(chan struct{})
	go func() {
		defer close(answered)
		s.respond(conn, out)
	}()
	// staged maps a key to the session's latest staged commit that
	// writes it; resolved entries are swept once the map outgrows the
	// commits the session can hold unresolved.
	staged := map[string]*txn.Staged{}
	for req := range queue {
		r := s.execute(req.typ, req.payload, staged)
		if r.commit != nil && len(staged) > 4*s.cfg.maxInflight {
			for k, c := range staged {
				if c.Ready() {
					delete(staged, k)
				}
			}
		}
		out <- r
	}
	close(out)
	<-answered
}

// respond writes the session's replies in order until out closes. A
// transport failure severs the connection, which stops the reader, but
// the responder keeps waiting on every staged commit, so the session
// ends with none unresolved.
func (s *Server) respond(conn net.Conn, out <-chan reply) {
	bw := bufio.NewWriter(conn)
	broken := false
	fail := func() {
		broken = true
		conn.Close()
	}
	for r := range out {
		if r.commit != nil {
			if !broken && bw.Buffered() > 0 && !r.commit.Ready() && bw.Flush() != nil {
				fail()
			}
			err := r.commit.Wait()
			if r.put {
				s.cfg.Metrics.Done(stats.AccessPutLatency, r.start)
			}
			if r.typ, r.payload = outcome(err); r.batch && err != nil {
				r.typ, r.payload = respErr, []byte(err.Error())
			}
		}
		if broken {
			continue
		}
		if bw.Buffered() == 0 {
			// The window's first response: one deadline covers every
			// write up to and including its flush.
			conn.SetWriteDeadline(time.Now().Add(s.cfg.writeTimeout))
		}
		if writeFrame(bw, r.typ, r.payload) != nil || len(out) == 0 && bw.Flush() != nil {
			fail()
		}
	}
}

// execute runs one client command and returns its reply: a get is a
// read under the manager's read lock, answered at once; a write is an
// auto-commit transaction staged through Manager.DoAsync and answered
// when its commit resolves. staged holds the session's staged commits
// by key: a command first waits for those that write its keys, and a
// write records itself there. Protocol-level garbage gets a respErr;
// the connection survives unless the transport itself failed.
func (s *Server) execute(typ byte, payload []byte, staged map[string]*txn.Staged) reply {
	mgr := s.cfg.Mgr
	var ops []Op
	var r reply
	switch typ {
	case cmdPing:
		return reply{typ: respOK}
	case cmdGet:
		key, rest, derr := takeBytes(payload)
		if derr != nil || len(rest) != 0 {
			return reply{typ: respErr, payload: []byte("malformed get")}
		}
		awaitKey(staged, key)
		val, err := mgr.Get(key)
		if err == nil {
			return reply{typ: respValue, payload: val}
		}
		typ, payload := outcome(err)
		return reply{typ: typ, payload: payload}
	case cmdPut, cmdUpdate:
		key, val, derr := decodeKV(payload)
		if derr != nil {
			return reply{typ: respErr, payload: []byte("malformed put")}
		}
		ops = []Op{{Key: key, Value: val}}
		r.put, r.start = typ == cmdPut, s.cfg.Metrics.Start()
	case cmdRemove:
		key, rest, derr := takeBytes(payload)
		if derr != nil || len(rest) != 0 {
			return reply{typ: respErr, payload: []byte("malformed remove")}
		}
		ops = []Op{{Remove: true, Key: key}}
	case cmdBatch:
		var derr error
		if ops, derr = decodeBatch(payload); derr != nil {
			return reply{typ: respErr, payload: []byte("malformed batch")}
		}
		r.batch = true
	default:
		return reply{typ: respErr, payload: []byte(fmt.Sprintf("unknown command %d", typ))}
	}
	for _, op := range ops {
		awaitKey(staged, op.Key)
	}
	r.commit = mgr.DoAsync(func(tx *txn.Txn) error {
		for _, op := range ops {
			var err error
			switch {
			case op.Remove:
				err = tx.Remove(op.Key)
			case typ == cmdUpdate:
				err = tx.Update(op.Key, op.Value)
			default:
				err = tx.Put(op.Key, op.Value)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	for _, op := range ops {
		staged[string(op.Key)] = r.commit
	}
	return r
}

// awaitKey waits for the session's staged commit that writes key, if it
// has not resolved yet, and forgets it.
func awaitKey(staged map[string]*txn.Staged, key []byte) {
	if c, ok := staged[string(key)]; ok {
		c.Wait()
		delete(staged, string(key))
	}
}

// outcome maps a command's outcome to its response frame.
func outcome(err error) (byte, []byte) {
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
