package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"famedb/benchmark/load"
	"famedb/internal/server"
	"famedb/internal/txn"
	"famedb/internal/types"
)

// Slices is how many equal parts the measured window is cut into. Each
// metric is computed per slice and reported as the median over slices,
// so a second in which the host was busy with something else moves one
// slice, not the result.
const Slices = 10

// recorder is one client's tally of a measured window.
type recorder struct {
	start  time.Time
	window time.Duration
	hist   [Slices][load.NKinds]load.Hist

	attempted uint64
	failed    uint64
	firstErr  error
	// readsByPath counts the recorded point reads per load.Op.Path
	// (embed_sql_mix: prepared statement, SQL text).
	readsByPath [2]uint64
	// busyNs is the time spent inside calls into the system; the rest
	// of the window the generator kept the system waiting.
	busyNs int64
	// userBytes is key+value bytes of acknowledged writes.
	userBytes int64
}

// record files the latency of an op of kind k that completed at end.
func (r *recorder) record(k load.Kind, end time.Time, d time.Duration) {
	slice := int(end.Sub(r.start) * Slices / r.window)
	r.hist[min(max(slice, 0), Slices-1)][k].Record(int64(d))
}

// count is the number of recorded ops of kind k.
func (r *recorder) count(k load.Kind) uint64 {
	var n uint64
	for i := range r.hist {
		n += r.hist[i][k].Count()
	}
	return n
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// Cuts name the public entry points an op can enter the stack at, top
// down. The measured window uses each op's top cut (see topCut); the
// traced phase rotates through a style's cuts to split time between
// layers.
const (
	cutServer  = iota // server.Client over TCP
	cutTxn            // Instance.Txn Begin/…/Commit|Abort
	cutSQLText        // SQL.Exec(text)
	cutSQLStmt        // Stmt.Exec(args)
	cutAccess         // Instance.Store
	cutIndex          // Instance.Store.Index()
	nCuts
)

var cutNames = [nCuts]string{"server", "txn", "sql.text", "sql.stmt", "access", "index"}

// cutsFor lists, top down, the cuts a style's ops of one kind can
// enter at. Writes stop where the product's durable write path stops:
// below the transaction manager a write would bypass the WAL.
func cutsFor(st style, k load.Kind) []int {
	switch st {
	case wire:
		if k == load.Write {
			return []int{cutServer, cutTxn}
		}
		return []int{cutServer, cutTxn, cutAccess, cutIndex}
	case sqlMix:
		switch k {
		case load.Read:
			return []int{cutSQLText, cutSQLStmt, cutAccess, cutIndex}
		case load.Scan:
			return []int{cutSQLStmt, cutAccess}
		default:
			return []int{cutSQLText, cutAccess}
		}
	default:
		// Scans enter at the store only: their length varies from 1 to
		// MaxScan rows, so the difference of two cuts' medians would be
		// noise around the store's fraction of a microsecond.
		if k == load.Read {
			return []int{cutAccess, cutIndex}
		}
		return []int{cutAccess}
	}
}

// client issues one stream's ops, one at a time, and checks every
// answer against the shadow.
type client struct {
	s   *system
	c   int
	ops []load.Op
	pos int
	// fresh counts the fresh keys this client has issued.
	fresh uint64
	cl    *server.Client // wire style
	val   []byte
	acked []uint32 // scratch: acknowledged seqs sampled before a range read
}

func newClient(s *system, c int, st load.Stream) (*client, error) {
	cli := &client{s: s, c: c, ops: st.Ops, fresh: s.shadow.Fresh(c)}
	if s.sp.style == wire {
		cl, err := s.dial()
		if err != nil {
			return nil, err
		}
		cli.cl = cl
	}
	return cli, nil
}

func (c *client) close() {
	if c.cl != nil {
		c.cl.Close()
	}
}

func (c *client) next() load.Op {
	op := c.ops[c.pos]
	c.pos++
	if c.pos == len(c.ops) {
		c.pos = 0
	}
	return op
}

// timing is when a call into the system started and ended.
type timing struct{ start, end time.Time }

// do issues op at cut, verifies the answer and returns the call's
// timing. An error means a failed or wrong answer.
func (c *client) do(op load.Op, cut int) (timing, int64, error) {
	if cut == cutSQLText || cut == cutSQLStmt {
		return c.doSQL(op, cut)
	}
	return c.doKV(op, cut)
}

// target resolves the key an op addresses and, for reads, the sequence
// number the answer must at least carry.
func (c *client) target(op load.Op) (key []byte, id uint32, minSeq uint32) {
	sh := c.s.shadow
	mix := c.s.sp.mix
	switch {
	case c.s.sp.style == sqlMix:
		// The KV mirror of the table: same keys, never overwritten with a
		// newer sequence number (see system.preload).
		return load.Key(uint64(op.ID)), op.ID, 0
	case mix.ReadBack:
		if op.Kind == load.Write {
			return load.LogKey(c.c, c.fresh), 0, 1
		}
		return load.LogKey(c.c, uint64(op.ID)%sh.Fresh(c.c)), 0, 1
	case op.Kind == load.Write && mix.Fresh:
		return freshKey(c.s.sp, c.c, c.fresh), 0, 1
	case mix.Fresh:
		return load.Key(uint64(op.ID)), op.ID, 0
	default:
		return load.Key(uint64(op.ID)), op.ID, sh.Acked(op.ID)
	}
}

// ackWrite publishes an acknowledged write to the shadow.
func (c *client) ackWrite(id, seq uint32) {
	if c.s.sp.style == sqlMix {
		return
	}
	if c.s.sp.mix.Fresh {
		c.s.shadow.AckFresh(c.c)
		return
	}
	c.s.shadow.Ack(id, seq)
}

// writeSeq hands out the sequence number of the next write to id.
func (c *client) writeSeq(id uint32) uint32 {
	if c.s.sp.style == sqlMix {
		return 0
	}
	if c.s.sp.mix.Fresh {
		c.fresh++
		return 1
	}
	return c.s.shadow.NextSeq(id)
}

func checkRead(key, v []byte, minSeq uint32, fresh bool) error {
	seq, err := load.CheckValue(key, v)
	if err != nil {
		return err
	}
	if seq < uint64(minSeq) || (fresh && seq != uint64(minSeq)) {
		return fmt.Errorf("read of %q returned seq %d, acknowledged before issue: %d", key, seq, minSeq)
	}
	return nil
}

// doKV issues a key-value op at the server, txn, access or index cut.
func (c *client) doKV(op load.Op, cut int) (tm timing, userBytes int64, err error) {
	s := c.s
	switch op.Kind {
	case load.Read:
		key, _, minSeq := c.target(op)
		var v []byte
		var found = true
		tm.start = time.Now()
		switch cut {
		case cutServer:
			v, err = c.cl.Get(key)
		case cutTxn:
			tx := s.inst.Txn.Begin()
			v, err = tx.Get(key)
			tx.Abort()
		case cutAccess:
			s.rlock()
			v, err = s.inst.Store.Get(key)
			s.runlock()
		case cutIndex:
			s.rlock()
			v, found, err = s.inst.Store.Index().Get(key)
			s.runlock()
		}
		tm.end = time.Now()
		if err == nil && !found {
			err = fmt.Errorf("index has no %q", key)
		}
		if err != nil {
			return tm, 0, err
		}
		return tm, 0, checkRead(key, v, minSeq, s.sp.mix.Fresh)

	case load.Write:
		key, id, _ := c.target(op)
		seq := c.writeSeq(id)
		c.val = load.Value(c.val, key, uint64(seq))
		tm.start = time.Now()
		switch cut {
		case cutServer:
			err = c.cl.Put(key, c.val)
		case cutTxn:
			tx := s.inst.Txn.Begin()
			if err = tx.Put(key, c.val); err == nil {
				err = tx.Commit()
			} else {
				tx.Abort()
			}
		case cutAccess:
			s.lock()
			err = s.inst.Store.Put(key, c.val)
			s.unlock()
		}
		tm.end = time.Now()
		if err != nil {
			return tm, 0, err
		}
		c.ackWrite(id, seq)
		return tm, int64(len(key) + len(c.val)), nil

	default: // Scan
		start := load.Key(uint64(op.ID))
		want := int(op.Len)
		var prev []byte
		var bad error
		rows := 0
		visit := func(k, v []byte) bool {
			if bytes.Compare(k, start) < 0 || (prev != nil && bytes.Compare(prev, k) >= 0) {
				bad = fmt.Errorf("scan from %q returned %q after %q", start, k, prev)
				return false
			}
			if len(v) != load.ValueLen || binary.LittleEndian.Uint64(v) != load.KeyHash(k) {
				bad = fmt.Errorf("scan from %q returned a value that is not %q's", start, k)
				return false
			}
			prev = append(prev[:0], k...)
			rows++
			return rows < want
		}
		tm.start = time.Now()
		s.rlock()
		if cut == cutIndex {
			err = s.inst.Store.Index().Scan(start, nil, visit)
		} else {
			err = s.inst.Store.Scan(start, nil, visit)
		}
		s.runlock()
		tm.end = time.Now()
		if err == nil {
			err = bad
		}
		if err != nil {
			return tm, 0, err
		}
		// The start key is preloaded, so the scan returns want rows unless
		// the key space ends first; fresh keys can only add rows.
		i := sort.Search(len(s.sortedKeys), func(i int) bool { return bytes.Compare(s.sortedKeys[i], start) >= 0 })
		if least := min(want, len(s.sortedKeys)-i); rows < least || rows > want {
			return tm, 0, fmt.Errorf("scan from %q for %d rows returned %d, want at least %d", start, want, rows, least)
		}
		return tm, 0, nil
	}
}

// doSQL issues a statement as text or through a prepared statement.
func (c *client) doSQL(op load.Op, cut int) (tm timing, userBytes int64, err error) {
	s := c.s
	sh := s.shadow
	switch op.Kind {
	case load.Read:
		minSeq := sh.Acked(op.ID)
		if cut == cutSQLStmt {
			tm.start = time.Now()
			r, e := s.point.Exec(types.Int(int64(op.ID)))
			tm.end = time.Now()
			if e != nil {
				return tm, 0, e
			}
			if len(r.Rows) != 1 {
				return tm, 0, fmt.Errorf("point SELECT of id %d returned %d rows", op.ID, len(r.Rows))
			}
			return tm, 0, checkRow(op.ID, r.Rows[0][0], r.Rows[0][1], minSeq, false)
		}
		q := fmt.Sprintf("SELECT v, seq FROM bench WHERE id = %d", op.ID)
		tm.start = time.Now()
		r, e := s.inst.SQL.Exec(q)
		tm.end = time.Now()
		if e != nil {
			return tm, 0, e
		}
		if len(r.Rows) != 1 {
			return tm, 0, fmt.Errorf("point SELECT of id %d returned %d rows", op.ID, len(r.Rows))
		}
		return tm, 0, checkRow(op.ID, r.Rows[0][0], r.Rows[0][1], minSeq, false)

	case load.Scan:
		n := uint32(op.Len)
		lo := min(op.ID, sh.Records()-n)
		c.acked = c.acked[:0]
		for id := lo; id < lo+n; id++ {
			c.acked = append(c.acked, sh.Acked(id))
		}
		tm.start = time.Now()
		r, e := s.rng.Exec(types.Int(int64(lo)), types.Int(int64(lo+n)))
		tm.end = time.Now()
		if e != nil {
			return tm, 0, e
		}
		if len(r.Rows) != int(n) {
			return tm, 0, fmt.Errorf("range SELECT [%d,%d) returned %d rows", lo, lo+n, len(r.Rows))
		}
		for i, row := range r.Rows {
			if row[0].Int != int64(lo)+int64(i) || row[1].Int < int64(c.acked[i]) {
				return tm, 0, fmt.Errorf("range SELECT [%d,%d) row %d is id %d seq %d (acknowledged %d)",
					lo, lo+n, i, row[0].Int, row[1].Int, c.acked[i])
			}
		}
		return tm, 0, nil

	default: // Write
		seq := sh.NextSeq(op.ID)
		q := fmt.Sprintf("UPDATE bench SET seq = %d WHERE id = %d", seq, op.ID)
		tm.start = time.Now()
		r, e := s.inst.SQL.Exec(q)
		tm.end = time.Now()
		if e != nil {
			return tm, 0, e
		}
		if r.Affected != 1 {
			return tm, 0, fmt.Errorf("UPDATE of id %d affected %d rows", op.ID, r.Affected)
		}
		sh.Ack(op.ID, seq)
		return tm, 8, nil
	}
}

// topCut is where the warm-up's and the measured window's ops enter:
// the highest cut of the op's kind, except that embed_sql_mix issues
// the point SELECTs its stream marks Path 0 through the prepared
// statement and only those marked Path 1 as text.
func (c *client) topCut(op load.Op) int {
	if c.s.sp.style == sqlMix && op.Kind == load.Read && op.Path == 0 {
		return cutSQLStmt
	}
	return cutsFor(c.s.sp.style, op.Kind)[0]
}

// run issues ops one after another until n ops are done or the
// deadline passes (n < 0: deadline only). With rec it records each
// op's latency measured from windowStart's frame: an op counts when it
// completed before the deadline.
func (c *client) run(n int, deadline time.Time, rec *recorder) error {
	for i := 0; n < 0 || i < n; i++ {
		op := c.next()
		tm, ub, err := c.do(op, c.topCut(op))
		if rec == nil {
			if err != nil {
				return fmt.Errorf("%s during warm-up: %w", op.Kind, err)
			}
			continue
		}
		if !deadline.IsZero() && !tm.end.Before(deadline) {
			if err != nil {
				rec.attempted++
				rec.fail(err)
			}
			return nil
		}
		rec.attempted++
		if err != nil {
			rec.fail(fmt.Errorf("%s: %w", op.Kind, err))
			continue
		}
		d := tm.end.Sub(tm.start)
		rec.record(op.Kind, tm.end, d)
		if op.Kind == load.Read {
			rec.readsByPath[op.Path]++
		}
		rec.busyNs += int64(d)
		rec.userBytes += ub
	}
	return nil
}

// pending is one pipelined request awaiting its reply.
type pending struct {
	op     load.Op
	key    []byte
	id     uint32
	seq    uint32 // write: the seq sent; read: the least seq acceptable
	queued time.Time
}

// runPipelined keeps up to Window requests in flight on the wire: fill
// the window, flush, collect half of it, refill. Latency is queue to
// reply. It stops issuing after n ops or at the deadline and drains.
func (c *client) runPipelined(n int, deadline time.Time, rec *recorder) error {
	inflight := make([]pending, 0, Window)
	vals := make([][]byte, Window)
	issued, slot := 0, 0
	stop := false
	for {
		for !stop && len(inflight) < Window {
			if n >= 0 && issued >= n {
				stop = true
				break
			}
			op := c.next()
			p := pending{op: op}
			var err error
			if op.Kind == load.Write {
				p.key, p.id, _ = c.target(op)
				p.seq = c.writeSeq(p.id)
				vals[slot] = load.Value(vals[slot], p.key, uint64(p.seq))
				p.queued = time.Now()
				err = c.cl.QueuePut(p.key, vals[slot])
				slot = (slot + 1) % Window
			} else {
				p.key, p.id, p.seq = c.target(op)
				p.queued = time.Now()
				err = c.cl.QueueGet(p.key)
			}
			if err != nil {
				return fmt.Errorf("queue %s: %w", op.Kind, err)
			}
			inflight = append(inflight, p)
			issued++
		}
		if len(inflight) == 0 {
			return nil
		}
		callStart := time.Now()
		if err := c.cl.Flush(); err != nil {
			return fmt.Errorf("flush: %w", err)
		}
		collect := (len(inflight) + 1) / 2
		if stop {
			collect = len(inflight)
		}
		var now time.Time
		for _, p := range inflight[:collect] {
			var v []byte
			var err error
			if p.op.Kind == load.Write {
				err = c.cl.AwaitOK()
			} else {
				v, err = c.cl.AwaitValue()
			}
			now = time.Now()
			var remote *server.RemoteError
			if err != nil && !errors.Is(err, txn.ErrNotFound) && !errors.As(err, &remote) {
				return fmt.Errorf("await %s: %w", p.op.Kind, err) // transport failure: the session is gone
			}
			if err == nil {
				if p.op.Kind == load.Write {
					c.ackWrite(p.id, p.seq)
				} else {
					err = checkRead(p.key, v, p.seq, c.s.sp.mix.Fresh)
				}
			}
			if rec == nil {
				if err != nil {
					return fmt.Errorf("%s during warm-up: %w", p.op.Kind, err)
				}
				continue
			}
			inWindow := deadline.IsZero() || now.Before(deadline)
			if err != nil {
				rec.attempted++
				rec.fail(fmt.Errorf("%s: %w", p.op.Kind, err))
				continue
			}
			if !inWindow {
				continue
			}
			rec.attempted++
			rec.record(p.op.Kind, now, now.Sub(p.queued))
			if p.op.Kind == load.Write {
				rec.userBytes += int64(len(p.key) + load.ValueLen)
			}
		}
		inflight = inflight[:copy(inflight, inflight[collect:])]
		if rec != nil {
			rec.busyNs += int64(now.Sub(callStart))
		}
		if !deadline.IsZero() && !now.Before(deadline) {
			stop = true
		}
	}
}
