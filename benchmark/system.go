package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"famedb/benchmark/flashdev"
	"famedb/benchmark/load"
	"famedb/internal/access"
	"famedb/internal/composer"
	"famedb/internal/core"
	"famedb/internal/repl"
	"famedb/internal/server"
	"famedb/internal/sql"
	"famedb/internal/types"
)

// system is one workload's product, composed on its device and loaded,
// plus the oracle its answers are checked against.
type system struct {
	sp     *spec
	dev    *flashdev.FS
	inst   *composer.Instance
	shadow *load.Shadow

	// Wire workloads.
	srv  *server.Server
	wire wireBytes

	// wire_put_repl1.
	replicaDev  *flashdev.FS
	replicaInst *composer.Instance
	replica     *server.Replica

	// latch is the application's own reader/writer lock for products
	// composed without Locking (latched): their B+-tree has no internal
	// latching, so an application with two threads has to serialize
	// writers against readers itself. Its wait is part of the client
	// latency.
	latch   sync.RWMutex
	latched bool

	// embed_sql_mix.
	point, rng *sql.Stmt

	// sortedKeys are the preloaded keys in order, to know how many rows
	// a scan from a given start must return.
	sortedKeys [][]byte
}

// wireBytes counts what the clients put on and take off the wire.
type wireBytes struct{ in, out atomic.Int64 }

type countingConn struct {
	net.Conn
	b *wireBytes
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.b.in.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.b.out.Add(int64(n))
	return n, err
}

// groupCommitBatch is the GroupCommit products' commits per sync: the
// composer's default, set explicitly because the durability check after
// a power cut depends on it.
const groupCommitBatch = 8

func compose(dev *flashdev.FS, sp *spec) (*composer.Instance, error) {
	cfg, err := core.FAMEModel().Product(sp.features...)
	if err != nil {
		return nil, err
	}
	return composer.Compose(cfg, composer.Options{FS: dev, CachePages: sp.cachePages, GroupCommitBatch: groupCommitBatch})
}

func (s *system) rlock() {
	if s.latched {
		s.latch.RLock()
	}
}

func (s *system) runlock() {
	if s.latched {
		s.latch.RUnlock()
	}
}

func (s *system) lock() {
	if s.latched {
		s.latch.Lock()
	}
}

func (s *system) unlock() {
	if s.latched {
		s.latch.Unlock()
	}
}

const sqlTable = "CREATE TABLE bench (id INT PRIMARY KEY, v TEXT, seq INT)"

// sqlFiller pads a row to about the size of a KV record.
var sqlFiller = strings.Repeat("x", 64)

func sqlText(id uint32) string {
	return fmt.Sprintf("h%016x%s", load.KeyHash(load.Key(uint64(id))), sqlFiller)
}

// build composes the product on a fresh device and preloads it. It is
// the compose+preload part of set-up; serve/connect/warm-up follow.
func build(sp *spec) (*system, error) {
	s := &system{sp: sp, dev: flashdev.New(), shadow: load.NewShadow(sp.mix.Records, sp.clients)}
	inst, err := compose(s.dev, sp)
	if err != nil {
		return nil, err
	}
	s.inst = inst
	s.latched = inst.Txn == nil
	// A product with Tracing loads with recording switched off: the
	// records are the workload's starting state, not its traffic, and a
	// span per layer per record would be most of the set-up time.
	traced := inst.Tracer() != nil
	if traced {
		inst.SetTracing(false)
	}
	if err := s.preload(); err != nil {
		inst.Close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	if traced {
		inst.SetTracing(true)
	}
	return s, nil
}

func (s *system) preload() error {
	n := s.sp.mix.Records
	var err error
	switch {
	case s.sp.style == sqlMix:
		if _, err := s.inst.SQL.Exec(sqlTable); err != nil {
			return err
		}
		const batch = 64
		var sb strings.Builder
		for lo := uint32(0); lo < n; lo += batch {
			sb.Reset()
			sb.WriteString("INSERT INTO bench VALUES ")
			for id := lo; id < lo+batch && id < n; id++ {
				if id > lo {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "(%d, '%s', 0)", id, sqlText(id))
			}
			if _, err := s.inst.SQL.Exec(sb.String()); err != nil {
				return err
			}
		}
		// The same ids as plain records in the product's KV store: the
		// "equivalent Store.Get/Scan" the traced phase compares a
		// statement with. SQL UPDATEs do not touch it, so its values stay
		// at sequence 0.
		if err := s.loadKV(false); err != nil {
			return err
		}
		if s.point, err = s.inst.SQL.Prepare("SELECT v, seq FROM bench WHERE id = ?"); err != nil {
			return err
		}
		if s.rng, err = s.inst.SQL.Prepare("SELECT id, seq FROM bench WHERE id >= ? AND id < ?"); err != nil {
			return err
		}
		return nil

	case s.sp.mix.ReadBack:
		// A short log per client, so read-backs have a target from the
		// first op on.
		per := uint64(n) / uint64(s.sp.clients)
		for c := 0; c < s.sp.clients; c++ {
			tx := s.inst.Txn.Begin()
			for i := uint64(0); i < per; i++ {
				k := load.LogKey(c, i)
				if err := tx.Put(k, load.Value(nil, k, 1)); err != nil {
					tx.Abort()
					return err
				}
				s.shadow.AckFresh(c)
			}
			if err := tx.Commit(); err != nil {
				return err
			}
		}
		return s.inst.Txn.Flush()
	}

	return s.loadKV(s.sp.sorted)
}

// loadKV stores one record per preloaded id, in key order when sorted.
func (s *system) loadKV(sorted bool) error {
	n := s.sp.mix.Records
	keys := make([][]byte, n)
	for id := range keys {
		keys[id] = load.Key(uint64(id))
	}
	order := keys
	if sorted || s.sp.mix.ScanPct > 0 {
		order = append([][]byte(nil), keys...)
		sort.Slice(order, func(i, j int) bool { return bytes.Compare(order[i], order[j]) < 0 })
		for i := 1; i < len(order); i++ {
			if bytes.Equal(order[i-1], order[i]) {
				return fmt.Errorf("key collision at %q: pick another record count", order[i])
			}
		}
		s.sortedKeys = order
		if !sorted {
			order = keys
		}
	}
	var val []byte
	if s.inst.Txn == nil {
		for _, k := range order {
			val = load.Value(val, k, 0)
			if err := s.inst.Store.Put(k, val); err != nil {
				return err
			}
		}
		return nil
	}
	// Transactional products load through the log, in batches, and then
	// checkpoint: the measured window starts from an empty WAL and a
	// recovery has a checkpoint image to restore.
	const batch = 500
	for lo := 0; lo < len(order); lo += batch {
		tx := s.inst.Txn.Begin()
		for _, k := range order[lo:min(lo+batch, len(order))] {
			val = load.Value(val, k, 0)
			if err := tx.Put(k, val); err != nil {
				tx.Abort()
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return s.inst.Txn.Checkpoint()
}

// listen starts the TCP front end of a wire workload, once.
func (s *system) listen() error {
	if s.sp.style != wire || s.srv != nil {
		return nil
	}
	srv, err := s.inst.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = srv
	return nil
}

// attachReplica starts one live replica on its own device and waits
// until it holds the primary's index.
func (s *system) attachReplica() error {
	s.replicaDev = flashdev.New()
	inst, err := compose(s.replicaDev, s.sp)
	if err != nil {
		return err
	}
	s.replicaInst = inst
	if err := s.startReplica(); err != nil {
		return err
	}
	return s.converge(true)
}

// converge waits until the replica has the primary's WAL, stops it and
// compares the two indexes; with resume it then starts the replica
// again. The primary must be idle.
//
// Matching WAL offsets alone are not enough: the replica publishes its
// offset when a chunk is durable, before it is applied (ROADMAP P0), and
// its tree has no latch a reader could take while it applies. Stopping
// it waits for the chunk in hand to be applied in full, so after the
// stop everything durable is applied and the comparison is exact and
// race-free, where polling a live replica's index would be neither.
func (s *system) converge(resume bool) error {
	if err := s.catchUp(); err != nil {
		return err
	}
	s.replica.Stop()
	s.replica = nil
	if err := repl.VerifyIndexes(s.inst.Store.Index(), s.replicaInst.Store.Index()); err != nil {
		return fmt.Errorf("replica holds the primary's WAL but not its index: %w", err)
	}
	if !resume {
		return nil
	}
	return s.startReplica()
}

func (s *system) startReplica() error {
	rep, err := s.replicaInst.ReplicateFrom(s.srv.Addr())
	if err != nil {
		return err
	}
	s.replica = rep
	return nil
}

// catchUp waits until the replica's WAL has reached the primary's end.
// A replica that is still behind after a second is reconnected once: it
// applies one chunk per sync while the primary group-commits, so under
// sustained load it falls behind until its feed overflows, the session
// breaks and the next handshake ships the whole missing range as one
// chunk. The reconnect takes that step now, so a run's length does not
// depend on how far behind the replica was; repl.max_lag_bytes says how
// far that was.
func (s *system) catchUp() error {
	const grace = time.Second
	end := s.inst.Txn.WALEnd()
	if s.replica.WaitFor(end, grace) {
		return nil
	}
	s.replica.Stop()
	if err := s.startReplica(); err != nil {
		return err
	}
	if !s.replica.WaitFor(end, 10*time.Second) {
		snap, _ := s.inst.Stats()
		return fmt.Errorf("replica stuck at WAL offset %d of %d after a reconnect (primary's view: %+v)",
			s.replica.Offset(), end, snap.Repl)
	}
	return nil
}

// dial opens one wire client whose bytes are counted.
func (s *system) dial() (*server.Client, error) {
	conn, err := net.DialTimeout("tcp", s.srv.Addr(), 5*time.Second)
	if err != nil {
		return nil, err
	}
	cl := server.NewClient(countingConn{Conn: conn, b: &s.wire})
	cl.Timeout = 30 * time.Second
	return cl, nil
}

// close shuts everything down cleanly.
func (s *system) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.replica != nil {
		s.replica.Stop()
	}
	if s.replicaInst != nil {
		keep(s.replicaInst.Close())
	}
	if s.inst != nil {
		keep(s.inst.Close())
	}
	return first
}

// spaceAmp is bytes held by all device files over live user bytes.
func (s *system) spaceAmp() (float64, error) {
	held, err := s.dev.SizeBytes()
	if err != nil {
		return 0, err
	}
	return float64(held) / float64(s.liveUserBytes()), nil
}

// liveUserBytes is the key+value size of every record the shadow knows.
func (s *system) liveUserBytes() int64 {
	var fresh uint64
	for c := 0; c < s.sp.clients; c++ {
		fresh += s.shadow.Fresh(c)
	}
	var keyLen int64
	switch {
	case s.sp.style == sqlMix:
		// id + text + seq, as the application sees a row, plus the KV
		// mirror of the same ids.
		return int64(s.sp.mix.Records) * int64(8+len(sqlText(0))+8+len(load.Key(0))+load.ValueLen)
	case s.sp.mix.ReadBack:
		keyLen = int64(len(load.LogKey(0, 0)))
		return int64(fresh) * (keyLen + load.ValueLen)
	default:
		keyLen = int64(len(load.Key(0)))
		return (int64(s.sp.mix.Records) + int64(fresh)) * (keyLen + load.ValueLen)
	}
}

// checkAll compares the whole store with the shadow: every record
// present, intact, at its acknowledged sequence number, and nothing
// else. lostBudget is how many overwrites may be older than
// acknowledged (the group-commit durability window after a power cut;
// 0 otherwise); it returns how many were.
func (s *system) checkAll(lostBudget int) (lost int, err error) {
	if s.sp.style == sqlMix {
		return 0, s.checkAllSQL()
	}
	want := map[string]uint32{}
	if s.sp.mix.ReadBack {
		for c := 0; c < s.sp.clients; c++ {
			for i := uint64(0); i < s.shadow.Fresh(c); i++ {
				want[string(load.LogKey(c, i))] = 1
			}
		}
	} else {
		for id := uint32(0); id < s.sp.mix.Records; id++ {
			want[string(load.Key(uint64(id)))] = id
		}
		if s.sp.mix.Fresh {
			for c := 0; c < s.sp.clients; c++ {
				for i := uint64(0); i < s.shadow.Fresh(c); i++ {
					want[string(freshKey(s.sp, c, i))] = ^uint32(0)
				}
			}
		}
	}
	var prev []byte
	seen := 0
	scanErr := s.inst.Store.Scan(nil, nil, func(k, v []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			err = fmt.Errorf("full scan out of order: %q then %q", prev, k)
			return false
		}
		prev = append(prev[:0], k...)
		tag, ok := want[string(k)]
		if !ok {
			err = fmt.Errorf("store holds %q, which nobody wrote or whose write was never acknowledged", k)
			return false
		}
		seq, cerr := load.CheckValue(k, v)
		if cerr != nil {
			err = cerr
			return false
		}
		seen++
		switch {
		case s.sp.mix.ReadBack || tag == ^uint32(0):
			if seq != 1 {
				err = fmt.Errorf("fresh key %q carries seq %d, want 1", k, seq)
			}
		case s.sp.mix.Fresh:
			if seq != 0 {
				err = fmt.Errorf("preloaded key %q carries seq %d, want 0", k, seq)
			}
		default:
			acked := s.shadow.Acked(tag)
			switch {
			case uint32(seq) == acked:
			case uint32(seq) < acked && lost < lostBudget:
				lost++
				s.shadow.Forget(tag, uint32(seq))
			default:
				err = fmt.Errorf("key %q carries seq %d, acknowledged %d (issued %d)", k, seq, acked, s.shadow.Issued(tag))
			}
		}
		return err == nil
	})
	if err == nil {
		err = scanErr
	}
	if err == nil && seen != len(want) {
		err = fmt.Errorf("store holds %d records, want %d", seen, len(want))
	}
	return lost, err
}

func (s *system) checkAllSQL() error {
	res, err := s.inst.SQL.Exec("SELECT id, v, seq FROM bench")
	if err != nil {
		return err
	}
	if len(res.Rows) != int(s.sp.mix.Records) {
		return fmt.Errorf("table holds %d rows, want %d", len(res.Rows), s.sp.mix.Records)
	}
	seen := make([]bool, s.sp.mix.Records)
	for _, row := range res.Rows {
		id := row[0].Int
		if id < 0 || id >= int64(len(seen)) || seen[id] {
			return fmt.Errorf("table holds unexpected or duplicate id %d", id)
		}
		seen[id] = true
		if err := checkRow(uint32(id), row[1], row[2], s.shadow.Acked(uint32(id)), true); err != nil {
			return err
		}
	}
	return nil
}

// checkRow verifies one row's text and that its seq is at least (or,
// with exact, exactly) the acknowledged one.
func checkRow(id uint32, v, seq types.Value, acked uint32, exact bool) error {
	if v.Str != sqlText(id) {
		return fmt.Errorf("row %d carries text %q", id, v.Str)
	}
	if seq.Int < int64(acked) || (exact && seq.Int != int64(acked)) {
		return fmt.Errorf("row %d carries seq %d, acknowledged %d", id, seq.Int, acked)
	}
	return nil
}

// freshKey is the key of client c's n-th fresh write in a KV workload:
// ids past the preloaded range, interleaved by client.
func freshKey(sp *spec, c int, n uint64) []byte {
	return load.Key(uint64(sp.mix.Records) + n*uint64(sp.clients) + uint64(c))
}

// verifyInstance runs the product's own scrub where it has one.
func verifyInstance(inst *composer.Instance) error {
	rep, err := inst.Verify()
	if errors.Is(err, access.ErrNotComposed) {
		return nil
	}
	if err != nil {
		return err
	}
	if !rep.Ok() {
		return fmt.Errorf("Instance.Verify: %s", rep.String())
	}
	return nil
}
