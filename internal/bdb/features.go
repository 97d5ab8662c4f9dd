package bdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"famedb/internal/index"
	"famedb/internal/osal"
	"famedb/internal/storage"
	"famedb/internal/txn"
)

// --- Cursors ---

// Cursor iterates a database (Cursors feature). It operates on a
// snapshot taken at creation time, in key order for ordered methods and
// in storage order for Hash.
type Cursor struct {
	keys [][]byte
	vals [][]byte
	pos  int
}

// Cursor opens a cursor over the database.
func (db *DB) Cursor() (*Cursor, error) {
	if !db.env.has("Cursors") {
		return nil, featureErr("Cursors")
	}
	if err := db.kvOnly(); err != nil {
		return nil, err
	}
	db.env.mu.RLock()
	defer db.env.mu.RUnlock()
	c := &Cursor{pos: -1}
	err := db.idx.Scan(nil, nil, func(k, v []byte) bool {
		c.keys = append(c.keys, append([]byte(nil), k...))
		c.vals = append(c.vals, append([]byte(nil), v...))
		return true
	})
	return c, err
}

// First positions at the first entry.
func (c *Cursor) First() ([]byte, []byte, bool) {
	c.pos = 0
	return c.current()
}

// Next advances to the next entry.
func (c *Cursor) Next() ([]byte, []byte, bool) {
	c.pos++
	return c.current()
}

// Prev steps back.
func (c *Cursor) Prev() ([]byte, []byte, bool) {
	c.pos--
	return c.current()
}

// Seek positions at the first key >= target (ordered methods).
func (c *Cursor) Seek(target []byte) ([]byte, []byte, bool) {
	c.pos = sort.Search(len(c.keys), func(i int) bool {
		return bytes.Compare(c.keys[i], target) >= 0
	})
	return c.current()
}

func (c *Cursor) current() ([]byte, []byte, bool) {
	if c.pos < 0 || c.pos >= len(c.keys) {
		return nil, nil, false
	}
	return c.keys[c.pos], c.vals[c.pos], true
}

// --- Join ---

// Join returns the keys present in every given database (Join feature),
// in sorted order — the equality join over secondary indexes of the
// original API, reduced to its key-intersection core.
func (e *Env) Join(dbs ...*DB) ([][]byte, error) {
	if !e.has("Join") {
		return nil, featureErr("Join")
	}
	if len(dbs) == 0 {
		return nil, errors.New("bdb: join of zero databases")
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	counts := map[string]int{}
	for _, db := range dbs {
		if err := db.kvOnly(); err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		err := db.idx.Scan(nil, nil, func(k, v []byte) bool {
			if !seen[string(k)] {
				seen[string(k)] = true
				counts[string(k)]++
			}
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	var out [][]byte
	for k, n := range counts {
		if n == len(dbs) {
			out = append(out, []byte(k))
		}
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) < 0 })
	return out, nil
}

// --- Bulk operations ---

// KV is a key/value pair for bulk operations.
type KV struct{ Key, Value []byte }

// BulkPut stores many pairs under one lock acquisition (BulkOps
// feature).
func (db *DB) BulkPut(kvs []KV) error {
	if !db.env.has("BulkOps") {
		return featureErr("BulkOps")
	}
	if err := db.kvOnly(); err != nil {
		return err
	}
	db.env.mu.Lock()
	defer db.env.mu.Unlock()
	for _, kv := range kvs {
		if err := db.put(kv.Key, kv.Value); err != nil {
			return err
		}
	}
	return nil
}

// BulkGet reads many keys under one lock acquisition (BulkOps feature).
// Missing keys yield nil values.
func (db *DB) BulkGet(keys [][]byte) ([][]byte, error) {
	if !db.env.has("BulkOps") {
		return nil, featureErr("BulkOps")
	}
	if err := db.kvOnly(); err != nil {
		return nil, err
	}
	db.env.mu.RLock()
	defer db.env.mu.RUnlock()
	out := make([][]byte, len(keys))
	for i, k := range keys {
		v, found, err := db.get(k)
		if err != nil {
			return nil, err
		}
		if found {
			out[i] = v
		}
	}
	return out, nil
}

// --- Verify / Compact / Truncate ---

// Verify checks the database's on-disk invariants (Verify feature).
func (db *DB) Verify() error {
	if !db.env.has("Verify") {
		return featureErr("Verify")
	}
	db.env.mu.RLock()
	defer db.env.mu.RUnlock()
	switch db.method {
	case MethodBtree, MethodRecno:
		return db.idx.(*index.BTree).Tree().Verify()
	case MethodHash:
		return db.idx.(*HashIndex).VerifyChains()
	case MethodQueue:
		// Queue invariants: the chain from head reaches tail and the
		// unread records match the count.
		return db.queue.verify()
	}
	return nil
}

// Compact rebuilds the database densely (Compact feature). Only the
// B-tree methods relocate pages; others are already dense.
func (db *DB) Compact() error {
	if !db.env.has("Compact") {
		return featureErr("Compact")
	}
	db.env.mu.Lock()
	defer db.env.mu.Unlock()
	switch db.method {
	case MethodBtree, MethodRecno:
		if err := db.idx.(*index.BTree).Tree().Compact(); err != nil {
			return err
		}
	}
	db.env.emit(Event{Kind: "compact", Detail: db.name})
	return nil
}

// Truncate removes every entry (Truncate feature).
func (db *DB) Truncate() error {
	if !db.env.has("Truncate") {
		return featureErr("Truncate")
	}
	db.env.mu.Lock()
	defer db.env.mu.Unlock()
	if db.method == MethodQueue {
		for {
			_, ok, err := db.queue.Dequeue()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
		}
		db.env.emit(Event{Kind: "truncate", Detail: db.name})
		return nil
	}
	var keys [][]byte
	if err := db.idx.Scan(nil, nil, func(k, v []byte) bool {
		keys = append(keys, append([]byte(nil), k...))
		return true
	}); err != nil {
		return err
	}
	for _, k := range keys {
		if _, err := db.del(k); err != nil {
			return err
		}
	}
	db.env.emit(Event{Kind: "truncate", Detail: db.name})
	return nil
}

// verify checks queue chain consistency.
func (q *Queue) verify() error {
	buf := make([]byte, q.pager.PageSize())
	id := q.head
	var unread uint64
	reachedTail := false
	for id != storage.InvalidPage {
		if err := q.pager.ReadPage(id, buf); err != nil {
			return err
		}
		sp := storage.AsSlotted(buf)
		if sp.Type() != queuePageType {
			return fmt.Errorf("bdb: queue page %d is not a queue page", id)
		}
		n := sp.NumSlots() - int(sp.Extra())
		if n > 0 {
			unread += uint64(n)
		}
		if id == q.tail {
			reachedTail = true
			break
		}
		id = sp.Next()
	}
	if !reachedTail {
		return errors.New("bdb: queue chain does not reach the tail")
	}
	if unread != q.count {
		return fmt.Errorf("bdb: queue count %d but %d unread records", q.count, unread)
	}
	return nil
}

// --- Backup ---

// Backup copies the environment's files to another filesystem (Backup
// feature). The journal is flushed and the cache written back first, so
// the copy is a consistent snapshot.
func (e *Env) Backup(dst osal.FS) error {
	if !e.has("Backup") {
		return featureErr("Backup")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mgr != nil {
		if err := e.mgr.Flush(); err != nil {
			return err
		}
	}
	if err := e.pager.Sync(); err != nil {
		return err
	}
	names, err := e.cfg.FS.List()
	if err != nil {
		return err
	}
	for _, name := range names {
		if err := osal.CopyFile(e.cfg.FS, name, dst, name); err != nil {
			return err
		}
	}
	e.emit(Event{Kind: "backup", Detail: fmt.Sprintf("%d files", len(names))})
	return nil
}

// --- Sequences ---

// Sequence is a persistent named counter (Sequence feature).
type Sequence struct {
	env  *Env
	name string
}

// Sequence opens (creating if missing) the named sequence.
func (e *Env) Sequence(name string) (*Sequence, error) {
	if !e.has("Sequence") {
		return nil, featureErr("Sequence")
	}
	return &Sequence{env: e, name: name}, nil
}

// Next atomically increments and returns the counter (starting at 1).
func (s *Sequence) Next() (uint64, error) {
	s.env.mu.Lock()
	defer s.env.mu.Unlock()
	s.env.catMu.Lock()
	defer s.env.catMu.Unlock()
	key := []byte(seqPrefix + s.name)
	var cur uint64
	if v, found, err := s.env.catalog.Get(key); err != nil {
		return 0, err
	} else if found {
		cur = binary.LittleEndian.Uint64(v)
	}
	cur++
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], cur)
	if err := s.env.catalog.Insert(key, buf[:]); err != nil {
		return 0, err
	}
	return cur, nil
}

// --- Transactions ---

// Tx is an explicit multi-operation transaction over one or more
// databases (Transactions feature).
type Tx struct {
	env *Env
	t   *txn.Txn
}

// Begin starts a transaction.
func (e *Env) Begin() (*Tx, error) {
	if !e.has("Transactions") {
		return nil, featureErr("Transactions")
	}
	return &Tx{env: e, t: e.mgr.Begin()}, nil
}

// Put buffers a write to db.
func (tx *Tx) Put(db *DB, key, value []byte) error {
	if err := db.kvOnly(); err != nil {
		return err
	}
	return tx.t.Tree(db.tree()).Put(key, value)
}

// Get reads through the transaction (own writes win).
func (tx *Tx) Get(db *DB, key []byte) ([]byte, error) {
	tx.env.mu.RLock()
	defer tx.env.mu.RUnlock()
	return tx.t.Tree(db.tree()).Get(key)
}

// Delete buffers a removal.
func (tx *Tx) Delete(db *DB, key []byte) error {
	tx.env.mu.RLock()
	defer tx.env.mu.RUnlock()
	return tx.t.Tree(db.tree()).Remove(key)
}

// Commit makes the transaction's writes durable and visible. The
// environment lock is taken in the same order as direct operations
// (env, then journal), so transactional and direct use compose.
func (tx *Tx) Commit() error {
	tx.env.mu.Lock()
	defer tx.env.mu.Unlock()
	return tx.t.Commit()
}

// Abort discards the transaction.
func (tx *Tx) Abort() { tx.t.Abort() }

// Checkpoint flushes the store and truncates the journal (Checkpoint
// feature; requires Logging).
func (e *Env) Checkpoint() error {
	if !e.has("Checkpoint") {
		return featureErr("Checkpoint")
	}
	if err := e.mgr.Checkpoint(); err != nil {
		return err
	}
	e.emit(Event{Kind: "checkpoint"})
	return nil
}

// --- Replication ---

// AttachReplica connects another environment as a replication target
// (Replication feature): from now on every write the journal applies
// is applied to target too, inside the same commit and under the same
// env lock. Databases are created on the replica on demand with the
// same access method.
func (e *Env) AttachReplica(target *Env) error {
	if !e.has("Replication") {
		return featureErr("Replication")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.replica = &replicaRouter{dst: target}
	return nil
}

// replicaRouter applies the journal's writes to the target
// environment, to the database of the source's name, created on demand
// with the source's method.
type replicaRouter struct{ dst *Env }

func (rr *replicaRouter) apply(src *DB, key, value []byte, remove bool) error {
	rr.dst.mu.Lock()
	db, err := rr.dst.lookupDBLocked(src.name)
	rr.dst.mu.Unlock()
	if err != nil {
		if db, err = rr.dst.CreateDB(src.name, src.method); err != nil {
			return err
		}
	}
	rr.dst.mu.Lock()
	defer rr.dst.mu.Unlock()
	if remove {
		_, err = db.del(key)
		return err
	}
	return db.put(key, value)
}

// --- lifecycle ---

// Sync makes all state durable.
func (e *Env) Sync() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mgr != nil {
		if err := e.mgr.Flush(); err != nil {
			return err
		}
	}
	return e.pager.Sync()
}

// Close flushes and closes the environment.
func (e *Env) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return errors.New("bdb: environment already closed")
	}
	e.closed = true
	if e.mgr != nil {
		if err := e.mgr.Close(); err != nil {
			return err
		}
	}
	return e.pager.Close()
}
