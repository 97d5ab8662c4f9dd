package bdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"famedb/internal/access"
	"famedb/internal/buffer"
	"famedb/internal/core"
	"famedb/internal/index"
	"famedb/internal/osal"
	"famedb/internal/storage"
	"famedb/internal/trace"
	"famedb/internal/txn"
)

// Method selects the access method of a DB (the or-group of the feature
// model: every product has at least one).
type Method byte

// The four access methods of the case study.
const (
	MethodBtree Method = 'B'
	MethodHash  Method = 'H'
	MethodRecno Method = 'R'
	MethodQueue Method = 'Q'
)

// String returns the feature name of the method.
func (m Method) String() string {
	switch m {
	case MethodBtree:
		return "Btree"
	case MethodHash:
		return "Hash"
	case MethodRecno:
		return "Recno"
	case MethodQueue:
		return "Queue"
	default:
		return fmt.Sprintf("Method(%c)", byte(m))
	}
}

// ErrFeature is wrapped by every "feature not in this product" error.
var ErrFeature = errors.New("bdb: feature not in this product")

// Error codes for Strerror (the ErrorMessages feature).
const (
	CodeOK = iota
	CodeNotFound
	CodeFeature
	CodeExists
	CodeCorrupt
	CodeIO
)

var errorTexts = map[int]string{
	CodeOK:       "success",
	CodeNotFound: "key or database not found",
	CodeFeature:  "operation requires a feature that was not composed into this product",
	CodeExists:   "database already exists",
	CodeCorrupt:  "on-disk structure failed verification",
	CodeIO:       "input/output error on the storage device",
}

// Event is an engine notification (the Events feature).
type Event struct {
	Kind   string // "open", "create-db", "checkpoint", "backup", ...
	Detail string
}

// Config assembles a case-study engine instance.
type Config struct {
	// FS is the backing filesystem (required).
	FS osal.FS
	// Mode selects Figure 1's implementation-technology axis.
	Mode core.BDBMode
	// Features lists the selected optional features (names from
	// core.BDBModel). The set is completed through the feature model,
	// so required features (e.g. Logging under Transactions) are pulled
	// in automatically.
	Features []string
	// Passphrase enables page encryption (required with Crypto).
	Passphrase []byte

	// Only this package's tests set the rest: a smaller page than
	// defaultPageSize; the CacheTuning feature's cache size and policy
	// ("LRU"/"LFU", without the feature the engine uses 32 LRU pages);
	// and the Events feature's receiver.
	pageSize    int
	cachePages  int
	cachePolicy string
	onEvent     func(Event)
}

// defaultPageSize is the data file's page size.
const defaultPageSize = 4096

// Stats are the Statistics feature's counters.
type Stats struct {
	Puts, Gets, Deletes int64
	CacheHits           int64
	CacheMisses         int64
	LogSyncs            int64
}

// Env is an engine instance derived from a feature configuration.
type Env struct {
	cfg      Config
	features map[string]bool
	// Product is the completed, validated configuration this instance
	// was derived from.
	Product *core.Configuration

	pf      *storage.PageFile
	pager   storage.Pager // full stack: pagefile [+crypto] + cache
	cache   *buffer.Manager
	catalog *index.List
	mgr     *txn.Manager // nil without Logging
	// replica receives every write the journal applies once
	// AttachReplica ran (Replication feature); nil otherwise.
	replica *replicaRouter
	mu      sync.RWMutex
	// catMu serializes catalog pages and the dbs and trees maps; the
	// heap-backed catalog uses a shared scratch buffer and must not be
	// read concurrently. Order: mu before catMu.
	catMu sync.Mutex
	dbs   map[string]*DB
	// trees maps a database's journal tree id to its handle.
	trees  map[uint64]*DB
	closed bool

	// puts, gets and deletes are the Statistics feature's op counters.
	puts, gets, deletes atomic.Int64
}

const (
	dataFileName = "data.db"
	logFileName  = "journal.log"
	seqPrefix    = "\x00seq\x00"
	dbPrefix     = "\x00db\x00"
)

// Open derives an engine instance: the feature list is validated and
// completed against core.BDBModel, then exactly the selected modules
// are wired (ModeComposed) or all modules are wired behind runtime
// flags (ModeC).
func Open(cfg Config) (*Env, error) {
	if cfg.FS == nil {
		return nil, errors.New("bdb: Config.FS is required")
	}
	if cfg.pageSize == 0 {
		cfg.pageSize = defaultPageSize
	}
	model := core.BDBModel()
	product, err := model.Product(cfg.Features...)
	if err != nil {
		return nil, fmt.Errorf("bdb: invalid feature selection: %w", err)
	}
	e := &Env{cfg: cfg, Product: product, features: map[string]bool{},
		dbs: map[string]*DB{}, trees: map[uint64]*DB{}}
	for _, f := range product.SelectedFeatures() {
		e.features[f.Name] = true
	}

	// Storage stack: page file, optional encryption, cache.
	existing := true
	f, err := cfg.FS.Open(dataFileName)
	if errors.Is(err, osal.ErrNotExist) {
		existing = false
		f, err = cfg.FS.Create(dataFileName)
	}
	if err != nil {
		return nil, err
	}
	if existing {
		e.pf, err = storage.OpenPageFile(f)
	} else {
		e.pf, err = storage.CreatePageFile(f, cfg.pageSize)
	}
	if err != nil {
		return nil, err
	}
	var base storage.Pager = e.pf
	if e.has("Crypto") {
		cp, err := NewCryptoPager(base, cfg.Passphrase)
		if err != nil {
			return nil, err
		}
		base = cp
	}
	capacity, policy := 32, buffer.Policy(buffer.NewLRU())
	if e.has("CacheTuning") {
		if cfg.cachePages > 0 {
			capacity = cfg.cachePages
		}
		if cfg.cachePolicy == "LFU" {
			policy = buffer.NewLFU()
		}
	}
	e.cache, err = buffer.NewManager(base, capacity, policy, buffer.NewDynamicAllocator(cfg.pageSize))
	if err != nil {
		return nil, err
	}
	e.pager = e.cache

	// Catalog: a heap-backed list (core functionality) at page 1.
	if existing {
		e.catalog, err = index.OpenList(e.pager, 1)
	} else {
		var head storage.PageID
		e.catalog, head, err = index.CreateList(e.pager)
		if err == nil && head != 1 {
			err = fmt.Errorf("bdb: catalog landed on page %d", head)
		}
	}
	if err != nil {
		return nil, err
	}

	// Journal (Logging feature): one transaction manager journals every
	// database as its own tree, so one log covers all databases and
	// recovery spans them. Tree 0, the manager's own store, is the
	// catalog with no operations: nothing journals it, and redo refuses
	// a log that writes it (see unjournaled).
	if e.has("Logging") {
		opts := txn.Options{
			BatchLimit: txn.ForceCommit(),
			Locking:    e.has("Locking"),
			Recovery:   e.has("Recovery"),
			SyncStore:  e.pager.Sync,
		}
		store := access.New(unjournaled{e.catalog}, access.Ops{})
		e.mgr, err = txn.OpenTrees(cfg.FS, logFileName, store, dbTrees{env: e}, opts)
		if err != nil {
			return nil, err
		}
	}
	e.emit(Event{Kind: "open", Detail: fmt.Sprintf("mode=%s features=%d", cfg.Mode, len(cfg.Features))})
	return e, nil
}

// has reports whether a feature is part of this product. In ModeC every
// module is present and consults the flag map at run time; in
// ModeComposed the map was materialized at composition time and
// unselected modules are simply not wired (their entry is absent).
func (e *Env) has(feature string) bool { return e.features[feature] }

func (e *Env) emit(ev Event) {
	if e.has("Events") && e.cfg.onEvent != nil {
		e.cfg.onEvent(ev)
	}
}

// featureErr builds the error for calling an absent feature.
func featureErr(name string) error {
	return fmt.Errorf("%s: %w", name, ErrFeature)
}

// Strerror renders an error code. With the ErrorMessages feature the
// full text table is included in the product; without it only the
// numeric code is available.
func (e *Env) Strerror(code int) string {
	if e.has("ErrorMessages") {
		if s, ok := errorTexts[code]; ok {
			return s
		}
	}
	return fmt.Sprintf("bdb: error %d", code)
}

// Stats returns the Statistics feature's counters.
func (e *Env) Stats() (Stats, error) {
	if !e.has("Statistics") {
		return Stats{}, featureErr("Statistics")
	}
	s := Stats{
		Puts:    e.puts.Load(),
		Gets:    e.gets.Load(),
		Deletes: e.deletes.Load(),
	}
	cs := e.cache.Stats()
	s.CacheHits = cs.Hits
	s.CacheMisses = cs.Misses
	if e.mgr != nil {
		s.LogSyncs = e.mgr.LogSyncs()
	}
	return s, nil
}

// --- catalog records ---

func catalogVal(method Method, meta storage.PageID) []byte {
	var v [5]byte
	v[0] = byte(method)
	binary.LittleEndian.PutUint32(v[1:], uint32(meta))
	return v[:]
}

// CreateDB creates a database with the given access method.
func (e *Env) CreateDB(name string, method Method) (*DB, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.has(method.String()) {
		return nil, featureErr(method.String())
	}
	e.catMu.Lock()
	defer e.catMu.Unlock()
	ckey := []byte(dbPrefix + name)
	if _, found, err := e.catalog.Get(ckey); err != nil {
		return nil, err
	} else if found {
		return nil, fmt.Errorf("bdb: database %q already exists", name)
	}
	var meta storage.PageID
	var err error
	switch method {
	case MethodBtree, MethodRecno:
		_, meta, err = index.CreateBTree(e.pager, index.AllBTreeOps())
	case MethodHash:
		_, meta, err = CreateHash(e.pager)
	case MethodQueue:
		_, meta, err = CreateQueue(e.pager)
	default:
		return nil, fmt.Errorf("bdb: unknown method %v", method)
	}
	if err != nil {
		return nil, err
	}
	if err := e.catalog.Insert(ckey, catalogVal(method, meta)); err != nil {
		return nil, err
	}
	e.emit(Event{Kind: "create-db", Detail: name})
	return e.openDBLocked(name, method, meta)
}

// OpenDB opens an existing database.
func (e *Env) OpenDB(name string) (*DB, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.lookupDBLocked(name)
}

func (e *Env) lookupDBLocked(name string) (*DB, error) {
	e.catMu.Lock()
	defer e.catMu.Unlock()
	if db, ok := e.dbs[name]; ok {
		return db, nil
	}
	v, found, err := e.catalog.Get([]byte(dbPrefix + name))
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("bdb: database %q not found", name)
	}
	method := Method(v[0])
	meta := storage.PageID(binary.LittleEndian.Uint32(v[1:]))
	if !e.has(method.String()) {
		return nil, featureErr(method.String())
	}
	return e.openDBLocked(name, method, meta)
}

func (e *Env) openDBLocked(name string, method Method, meta storage.PageID) (*DB, error) {
	db := &DB{env: e, name: name, method: method, meta: meta}
	var err error
	switch method {
	case MethodBtree, MethodRecno:
		db.idx, err = index.OpenBTree(e.pager, meta, index.AllBTreeOps())
	case MethodHash:
		db.idx, err = OpenHash(e.pager, meta)
	case MethodQueue:
		db.queue, err = OpenQueue(e.pager, meta)
	}
	if err != nil {
		return nil, err
	}
	db.buildPipelines()
	e.dbs[name] = db
	e.trees[db.tree()] = db
	return db, nil
}

// dbByTree resolves a journal tree id to its database, opening it from
// the catalog on first use (recovery redoes the journal before any
// database is opened).
func (e *Env) dbByTree(id uint64) (*DB, error) {
	e.catMu.Lock()
	defer e.catMu.Unlock()
	if db, ok := e.trees[id]; ok {
		return db, nil
	}
	var name string
	var val []byte
	if err := e.catalog.Scan(nil, nil, func(k, v []byte) bool {
		if bytes.HasPrefix(k, []byte(dbPrefix)) && uint64(binary.LittleEndian.Uint32(v[1:])) == id {
			name, val = string(k[len(dbPrefix):]), append([]byte(nil), v...)
			return false
		}
		return true
	}); err != nil {
		return nil, err
	}
	if val == nil {
		return nil, fmt.Errorf("bdb: no database journals as tree %d", id)
	}
	return e.openDBLocked(name, Method(val[0]), storage.PageID(binary.LittleEndian.Uint32(val[1:])))
}

// errRoutedJournal refuses a journal that writes tree 0. Only a log
// from before databases were trees of the journal holds such writes:
// it routed every write by a "<db>\x00<key>" key into the one store.
// Replaying it here would put those keys into the catalog, so the open
// fails instead; recover and checkpoint the log with the release that
// wrote it, which leaves it empty.
var errRoutedJournal = errors.New("bdb: journal writes databases by key prefix, an older format; recover and checkpoint it with the release that wrote it")

// unjournaled is the catalog as the journal's tree 0 sees it: readable,
// but a replayed write fails with errRoutedJournal.
type unjournaled struct{ index.Index }

func (unjournaled) Insert(_, _ []byte) error      { return errRoutedJournal }
func (unjournaled) Delete(_ []byte) (bool, error) { return false, errRoutedJournal }

// dbTrees is the journal's tree resolver: a database's tree id is its
// meta page, which the catalog records and which never moves. Apply is
// where a commit's writes reach a database, so it also forwards each
// write to an attached replica (Replication); the feature model
// guarantees Logging under Replication, so every mutation passes
// through here.
type dbTrees struct{ env *Env }

func (r dbTrees) Tree(id uint64) (*access.Store, error) {
	db, err := r.env.dbByTree(id)
	if err != nil {
		return nil, err
	}
	if db.store == nil {
		return nil, fmt.Errorf("bdb: queue database %q is not journaled", db.name)
	}
	return db.store, nil
}

// IDs lists every journaled database's tree in id order; no database's
// entries create another.
func (r dbTrees) IDs() ([]uint64, error) {
	e := r.env
	e.catMu.Lock()
	defer e.catMu.Unlock()
	var ids []uint64
	err := e.catalog.Scan(nil, nil, func(k, v []byte) bool {
		if bytes.HasPrefix(k, []byte(dbPrefix)) && Method(v[0]) != MethodQueue {
			ids = append(ids, uint64(binary.LittleEndian.Uint32(v[1:])))
		}
		return true
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, err
}

func (r dbTrees) Apply(_ *trace.Span, id uint64, key, value []byte, remove bool) error {
	db, err := r.env.dbByTree(id)
	if err != nil {
		return err
	}
	if remove {
		_, err = db.idx.Delete(key)
	} else {
		err = db.idx.Insert(key, value)
	}
	if err != nil || r.env.replica == nil {
		return err
	}
	return r.env.replica.apply(db, key, value, remove)
}

// Databases lists the databases in the catalog.
func (e *Env) Databases() ([]string, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.catMu.Lock()
	defer e.catMu.Unlock()
	var names []string
	err := e.catalog.Scan(nil, nil, func(k, v []byte) bool {
		if bytes.HasPrefix(k, []byte(dbPrefix)) {
			names = append(names, string(k[len(dbPrefix):]))
		}
		return true
	})
	sort.Strings(names)
	return names, err
}

// --- the DB handle and its composed operation pipelines ---

// DB is a handle on one database.
type DB struct {
	env    *Env
	name   string
	method Method
	meta   storage.PageID
	idx    index.Index // nil for queues
	queue  *Queue      // MethodQueue only
	// store is idx as the journal checks and reads it; nil for queues.
	store *access.Store

	put func(key, value []byte) error
	get func(key []byte) ([]byte, bool, error)
	del func(key []byte) (bool, error)
}

// Name returns the database name.
func (db *DB) Name() string { return db.name }

// Method returns the access method.
func (db *DB) Method() Method { return db.method }

// tree is the database's journal tree id: its meta page.
func (db *DB) tree() uint64 { return uint64(db.meta) }

// buildPipelines composes the operation pipelines. This is where the
// Figure 1 modes differ:
//
//   - ModeComposed wires only the selected decorators; deselected
//     functionality does not exist on the call path at all.
//   - ModeC wires every decorator; each consults its runtime flag, the
//     cost the original preprocessor-configured C code pays for options
//     that are compiled in but switched off.
func (db *DB) buildPipelines() {
	if db.method == MethodQueue {
		return // queues use Enqueue/Dequeue instead
	}
	e := db.env
	db.store = access.New(db.idx, access.AllOps())
	db.put = db.applyPut
	db.get = db.applyGet
	db.del = db.applyDel

	type wrap struct {
		feature string
		put     func(next func([]byte, []byte) error) func([]byte, []byte) error
		get     func(next func([]byte) ([]byte, bool, error)) func([]byte) ([]byte, bool, error)
		del     func(next func([]byte) (bool, error)) func([]byte) (bool, error)
	}
	decorators := []wrap{
		{
			feature: "Diagnostic",
			put: func(next func([]byte, []byte) error) func([]byte, []byte) error {
				return func(k, v []byte) error {
					if err := next(k, v); err != nil {
						return err
					}
					got, found, err := db.idx.Get(k)
					if err != nil || !found || !bytes.Equal(got, v) {
						return fmt.Errorf("bdb: diagnostic: put of %q not visible (%v)", k, err)
					}
					return nil
				}
			},
		},
		{
			feature: "Statistics",
			put: func(next func([]byte, []byte) error) func([]byte, []byte) error {
				return func(k, v []byte) error {
					e.puts.Add(1)
					return next(k, v)
				}
			},
			get: func(next func([]byte) ([]byte, bool, error)) func([]byte) ([]byte, bool, error) {
				return func(k []byte) ([]byte, bool, error) {
					e.gets.Add(1)
					return next(k)
				}
			},
			del: func(next func([]byte) (bool, error)) func([]byte) (bool, error) {
				return func(k []byte) (bool, error) {
					e.deletes.Add(1)
					return next(k)
				}
			},
		},
	}
	for _, d := range decorators {
		d := d
		switch e.cfg.Mode {
		case core.ModeComposed:
			if !e.has(d.feature) {
				continue
			}
			if d.put != nil {
				db.put = d.put(db.put)
			}
			if d.get != nil {
				db.get = d.get(db.get)
			}
			if d.del != nil {
				db.del = d.del(db.del)
			}
		case core.ModeC:
			// Everything is linked; each call re-checks the flag.
			if d.put != nil {
				inner := db.put
				wrapped := d.put(inner)
				db.put = func(k, v []byte) error {
					if e.has(d.feature) {
						return wrapped(k, v)
					}
					return inner(k, v)
				}
			}
			if d.get != nil {
				inner := db.get
				wrapped := d.get(inner)
				db.get = func(k []byte) ([]byte, bool, error) {
					if e.has(d.feature) {
						return wrapped(k)
					}
					return inner(k)
				}
			}
			if d.del != nil {
				inner := db.del
				wrapped := d.del(inner)
				db.del = func(k []byte) (bool, error) {
					if e.has(d.feature) {
						return wrapped(k)
					}
					return inner(k)
				}
			}
		}
	}
}

// applyPut is the pipeline base: journal when Logging is selected,
// otherwise mutate the index directly.
func (db *DB) applyPut(key, value []byte) error {
	if db.env.mgr != nil {
		return db.env.mgr.Do(func(t *txn.Txn) error { return t.Tree(db.tree()).Put(key, value) })
	}
	return db.idx.Insert(key, value)
}

func (db *DB) applyGet(key []byte) ([]byte, bool, error) {
	return db.idx.Get(key)
}

func (db *DB) applyDel(key []byte) (bool, error) {
	if db.env.mgr != nil {
		err := db.env.mgr.Do(func(t *txn.Txn) error { return t.Tree(db.tree()).Remove(key) })
		if errors.Is(err, txn.ErrNotFound) {
			return false, nil
		}
		return err == nil, err
	}
	return db.idx.Delete(key)
}

func (db *DB) kvOnly() error {
	if db.method == MethodQueue {
		return errors.New("bdb: key/value operation on a queue database")
	}
	return nil
}

// Put stores value under key.
func (db *DB) Put(key, value []byte) error {
	if err := db.kvOnly(); err != nil {
		return err
	}
	db.env.mu.Lock()
	defer db.env.mu.Unlock()
	return db.put(key, value)
}

// Get returns the value under key.
func (db *DB) Get(key []byte) ([]byte, bool, error) {
	if err := db.kvOnly(); err != nil {
		return nil, false, err
	}
	db.env.mu.RLock()
	defer db.env.mu.RUnlock()
	return db.get(key)
}

// Delete removes key, reporting whether it existed.
func (db *DB) Delete(key []byte) (bool, error) {
	if err := db.kvOnly(); err != nil {
		return false, err
	}
	db.env.mu.Lock()
	defer db.env.mu.Unlock()
	return db.del(key)
}

// Len returns the number of entries.
func (db *DB) Len() (uint64, error) {
	if db.method == MethodQueue {
		return db.queue.Len(), nil
	}
	return db.idx.Len()
}

// --- Queue method surface ---

// Enqueue appends a record (MethodQueue only).
func (db *DB) Enqueue(rec []byte) (uint64, error) {
	if db.method != MethodQueue {
		return 0, errors.New("bdb: Enqueue on a non-queue database")
	}
	db.env.mu.Lock()
	defer db.env.mu.Unlock()
	return db.queue.Enqueue(rec)
}

// Dequeue removes the oldest record (MethodQueue only).
func (db *DB) Dequeue() ([]byte, bool, error) {
	if db.method != MethodQueue {
		return nil, false, errors.New("bdb: Dequeue on a non-queue database")
	}
	db.env.mu.Lock()
	defer db.env.mu.Unlock()
	return db.queue.Dequeue()
}

// Peek returns the oldest record without removing it (MethodQueue
// only).
func (db *DB) Peek() ([]byte, bool, error) {
	if db.method != MethodQueue {
		return nil, false, errors.New("bdb: Peek on a non-queue database")
	}
	db.env.mu.RLock()
	defer db.env.mu.RUnlock()
	return db.queue.Peek()
}

// --- Recno surface ---

// Append stores rec under the next record number (MethodRecno only)
// and returns that number.
func (db *DB) Append(rec []byte) (uint64, error) {
	if db.method != MethodRecno {
		return 0, errors.New("bdb: Append on a non-recno database")
	}
	db.env.mu.Lock()
	defer db.env.mu.Unlock()
	n, err := db.idx.Len()
	if err != nil {
		return 0, err
	}
	// Record numbers are dense on append-only use; after deletes the
	// next number continues past the largest live key.
	next := n + 1
	for {
		key := recnoKey(next)
		if _, found, err := db.idx.Get(key); err != nil {
			return 0, err
		} else if !found {
			break
		}
		next++
	}
	return next, db.put(recnoKey(next), rec)
}

// GetRecno reads record number n (MethodRecno only).
func (db *DB) GetRecno(n uint64) ([]byte, bool, error) {
	if db.method != MethodRecno {
		return nil, false, errors.New("bdb: GetRecno on a non-recno database")
	}
	db.env.mu.RLock()
	defer db.env.mu.RUnlock()
	return db.get(recnoKey(n))
}

func recnoKey(n uint64) []byte {
	var k [8]byte
	binary.BigEndian.PutUint64(k[:], n)
	return k[:]
}
