// Package composer performs product derivation for the FAME-DBMS
// product line: given a valid configuration of core.FAMEModel, it wires
// exactly the selected feature modules into a runnable engine instance.
// Unselected functionality is not reachable from the instance — the Go
// analog of FeatureC++ static composition.
package composer

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"famedb/internal/access"
	"famedb/internal/btree"
	"famedb/internal/buffer"
	"famedb/internal/core"
	"famedb/internal/footprint"
	"famedb/internal/index"
	"famedb/internal/monitor"
	"famedb/internal/osal"
	"famedb/internal/repl"
	"famedb/internal/server"
	"famedb/internal/sql"
	"famedb/internal/stats"
	"famedb/internal/storage"
	"famedb/internal/trace"
	"famedb/internal/txn"
)

// Options are a product's deployment settings plus the few tuning
// values callers set to different values. Everything else a feature
// needs is a constant of its package. The zero value composes an
// in-memory product with every default.
type Options struct {
	// FS is the backing filesystem; nil opens Dir, or composes over a
	// fresh MemFS when Dir is empty too.
	FS osal.FS
	// Dir persists the instance in a directory of the host filesystem;
	// ignored when FS is set.
	Dir string
	// CachePages overrides the buffer capacity derived from the
	// platform's RAM budget.
	CachePages int
	// CacheShards overrides the ShardedBuffer feature's stripe count
	// (default buffer.DefaultShards; rounded to a power of two and
	// capped at one frame per shard). Ignored without ShardedBuffer.
	CacheShards int
	// GroupCommitBatch tunes the GroupCommit protocol (default 8).
	GroupCommitBatch int
	// Retry bounds how hard the engine fights transient device faults
	// before poisoning into degraded read-only mode. The zero value
	// (Attempts == 0) composes storage.DefaultRetryPolicy.
	Retry storage.RetryPolicy
	// MonitorInterval is the Monitor feature's sampler period (default
	// 1s). Ignored without Monitor.
	MonitorInterval time.Duration
	// MonitorRules are the watchdog thresholds; the zero value watches
	// only the degraded latch. Ignored without Monitor.
	MonitorRules monitor.Thresholds
}

// Instance is a derived FAME-DBMS product.
type Instance struct {
	// Configuration is the validated product this instance was derived
	// from.
	Configuration *core.Configuration
	// Platform is the selected OS-abstraction target.
	Platform osal.Platform
	// Store is the record store with the composed Access operations.
	Store *access.Store
	// Txn is the transaction manager; nil unless the Transaction
	// feature is selected.
	Txn *txn.Manager
	// SQL is the query engine; nil unless the SQLEngine feature is
	// selected.
	SQL *sql.Engine

	fs         osal.FS
	pf         *storage.PageFile
	pager      storage.Pager
	cache      *buffer.Manager
	cachePages int
	// ck is the Checksums feature's CRC-trailer pager; nil unless the
	// feature is selected.
	ck *storage.ChecksumPager
	// health is the engine-wide degraded-mode latch shared by the page
	// path and the WAL. Always composed.
	health *storage.Health
	// stats is the Statistics feature's registry; nil unless the feature
	// is selected, in which case every layer records into it.
	stats *stats.Registry
	// tracer is the Tracing feature's span recorder; nil unless the
	// feature is selected, in which case every layer records into it.
	tracer *trace.Tracer
	// mon is the Monitor feature's live-observation subsystem (sampler,
	// watchdog, telemetry handler); nil unless the feature is selected.
	mon *monitor.Monitor
	// versions is the MVCC feature's table of committed copy-on-write
	// roots; nil unless the feature is selected.
	versions *btree.VersionTable
	// shipper is the Replication feature's WAL fan-out: every durable
	// append is offered to subscribed feeds (network replication
	// sessions, in-process replicas); nil unless the feature is
	// selected.
	shipper *repl.Shipper
	// servers tracks Server-feature listeners started via Serve so
	// Close tears them down before the layers they execute against.
	servers []*server.Server
}

// mvccSource adapts the version table to the transaction manager's
// narrow interface, keeping the txn package decoupled from the tree.
type mvccSource struct{ vt *btree.VersionTable }

func (s mvccSource) Pin() txn.SnapshotReader { return s.vt.Pin() }
func (s mvccSource) Install() error          { return s.vt.Install() }

// layout records where the persistent structures live, so an instance
// can be recomposed over an existing filesystem.
type layout struct {
	StoreMeta uint32 `json:"store_meta"`
	SQLMeta   uint32 `json:"sql_meta"`
	Index     string `json:"index"`
	// Checksums records whether pages carry CRC trailers: a page file
	// written with trailers is unreadable without them and vice versa.
	Checksums bool `json:"checksums,omitempty"`
	// Mvcc records whether the tree mutates copy-on-write: such a tree
	// keeps no leaf chain, so it cannot be reopened by a configuration
	// without MVCC (and an in-place tree cannot gain snapshots
	// retroactively — its chain pointers would be stale the moment a
	// leaf is shadowed).
	Mvcc bool `json:"mvcc,omitempty"`
}

const (
	dataFile   = "fame.db"
	layoutFile = "fame.layout"
	walFile    = "fame.wal"
	ckptFile   = "fame.ckpt"
)

// Recovery semantics: with the Recovery feature, the durable state of
// an instance is "last checkpoint image + committed journal since".
// Composing restores the data file from the checkpoint shadow copy and
// the transaction manager replays the journal; checkpoints atomically
// refresh the shadow copy (write to temp, rename) and truncate the
// journal. This is no-steal crash consistency without page-image
// logging — appropriate for embedded-scale data sets, and the write-back
// cache means the live data file is never trusted across a crash.

// Compose derives an instance from a complete, valid configuration.
// Composing over a filesystem that already holds an instance reopens
// it; the stored layout must have been produced by a configuration with
// the same index structure.
func Compose(cfg *core.Configuration, opts Options) (*Instance, error) {
	if cfg.Model().Name != "FAME-DBMS" {
		return nil, fmt.Errorf("composer: configuration is for model %q", cfg.Model().Name)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("composer: %w", err)
	}
	inst := &Instance{Configuration: cfg}

	// Statistics feature: one registry shared by every layer. When the
	// feature is deselected the registry stays nil, the layers' metric
	// pointers stay nil, and all recording collapses to no-ops.
	if cfg.Has("Statistics") {
		inst.stats = stats.New()
	}

	// Tracing feature: one span recorder shared by every layer; same
	// nil-discipline as the stats registry. When Statistics is also
	// composed the tracer learns the histogram bucket bounds, so spans
	// carry the bucket their duration landed in (the stats/trace
	// bridge).
	if cfg.Has("Tracing") {
		inst.tracer = trace.New()
		if inst.stats != nil {
			inst.tracer.SetLatencyBounds(stats.LatencyBounds())
		}
	}

	// OS abstraction: platform target and filesystem.
	for _, name := range []string{"Linux", "Win32", "NutOS"} {
		if cfg.Has(name) {
			inst.Platform, _ = osal.PlatformByName(name)
		}
	}
	inst.fs = opts.FS
	if inst.fs == nil && opts.Dir != "" {
		dir, err := osal.NewDirFS(opts.Dir)
		if err != nil {
			return nil, err
		}
		inst.fs = dir
	}
	if inst.fs == nil {
		inst.fs = osal.NewMemFS()
	}

	// With Recovery, restore the data file from the last checkpoint
	// image before opening; the journal replay below reconstructs
	// everything committed since.
	if cfg.Has("Recovery") {
		if err := restoreCheckpoint(inst.fs); err != nil {
			return nil, err
		}
	}

	// Page file on the platform's page size.
	existing := true
	f, err := inst.fs.Open(dataFile)
	if errors.Is(err, osal.ErrNotExist) {
		existing = false
		f, err = inst.fs.Create(dataFile)
	}
	if err != nil {
		return nil, err
	}
	if existing {
		inst.pf, err = storage.OpenPageFile(f)
	} else {
		inst.pf, err = storage.CreatePageFile(f, inst.Platform.PageSize)
	}
	if err != nil {
		return nil, err
	}
	inst.pf.SetMetrics(inst.stats)
	inst.pf.SetTracer(inst.tracer)
	inst.pager = inst.pf

	// Checksums feature: a CRC32-trailer pager between the page file and
	// everything above it, so every read re-verifies the page and torn
	// writes surface as storage.ErrPageCorrupt instead of garbage keys.
	if cfg.Has("Checksums") {
		ck, err := storage.NewChecksumPager(inst.pf)
		if err != nil {
			return nil, err
		}
		ck.SetMetrics(inst.stats)
		inst.ck = ck
		inst.pager = ck
	}

	// Retry/degrade is part of every product: transient device faults
	// are retried under the policy, and exhaustion poisons the shared
	// health latch — the engine keeps answering reads after its device
	// stops taking writes. The latch feeds the Statistics fault counters
	// and emits one trace span the moment it poisons.
	inst.health = storage.NewHealth()
	retry := opts.Retry
	if retry.Attempts == 0 {
		def := storage.DefaultRetryPolicy()
		retry.Attempts = def.Attempts
		if retry.Backoff == 0 {
			retry.Backoff = def.Backoff
		}
	}
	rp := storage.NewRetryPager(inst.pager, retry, inst.health)
	rp.SetMetrics(inst.stats)
	inst.pager = rp
	inst.health.OnDegrade(func(reason error) {
		inst.stats.Degrade(reason.Error())
		if inst.tracer != nil {
			sp := inst.tracer.Start(nil, trace.LayerPager, "degrade")
			sp.Fail(reason)
			sp.End()
		}
	})

	// Buffer manager feature.
	if cfg.Has("BufferManager") {
		capacity := opts.CachePages
		if capacity <= 0 {
			// Half the platform RAM budget for the page cache, at
			// least 2 frames.
			capacity = inst.Platform.RAMBudget / inst.Platform.PageSize / 2
			if capacity < 2 {
				capacity = 2
			}
			if capacity > 256 {
				capacity = 256
			}
		}
		inst.cachePages = capacity
		newPolicy := func() buffer.Policy {
			if cfg.Has("LFU") {
				return buffer.NewLFU()
			}
			return buffer.NewLRU()
		}
		// Per-shard allocator factory: a static product splits one
		// RAM-budgeted arena figure across the shards, so the aggregate
		// arena equals the unsharded one. Frames are logical-page sized:
		// with Checksums the CRC trailer stays below the cache.
		pageSize := inst.pager.PageSize()
		newAlloc := func(frames int) (buffer.Allocator, error) {
			if cfg.Has("StaticAlloc") {
				return buffer.NewStaticAllocator(pageSize, frames, 0)
			}
			return buffer.NewDynamicAllocator(pageSize), nil
		}
		if cfg.Has("StaticAlloc") && inst.Platform.RAMBudget > 0 && capacity*pageSize > inst.Platform.RAMBudget {
			return nil, fmt.Errorf("composer: static arena of %d bytes exceeds the %s RAM budget %d",
				capacity*pageSize, inst.Platform.Name, inst.Platform.RAMBudget)
		}
		// One pool for every product: ShardedBuffer only sets the
		// stripe count (0 selects buffer.DefaultShards).
		shards := 1
		if cfg.Has("ShardedBuffer") {
			shards = opts.CacheShards
		}
		inst.cache, err = buffer.NewSharded(inst.pager, capacity, shards, newPolicy, newAlloc)
		if err != nil {
			return nil, err
		}
		inst.cache.SetMetrics(inst.stats)
		inst.cache.SetTracer(inst.tracer)
		inst.pager = inst.cache
	}

	// Index feature (and its fine-grained operations).
	btOps := index.BTreeOps{
		Search: cfg.Has("BTreeSearch"),
		Update: cfg.Has("BTreeUpdate"),
		Remove: cfg.Has("BTreeRemove"),
	}
	indexName := "ListIndex"
	if cfg.Has("BPlusTree") {
		indexName = "BPlusTree"
	}

	var lay layout
	var idx index.Index
	if existing {
		if lay, err = readLayout(inst.fs); err != nil {
			return nil, err
		}
		if lay.Index != indexName {
			return nil, fmt.Errorf("composer: filesystem holds a %s instance, configuration selects %s",
				lay.Index, indexName)
		}
		if lay.Checksums != cfg.Has("Checksums") {
			with, without := "with", "without"
			if !lay.Checksums {
				with, without = without, with
			}
			return nil, fmt.Errorf("composer: filesystem holds an instance %s Checksums, configuration selects %s",
				with, without)
		}
		if lay.Mvcc != cfg.Has("MVCC") {
			with, without := "with", "without"
			if !lay.Mvcc {
				with, without = without, with
			}
			return nil, fmt.Errorf("composer: filesystem holds an instance %s MVCC, configuration selects %s",
				with, without)
		}
		if indexName == "BPlusTree" {
			idx, err = index.OpenBTree(inst.pager, storage.PageID(lay.StoreMeta), btOps)
		} else {
			idx, err = index.OpenList(inst.pager, storage.PageID(lay.StoreMeta))
		}
		if err != nil {
			return nil, err
		}
	} else {
		var meta storage.PageID
		if indexName == "BPlusTree" {
			idx, meta, err = index.CreateBTree(inst.pager, btOps)
		} else {
			idx, meta, err = index.CreateList(inst.pager)
		}
		if err != nil {
			return nil, err
		}
		lay = layout{StoreMeta: uint32(meta), Index: indexName,
			Checksums: cfg.Has("Checksums"), Mvcc: cfg.Has("MVCC")}
	}

	if bt, ok := idx.(*index.BTree); ok {
		bt.Tree().SetMetrics(inst.stats)
		bt.Tree().SetTracer(inst.tracer)
	}

	// MVCC feature: switch the tree to copy-on-write mutations and seed
	// the version table with the opening root — before the transaction
	// manager opens, so a recovery replay already shadows and its
	// superseded pages reclaim through the table. The model guarantees
	// MVCC => BPlusTree.
	if cfg.Has("MVCC") {
		bt, ok := idx.(*index.BTree)
		if !ok {
			return nil, fmt.Errorf("composer: MVCC requires the BPlusTree index")
		}
		inst.versions = btree.NewVersionTable(bt.Tree())
		inst.versions.SetMetrics(inst.stats)
	}

	// Access feature: exactly the selected operations.
	ops := access.Ops{
		Put:    cfg.Has("Put"),
		Get:    cfg.Has("Get"),
		Remove: cfg.Has("Remove"),
		Update: cfg.Has("Update"),
	}
	inst.Store = access.New(idx, ops)
	inst.Store.SetMetrics(inst.stats)
	inst.Store.SetTracer(inst.tracer)

	// SQL engine and optimizer features. The engine comes up before the
	// transaction manager, which journals its trees on a product with
	// Transaction.
	if cfg.Has("SQLEngine") {
		factory := sql.ListFactory()
		if cfg.Has("BPlusTree") {
			factory = sql.BTreeFactory(btOps)
		}
		if (inst.stats != nil || inst.tracer != nil) && cfg.Has("BPlusTree") {
			// Instrument the catalog and per-table trees too; they share
			// the registry's tree counters, and the height gauge tracks
			// the tallest instrumented tree.
			factory = instrumentFactory(factory, inst.stats, inst.tracer)
		}
		sqlCfg := sql.Config{
			Pager:     inst.pager,
			Factory:   factory,
			Ops:       ops,
			Optimizer: cfg.Has("Optimizer"),
			// CompiledQueries feature: Prepare/Stmt plus the shape-keyed
			// plan cache on the unprepared Exec path.
			Compiled: cfg.Has("CompiledQueries"),
			Metrics:  inst.stats,
			Tracer:   inst.tracer,
		}
		// QueryStats feature: the per-shape statement profile registry,
		// the slow-query ring and EXPLAIN support. The model requires
		// Statistics alongside it, so inst.stats is non-nil here and the
		// registry rides on its snapshot/encoding surfaces.
		if cfg.Has("QueryStats") {
			qs := stats.NewQueryStats()
			inst.stats.SetQueryStats(qs)
			sqlCfg.Query = qs
		}
		if existing {
			inst.SQL, err = sql.Open(sqlCfg, storage.PageID(lay.SQLMeta))
		} else {
			var meta storage.PageID
			inst.SQL, meta, err = sql.Create(sqlCfg)
			lay.SQLMeta = uint32(meta)
		}
		if err != nil {
			return nil, err
		}
	}

	// Transaction feature.
	if cfg.Has("Transaction") {
		var versions txn.VersionSource
		if inst.versions != nil {
			versions = mvccSource{vt: inst.versions}
		}
		batch := txn.ForceCommit()
		if cfg.Has("GroupCommit") {
			batch = txn.GroupCommit(opts.GroupCommitBatch)
		}
		// The SQL engine's catalog and tables are trees of the same log:
		// its resolver is in place before the open recovers through it.
		var trees txn.Trees
		if inst.SQL != nil {
			trees = inst.SQL.Trees()
		}
		inst.Txn, err = txn.OpenTrees(inst.fs, walFile, inst.Store, trees, txn.Options{
			BatchLimit: batch,
			// The Locking feature buys thread safety plus the pipelined
			// group commit; single-threaded products deselect it and
			// keep the lock-free plain path (GroupCommit implies it).
			Locking:  cfg.Has("Locking"),
			Recovery: cfg.Has("Recovery"),
			// Checkpointing = flush the cache, then atomically refresh
			// the shadow copy the next recovery will restore from.
			SyncStore: func() error {
				if err := inst.pager.Sync(); err != nil {
					return err
				}
				if cfg.Has("Recovery") {
					return writeCheckpoint(inst.fs)
				}
				return nil
			},
			Metrics: inst.stats,
			Tracer:  inst.tracer,
			// The WAL shares the page path's retry policy and degraded
			// latch: a dying log device poisons the same engine-wide
			// health the pagers consult.
			Health: inst.health,
			Retry:  retry,
			// MVCC feature: Begin pins the newest committed version and
			// every commit batch installs the next one.
			Versions: versions,
		})
		if err != nil {
			return nil, err
		}
		if inst.SQL != nil {
			inst.SQL.SetJournal(inst.Txn)
		}
	}

	// Replication feature: fan every durable WAL append out to
	// subscriber feeds. The hook runs on the commit path but never
	// blocks it — a slow or dead subscriber gets its feed broken and
	// must snapshot-resync. The model guarantees Transaction here.
	if cfg.Has("Replication") {
		inst.shipper = repl.NewShipper(inst.stats)
		inst.Txn.SetOnShip(inst.shipper.OnShip)
	}

	// Monitor feature: the live-observation subsystem over everything
	// composed above. Its source closures read the Statistics registry
	// (model constraint: Monitor => Statistics), the health latch, the
	// WAL size, and — when Tracing is composed — the span ring, so the
	// monitor itself stays decoupled from the layers it watches. The
	// sampler goroutine starts immediately and Close stops it.
	if cfg.Has("Monitor") {
		src := monitor.Source{
			Snapshot: func() stats.Snapshot {
				s, _ := inst.Stats() // refreshes the trace-ring gauges
				return s
			},
			Health: inst.health,
		}
		if inst.Txn != nil {
			src.LogSize = inst.Txn.LogSize
		}
		if inst.tracer != nil {
			src.Trace = inst.Trace
		}
		for _, f := range cfg.SelectedFeatures() {
			src.Features = append(src.Features, f.Name)
		}
		inst.mon = monitor.New(monitor.Config{
			Interval: opts.MonitorInterval,
			Rules:    opts.MonitorRules,
		}, src)
		inst.mon.Start()
	}

	if !existing {
		if err := writeLayout(inst.fs, lay); err != nil {
			return nil, err
		}
		if cfg.Has("Recovery") {
			// Seed the checkpoint image with the freshly created
			// (empty) structures.
			if err := inst.pager.Sync(); err != nil {
				return nil, err
			}
			if err := writeCheckpoint(inst.fs); err != nil {
				return nil, err
			}
		}
	}
	return inst, nil
}

// instrumentFactory wraps an IndexFactory so every index it produces
// records into the Statistics registry and/or the Tracing recorder.
func instrumentFactory(base sql.IndexFactory, reg *stats.Registry, tr *trace.Tracer) sql.IndexFactory {
	observe := func(idx index.Index) {
		bt, ok := idx.(*index.BTree)
		if !ok {
			return
		}
		bt.Tree().SetMetrics(reg)
		bt.Tree().SetTracer(tr)
	}
	wrapped := base
	wrapped.Create = func(p storage.Pager) (index.Index, storage.PageID, error) {
		idx, meta, err := base.Create(p)
		if err == nil {
			observe(idx)
		}
		return idx, meta, err
	}
	wrapped.Open = func(sp *trace.Span, p storage.Pager, meta storage.PageID) (index.Index, error) {
		idx, err := base.Open(sp, p, meta)
		if err == nil {
			observe(idx)
		}
		return idx, err
	}
	return wrapped
}

// writeCheckpoint copies the synced data file to a temporary file and
// atomically renames it over the checkpoint image. The copy is read
// back and compared before the rename: a device that silently tears the
// copy (acknowledging a partial write) must not get its damage adopted
// as the image every future recovery restores from.
func writeCheckpoint(fs osal.FS) error {
	if err := osal.CopyFile(fs, dataFile, fs, ckptFile+".tmp"); err != nil {
		return err
	}
	if err := compareFSFiles(fs, dataFile, ckptFile+".tmp"); err != nil {
		return err
	}
	return fs.Rename(ckptFile+".tmp", ckptFile)
}

// compareFSFiles errors unless the two files hold identical bytes.
func compareFSFiles(fs osal.FS, a, b string) error {
	fa, err := fs.Open(a)
	if err != nil {
		return err
	}
	defer fa.Close()
	fb, err := fs.Open(b)
	if err != nil {
		return err
	}
	defer fb.Close()
	sa, err := fa.Size()
	if err != nil {
		return err
	}
	sb, err := fb.Size()
	if err != nil {
		return err
	}
	if sa != sb {
		return fmt.Errorf("composer: checkpoint image size %d != data file size %d", sb, sa)
	}
	bufA := make([]byte, 64<<10)
	bufB := make([]byte, 64<<10)
	var off int64
	for off < sa {
		n := len(bufA)
		if rem := sa - off; rem < int64(n) {
			n = int(rem)
		}
		if _, err := fa.ReadAt(bufA[:n], off); err != nil {
			return err
		}
		if _, err := fb.ReadAt(bufB[:n], off); err != nil {
			return err
		}
		if !bytes.Equal(bufA[:n], bufB[:n]) {
			return fmt.Errorf("composer: checkpoint image diverges from data file at offset %d (torn copy?)", off)
		}
		off += int64(n)
	}
	return nil
}

// restoreCheckpoint replaces the data file with the checkpoint image,
// if one exists.
func restoreCheckpoint(fs osal.FS) error {
	if _, err := fs.Open(ckptFile); errors.Is(err, osal.ErrNotExist) {
		return nil
	}
	// Copy (not rename) so the image survives for the next crash.
	return osal.CopyFile(fs, ckptFile, fs, dataFile)
}

// ComposeProduct is the convenience path: derive a product from feature
// names and compose it.
func ComposeProduct(opts Options, features ...string) (*Instance, error) {
	cfg, err := core.FAMEModel().Product(features...)
	if err != nil {
		return nil, err
	}
	return Compose(cfg, opts)
}

func readLayout(fs osal.FS) (layout, error) {
	var lay layout
	f, err := fs.Open(layoutFile)
	if err != nil {
		return lay, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return lay, err
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return lay, err
	}
	return lay, json.Unmarshal(buf, &lay)
}

func writeLayout(fs osal.FS, lay layout) error {
	f, err := fs.Create(layoutFile)
	if err != nil {
		return err
	}
	defer f.Close()
	buf, err := json.Marshal(lay)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(buf, 0); err != nil {
		return err
	}
	return f.Sync()
}

// ROM returns the instance's code footprint under the fine-grained
// model.
func (i *Instance) ROM() (int, error) {
	tab, err := footprint.Load("FAME-DBMS")
	if err != nil {
		return 0, err
	}
	var names []string
	for _, f := range i.Configuration.SelectedFeatures() {
		names = append(names, f.Name)
	}
	return tab.ROMFine(names)
}

// RAM returns the instance's static memory footprint.
func (i *Instance) RAM() int {
	logBuf := 0
	if i.Txn != nil {
		logBuf = 4096
	}
	return footprint.RAM(footprint.RAMParams{
		PageSize:    i.Platform.PageSize,
		CachePages:  i.cachePages,
		StaticArena: i.Configuration.Has("StaticAlloc"),
		LogBuffer:   logBuf,
	})
}

// Stats returns a snapshot of the Statistics feature's metrics, or
// access.ErrNotComposed when the product was derived without the
// Statistics feature. With Tracing also composed, the snapshot's trace
// section carries the ring's occupancy and dropped-span gauges — so
// dropped observability data is itself observable.
func (i *Instance) Stats() (stats.Snapshot, error) {
	if i.stats == nil {
		return stats.Snapshot{}, fmt.Errorf("Stats: %w", access.ErrNotComposed)
	}
	if i.tracer != nil {
		capacity, occ, recorded, dropped, slowOps, slowEvicted := i.tracer.RingStats()
		i.stats.Set(stats.TraceRingCapacity, int64(capacity))
		i.stats.Set(stats.TraceRingOccupancy, int64(occ))
		i.stats.Set(stats.TraceRecordedSpans, int64(recorded))
		i.stats.Set(stats.TraceDroppedSpans, int64(dropped))
		i.stats.Set(stats.TraceSlowOps, int64(slowOps))
		i.stats.Set(stats.TraceSlowEvicted, slowEvicted)
	}
	return i.stats.Snapshot(), nil
}

// Tracer returns the live Tracing recorder, or nil when the feature is
// not composed.
func (i *Instance) Tracer() *trace.Tracer { return i.tracer }

// Trace returns a snapshot of the Tracing feature's span recorder, or
// access.ErrNotComposed when the product was derived without Tracing.
func (i *Instance) Trace() (trace.Snapshot, error) {
	if i.tracer == nil {
		return trace.Snapshot{}, fmt.Errorf("Trace: %w", access.ErrNotComposed)
	}
	return i.tracer.Snapshot(), nil
}

// SetTracing switches span recording on or off at runtime. It fails
// with access.ErrNotComposed when the product was derived without the
// Tracing feature.
func (i *Instance) SetTracing(on bool) error {
	if i.tracer == nil {
		return fmt.Errorf("SetTracing: %w", access.ErrNotComposed)
	}
	i.tracer.SetEnabled(on)
	return nil
}

// Monitor returns the live Monitor subsystem, or nil when the feature
// is not composed.
func (i *Instance) Monitor() *monitor.Monitor { return i.mon }

// Versions returns the MVCC feature's version table; nil unless the
// feature is selected.
func (i *Instance) Versions() *btree.VersionTable { return i.versions }

// BeginSnapshot starts a read-only snapshot transaction pinned to the
// newest committed version; its reads take no locks and keep seeing
// the begin-time state. It fails with ErrNotComposed unless both the
// Transaction and MVCC features are selected.
func (i *Instance) BeginSnapshot() (*txn.Txn, error) {
	if i.Txn == nil {
		return nil, fmt.Errorf("BeginSnapshot: %w", access.ErrNotComposed)
	}
	return i.Txn.BeginSnapshot()
}

// MonitorWindow ticks the monitor's sampler and returns the current
// windowed reading, or access.ErrNotComposed when the product was
// derived without the Monitor feature.
func (i *Instance) MonitorWindow() (monitor.Window, error) {
	if i.mon == nil {
		return monitor.Window{}, fmt.Errorf("MonitorWindow: %w", access.ErrNotComposed)
	}
	i.mon.Tick()
	return i.mon.Window(), nil
}

// MonitorEvents returns the monitor's retained operational events
// (oldest first) and how many older ones its bounded log dropped, or
// access.ErrNotComposed without the Monitor feature.
func (i *Instance) MonitorEvents() ([]monitor.Event, uint64, error) {
	if i.mon == nil {
		return nil, 0, fmt.Errorf("MonitorEvents: %w", access.ErrNotComposed)
	}
	events, dropped := i.mon.Events()
	return events, dropped, nil
}

// ServeMonitor binds addr and serves the Monitor feature's telemetry
// endpoint (/metrics, /healthz, /varz, /events, /trace, /debug/pprof/)
// until the returned server is closed. Fails with access.ErrNotComposed
// when the product was derived without the Monitor feature.
func (i *Instance) ServeMonitor(addr string) (*monitor.Server, error) {
	if i.mon == nil {
		return nil, fmt.Errorf("ServeMonitor: %w", access.ErrNotComposed)
	}
	return i.mon.Serve(addr)
}

// Records is the record API both *txn.Manager and *access.Store
// implement.
type Records interface {
	Put(key, value []byte) error
	Get(key []byte) ([]byte, error)
	Remove(key []byte) error
	Update(key, value []byte) error
	Scan(from, to []byte, fn func(key, value []byte) bool) error
	Len() (uint64, error)
}

// Records returns the product's one record path, picked from its
// feature selection: the transaction manager when Transaction is
// composed (every write an auto-commit transaction, logged and shipped
// like any commit), the store otherwise.
func (i *Instance) Records() Records {
	if i.Txn != nil {
		return i.Txn
	}
	return i.Store
}

// Shipper returns the Replication feature's WAL fan-out, or nil when
// the feature is not composed. In-process replicas subscribe to it
// directly; network replication sessions subscribe through Serve.
func (i *Instance) Shipper() *repl.Shipper { return i.shipper }

// ShipApplier returns a replica-side chunk applier over this instance's
// own WAL and store, or access.ErrNotComposed when the product was
// derived without the Replication feature. An instance acting as a
// replica applies shipped frames (and snapshot resyncs) through it.
func (i *Instance) ShipApplier() (*txn.ShipApplier, error) {
	if i.shipper == nil {
		return nil, fmt.Errorf("ShipApplier: %w", access.ErrNotComposed)
	}
	return i.Txn.ShipApplier(), nil
}

// Serve binds addr and runs the Server feature's TCP front end: client
// sessions execute pipelined commands as transactions; replication
// sessions (when Replication is also composed) stream shipped WAL
// frames. Fails with access.ErrNotComposed when the product was derived
// without the Server feature. The listener is owned by the instance:
// Close shuts it down.
func (i *Instance) Serve(addr string) (*server.Server, error) {
	if !i.Configuration.Has("Server") {
		return nil, fmt.Errorf("Serve: %w", access.ErrNotComposed)
	}
	srv, err := server.Serve(addr, server.Config{
		Mgr:     i.Txn,
		Shipper: i.shipper,
		Metrics: i.stats,
	})
	if err != nil {
		return nil, err
	}
	i.servers = append(i.servers, srv)
	return srv, nil
}

// ReplicateFrom starts a replica client that streams this instance from
// the primary at addr (reconnecting with capped backoff and resyncing
// via snapshot when diverged). Fails with access.ErrNotComposed when
// the product was derived without the Replication feature.
func (i *Instance) ReplicateFrom(addr string) (*server.Replica, error) {
	applier, err := i.ShipApplier()
	if err != nil {
		return nil, fmt.Errorf("ReplicateFrom: %w", access.ErrNotComposed)
	}
	return server.StartReplica(server.ReplicaConfig{Addr: addr, Applier: applier})
}

// StatsRegistry returns the live Statistics registry, or nil when the
// feature is not composed. Benchmark harnesses use it to read
// histograms without going through snapshots.
func (i *Instance) StatsRegistry() *stats.Registry { return i.stats }

// CacheStats returns buffer-manager statistics, or false when no
// buffer manager is composed.
func (i *Instance) CacheStats() (buffer.Stats, bool) {
	if i.cache == nil {
		return buffer.Stats{}, false
	}
	return i.cache.Stats(), true
}

// CacheShards returns the buffer pool's lock-stripe count: 0 without a
// buffer manager, 1 without the ShardedBuffer feature, and the
// (power-of-two) stripe count with it.
func (i *Instance) CacheShards() int {
	if i.cache == nil {
		return 0
	}
	return i.cache.ShardCount()
}

// FS returns the instance's filesystem.
func (i *Instance) FS() osal.FS { return i.fs }

// Health returns the engine-wide degraded-mode latch.
func (i *Instance) Health() *storage.Health { return i.health }

// Degraded reports whether the instance has poisoned into read-only
// mode after exhausting the retry budget on a transient device fault.
func (i *Instance) Degraded() bool { return i.health.Degraded() }

// VerifyReport is the outcome of a full-instance scrub.
type VerifyReport struct {
	// Pages is the page-file scrub; nil when the product was derived
	// without the Checksums feature (no trailers to check against).
	Pages *storage.VerifyReport
	// Log is the write-ahead-log scrub; nil when the product was derived
	// without the Transaction feature.
	Log *txn.LogVerifyReport
	// Tree is the B+-tree structure check (key order, subtree bounds,
	// entry count, leaf chain); nil when the index is not a B+-tree.
	// Pages whose trailers check out can still hold a broken tree.
	Tree *TreeReport
}

// TreeReport is the outcome of the B+-tree structure check.
type TreeReport struct {
	// Err is the first broken invariant; nil when the tree is sound.
	Err error
}

// Ok reports whether the tree is structurally sound.
func (r TreeReport) Ok() bool { return r.Err == nil }

// String renders the check for human output.
func (r TreeReport) String() string {
	if r.Err != nil {
		return "CORRUPT: " + r.Err.Error()
	}
	return "ok"
}

// Ok reports whether every scrubbed structure checked out clean.
func (r VerifyReport) Ok() bool {
	if r.Pages != nil && !r.Pages.Ok() {
		return false
	}
	if r.Log != nil && !r.Log.Ok() {
		return false
	}
	if r.Tree != nil && !r.Tree.Ok() {
		return false
	}
	return true
}

// String renders the report for human output.
func (r VerifyReport) String() string {
	parts := ""
	add := func(name, text string) {
		if parts != "" {
			parts += "\n"
		}
		parts += name + ": " + text
	}
	if r.Pages != nil {
		add("pages", r.Pages.String())
	}
	if r.Log != nil {
		add("log", r.Log.String())
	}
	if r.Tree != nil {
		add("tree", r.Tree.String())
	}
	if parts == "" {
		return "nothing to verify (no Checksums, no Transaction)"
	}
	return parts
}

// Verify scrubs the instance's persistent structures: every allocated
// page against its CRC trailer (feature Checksums), every journal
// frame against its record checksum (feature Transaction) and, on a
// B+-tree, the tree's structural invariants. A healthy instance
// flushes its cache first so the scrub sees the current image; a
// degraded one scrubs the last image the device accepted. Products
// with neither Checksums nor Transaction return access.ErrNotComposed.
func (i *Instance) Verify() (VerifyReport, error) {
	var rep VerifyReport
	if i.ck == nil && i.Txn == nil {
		return rep, fmt.Errorf("Verify: %w", access.ErrNotComposed)
	}
	if i.ck != nil {
		if !i.health.Degraded() {
			if err := i.pager.Sync(); err != nil {
				return rep, err
			}
		}
		pr, err := i.ck.Verify()
		if err != nil {
			return rep, err
		}
		rep.Pages = &pr
	}
	if i.Txn != nil {
		lr, err := i.Txn.VerifyLog()
		if err != nil {
			return rep, err
		}
		rep.Log = &lr
	}
	if bt, ok := i.Store.Index().(*index.BTree); ok {
		check := func() error { return bt.Tree().Verify() }
		var err error
		if i.Txn != nil {
			err = i.Txn.Read(check)
		} else {
			err = check()
		}
		rep.Tree = &TreeReport{Err: err}
	}
	return rep, nil
}

// Sync makes all state durable.
func (i *Instance) Sync() error {
	if i.Txn != nil {
		if err := i.Txn.Flush(); err != nil {
			return err
		}
	}
	return i.pager.Sync()
}

// Close flushes and closes the instance. A degraded instance closes
// without flushing: the device refuses writes, and nothing unflushed
// was ever acknowledged durable.
func (i *Instance) Close() error {
	if i.mon != nil {
		// Stop the sampler before tearing down the layers it reads.
		i.mon.Stop()
	}
	// Server sessions execute against the transaction manager: sever
	// them first. Then close the shipper so replication feeds drain.
	for _, s := range i.servers {
		s.Close()
	}
	i.servers = nil
	if i.shipper != nil {
		i.shipper.Close()
	}
	if i.Txn != nil {
		if err := i.Txn.Close(); err != nil {
			return err
		}
	}
	if i.health.Degraded() {
		// Skip the cache's write-back (it would just bounce off the
		// degraded gate) and release the file handle directly.
		return i.pf.Close()
	}
	return i.pager.Close()
}
