package core

// FAMEModel builds the FAME-DBMS prototype feature model of Figure 2 of
// the paper. The decomposition follows the paper's mixed-granularity
// rule (Sec. 2.3): fine-grained where deeply embedded systems need
// variability (index operations, access operations, buffer replacement,
// memory allocation, OS abstraction) and coarse-grained for features
// used only on larger systems (Transaction, Optimizer, SQL engine).
//
// Feature names are the identifiers the rest of the repository keys on:
// the composer maps them to engine modules, the footprint model to ROM
// costs, and the analysis tool to model queries.
func FAMEModel() *Model {
	m := NewModel("FAME-DBMS")
	root := m.Root()

	// OS abstraction: exactly one platform target.
	osa := root.AddAbstract("OSAbstraction", Mandatory)
	osa.Description = "platform abstraction for storage and timing"
	for _, name := range []string{"Linux", "Win32", "NutOS"} {
		osa.AddChild(name, Alternative)
	}

	// Storage: index structures and data types.
	st := root.AddAbstract("Storage", Mandatory)
	st.Description = "persistent storage management"
	idx := st.AddAbstract("Index", Mandatory)
	bt := idx.AddChild("BPlusTree", Alternative)
	bt.Description = "paged B+-tree index"
	// Fine-grained decomposition of the B+-tree per Fig. 2: search is
	// the base operation; update and remove are separately selectable
	// increments (Leich et al., step-wise refined storage manager).
	bt.AddChild("BTreeSearch", Mandatory)
	bt.AddChild("BTreeUpdate", Optional)
	bt.AddChild("BTreeRemove", Optional)
	li := idx.AddChild("ListIndex", Alternative)
	li.Description = "unordered list (heap) index for tiny data sets"
	dt := st.AddChild("DataTypes", Mandatory)
	dt.Description = "ordered key encodings and value serialization"
	// Checksums is the storage half of the fault-survival concern: CRC32
	// page trailers verified on every read and a scrub pass, so torn
	// writes and bit rot surface as typed corruption instead of garbage.
	ck := st.AddChild("Checksums", Optional)
	ck.Description = "CRC32 page trailers verified on read, plus the verify scrub pass"

	// Buffer manager: optional as a whole; when present it has exactly
	// one replacement policy and exactly one allocation strategy.
	bm := root.AddAbstract("BufferManager", Optional)
	bm.Description = "page cache between index and storage device"
	rep := bm.AddAbstract("Replacement", Mandatory)
	rep.AddChild("LRU", Alternative)
	rep.AddChild("LFU", Alternative)
	al := bm.AddAbstract("MemoryAlloc", Mandatory)
	al.AddChild("DynamicAlloc", Alternative)
	al.AddChild("StaticAlloc", Alternative)
	sb := bm.AddChild("ShardedBuffer", Optional)
	sb.Description = "lock-striped page cache for multi-core hosts"

	// Access: the low-level record API; at least one operation.
	ac := root.AddAbstract("Access", Mandatory)
	ac.Description = "record access operations"
	for _, name := range []string{"Put", "Get", "Remove", "Update"} {
		ac.AddChild(name, OrGroup)
	}

	// Transaction: coarse-grained, with alternative commit protocols
	// (Sec. 2.3: "decomposed into a small number of features (e.g.,
	// alternative commit protocols)").
	tx := root.AddChild("Transaction", Optional)
	tx.Description = "atomic multi-operation units with write-ahead logging"
	cp := tx.AddAbstract("CommitProtocol", Mandatory)
	cp.AddChild("ForceCommit", Alternative)
	cp.AddChild("GroupCommit", Alternative)
	rc := tx.AddChild("Recovery", Optional)
	rc.Description = "redo recovery from the write-ahead log after a crash"
	lk := tx.AddChild("Locking", Optional)
	lk.Description = "thread-safe transactions and the group-commit pipeline"
	// MVCC trades space for read concurrency: copy-on-write B+-tree
	// mutations, a version table of committed roots, and snapshot
	// transactions that read a pinned root without any locking.
	mv := tx.AddChild("MVCC", Optional)
	mv.Description = "snapshot reads over copy-on-write roots with epoch reclamation"

	// Optimizer and query API.
	opt := root.AddChild("Optimizer", Optional)
	opt.Description = "access-path selection for the SQL engine"
	// Statistics is a cross-cutting concern turned optional feature
	// (Sec. 2.3): when selected, every composed layer records counters
	// and latency histograms into a shared registry; when deselected the
	// instrumentation is absent from the product.
	stats := root.AddChild("Statistics", Optional)
	stats.Description = "runtime metrics: counters and latency histograms across all layers"
	// Tracing is the second cross-cutting observability feature: spans
	// with parent links across every composed layer, recorded into a
	// fixed-capacity ring with a slow-operation log. Like Statistics it
	// is woven through all layers at composition time and entirely absent
	// when deselected.
	tr := root.AddChild("Tracing", Optional)
	tr.Description = "per-operation spans: ring-buffer recorder and slow-op log across all layers"
	// Monitor is the live-observation feature: a sampler goroutine over
	// the Statistics registry (windowed rates and quantiles from
	// snapshot deltas), a threshold watchdog with a bounded event log,
	// and an HTTP telemetry endpoint. It observes; it never measures on
	// its own — hence the Statistics requirement below.
	mon := root.AddChild("Monitor", Optional)
	mon.Description = "live monitoring: windowed sampler, health watchdog, and HTTP telemetry endpoint"
	// Replication ships every durable WAL append to attached replicas
	// (in-process feeds or network sessions) and heals diverged or
	// lagging replicas with prefix-CRC handshakes, incremental catch-up,
	// and full snapshot resync.
	rp := root.AddChild("Replication", Optional)
	rp.Description = "WAL shipping to read replicas with catch-up and snapshot resync"
	api := root.AddAbstract("API", Mandatory)
	// Server is the network front end: a TCP listener whose client
	// sessions pipeline commands into transactions and whose replication
	// sessions stream shipped WAL frames.
	sv := api.AddChild("Server", Optional)
	sv.Description = "TCP server: pipelined client protocol and WAL-shipping replication sessions"
	sql := api.AddChild("SQLEngine", Optional)
	sql.Description = "declarative query interface"
	// CompiledQueries trades ROM for statement latency: prepared
	// statements whose plans compile once into chained closures
	// (predicates, projection, access path fused per table schema), plus
	// a bounded shape-keyed plan cache for the unprepared Exec path.
	cq := sql.AddChild("CompiledQueries", Optional)
	cq.Description = "prepared statements, closure-compiled plans, and a bounded plan cache"
	// QueryStats makes execution observable per statement shape:
	// EXPLAIN/EXPLAIN ANALYZE, a bounded per-shape profile registry and
	// a slow-query ring. It accumulates into the Statistics registry —
	// hence the requirement below.
	qs := sql.AddChild("QueryStats", Optional)
	qs.Description = "EXPLAIN/ANALYZE, per-shape statement profiles, and a slow-query log"

	// Cross-tree constraints. These encode domain knowledge and drive
	// decision propagation (Sec. 3.1).
	m.Require("Optimizer", "SQLEngine")
	m.AddConstraint(Implies(Ref("SQLEngine"), And(Ref("Put"), Ref("Get"))))
	m.AddConstraint(Implies(And(Ref("BPlusTree"), Ref("Update")), Ref("BTreeUpdate")))
	m.AddConstraint(Implies(And(Ref("BPlusTree"), Ref("Remove")), Ref("BTreeRemove")))
	m.AddConstraint(Implies(Ref("Transaction"), And(Ref("BufferManager"), Ref("Put"))))
	// Sharing one sync across committers only makes sense when several
	// threads commit at once: the pipeline needs the Locking feature.
	m.AddConstraint(Implies(Ref("GroupCommit"), Ref("Locking")))
	// Snapshot reads pay off only against concurrent committers, and the
	// root install happens inside the commit pipeline's apply step, so
	// MVCC needs the Locking feature. It also needs the paged B+-tree:
	// only a page-structured index can shadow its mutation path (the
	// heap-backed ListIndex updates records in place).
	m.AddConstraint(Implies(Ref("MVCC"), Ref("Locking")))
	m.AddConstraint(Implies(Ref("MVCC"), Ref("BPlusTree")))
	// Deeply embedded NutOS nodes: no dynamic allocation, no SQL, and —
	// being single-threaded — no lock-striped buffer pool, no commit
	// pipeline (they keep ForceCommit).
	m.AddConstraint(Implies(And(Ref("NutOS"), Ref("BufferManager")), Ref("StaticAlloc")))
	m.AddConstraint(Implies(Ref("NutOS"), Not(Ref("SQLEngine"))))
	m.AddConstraint(Implies(Ref("NutOS"), Not(Ref("ShardedBuffer"))))
	m.AddConstraint(Implies(Ref("NutOS"), Not(Ref("GroupCommit"))))
	// The span recorder's preallocated ring and goroutine-local parenting
	// are far beyond a deeply embedded node's RAM and threading model.
	m.AddConstraint(Implies(Ref("NutOS"), Not(Ref("Tracing"))))
	// The monitor samples the Statistics registry: without the counters
	// there is nothing to window or watch.
	m.Require("Monitor", "Statistics")
	// Query profiles are histograms and counters; they live in the
	// Statistics registry and are exported through its snapshots.
	m.Require("QueryStats", "Statistics")
	// A sampler goroutine, an HTTP server, and a sample ring have no
	// place on a deeply embedded NutOS node.
	m.AddConstraint(Implies(Ref("NutOS"), Not(Ref("Monitor"))))
	// NutOS nodes use tiny 512-byte pages where a 4-byte trailer per page
	// plus a CRC per I/O is disproportionate; their flash controllers do
	// ECC in hardware.
	m.AddConstraint(Implies(Ref("NutOS"), Not(Ref("Checksums"))))
	// Retaining whole superseded tree versions for concurrent readers is
	// a multi-core, memory-rich trade — a single-threaded NutOS node has
	// neither the readers nor the pages to spare.
	m.AddConstraint(Implies(Ref("NutOS"), Not(Ref("MVCC"))))
	// Closure-compiled plans and a resident plan cache are pure
	// ROM-and-RAM-for-latency trades; a NutOS node has no room for either
	// (and no SQL engine to compile for — stated explicitly so the
	// contradiction surfaces directly, not only via the parent).
	m.AddConstraint(Implies(Ref("NutOS"), Not(Ref("CompiledQueries"))))
	// Per-shape profile maps, latency histograms and a slow-query ring
	// are RAM-resident observability — nothing a NutOS node can afford
	// (and it has no SQL engine to observe; stated explicitly like
	// CompiledQueries above).
	m.AddConstraint(Implies(Ref("NutOS"), Not(Ref("QueryStats"))))
	// The server executes every wire command through the transaction
	// manager — writes as auto-commit transactions through the WAL,
	// reads under its lock — and serves concurrent connections, so it
	// needs the Locking feature too. It writes over the wire, so Put must be composed.
	m.AddConstraint(Implies(Ref("Server"), And(Ref("Transaction"), Ref("Locking"), Ref("Put"))))
	// Shipping replays the redo log: there must be one (Transaction)
	// and the replica applies chunks through the same redo machinery
	// recovery uses, so Recovery must be composed as well.
	m.AddConstraint(Implies(Ref("Replication"), And(Ref("Transaction"), Ref("Recovery"))))
	// Snapshot resync wipes and rebuilds the replica's index, which on a
	// B+-tree needs the delete increment.
	m.AddConstraint(Implies(And(Ref("Replication"), Ref("BPlusTree")), Ref("BTreeRemove")))
	// A TCP listener with goroutine-per-connection sessions, and a WAL
	// shipping pipeline with per-replica feeds, are both far outside a
	// deeply embedded NutOS node's threading model and RAM budget.
	m.AddConstraint(Implies(Ref("NutOS"), Not(Ref("Server"))))
	m.AddConstraint(Implies(Ref("NutOS"), Not(Ref("Replication"))))

	if err := m.Finalize(); err != nil {
		panic("core: FAME model is inconsistent: " + err.Error())
	}
	return m
}

// NamedProduct is a named feature selection of a model, used for the
// representative products in the experiments.
type NamedProduct struct {
	Name     string
	Features []string
	// Note documents what the product corresponds to in the paper.
	Note string
}

// FAMEProducts returns representative products of the FAME-DBMS model
// used by experiment E4: a deeply embedded sensor node, a mid-size
// device, and a full-featured instance.
func FAMEProducts() []NamedProduct {
	return []NamedProduct{
		{
			Name:     "sensor-node",
			Features: []string{"NutOS", "ListIndex", "Put", "Get"},
			Note:     "smart-dust style data logger: tiniest useful product",
		},
		{
			Name: "embedded-device",
			Features: []string{
				"NutOS", "BPlusTree", "BTreeRemove",
				"BufferManager", "LRU", "StaticAlloc",
				"Put", "Get", "Remove",
			},
			Note: "mid-size control unit with an indexed store",
		},
		{
			Name: "calendar-app",
			Features: []string{
				"Linux", "BPlusTree", "BTreeUpdate", "BTreeRemove",
				"BufferManager", "LRU", "DynamicAlloc",
				"Put", "Get", "Remove", "Update",
				"Transaction", "ForceCommit", "Recovery", "Locking",
				"SQLEngine",
			},
			Note: "the paper's personal calendar application scenario",
		},
		{
			Name: "full",
			Features: []string{
				"Linux", "BPlusTree", "BTreeUpdate", "BTreeRemove", "Checksums",
				"BufferManager", "LFU", "DynamicAlloc", "ShardedBuffer",
				"Put", "Get", "Remove", "Update",
				"Transaction", "GroupCommit", "Recovery", "Locking", "MVCC",
				"Replication", "Server",
				"Optimizer", "SQLEngine", "CompiledQueries", "QueryStats",
				"Statistics", "Tracing", "Monitor",
			},
			Note: "everything selected: the largest product",
		},
	}
}
