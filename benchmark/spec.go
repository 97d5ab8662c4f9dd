package main

import (
	"famedb/benchmark/load"
)

// Clients is fixed, not derived from the host: the baseline box has two
// cores, and a count that followed NumCPU would make reports from
// different hosts incomparable without saying so. It is recorded in env.
// embed_traced_kv alone runs one client (see its spec).
const Clients = 2

// Window is the pipeline depth of each wire client.
const Window = 16

// style is how a workload's clients reach the system.
type style int

const (
	wire   style = iota // server.Client over loopback TCP, pipelined
	kv                  // in-process Store calls
	sqlMix              // in-process SQL statements
)

// spec is one workload: the product, its size and its traffic.
type spec struct {
	name     string
	why      string
	style    style
	features []string
	// cachePages is the buffer pool size; records are sized against it.
	cachePages int
	// sorted loads the records in key order (a bulk-loaded tree).
	sorted bool
	// replica attaches one live replica on its own device.
	replica bool
	// handStack splits the tree's self time into btree, buffer and
	// storage on a stack assembled by hand over the product's page file.
	handStack bool
	// powerCut ends the run by abandoning the instance, cutting power
	// and timing the recompose.
	powerCut bool
	mix      load.Mix
	// warmOps is how many ops each client runs before the window; it is
	// a count, not a time, so that a faster system also sets up faster.
	warmOps int
	// clients is the number of closed-loop clients.
	clients int
	// setups is how many times an untraced run sets the workload up;
	// setup_s is their median. One where a single set-up takes seconds
	// of deterministic loading, three where it is short enough for the
	// scheduler to move it.
	setups int
}

// size scales a spec for the run mode.
type size struct {
	streamOps   int  // pre-generated ops per client
	tracedOps   int  // ops in the traced phase
	overheadOps int  // ops in each untraced comparison pass
	burstOps    int  // ops per client in each loaded burst (wire_put_repl1)
	oneSetup    bool // set up once whatever the spec says
}

var fullSize = size{streamOps: 1 << 20, tracedOps: 30000, overheadOps: 6000, burstOps: 8000}

// smokeSize is what the tests run: a tenth of the records, a 2k-op
// traced prefix, one set-up.
var smokeSize = size{streamOps: 1 << 16, tracedOps: 2000, overheadOps: 1000, burstOps: 1000, oneSetup: true}

var serverProduct = []string{
	"Linux", "BPlusTree", "BufferManager", "LRU", "DynamicAlloc",
	"Put", "Get", "Update", "Remove",
	"Transaction", "GroupCommit", "Locking", "Recovery",
	"Statistics", "Server",
}

var embedProduct = []string{
	"Linux", "BPlusTree", "BufferManager", "LRU", "DynamicAlloc",
	"ShardedBuffer", "Put", "Get", "Statistics",
}

func with(base []string, more ...string) []string {
	return append(append([]string{}, base...), more...)
}

// specs returns the workloads; smoke divides the record counts by ten.
// Names and order are normative (BENCHMARK.json lists the same five).
func specs(smoke bool) []*spec {
	div := uint32(1)
	if smoke {
		div = 10
	}
	return []*spec{
		{
			name:  "wire_ycsb_a",
			why:   "the full path: TCP server, group commit and WAL sync do the work, tree and buffer stay warm; 50/50 Get/Update, zipfian; ends in a power cut",
			style: wire, features: serverProduct, cachePages: 8192, powerCut: true,
			mix:     load.Mix{ReadPct: 50, Records: 100000 / div, Zipf: true},
			warmOps: 4000, setups: 3, clients: Clients,
		},
		{
			name:  "wire_put_repl1",
			why:   "replication: WAL shipping, replica apply and acks do the work; append-only puts with one live replica on its own device",
			style: wire, features: with(serverProduct, "Replication"), cachePages: 8192, replica: true,
			mix:     load.Mix{ReadPct: 5, Records: 2000 / div, Fresh: true, ReadBack: true},
			warmOps: 2000, setups: 3, clients: Clients,
		},
		{
			name:  "embed_scan_cold",
			why:   "larger than the cache: tree descent, buffer misses, evictions, write-backs and device reads do the work; no wire, no WAL",
			style: kv, features: embedProduct, cachePages: 1024 / int(div), sorted: true, handStack: true,
			mix:     load.Mix{ReadPct: 70, ScanPct: 25, Records: 400000 / div, MaxScan: 50, Fresh: true},
			warmOps: 10000, setups: 1, clients: Clients,
		},
		{
			name:  "embed_sql_mix",
			why:   "SQL parse, plan cache and execution do the work on a cache-resident table; prepared and text statements, ranges and updates",
			style: sqlMix, cachePages: 8192,
			features: with(embedProduct, "Update", "Optimizer", "SQLEngine", "CompiledQueries", "QueryStats"),
			mix:      load.Mix{ReadPct: 60, TextReadPct: 20, ScanPct: 20, Records: 50000 / div, MaxScan: 20},
			warmOps:  20000, setups: 3, clients: Clients,
		},
		{
			name:  "embed_traced_kv",
			why:   "the Tracing feature switched on does the work: spans on every layer of a cache-resident get/put mix; no other workload composes it",
			style: kv, features: with(embedProduct, "Tracing"), cachePages: 4096,
			mix: load.Mix{ReadPct: 90, Records: 50000 / div},
			// One client: two goroutines recording spans contend on a lock
			// inside runtime.Stack (the tracer reads its goroutine id from a
			// stack dump), and throughput then varies tenfold between runs
			// of one commit, which no bound can hold.
			warmOps: 4000, setups: 3, clients: 1,
		},
	}
}

func specByName(name string, smoke bool) *spec {
	for _, s := range specs(smoke) {
		if s.name == name {
			return s
		}
	}
	return nil
}

// metricDef is one named number of a report.
type metricDef struct {
	name, unit, better string
	// bound is the share by which the metric may get worse before
	// -compare calls it regressed: every end-to-end metric has one, and
	// so do the client.* per-layer metrics on the workloads that have them.
	bound float64
	// on says which workloads the metric applies to (nil: all). On the
	// others its layer is not part of the product and it reads 0.
	on func(*spec) bool
}

func (d metricDef) applies(sp *spec) bool { return d.on == nil || d.on(sp) }

func (sp *spec) has(feature string) bool {
	for _, f := range sp.features {
		if f == feature {
			return true
		}
	}
	return false
}

var (
	onWire     = func(sp *spec) bool { return sp.style == wire }
	onTxn      = func(sp *spec) bool { return sp.has("Transaction") }
	onReplica  = func(sp *spec) bool { return sp.replica }
	onSQL      = func(sp *spec) bool { return sp.style == sqlMix }
	onScans    = func(sp *spec) bool { return sp.mix.ScanPct > 0 }
	onStack    = func(sp *spec) bool { return sp.handStack }
	onTracing  = func(sp *spec) bool { return sp.has("Tracing") }
	onPowerCut = func(sp *spec) bool { return sp.powerCut }
	// onDevice: the window writes to the device steadily, through a WAL or
	// by evicting from a cache smaller than the data (the product the hand
	// stack splits). The cache-resident products without a log write a page
	// now and then, and device bytes per user byte is noise there.
	onDevice = func(sp *spec) bool { return sp.has("Transaction") || sp.handStack }
)

// e2eMetrics are reported by every workload with -trace 0. The contract
// this benchmark runs under wants one list for all workloads and no
// metric that can be zero, so the issue's per-workload metrics
// (scan_p50_us, scan_p99_us, write_amp, recovery_s) are per-layer
// metrics under client.* (where -compare holds them to a bound of their
// own on the workloads that have them), and failed_ops_ratio is the
// result line's failed/attempted.
//
// The bounds are about one and a half times the widest ten-seed spread (interquartile
// range over median) seen on the two-core baseline host, capped at the
// contract's 25%; baseline/repeatability.md has the spreads. The issue
// proposed 10% and 20%, which this host's run-to-run noise does not
// support: a single-threaded, deterministic loop varies by 10% here.
var e2eMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.20},
	{name: "read_p50_us", unit: "us", better: "lower", bound: 0.20},
	{name: "read_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "write_p50_us", unit: "us", better: "lower", bound: 0.20},
	{name: "write_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "space_amp", unit: "ratio", better: "lower", bound: 0.10},
}

// layerMetrics are reported by every workload with -trace 1; a metric
// that does not apply to the workload (see on) reads 0.
var layerMetrics = []metricDef{
	{name: "server.self_us_per_read", unit: "us", better: "lower", on: onWire},
	{name: "server.self_us_per_write", unit: "us", better: "lower", on: onWire},
	{name: "server.wire_bytes_per_op", unit: "B", better: "lower", on: onWire},
	{name: "txn.self_us_per_write", unit: "us", better: "lower", on: onTxn},
	{name: "txn.self_us_per_read", unit: "us", better: "lower", on: onTxn},
	{name: "txn.commit_batch_mean", unit: "count", better: "higher", on: onTxn},
	{name: "txn.wal_syncs_per_kcommit", unit: "count", better: "lower", on: onTxn},
	{name: "txn.wal_bytes_per_commit", unit: "B", better: "lower", on: onTxn},
	{name: "txn.commit_stall_p50_us", unit: "us", better: "lower", on: onTxn},
	{name: "txn.redo_records_per_s", unit: "1/s", better: "higher", on: onPowerCut},
	{name: "txn.lost_in_durability_window", unit: "count", better: "lower", on: onPowerCut},
	{name: "repl.self_us_per_write", unit: "us", better: "lower", on: onReplica},
	{name: "repl.shipped_chunks_per_commit", unit: "ratio", better: "lower", on: onReplica},
	{name: "repl.acks_per_chunk", unit: "ratio", better: "lower", on: onReplica},
	{name: "repl.drops", unit: "count", better: "lower", on: onReplica},
	{name: "repl.snapshot_resyncs", unit: "count", better: "lower", on: onReplica},
	{name: "repl.max_lag_bytes", unit: "B", better: "lower", on: onReplica},
	{name: "repl.converge_ms", unit: "ms", better: "lower", on: onReplica},
	{name: "sql.self_us_per_select", unit: "us", better: "lower", on: onSQL},
	{name: "sql.self_us_per_update", unit: "us", better: "lower", on: onSQL},
	{name: "sql.parse_plan_us_per_stmt", unit: "us", better: "lower", on: onSQL},
	{name: "sql.plan_cache_hit_ratio", unit: "ratio", better: "higher", on: onSQL},
	{name: "sql.rows_examined_per_row", unit: "ratio", better: "lower", on: onSQL},
	{name: "access.self_us_per_op", unit: "us", better: "lower"},
	{name: "btree.self_us_per_get", unit: "us", better: "lower"},
	{name: "btree.self_us_per_scan", unit: "us", better: "lower", on: onScans},
	{name: "btree.pages_per_lookup", unit: "count", better: "lower"},
	{name: "btree.height", unit: "count", better: "lower"},
	{name: "btree.splits_per_kwrite", unit: "count", better: "lower"},
	{name: "buffer.hit_ratio", unit: "ratio", better: "higher"},
	{name: "buffer.evictions_per_kop", unit: "count", better: "lower"},
	{name: "buffer.write_backs_per_kop", unit: "count", better: "lower"},
	{name: "buffer.self_us_per_page", unit: "us", better: "lower", on: onStack},
	{name: "storage.page_reads_per_op", unit: "count", better: "lower"},
	{name: "storage.page_writes_per_op", unit: "count", better: "lower"},
	{name: "storage.self_us_per_page", unit: "us", better: "lower", on: onStack},
	{name: "osal.reads_per_op", unit: "count", better: "lower"},
	{name: "osal.writes_per_op", unit: "count", better: "lower"},
	{name: "osal.syncs_per_kop", unit: "count", better: "lower"},
	{name: "osal.bytes_written_per_op", unit: "B", better: "lower"},
	{name: "osal.busy_us_per_op", unit: "us", better: "lower"},
	{name: "osal.wal_sync_us_per_write", unit: "us", better: "lower", on: onTxn},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower", on: onTracing},
	{name: "trace.spans_per_op", unit: "count", better: "lower", on: onTracing},
	{name: "trace.dropped_spans", unit: "count", better: "lower", on: onTracing},
	{name: "runtime.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "runtime.allocs_per_op", unit: "count", better: "lower"},
	{name: "runtime.alloc_bytes_per_op", unit: "B", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "runtime.heap_inuse_peak_mb", unit: "MB", better: "lower"},
	{name: "footprint.rom_kb", unit: "KB", better: "lower"},
	{name: "footprint.ram_kb", unit: "KB", better: "lower"},
	{name: "harness.tracing_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "harness.min_layer_self_us", unit: "us", better: "higher"},
	{name: "harness.generator_idle_ratio", unit: "ratio", better: "lower"},
	{name: "client.scan_p50_us", unit: "us", better: "lower", bound: 0.20, on: onScans},
	{name: "client.scan_p99_us", unit: "us", better: "lower", bound: 0.25, on: onScans},
	{name: "client.write_amp", unit: "ratio", better: "lower", bound: 0.10, on: onDevice},
	{name: "client.recovery_s", unit: "s", better: "lower", bound: 0.25, on: onPowerCut},
}
