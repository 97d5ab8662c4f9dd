package bench

// The feedback table: one row per priced feature. Each row fixes its
// workload, its device model, its sweep, and the cell it feeds to the
// NFP store; the driver (scenario.go) and Price (price.go) do the rest.

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"famedb/internal/buffer"
	"famedb/internal/composer"
	"famedb/internal/core"
	"famedb/internal/monitor"
	"famedb/internal/nfp"
	"famedb/internal/osal"
	"famedb/internal/repl"
	"famedb/internal/server"
	"famedb/internal/sql"
	"famedb/internal/stats"
	"famedb/internal/storage"
	"famedb/internal/trace"
	"famedb/internal/types"
)

// scenarioRows is the table, in report order: each row's id, the
// divisor scaling fame-bench's -ops to its per-cell operation count, and
// its constructor.
var scenarioRows = []struct {
	id    string
	scale int
	build func(ops int) Scenario
}{
	{"B1", 4, b1}, {"B2", 4, b2}, {"B3", 40, b3}, {"B4", 4, b4}, {"B5", 4, b5},
	{"B6", 4, b6}, {"B7", 4, b7}, {"B8", 4, b8}, {"B9", 4, b9}, {"B10", 8, b10},
}

// product is the B+-tree key/value product every row builds on, plus
// the row's own features.
func product(extra ...string) []string {
	return append([]string{"Linux", "BPlusTree", "BufferManager", "LRU", "DynamicAlloc", "Put", "Get"}, extra...)
}

// plus is a product with one more feature, as a slice of its own.
func plus(base []string, feature string) []string {
	return append(append([]string(nil), base...), feature)
}

// withWithout is the common comparison: the same product without and
// with the priced feature.
func withWithout(off, on string, base []string, feature string) []Variant {
	return []Variant{
		{Name: off, Features: base},
		{Name: on, Features: plus(base, feature), With: true},
	}
}

// ---------------------------------------------------------------------
// B1: the Statistics feature — instrumented products.

// withStatistics returns the feature list with Statistics selected.
func withStatistics(features []string) []string {
	for _, f := range features {
		if f == "Statistics" {
			return features
		}
	}
	return plus(features, "Statistics")
}

// b1 measures the representative FAME products with the Statistics
// feature composed and records throughput, latency quantiles and
// footprint into the NFP store. Every measured product carries
// Statistics, so the fit cannot tell its weight from the intercept
// (it comes out near zero and the deriver leaves it out); what the row
// shows is the loop running on instrumented measurements of whole
// products, and the ROM price of the instrumentation.
func b1(ops int) Scenario {
	var variants []Variant
	for _, p := range core.FAMEProducts() {
		variants = append(variants, Variant{Name: p.Name, Features: withStatistics(p.Features), With: true})
	}
	return Scenario{
		Title:    "Statistics: instrumented products and the measured-NFP loop (9:1 get/put)",
		Feature:  "Statistics",
		Property: nfp.LatencyP50,
		Required: []string{"Put", "Get"},
		Config: map[string]float64{
			"ops_per_point": float64(ops),
			"seed":          benchSeed,
		},
		VariantLabel: "product",
		Metrics: []string{"ops_per_sec", "get_p50_ns", "get_p99_ns", "put_p50_ns", "put_p99_ns",
			"buffer_hit_rate", "wal_syncs", "rom_bytes", "ram_bytes"},
		Variants: variants,
		Sweep:    []Position{{Workers: 1}},
		Run: func(c Cell) (Metrics, error) {
			inst, elapsed, err := runMix(c.Variant.Features, ops, benchSeed)
			if err != nil {
				return nil, err
			}
			defer inst.Close()
			snap, err := inst.Stats()
			if err != nil {
				return nil, err
			}
			rom, err := inst.ROM()
			if err != nil {
				return nil, err
			}
			m := Metrics{
				"ops_per_sec":     perSecond(ops, elapsed),
				"buffer_hit_rate": 0,
				"wal_syncs":       float64(snap.Txn.WalSyncs),
				"rom_bytes":       float64(rom),
				"ram_bytes":       float64(inst.RAM()),
			}
			accessLatency(m, snap)
			if total := snap.Buffer.Hits + snap.Buffer.Misses; total > 0 {
				m["buffer_hit_rate"] = float64(snap.Buffer.Hits) / float64(total)
			}
			return m, nil
		},
		Feed: func(_ Cell, m Metrics) map[nfp.Property]float64 {
			return map[nfp.Property]float64{
				nfp.ROM:        m["rom_bytes"],
				nfp.RAM:        m["ram_bytes"],
				nfp.Throughput: m["ops_per_sec"],
				nfp.LatencyP50: m["get_p50_ns"],
				nfp.LatencyP99: m["get_p99_ns"],
			}
		},
	}
}

// StatsDump runs the standard mix over the full product with Statistics
// composed and returns the Prometheus text exposition of its metrics
// (the fame-bench -stats flag).
func StatsDump(n int) (string, error) {
	products := core.FAMEProducts()
	inst, _, err := runMix(withStatistics(products[len(products)-1].Features), n, benchSeed)
	if err != nil {
		return "", err
	}
	defer inst.Close()
	snap, err := inst.Stats()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if err := snap.WritePrometheus(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// ---------------------------------------------------------------------
// B2: the ShardedBuffer feature under concurrent traffic.
//
// The one-shard pool and the striped pool run the same workload —
// parallel get/put page mixes at 1, 4 and 16 goroutines over a
// cache-hit-heavy working set — while a background checkpointer flushes
// the pool on a fixed cadence and the base pager charges a flash-style
// latency per physical page I/O. Both flush alike (the latch is
// released around each page write), so the only difference is how many
// latches the traffic spreads over. The resulting throughput delta is
// what the feature buys, and it is fed to the NFP store so the greedy
// deriver selects ShardedBuffer from measurements rather than from
// folklore — or leaves it out when striping buys nothing.

// delayPager wraps a Pager and charges a fixed latency per physical
// page read/write — a flash device model. The sleep happens in the
// wrapper, outside the base pager's own mutex, so independent I/Os
// overlap like requests queued on a real device.
type delayPager struct {
	base  storage.Pager
	read  time.Duration
	write time.Duration
}

func (d *delayPager) PageSize() int                  { return d.base.PageSize() }
func (d *delayPager) Alloc() (storage.PageID, error) { return d.base.Alloc() }
func (d *delayPager) Free(id storage.PageID) error   { return d.base.Free(id) }
func (d *delayPager) Sync() error                    { return d.base.Sync() }
func (d *delayPager) Close() error                   { return d.base.Close() }

func (d *delayPager) ReadPage(id storage.PageID, buf []byte) error {
	time.Sleep(d.read)
	return d.base.ReadPage(id, buf)
}

func (d *delayPager) WritePage(id storage.PageID, buf []byte) error {
	time.Sleep(d.write)
	return d.base.WritePage(id, buf)
}

// The B2 device and pool: a NAND flash model (reads ~50us, page
// programs ~200us) under b2Checkpoints checkpoints per cell, triggered
// by operation count so that a slower pool pays no extra flushes. The
// capacity exceeds
// the working set so the steady state is pure cache hits for both pools
// — what separates them is the stripe count: one latch for every page,
// or b2Shards latches. Both flush the same way, releasing the latch
// around each page write.
const (
	b2Pages      = 64  // hot working set, pages
	b2CachePages = 256 // pool capacity (>= b2Pages: hit-heavy)
	b2Shards     = 16  // stripe count for the sharded pool
	b2WriteFrac  = 10  // writes per 100 operations
	b2ReadDelay  = 50 * time.Microsecond
	b2WriteDelay = 200 * time.Microsecond
	// b2Checkpoints is how many Syncs each cell pays, spread evenly
	// through its operations: one, the fewest that puts a write-back
	// pass of the dirty working set beside the traffic in every cell.
	b2Checkpoints = 1
)

// b2Pool builds one of the two pools over a fresh delayed page file and
// returns the manager plus the working set's page IDs, prewritten and
// warmed into the cache.
func b2Pool(sharded bool) (*buffer.Manager, []storage.PageID, error) {
	f, err := osal.NewMemFS().Create("b2.db")
	if err != nil {
		return nil, nil, err
	}
	pf, err := storage.CreatePageFile(f, 4096)
	if err != nil {
		return nil, nil, err
	}
	ids := make([]storage.PageID, b2Pages)
	page := make([]byte, pf.PageSize())
	for i := range ids {
		if ids[i], err = pf.Alloc(); err != nil {
			return nil, nil, err
		}
		page[0] = byte(i)
		if err := pf.WritePage(ids[i], page); err != nil {
			return nil, nil, err
		}
	}
	base := &delayPager{base: pf, read: b2ReadDelay, write: b2WriteDelay}
	shards := 1
	if sharded {
		shards = b2Shards
	}
	mgr, err := buffer.NewSharded(base, b2CachePages, shards,
		func() buffer.Policy { return buffer.NewLRU() },
		func(frames int) (buffer.Allocator, error) {
			return buffer.NewDynamicAllocator(4096), nil
		})
	if err != nil {
		return nil, nil, err
	}
	// Warm the cache so the measured phase is hit-heavy.
	for _, id := range ids {
		if err := mgr.ReadPage(id, page); err != nil {
			return nil, nil, err
		}
	}
	return mgr, ids, nil
}

// b2 drives the buffer pool directly rather than through a composed
// product: the B+-tree has no internal latching without the Locking
// feature, so concurrent puts through the access layer would race above
// the pool being measured.
func b2(ops int) Scenario {
	return Scenario{
		Title:    "ShardedBuffer: concurrent get/put under checkpointing on a delayed pager",
		Feature:  "ShardedBuffer",
		Property: nfp.LatencyP50,
		Required: []string{"Put", "Get", "BufferManager", "Linux"},
		Config: map[string]float64{
			"ops_per_point":         float64(ops),
			"seed":                  benchSeed,
			"pages":                 b2Pages,
			"cache_pages":           b2CachePages,
			"shards":                b2Shards,
			"write_pct":             b2WriteFrac,
			"read_delay_us":         float64(b2ReadDelay / time.Microsecond),
			"write_delay_us":        float64(b2WriteDelay / time.Microsecond),
			"checkpoints_per_point": b2Checkpoints,
		},
		VariantLabel: "pool",
		SweepLabels:  []string{"goroutines"},
		Metrics:      []string{"ops_per_sec", "hit_rate", "evictions", "write_backs", "checkpoints"},
		Compare:      []string{"ops_per_sec"},
		Variants:     withWithout("single-latch", "sharded", product(), "ShardedBuffer"),
		Sweep:        goroutineSweep,
		Run: func(c Cell) (Metrics, error) {
			mgr, ids, err := b2Pool(c.Variant.With)
			if err != nil {
				return nil, err
			}
			warm := mgr.Stats()

			// The worker whose operation completes each step-th
			// operation of the cell calls Sync inline, beside the other
			// workers' traffic, so every cell pays the same flushes.
			step := int64(max(1, ops/(b2Checkpoints+1)))
			var completed, ckpts atomic.Int64
			checkpoint := func() error {
				if n := completed.Add(1); n%step != 0 || n/step > b2Checkpoints {
					return nil
				}
				ckpts.Add(1)
				return mgr.Sync()
			}
			elapsed, err := fanOut(c.Pos.Workers, ops, func(w, n int) error {
				rng := rand.New(rand.NewSource(benchSeed + int64(w)))
				buf := make([]byte, mgr.PageSize())
				for i := 0; i < n; i++ {
					id := ids[rng.Intn(len(ids))]
					if rng.Intn(100) < b2WriteFrac {
						buf[1] = byte(i)
						if err := mgr.WritePage(id, buf); err != nil {
							return err
						}
					} else if err := mgr.ReadPage(id, buf); err != nil {
						return err
					}
					if err := checkpoint(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			st := mgr.Stats()
			if err := mgr.Close(); err != nil {
				return nil, err
			}
			m := Metrics{
				"ops_per_sec": perSecond(ops, elapsed),
				"hit_rate":    0,
				"evictions":   float64(st.Evictions),
				"write_backs": float64(st.WriteBacks),
				"checkpoints": float64(ckpts.Load()),
			}
			hits, misses := st.Hits-warm.Hits, st.Misses-warm.Misses
			if hits+misses > 0 {
				m["hit_rate"] = float64(hits) / float64(hits+misses)
			}
			return m, nil
		},
		Feed: func(c Cell, m Metrics) map[nfp.Property]float64 {
			if c.Pos.Workers != 16 {
				return nil
			}
			// Mean per-op latency with g workers in flight is
			// g/throughput — the property the deriver minimizes.
			return map[nfp.Property]float64{
				nfp.Throughput: m["ops_per_sec"],
				nfp.LatencyP50: float64(c.Pos.Workers) / m["ops_per_sec"] * 1e9,
			}
		},
	}
}

// ---------------------------------------------------------------------
// B3: the GroupCommit feature under concurrent committers.
//
// Two transactional products — ForceCommit and GroupCommit — run the
// same commit-heavy workload at 1, 4 and 16 committer goroutines over a
// delayed-sync device (osal.DelayFS charges a flash-style latency per
// WriteAt and a much larger one per Sync). ForceCommit pays one sync
// per transaction, so its throughput is pinned at 1/syncLatency no
// matter how many committers queue up. The group-commit pipeline lets
// the leader coalesce every staged transaction into ONE WriteAt and ONE
// Sync, so syncs grow sublinearly in commits and throughput scales with
// the batch size. The 16-committer measurements are fed to the NFP
// store so the greedy deriver re-derives GroupCommit from the
// measurements alone.
func b3(ops int) Scenario {
	ops = atLeast(ops, 512)
	// A managed-NAND device: page program ~20us, flush barrier ~400us.
	const (
		groupBatch = 16
		writeDelay = 20 * time.Microsecond
		syncDelay  = 400 * time.Microsecond
	)
	value := payload(64)
	// Both products carry Locking (ForceCommit rides the pipeline as the
	// degenerate one-transaction batch), so the fitted delta isolates the
	// protocol.
	base := product("Transaction", "Locking", "Statistics")
	return Scenario{
		Title:    "GroupCommit: pipelined commits on a delayed-sync device",
		Feature:  "GroupCommit",
		Property: nfp.LatencyP50,
		Required: []string{"Put", "Get", "BufferManager", "Linux", "Transaction"},
		Config: map[string]float64{
			"ops_per_point":  float64(ops),
			"group_batch":    groupBatch,
			"value_bytes":    float64(len(value)),
			"write_delay_us": float64(writeDelay / time.Microsecond),
			"sync_delay_us":  float64(syncDelay / time.Microsecond),
		},
		VariantLabel: "protocol",
		SweepLabels:  []string{"committers"},
		Metrics:      []string{"commits_per_sec", "log_syncs", "syncs_per_commit", "batch_mean", "batch_p99", "stall_p99_us"},
		Compare:      []string{"commits_per_sec"},
		Variants: []Variant{
			{Name: "ForceCommit", Features: plus(base, "ForceCommit")},
			{Name: "GroupCommit", Features: plus(base, "GroupCommit"), With: true},
		},
		Sweep: goroutineSweep,
		Run: func(c Cell) (Metrics, error) {
			fs := osal.NewDelayFS(osal.NewMemFS(), writeDelay, syncDelay)
			inst, err := composer.ComposeProduct(
				composer.Options{FS: fs, GroupCommitBatch: groupBatch}, c.Variant.Features...)
			if err != nil {
				return nil, err
			}
			defer inst.Close()
			elapsed, err := fanOut(c.Pos.Workers, ops, func(w, n int) error {
				for i := 0; i < n; i++ {
					tx := inst.Txn.Begin()
					if err := tx.Put([]byte(fmt.Sprintf("w%02d-k%07d", w, i)), value); err != nil {
						return err
					}
					if err := tx.Commit(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			snap, err := inst.Stats()
			if err != nil {
				return nil, err
			}
			// log_syncs is the durable-sync count for the whole point; the
			// sublinearity claim is log_syncs << commits under GroupCommit.
			syncs := float64(inst.Txn.LogSyncs())
			return Metrics{
				"commits_per_sec":  perSecond(ops, elapsed),
				"log_syncs":        syncs,
				"syncs_per_commit": syncs / float64(ops),
				"batch_mean":       snap.Txn.CommitBatch.Mean(),
				"batch_p99":        snap.Txn.CommitBatch.P99(),
				// How long a follower waited on its group-commit leader.
				"stall_p99_us": snap.Txn.CommitStall.P99() / 1e3,
			}, nil
		},
		Feed: func(c Cell, m Metrics) map[nfp.Property]float64 {
			if c.Pos.Workers != 16 {
				return nil
			}
			// Mean commit latency with g committers in flight is
			// g/throughput — the property the deriver minimizes.
			return map[nfp.Property]float64{
				nfp.CommitThroughput: m["commits_per_sec"],
				nfp.LatencyP50:       float64(c.Pos.Workers) / m["commits_per_sec"] * 1e9,
			}
		},
	}
}

// ---------------------------------------------------------------------
// B4: the Tracing feature's overhead.
//
// Two otherwise identical products — with and without the Tracing
// feature — run the same workload at 1, 4 and 16 goroutines over an
// in-memory device: a sequential instrumented put load, then a timed
// concurrent get phase, so every nanosecond of span bookkeeping shows
// up in the measured throughput and latency quantiles instead of
// hiding behind I/O. The traced points also report the span ring's
// gauges (occupancy, recorded, dropped) via the Statistics bridge.
//
// The 16-goroutine measurements close the paper's feedback loop the
// unflattering way round: Tracing's fitted latency weight is positive,
// so the greedy deriver minimizing measured latency EXCLUDES it — and
// under a ROM budget tight enough for the base product alone, requiring
// Tracing makes derivation infeasible. Observability is a feature you
// pay for, and the NFP machinery prices it.
func b4(ops int) Scenario {
	ops = atLeast(ops, 2048)
	const traceSpans = trace.Capacity // ring capacity of the traced product
	keys := atLeast(ops/8, 256)
	value := payload(64)
	return Scenario{
		Title:    "Tracing: span-recording overhead, in-memory load + concurrent gets",
		Feature:  "Tracing",
		Property: nfp.LatencyP50,
		Required: []string{"Linux", "BPlusTree", "Put", "Get"},
		Config: map[string]float64{
			"ops_per_point": float64(ops),
			"keys":          float64(keys),
			"value_bytes":   float64(len(value)),
			"trace_spans":   traceSpans,
		},
		VariantLabel: "tracing",
		SweepLabels:  []string{"goroutines"},
		Metrics: []string{"ops_per_sec", "get_p50_ns", "get_p99_ns", "put_p50_ns", "put_p99_ns",
			"ring_occupancy", "recorded_spans", "dropped_spans"},
		Compare: []string{"ops_per_sec"},
		// The concurrent read path (ShardedBuffer) with Statistics for the
		// latency histograms, plus Tracing for the traced variant.
		Variants: withWithout("off", "on", product("ShardedBuffer", "Statistics"), "Tracing"),
		Sweep:    goroutineSweep,
		// The store is loaded with an instrumented sequential put phase,
		// then g workers share the timed gets over the loaded keys. Both
		// phases run the full span stack when Tracing is composed; the
		// timed phase is the concurrent read path the overhead numbers
		// quote.
		Run: func(c Cell) (Metrics, error) {
			inst, err := composer.ComposeProduct(composer.Options{}, c.Variant.Features...)
			if err != nil {
				return nil, err
			}
			defer inst.Close()
			if err := preload(inst, keys, value); err != nil {
				return nil, err
			}
			elapsed, err := fanOut(c.Pos.Workers, ops, func(w, n int) error {
				for i := 0; i < n; i++ {
					if _, err := inst.Store.Get(benchKey((w*7919 + i) % keys)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			snap, err := inst.Stats()
			if err != nil {
				return nil, err
			}
			// Gets are the timed concurrent phase; puts are the
			// instrumented sequential load phase. The ring gauges are zero
			// when Tracing is not composed.
			m := Metrics{
				"ops_per_sec":    perSecond(ops, elapsed),
				"ring_occupancy": float64(snap.Trace.RingOccupancy),
				"recorded_spans": float64(snap.Trace.RecordedSpans),
				"dropped_spans":  float64(snap.Trace.DroppedSpans),
			}
			accessLatency(m, snap)
			return m, nil
		},
		Feed: func(c Cell, m Metrics) map[nfp.Property]float64 {
			if c.Pos.Workers != 16 {
				return nil
			}
			return map[nfp.Property]float64{
				nfp.Throughput: m["ops_per_sec"],
				nfp.LatencyP50: (m["get_p50_ns"] + m["put_p50_ns"]) / 2,
				nfp.LatencyP99: (m["get_p99_ns"] + m["put_p99_ns"]) / 2,
			}
		},
	}
}

// ---------------------------------------------------------------------
// B5: the Checksums feature's overhead and the cost of surviving a
// crash, at three database sizes.
//
// Two otherwise identical transactional products — with and without the
// Checksums feature — run the same load over an in-memory device: a
// committed put phase (every put is a forced commit, so each one pays
// the trailer seal on its journal pages), a timed read phase over the
// loaded keys, and for the trailered product a timed verify scrub of
// every allocated page. Then the instance is crashed (abandoned without
// Close) and the reopen is timed: redo recovery replays every commit
// from the journal, re-verifying each page trailer as it goes — the
// recovery-time numbers are what an embedded node pays at power-on.
//
// The feedback loop closes the same way B4's does for Tracing: the
// measured latency prices Checksums as a pure cost, so the greedy
// deriver minimizing p50 EXCLUDES it — and under a ROM budget sized
// between the base product and base+Checksums, requiring the feature is
// infeasible. Integrity, like observability, is a feature the NFP
// machinery prices rather than hides.
func b5(ops int) Scenario {
	smallest := atLeast(ops/8, 256)
	var sweep []Position
	for _, records := range []int{smallest, smallest * 4, smallest * 16} {
		sweep = append(sweep, Position{Labels: []string{strconv.Itoa(records)}, Workers: 1, Size: records})
	}
	largest := sweep[len(sweep)-1].Size
	value := payload(64)
	return Scenario{
		Title:    "Checksums: CRC-trailer overhead and crash-recovery time at three DB sizes",
		Feature:  "Checksums",
		Property: nfp.LatencyP50,
		Required: []string{"Linux", "BPlusTree", "Put", "Get"},
		Config: map[string]float64{
			"seed":        benchSeed,
			"value_bytes": float64(len(value)),
		},
		VariantLabel: "checksums",
		SweepLabels:  []string{"records"},
		Metrics: []string{"commits_per_sec", "gets_per_sec", "get_p50_ns", "get_p99_ns", "put_p50_ns", "put_p99_ns",
			"verify_seconds", "scrubbed_pages", "recovery_seconds", "recovered_commits", "recovery_us_per_commit"},
		Compare: []string{"commits_per_sec", "gets_per_sec", "recovery_seconds"},
		// Transactional with Recovery (the reopen must replay) and
		// Statistics for the latency histograms.
		Variants: withWithout("off", "on", product("Transaction", "ForceCommit", "Recovery", "Statistics"), "Checksums"),
		Sweep:    sweep,
		Run: func(c Cell) (Metrics, error) {
			records := c.Pos.Size
			fs := osal.NewMemFS()
			inst, err := composer.ComposeProduct(composer.Options{FS: fs}, c.Variant.Features...)
			if err != nil {
				return nil, err
			}
			crashed := false
			defer func() {
				if !crashed {
					inst.Close()
				}
			}()
			// Load: one forced commit per record.
			load, err := fanOut(1, records, func(_, n int) error {
				for i := 0; i < n; i++ {
					tx := inst.Txn.Begin()
					if err := tx.Put(benchKey(i), value); err != nil {
						return err
					}
					if err := tx.Commit(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			// Read: every key once, shuffled stride.
			read, err := fanOut(1, records, func(_, n int) error {
				for i := 0; i < n; i++ {
					if _, err := inst.Store.Get(benchKey((i*7919 + benchSeed) % records)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			snap, err := inst.Stats()
			if err != nil {
				return nil, err
			}
			// The verify scrub covers every allocated page; both scrub
			// metrics stay zero without Checksums.
			m := Metrics{
				"commits_per_sec": perSecond(records, load),
				"gets_per_sec":    perSecond(records, read),
				"verify_seconds":  0,
				"scrubbed_pages":  0,
			}
			accessLatency(m, snap)
			if c.Variant.With {
				start := time.Now()
				rep, err := inst.Verify()
				if err != nil {
					return nil, err
				}
				m["verify_seconds"] = time.Since(start).Seconds()
				if rep.Pages == nil || !rep.Pages.Ok() {
					return nil, fmt.Errorf("fresh store failed its scrub: %s", rep)
				}
				m["scrubbed_pages"] = float64(rep.Pages.PagesChecked)
			}

			// Crash: abandon the instance without Close, then time the
			// reopen — recovery replays every commit from the journal.
			crashed = true
			start := time.Now()
			inst2, err := composer.ComposeProduct(composer.Options{FS: fs}, c.Variant.Features...)
			if err != nil {
				return nil, fmt.Errorf("recovery: %w", err)
			}
			recovery := time.Since(start)
			recovered := inst2.Txn.Recovered
			if err := inst2.Close(); err != nil {
				return nil, err
			}
			if recovered != records {
				return nil, fmt.Errorf("recovered %d commits, want %d", recovered, records)
			}
			m["recovery_seconds"] = recovery.Seconds()
			m["recovered_commits"] = float64(recovered)
			m["recovery_us_per_commit"] = recovery.Seconds() / float64(recovered) * 1e6
			return m, nil
		},
		Feed: func(c Cell, m Metrics) map[nfp.Property]float64 {
			if c.Pos.Size != largest {
				return nil
			}
			return map[nfp.Property]float64{
				nfp.Throughput:       m["gets_per_sec"],
				nfp.CommitThroughput: m["commits_per_sec"],
				nfp.LatencyP50:       (m["get_p50_ns"] + m["put_p50_ns"]) / 2,
				nfp.LatencyP99:       (m["get_p99_ns"] + m["put_p99_ns"]) / 2,
			}
		},
	}
}

// ---------------------------------------------------------------------
// B6: the Monitor feature's overhead.
//
// Three otherwise identical group-commit products — Monitor off,
// Monitor sampling at 1s, Monitor sampling at 100ms — run the same
// mixed workload at 1, 4 and 16 goroutines over an in-memory device:
// each worker interleaves transactional puts (the group-commit write
// path needs Locking, which the product composes) with reads, while
// the sampler goroutine ticks concurrently and every read of the
// Statistics registry it takes contends with the workload's own
// recording. The monitored points also report the sampler's tick count
// and the watchdog's alert count, so the report shows the subsystem
// actually ran.
//
// The 16-goroutine measurements close the paper's feedback loop the
// same unflattering way as B4: Monitor's fitted latency weight is
// whatever the measurements say (usually a small positive cost), so
// the greedy deriver minimizing measured latency prices it in or out —
// and under a ROM budget tight enough for the base product alone,
// requiring Monitor makes derivation infeasible. Live observability is
// a feature with a price, and the NFP machinery quotes it.
func b6(ops int) Scenario {
	ops = atLeast(ops, 2048)
	keys := atLeast(ops/8, 256)
	value := payload(64)
	// The measured sampler periods; the off variant composes the product
	// without the Monitor feature.
	intervals := map[string]time.Duration{
		"1s":    time.Second,
		"100ms": 100 * time.Millisecond,
	}
	// The thread-safe group-commit write path plus concurrent reads, with
	// Statistics for the latency histograms.
	base := product("ShardedBuffer", "Transaction", "GroupCommit", "Locking", "Statistics")
	monitored := plus(base, "Monitor")
	return Scenario{
		Title:    "Monitor: live-sampling overhead, group-commit mixed load (1 put : 3 gets)",
		Feature:  "Monitor",
		Property: nfp.LatencyP50,
		Required: []string{"Linux", "BPlusTree", "Put", "Get"},
		Config: map[string]float64{
			"ops_per_point": float64(ops),
			"keys":          float64(keys),
			"value_bytes":   float64(len(value)),
		},
		VariantLabel: "monitor",
		SweepLabels:  []string{"goroutines"},
		Metrics: []string{"ops_per_sec", "get_p50_ns", "get_p99_ns", "commit_p50_ns", "commit_p99_ns",
			"monitor_ticks", "monitor_alerts"},
		Compare: []string{"ops_per_sec"},
		Variants: []Variant{
			{Name: "off", Features: base},
			{Name: "1s", Features: monitored, With: true},
			{Name: "100ms", Features: monitored, With: true},
		},
		Sweep: goroutineSweep,
		// A sequential load phase, then g workers sharing the timed
		// operations — every 4th a transactional put through the
		// group-commit pipeline, the rest gets — with the sampler (when
		// composed) ticking concurrently throughout.
		Run: func(c Cell) (Metrics, error) {
			inst, err := composer.ComposeProduct(composer.Options{
				MonitorInterval: intervals[c.Variant.Name],
				// Watch the pipeline with a deliberately reachable stall rule
				// so the watchdog does real comparisons per tick, like a
				// deployment would.
				MonitorRules: monitor.Thresholds{CommitStallP99: 2 * time.Millisecond},
			}, c.Variant.Features...)
			if err != nil {
				return nil, err
			}
			defer inst.Close()
			if err := preload(inst, keys, value); err != nil {
				return nil, err
			}
			// Gets run beside the group-commit writers, so each worker reads
			// through a read transaction: without MVCC it pins nothing and
			// takes the manager's read lock per get, which is what keeps a
			// lookup from descending a tree a concurrent batch apply is
			// splitting (a bare Store.Get would race it and miss keys a
			// split is moving). Transactional reads bypass the access
			// layer's histograms, so the harness times the gets itself.
			gets := stats.NewHistogram(stats.LatencyBounds())
			elapsed, err := fanOut(c.Pos.Workers, ops, func(w, n int) error {
				reads := inst.Txn.Begin()
				defer reads.Abort()
				for i := 0; i < n; i++ {
					if i%4 != 0 {
						err := timed(gets, func() error {
							_, err := reads.Get(benchKey((w*7919 + i) % keys))
							return err
						})
						if err != nil {
							return err
						}
						continue
					}
					// Each writer owns a disjoint key space, so reads of the
					// preloaded keys never see a value being rewritten.
					tx := inst.Txn.Begin()
					if err := tx.Put([]byte(fmt.Sprintf("w%02d-%07d", w, i)), value); err != nil {
						return err
					}
					if err := tx.Commit(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			snap, err := inst.Stats()
			if err != nil {
				return nil, err
			}
			g := gets.Snapshot()
			m := Metrics{
				"ops_per_sec":    perSecond(ops, elapsed),
				"get_p50_ns":     g.P50(),
				"get_p99_ns":     g.P99(),
				"commit_p50_ns":  snap.Txn.CommitLatency.P50(),
				"commit_p99_ns":  snap.Txn.CommitLatency.P99(),
				"monitor_ticks":  0,
				"monitor_alerts": 0,
			}
			if mon := inst.Monitor(); mon != nil {
				// One on-demand sample after the timed phase (short runs can
				// end before the first periodic tick), so the watchdog
				// evaluated the workload at least once and the tick count
				// proves the subsystem ran.
				mon.Tick()
				m["monitor_ticks"] = float64(mon.Ticks())
				m["monitor_alerts"] = float64(mon.Alerts())
			}
			return m, nil
		},
		// Feed the loop at the highest concurrency: one measurement
		// without Monitor, one with it sampling at full tilt. The two
		// monitored variants share a feature set, so only the
		// faster-sampling one (the worst case) is recorded.
		Feed: func(c Cell, m Metrics) map[nfp.Property]float64 {
			if c.Pos.Workers != 16 || c.Variant.Name == "1s" {
				return nil
			}
			return map[nfp.Property]float64{
				nfp.Throughput: m["ops_per_sec"],
				nfp.LatencyP50: m["get_p50_ns"],
				nfp.LatencyP99: m["get_p99_ns"],
			}
		},
	}
}

// ---------------------------------------------------------------------
// B7: the MVCC feature's read concurrency.
//
// Two otherwise identical group-commit products — one latching reads
// through Manager.mu, one composing MVCC — run the same mixed
// reader/writer workload: each reader performs bounded range scans
// inside read transactions (re-begun every few dozen scans so the
// pinned version stays fresh), while writers overwrite keys in the
// scanned range through the group-commit pipeline for the whole
// measured phase. Under the latch every scan holds the manager's
// read lock and convoys behind the writer's exclusive apply; under
// MVCC the scan descends from a pinned copy-on-write root and takes
// no lock at all, so readers never block and never wake the futex.
// The reader/writer mix is swept: 1, 16 and 64 readers against one
// writer, plus 16 readers against 4 writers.
//
// The MVCC points also report the version table's activity — versions
// installed, pages reclaimed, versions live after the run — so the
// report shows epoch reclamation kept the superseded pages bounded
// while readers pinned old roots.
//
// The 16-reader/1-writer measurements close the paper's feedback loop:
// both variants' read throughput and latency feed the NFP store, the
// signed fitted table gives MVCC a negative read-latency weight, and
// the greedy deriver minimizing measured read latency selects MVCC on
// its own. The ROM side prices it right back out: under a budget that
// fits the transactional base product but not the copy-on-write and
// version-table code, requiring MVCC makes derivation infeasible.
func b7(ops int) Scenario {
	ops = atLeast(ops, 4096)
	const (
		keys     = 4096 // preloaded keys the readers scan and writers rewrite
		span     = 64   // keys visited per scan operation
		txnScans = 64   // scans per read transaction before re-pinning
		// Batched writer transactions: the whole batch applies under the
		// manager's exclusive lock, which is exactly the window latched
		// readers convoy behind and snapshot readers sail through.
		writerPuts = 64
	)
	value := payload(64)
	var sweep []Position
	for _, mix := range [][2]int{{1, 1}, {16, 1}, {64, 1}, {16, 4}} {
		sweep = append(sweep, Position{
			Labels:  []string{strconv.Itoa(mix[0]), strconv.Itoa(mix[1])},
			Workers: mix[0],
			Size:    mix[1],
		})
	}
	return Scenario{
		Title:    "MVCC: snapshot vs latched reads, bounded scans against group-commit writers",
		Feature:  "MVCC",
		Property: nfp.LatencyP50,
		// The stakeholder's functional requirements are the transactional
		// stack the workload exercises; the open question is whether MVCC
		// rides along.
		Required: []string{"Linux", "BPlusTree", "Put", "Get", "Transaction", "GroupCommit", "Locking"},
		Config: map[string]float64{
			"read_ops_per_point": float64(ops),
			"keys":               keys,
			"scan_span":          span,
			"value_bytes":        float64(len(value)),
			"scans_per_read_txn": txnScans,
			"puts_per_write_txn": writerPuts,
		},
		VariantLabel: "mvcc",
		SweepLabels:  []string{"readers", "writers"},
		Metrics: []string{"reads_per_sec", "writes_per_sec", "read_p50_ns", "read_p99_ns",
			"versions_installed", "pages_reclaimed", "versions_live"},
		Compare: []string{"reads_per_sec"},
		// The thread-safe group-commit write path under concurrent read
		// transactions, with Statistics for the version-table gauges.
		Variants: withWithout("off", "on",
			product("ShardedBuffer", "Transaction", "GroupCommit", "Locking", "Statistics"), "MVCC"),
		Sweep: sweep,
		// A sequential load phase, then the reader population draining the
		// timed scans while the writers rewrite scanned keys through the
		// group-commit pipeline until the last reader finishes.
		Run: func(c Cell) (Metrics, error) {
			// Both variants get the same generous cache so the comparison is
			// about locking, not about copy-on-write churn evicting hot
			// pages.
			inst, err := composer.ComposeProduct(composer.Options{CachePages: 4096, CacheShards: 64}, c.Variant.Features...)
			if err != nil {
				return nil, err
			}
			defer inst.Close()
			if err := preload(inst, keys, value); err != nil {
				return nil, err
			}

			// The writer pool runs beside the timed reader fan-out and is
			// stopped when the last reader returns.
			writers := c.Pos.Size
			writeErrs := make(chan error, writers)
			var stop atomic.Bool
			var commits atomic.Int64
			var wwg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wwg.Add(1)
				go func(w int) {
					defer wwg.Done()
					for i := 0; !stop.Load(); i += writerPuts {
						tx := inst.Txn.Begin()
						for p := 0; p < writerPuts; p++ {
							// Rewrite keys inside the scanned range so every
							// commit supersedes pages the readers' pinned
							// versions still reference.
							if err := tx.Put(benchKey((w*7919+i+p*131)%keys), value); err != nil {
								writeErrs <- err
								return
							}
						}
						if err := tx.Commit(); err != nil {
							writeErrs <- err
							return
						}
						commits.Add(1)
					}
				}(w)
			}
			hist := stats.NewHistogram(stats.LatencyBounds())
			elapsed, err := fanOut(c.Pos.Workers, ops, func(r, n int) error {
				for done := 0; done < n; {
					// One read transaction per batch of scans: under MVCC the
					// Begin pins the current version once and every scan
					// inside descends lock-free; under the latch every scan
					// takes the manager's read lock.
					tx := inst.Txn.Begin()
					for b := 0; b < txnScans && done < n; b++ {
						lo := int((uint64(r)*2654435761 + uint64(done)*97) % uint64(keys-span))
						got := 0
						err := timed(hist, func() error {
							return tx.Scan(benchKey(lo), benchKey(lo+span), func(_, _ []byte) bool {
								got++
								return true
							})
						})
						if err == nil && got != span {
							err = fmt.Errorf("scan [%d,%d) saw %d keys, want %d", lo, lo+span, got, span)
						}
						if err != nil {
							tx.Abort()
							return err
						}
						done++
					}
					tx.Abort()
				}
				return nil
			})
			stop.Store(true)
			wwg.Wait()
			close(writeErrs)
			if writeErr := <-writeErrs; err == nil {
				err = writeErr
			}
			if err != nil {
				return nil, err
			}
			snap, err := inst.Stats()
			if err != nil {
				return nil, err
			}
			// The timed phase is the readers'; writers run throughout, so
			// writes_per_sec counts their committed transactions over it.
			// The version-table gauges are zero for the latch variant.
			h := hist.Snapshot()
			return Metrics{
				"reads_per_sec":      perSecond(ops, elapsed),
				"writes_per_sec":     perSecond(int(commits.Load()), elapsed),
				"read_p50_ns":        h.P50(),
				"read_p99_ns":        h.P99(),
				"versions_installed": float64(snap.MVCC.VersionsInstalled),
				"pages_reclaimed":    float64(snap.MVCC.PagesReclaimed),
				"versions_live":      float64(snap.MVCC.VersionsLive),
			}, nil
		},
		// Feed the loop at the acceptance mix: one measurement per
		// variant, differing only in the MVCC feature, so the fitted
		// weight is exactly the measured read-latency delta.
		Feed: func(c Cell, m Metrics) map[nfp.Property]float64 {
			if c.Pos.Workers != 16 || c.Pos.Size != 1 {
				return nil
			}
			return map[nfp.Property]float64{
				nfp.Throughput: m["reads_per_sec"],
				nfp.LatencyP50: m["read_p50_ns"],
				nfp.LatencyP99: m["read_p99_ns"],
			}
		},
	}
}

// ---------------------------------------------------------------------
// The SQL table B8 and B9 share, so the two rows stress the same plans.

const (
	sqlRows     = 2048 // preloaded table rows
	sqlSpan     = 32   // pk width of one range scan
	sqlScoreMod = 100  // score column values are i % sqlScoreMod
	sqlScoreMin = 89   // filtered scans select score > sqlScoreMin: ~10% of rows survive
)

// The three read workloads.
const (
	sqlPoint    = "point"    // SELECT by pk equality
	sqlRange    = "range"    // bounded pk range scan
	sqlFiltered = "filtered" // full scan with a non-indexed predicate
)

var sqlWorkloads = []string{sqlPoint, sqlRange, sqlFiltered}

// sqlProduct is the optimized SQL stack with Statistics for the plan
// counters.
func sqlProduct(extra ...string) []string {
	return product(append([]string{"ShardedBuffer", "Optimizer", "SQLEngine", "Statistics"}, extra...)...)
}

// sqlLoad composes one SQL product and preloads the benchmark table.
func sqlLoad(features []string) (*composer.Instance, error) {
	inst, err := composer.ComposeProduct(composer.Options{CachePages: 4096, CacheShards: 64}, features...)
	if err != nil {
		return nil, err
	}
	if _, err := inst.SQL.Exec("CREATE TABLE bench (id INT PRIMARY KEY, v TEXT, score INT)"); err != nil {
		inst.Close()
		return nil, err
	}
	const batch = 64
	for lo := 0; lo < sqlRows; lo += batch {
		var sb strings.Builder
		sb.WriteString("INSERT INTO bench VALUES ")
		for i := lo; i < lo+batch && i < sqlRows; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, 'row-%07d', %d)", i, i, i%sqlScoreMod)
		}
		if _, err := inst.SQL.Exec(sb.String()); err != nil {
			inst.Close()
			return nil, err
		}
	}
	return inst, nil
}

// sqlPrepared is the placeholder form of each workload's statement —
// also the normalized shape its literal form collapses to in the
// QueryStats profile registry.
var sqlPrepared = map[string]string{
	sqlPoint:    "SELECT v FROM bench WHERE id = ?",
	sqlRange:    "SELECT v FROM bench WHERE id >= ? AND id < ?",
	sqlFiltered: "SELECT id FROM bench WHERE score > ?",
}

// sqlText builds goroutine g's i-th statement of one workload as SQL
// text with literals — what the uncached and plan-cached modes
// execute.
func sqlText(workload string, g, i int) string {
	k := int((uint64(g)*2654435761 + uint64(i)*97) % sqlRows)
	switch workload {
	case sqlPoint:
		return fmt.Sprintf("SELECT v FROM bench WHERE id = %d", k)
	case sqlRange:
		lo := k % (sqlRows - sqlSpan)
		return fmt.Sprintf("SELECT v FROM bench WHERE id >= %d AND id < %d", lo, lo+sqlSpan)
	default:
		return fmt.Sprintf("SELECT id FROM bench WHERE score > %d", sqlScoreMin)
	}
}

// sqlArgs builds the same statement as bound arguments for the shared
// prepared statement.
func sqlArgs(workload string, g, i int) []types.Value {
	k := int((uint64(g)*2654435761 + uint64(i)*97) % sqlRows)
	switch workload {
	case sqlPoint:
		return []types.Value{types.Int(int64(k))}
	case sqlRange:
		lo := k % (sqlRows - sqlSpan)
		return []types.Value{types.Int(int64(lo)), types.Int(int64(lo + sqlSpan))}
	default:
		return []types.Value{types.Int(sqlScoreMin)}
	}
}

// ---------------------------------------------------------------------
// B8: the CompiledQueries feature's statement latency.
//
// Two otherwise identical SQL products — one building a plan for every
// statement (parse, compile, run once), one composing CompiledQueries,
// which keeps plans — run the same read workloads over a preloaded
// table: point lookups by primary key, bounded range scans, and
// filtered full scans over a non-indexed column. The compiled product is measured twice: on the
// unprepared Exec path, where the shape-keyed plan cache normalizes
// each statement's literals away and reuses a compiled plan (clients
// still pay for building the SQL string), and on the prepared path,
// where one shared *Stmt executes closure-compiled plans with bound
// arguments — zero parsing, zero compiling. The pk-equality shape is a
// point lookup in every mode; what differs is what stands in front of
// it. Each (workload, mode) cell is swept at
// 1, 4 and 16 goroutines; the prepared cells share a single *Stmt
// across all goroutines, exercising the statement latch.
//
// The 16-goroutine point-lookup measurements close the paper's feedback
// loop: both variants' throughput and statement latency feed the NFP
// store, the signed fitted table gives CompiledQueries a negative
// statement-latency weight, and the greedy deriver minimizing measured
// statement latency selects CompiledQueries on its own. The ROM side
// prices it right back out: under a budget that fits the SQL base
// product but not the prepared-statement surface and plan cache,
// requiring CompiledQueries makes derivation infeasible.
func b8(ops int) Scenario {
	ops = atLeast(ops, 2048)
	// The three execution modes of the sweep.
	const (
		uncached = "uncached" // no CompiledQueries: parse+compile every Exec
		cached   = "cached"   // CompiledQueries, unprepared Exec: plan-cache hits
		prepared = "prepared" // CompiledQueries, shared Stmt.Exec: zero-parse
	)
	var sweep []Position
	for _, workload := range sqlWorkloads {
		for _, st := range goroutineSweep {
			sweep = append(sweep, Position{Labels: []string{workload, st.Labels[0]}, Workers: st.Workers})
		}
	}
	compiled := sqlProduct("CompiledQueries")
	return Scenario{
		Title:    "CompiledQueries: uncached vs plan-cached vs prepared execution",
		Feature:  "CompiledQueries",
		Property: nfp.LatencyP50,
		// The stakeholder's functional requirements are the optimized SQL
		// stack the workload exercises; the open question is whether
		// CompiledQueries rides along.
		Required: []string{"Linux", "BPlusTree", "Put", "Get", "Optimizer", "SQLEngine"},
		Config: map[string]float64{
			"ops_per_point": float64(ops),
			"rows":          sqlRows,
			"range_span":    sqlSpan,
			"score_min":     sqlScoreMin,
		},
		VariantLabel: "mode",
		SweepLabels:  []string{"workload", "goroutines"},
		Metrics: []string{"ops_per_sec", "p50_ns", "p99_ns", "plan_cache_hits", "plan_cache_misses",
			"point_lookups", "index_scans", "full_scans"},
		Compare: []string{"ops_per_sec"},
		Variants: []Variant{
			{Name: uncached, Features: sqlProduct()},
			{Name: cached, Features: compiled, With: true},
			{Name: prepared, Features: compiled, With: true},
		},
		Sweep: sweep,
		// Each cell runs on a fresh product. In prepared mode all
		// goroutines share one *Stmt.
		Run: func(c Cell) (Metrics, error) {
			workload := c.Pos.Labels[0]
			inst, err := sqlLoad(c.Variant.Features)
			if err != nil {
				return nil, err
			}
			defer inst.Close()
			var stmt *sql.Stmt
			if c.Variant.Name == prepared {
				if stmt, err = inst.SQL.Prepare(sqlPrepared[workload]); err != nil {
					return nil, err
				}
				defer stmt.Close()
			}
			before, err := inst.Stats()
			if err != nil {
				return nil, err
			}
			// Per-statement wall time, measured by the harness.
			hist := stats.NewHistogram(stats.LatencyBounds())
			elapsed, err := fanOut(c.Pos.Workers, ops, func(g, n int) error {
				for i := 0; i < n; i++ {
					var res *sql.Result
					err := timed(hist, func() (err error) {
						if stmt != nil {
							// All goroutines share this one statement: the
							// compiled plan runs with bound arguments, no
							// parsing, no planning.
							res, err = stmt.Exec(sqlArgs(workload, g, i)...)
						} else {
							res, err = inst.SQL.Exec(sqlText(workload, g, i))
						}
						return err
					})
					if err != nil {
						return err
					}
					if workload != sqlFiltered && len(res.Rows) == 0 {
						return fmt.Errorf("empty result")
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			after, err := inst.Stats()
			if err != nil {
				return nil, err
			}
			// Plan-cache traffic and access paths of the timed phase alone,
			// from the Statistics registry.
			d, h := after.Sub(before), hist.Snapshot()
			return Metrics{
				"ops_per_sec":       perSecond(ops, elapsed),
				"p50_ns":            h.P50(),
				"p99_ns":            h.P99(),
				"plan_cache_hits":   float64(d.SQL.PlanHits),
				"plan_cache_misses": float64(d.SQL.PlanMisses),
				"point_lookups":     float64(d.SQL.PointLookups),
				"index_scans":       float64(d.SQL.IndexScans),
				"full_scans":        float64(d.SQL.FullScans),
			}, nil
		},
		// Feed the loop at the acceptance cell: point lookups at 16
		// goroutines, one measurement per variant, differing only in the
		// CompiledQueries feature — uncached execution for the base
		// product, prepared execution for the compiled one.
		Feed: func(c Cell, m Metrics) map[nfp.Property]float64 {
			if c.Pos.Labels[0] != sqlPoint || c.Pos.Workers != 16 || c.Variant.Name == cached {
				return nil
			}
			return map[nfp.Property]float64{
				nfp.Throughput: m["ops_per_sec"],
				nfp.LatencyP50: m["p50_ns"],
				nfp.LatencyP99: m["p99_ns"],
			}
		},
	}
}

// ---------------------------------------------------------------------
// B9: the QueryStats feature's observation overhead.
//
// Two otherwise identical SQL products — one bare, one composing
// QueryStats — run the same mixed read workload over a preloaded
// table: each goroutine rotates through point lookups by primary key,
// bounded range scans, and filtered full scans over a non-indexed
// column. The instrumented product pays the full observation path on
// every statement: shape normalization, the striped profile registry
// (count, latency histogram, rows scanned/returned, pages visited),
// and the slow-query threshold check. Each mode is swept at 1, 4 and
// 16 goroutines; the 16-goroutine cell is the acceptance gate — the
// paper's zero-cost claim survives only if always-on statement
// profiling stays within a few percent of the bare product.
//
// The feedback loop closes both ways. Observability side: both
// variants' measurements feed the NFP store, with the unprofiled-
// statement count as the objective — the bare product leaves every
// statement unprofiled, the instrumented one none — so the signed
// fitted table gives QueryStats a negative weight and the greedy
// deriver minimizing unprofiled statements selects it on its own; the
// instrumented run also records the point-lookup shape's measured p99
// as the query_p99_ns NFP. ROM side: under a budget that fits the SQL
// base product but not the plan renderer and profile registry,
// requiring QueryStats makes derivation infeasible.
func b9(ops int) Scenario {
	ops = atLeast(ops, 2048)
	// shapes is the registry's own attribution of the instrumented
	// 16-goroutine run, hottest first, proving it attributed the whole
	// load.
	var shapes []Point
	return Scenario{
		Title:    "QueryStats: mixed point/range/filtered load with and without statement observation",
		Feature:  "QueryStats",
		Property: nfp.UnprofiledStmts,
		// The stakeholder requires the instrumented SQL stack (both
		// measured variants compose Statistics; the open question is
		// QueryStats alone) and asks the deriver to minimize unprofiled
		// statements.
		Required: []string{"Linux", "BPlusTree", "Put", "Get", "Optimizer", "SQLEngine", "Statistics"},
		Config: map[string]float64{
			"ops_per_point": float64(ops),
			"rows":          sqlRows,
			"range_span":    sqlSpan,
			"score_min":     sqlScoreMin,
		},
		VariantLabel: "query_stats",
		SweepLabels:  []string{"goroutines"},
		Metrics:      []string{"ops_per_sec", "p50_ns", "p99_ns", "query_p99_ns", "slow_queries_retained"},
		Compare:      []string{"ops_per_sec"},
		Variants:     withWithout("off", "on", sqlProduct(), "QueryStats"),
		Sweep:        goroutineSweep,
		Run: func(c Cell) (Metrics, error) {
			inst, err := sqlLoad(c.Variant.Features)
			if err != nil {
				return nil, err
			}
			defer inst.Close()
			// Per-statement wall time, measured by the harness (not by the
			// feature under test).
			hist := stats.NewHistogram(stats.LatencyBounds())
			elapsed, err := fanOut(c.Pos.Workers, ops, func(g, n int) error {
				for i := 0; i < n; i++ {
					// Each goroutine rotates point → range → filtered so every
					// cell carries the same statement mix regardless of
					// goroutine count.
					workload := sqlWorkloads[i%3]
					var res *sql.Result
					err := timed(hist, func() (err error) {
						res, err = inst.SQL.Exec(sqlText(workload, g, i))
						return err
					})
					if err != nil {
						return err
					}
					if workload != sqlFiltered && len(res.Rows) == 0 {
						return fmt.Errorf("empty result")
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			h := hist.Snapshot()
			m := Metrics{
				"ops_per_sec":           perSecond(ops, elapsed),
				"p50_ns":                h.P50(),
				"p99_ns":                h.P99(),
				"query_p99_ns":          0,
				"slow_queries_retained": 0,
			}
			if !c.Variant.With {
				return m, nil
			}
			snap, err := inst.Stats()
			if err != nil {
				return nil, err
			}
			if snap.Queries == nil {
				return nil, fmt.Errorf("instrumented product has no query snapshot")
			}
			// Read the point shape's p99 off the registry — the feature as
			// NFP sensor.
			m["slow_queries_retained"] = float64(len(snap.Queries.Slow))
			var rows []Point
			for _, sh := range snap.Queries.Shapes {
				if sh.Shape == sqlPrepared[sqlPoint] {
					m["query_p99_ns"] = sh.Latency.P99()
				}
				rows = append(rows, Point{
					Labels: map[string]string{"shape": sh.Shape},
					Metrics: Metrics{
						"count":         float64(sh.Count),
						"p99_ns":        sh.Latency.P99(),
						"rows_scanned":  float64(sh.RowsScanned),
						"rows_returned": float64(sh.RowsReturned),
						"pages_visited": float64(sh.PagesVisited),
					},
				})
			}
			if c.Pos.Workers == 16 {
				shapes = rows
			}
			return m, nil
		},
		// Feed the loop at the acceptance cell: the mixed load at 16
		// goroutines, one measurement per variant, differing only in
		// QueryStats. The bare product leaves every statement unprofiled;
		// the instrumented one, none.
		Feed: func(c Cell, m Metrics) map[nfp.Property]float64 {
			if c.Pos.Workers != 16 {
				return nil
			}
			values := map[nfp.Property]float64{
				nfp.Throughput:      m["ops_per_sec"],
				nfp.LatencyP99:      m["p99_ns"],
				nfp.UnprofiledStmts: float64(ops),
			}
			if c.Variant.With {
				values[nfp.UnprofiledStmts] = 0
				values[nfp.QueryP99] = m["query_p99_ns"]
			}
			return values
		},
		After: func(r *Report) error {
			r.Ratios = append(r.Ratios, shapes...)
			return nil
		},
	}
}

// ---------------------------------------------------------------------
// B10: the Replication + Server features' cost, and the replica
// crash-point harness (replicacrash.go).
//
// The same pipelined put workload — 16 wire clients, each keeping a
// window of requests in flight over loopback TCP — runs against five
// primaries: the Server product without the Replication feature at all,
// the replicated product with 0, 1 and 2 live replicas streaming its
// WAL, and the replicated product with one DEAD replica (a subscribed
// feed nobody consumes — the exact primary-side shape of a replica that
// froze mid-stream). The dead point is the robustness claim in numbers:
// the shipper drops frames and marks the feed broken instead of
// blocking, so throughput stays within noise of the no-replica baseline
// while the drop counter shows the failure was real. Live replicas are
// checked for byte-exact convergence (prefix CRC equality) and index
// equality after the run.
//
// The measurements close the paper's feedback loop like the other rows:
// the with/without-Replication products' commit latency feeds the NFP
// store, the fitted table prices the feature, and the footprint side
// prices Replication's closure (its implied Transaction and Recovery).
func b10(ops int) Scenario {
	const (
		clients      = 16 // concurrent wire clients
		window       = 32 // pipelined requests in flight per client
		crashCommits = 16 // committed transactions the crash sweeps ship
	)
	// The dead replica's feed must overflow. It buffers one frame per
	// shipped chunk, and a chunk is one commit batch, which holds
	// whatever the clients' windows staged while the previous batch
	// drained: up to a whole burst of clients×window commits. Every row
	// runs enough bursts to ship one chunk more than a feed holds even
	// when each burst is one batch, so the rows compare like for like.
	ops = atLeast(ops, (repl.FeedDepth+1)*clients*window)
	value := payload(64)
	// The concurrent group-commit stack behind the TCP front end, with or
	// without WAL shipping.
	base := product("Update", "Remove", "Transaction", "GroupCommit", "Locking", "Recovery", "Statistics", "Server")
	replicated := plus(base, "Replication")
	// Live and dead replica counts of the replicated primaries.
	type attached struct{ live, dead int }
	replicas := map[string]attached{
		"0":      {},
		"1":      {live: 1},
		"2":      {live: 2},
		"1-dead": {dead: 1},
	}
	return Scenario{
		Title:    "Replication: pipelined puts over loopback TCP, replicas live and dead",
		Feature:  "Replication",
		Property: nfp.LatencyP50,
		Required: []string{"Linux", "BPlusTree", "Put", "Get"},
		Config: map[string]float64{
			"ops_per_point": float64(ops),
			"window":        window,
			"value_bytes":   float64(len(value)),
			"seed":          benchSeed,
			"crash_commits": crashCommits,
		},
		VariantLabel: "scenario",
		SweepLabels:  []string{"clients"},
		Metrics: []string{"ops_per_sec", "commit_p50_ns", "commit_p99_ns", "shipped_chunks", "shipped_bytes",
			"drops", "max_lag_bytes", "converged", "dead_dropped"},
		Compare: []string{"ops_per_sec"},
		// The replicated-but-idle primary is compared to the plain Server
		// product; live and dead replicas are compared to the idle one, so
		// the 1-dead row is the acceptance number: what a frozen replica
		// costs the primary.
		Variants: []Variant{
			{Name: "no-repl", Features: base},
			{Name: "0", Features: replicated, With: true},
			{Name: "1", Features: replicated, With: true, Against: "0"},
			{Name: "2", Features: replicated, With: true, Against: "0"},
			{Name: "1-dead", Features: replicated, With: true, Against: "0"},
		},
		Sweep: []Position{{Labels: []string{strconv.Itoa(clients)}, Workers: clients}},
		// Compose the primary, serve it, attach the replicas (live ones
		// stream, a dead one subscribes and never consumes), then hammer
		// it with pipelined puts and check convergence.
		Run: func(c Cell) (Metrics, error) {
			primary, err := composer.ComposeProduct(composer.Options{}, c.Variant.Features...)
			if err != nil {
				return nil, err
			}
			defer primary.Close()
			srv, err := primary.Serve("127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			type liveReplica struct {
				inst *composer.Instance
				rep  *server.Replica
			}
			var live []liveReplica
			defer func() {
				for _, r := range live {
					r.rep.Stop()
					r.inst.Close()
				}
			}()
			for i := 0; i < replicas[c.Variant.Name].live; i++ {
				inst, err := composer.ComposeProduct(composer.Options{}, replicated...)
				if err != nil {
					return nil, err
				}
				rep, err := inst.ReplicateFrom(srv.Addr())
				if err != nil {
					inst.Close()
					return nil, err
				}
				live = append(live, liveReplica{inst, rep})
			}
			// A dead replica, seen from the primary: a feed that was
			// subscribed (the session handshake succeeded) and is never
			// drained again. The shipper must drop and mark it broken, never
			// block a commit.
			var deadFeed *repl.Feed
			if replicas[c.Variant.Name].dead > 0 {
				deadFeed = primary.Shipper().Subscribe()
				defer primary.Shipper().Unsubscribe(deadFeed)
			}

			elapsed, err := fanOut(c.Pos.Workers, ops, func(w, n int) error {
				cl, err := server.DialClient(srv.Addr())
				if err != nil {
					return err
				}
				defer cl.Close()
				sent := 0
				for done := 0; done < n; {
					for sent-done < window && sent < n {
						if err := cl.QueuePut(fmt.Appendf(nil, "c%02d-%07d", w, sent), value); err != nil {
							return err
						}
						sent++
					}
					if err := cl.Flush(); err != nil {
						return err
					}
					for done < sent {
						if err := cl.AwaitOK(); err != nil {
							return err
						}
						done++
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			m := Metrics{
				"ops_per_sec":  perSecond(ops, elapsed),
				"converged":    1,
				"dead_dropped": 0,
			}

			// Convergence: every live replica catches up to the primary's
			// exact log bytes (prefix CRC equality) and holds an identical
			// index.
			end := primary.Txn.WALEnd()
			for _, r := range live {
				if !r.rep.WaitFor(end, 30*time.Second) {
					return nil, fmt.Errorf("replica stuck at %d of %d", r.rep.Offset(), end)
				}
				ap, err := r.inst.ShipApplier()
				if err != nil {
					return nil, err
				}
				rEnd, rCRC, err := ap.PrefixCRC()
				if err != nil {
					return nil, err
				}
				pCRC, err := primary.Txn.WALPrefixCRC(rEnd)
				if err != nil || rEnd != end || rCRC != pCRC ||
					repl.VerifyIndexes(primary.Store.Index(), r.inst.Store.Index()) != nil {
					m["converged"] = 0
				}
			}
			if deadFeed != nil {
				// The dead feed's drop count is proof the failure happened
				// and was absorbed rather than blocking commits.
				m["dead_dropped"] = float64(deadFeed.Dropped())
				if !deadFeed.Broken() || deadFeed.Dropped() == 0 {
					return nil, fmt.Errorf("dead feed not broken (dropped %d): the workload was too small to overflow it", deadFeed.Dropped())
				}
			}
			snap, err := primary.Stats()
			if err != nil {
				return nil, err
			}
			// Shipping counters come from the Statistics registry; zero for
			// no-repl.
			m["commit_p50_ns"] = snap.Txn.CommitLatency.P50()
			m["commit_p99_ns"] = snap.Txn.CommitLatency.P99()
			m["shipped_chunks"] = float64(snap.Repl.ShippedChunks)
			m["shipped_bytes"] = float64(snap.Repl.ShippedBytes)
			m["drops"] = float64(snap.Repl.Drops)
			m["max_lag_bytes"] = float64(snap.Repl.MaxLagBytes)
			return m, nil
		},
		// Feed the loop from the configurations whose feature sets differ
		// only in Replication: the plain Server product and the replicated
		// product actually streaming to a replica.
		Feed: func(c Cell, m Metrics) map[nfp.Property]float64 {
			if c.Variant.Name != "no-repl" && c.Variant.Name != "1" {
				return nil
			}
			return map[nfp.Property]float64{
				nfp.Throughput: m["ops_per_sec"],
				nfp.LatencyP50: m["commit_p50_ns"],
				nfp.LatencyP99: m["commit_p99_ns"],
			}
		},
		// Both replica crash-point sweeps: every shipped-frame boundary,
		// then every torn device write.
		After: func(r *Report) error {
			for _, torn := range []bool{false, true} {
				sweep, err := ReplicaCrashPoints(ReplicaCrashConfig{Commits: crashCommits, Torn: torn, Seed: benchSeed})
				if err != nil {
					return err
				}
				r.Crash = append(r.Crash, sweep)
			}
			return nil
		},
	}
}
