package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"time"

	"famedb/benchmark/flashdev"
	"famedb/benchmark/load"
	"famedb/internal/stats"
)

// runOpts is one invocation's settings.
type runOpts struct {
	seed    uint64
	seconds float64
	trace   bool
	sz      size
	outDir  string
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload measured.
type result struct {
	Workload   string   `json:"name"`
	Features   []string `json:"features"`
	Clients    int      `json:"clients"`
	StreamHash string   `json:"stream_hash"`
	Seconds    float64  `json:"window_s"`
	Attempted  uint64   `json:"attempted"`
	Failed     uint64   `json:"failed"`
	FirstError string   `json:"first_error,omitempty"`
	// Samples is the number of latencies behind each op kind's
	// percentiles.
	Samples map[string]uint64 `json:"samples,omitempty"`
	E2E     map[string]value  `json:"e2e,omitempty"`
	Layers  map[string]value  `json:"layers,omitempty"`
	// Shares is each layer's part of the top-cut time in the traced
	// phase; TracedCounts are that phase's exact counts.
	// SelfUs is each layer's self time per op kind and TopCutUs the
	// median at the top cut they are parts of, both from the traced phase.
	SelfUs       map[string]map[string]float64 `json:"self_us,omitempty"`
	TopCutUs     map[string]float64            `json:"top_cut_us,omitempty"`
	Shares       map[string]float64            `json:"shares,omitempty"`
	TracedCounts map[string]int64              `json:"traced_counts,omitempty"`
}

// counters is everything read before and after the window.
type counters struct {
	stats   stats.Snapshot
	dev     flashdev.Stats
	mem     runtime.MemStats
	wireIn  int64
	wireOut int64
	cpu     time.Duration
}

func (s *system) readCounters() (counters, error) {
	var c counters
	var err error
	if c.stats, err = s.inst.Stats(); err != nil {
		return c, err
	}
	c.dev = s.dev.Snapshot()
	runtime.ReadMemStats(&c.mem)
	c.wireIn, c.wireOut = s.wire.in.Load(), s.wire.out.Load()
	c.cpu = processCPU()
	return c, nil
}

// heapSampler tracks the peak heap in use without stopping the world.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if inUse := sample[0].Value.Uint64() + sample[1].Value.Uint64(); inUse > h.peak {
				h.peak = inUse
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// parallel runs fn for every client and returns the first error.
func parallel(clients []*client, fn func(i int, c *client) error) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (c *client) drive(n int, deadline time.Time, rec *recorder) error {
	if c.s.sp.style == wire {
		return c.runPipelined(n, deadline, rec)
	}
	return c.run(n, deadline, rec)
}

// connectAndWarm is the second half of set-up: serve, attach the
// replica, connect the clients and run the warm-up ops.
func (s *system) connectAndWarm(streams []load.Stream) ([]*client, error) {
	if err := s.listen(); err != nil {
		return nil, err
	}
	if s.sp.replica && s.replica == nil {
		if err := s.attachReplica(); err != nil {
			return nil, err
		}
	}
	clients := make([]*client, s.sp.clients)
	for i := range clients {
		c, err := newClient(s, i, streams[i])
		if err != nil {
			return nil, err
		}
		clients[i] = c
	}
	err := parallel(clients, func(_ int, c *client) error { return c.drive(s.sp.warmOps, time.Time{}, nil) })
	runtime.GC()
	return clients, err
}

func closeClients(clients []*client) {
	for _, c := range clients {
		if c != nil {
			c.close()
		}
	}
}

// runWorkload sets the workload up, measures one window, checks every
// answer and the final state, and reports.
func runWorkload(sp *spec, o runOpts) (*result, error) {
	// A set runs ten of these in one process: start each from a heap as
	// empty as a fresh process's, or the collector's pacing carries over.
	debug.FreeOSMemory()
	streams := load.Streams(o.seed, sp.clients, o.sz.streamOps, sp.mix)
	res := &result{
		Workload: sp.name, Features: sp.features, Clients: sp.clients, Seconds: o.seconds,
		StreamHash: fmt.Sprintf("%016x", load.Hash(streams)),
	}

	// Set-up. An untraced run sets up several times and reports the
	// median, keeping the last; a traced run sets up once, with the
	// traced phase between load and connect.
	var sys *system
	var clients []*client
	var traced *tracedResult
	var tr *tracer
	var setups []float64
	n := sp.setups
	if o.trace || o.sz.oneSetup {
		n = 1
	}
	for i := 0; i < n; i++ {
		if sys != nil {
			closeClients(clients)
			if err := sys.close(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", i, err)
			}
		}
		start := time.Now()
		var err error
		if sys, err = build(sp); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		var tracing time.Duration
		if o.trace {
			tr = newTracer()
			t0 := time.Now()
			if traced, err = sys.tracedPhase(streams, o.sz, tr); err != nil {
				sys.close()
				return nil, err
			}
			tracing = time.Since(t0)
		}
		if clients, err = sys.connectAndWarm(streams); err != nil {
			closeClients(clients)
			sys.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (time.Since(start) - tracing).Seconds())
	}
	defer func() {
		closeClients(clients)
		if sys != nil {
			sys.close()
		}
	}()

	// Space is read here, after a fixed amount of work (the load and the
	// warm-up ops), not after the window: what a window leaves behind
	// grows with the ops it got through, so a faster system would look
	// worse.
	spaceAmp, err := sys.spaceAmp()
	if err != nil {
		return nil, err
	}

	// The measured window.
	before, err := sys.readCounters()
	if err != nil {
		return nil, err
	}
	var replBefore flashdev.Stats
	if sys.replicaDev != nil {
		replBefore = sys.replicaDev.Snapshot()
	}
	heap := startHeapSampler()
	window := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	deadline := start.Add(window)
	recs := make([]*recorder, sp.clients)
	for i := range recs {
		recs[i] = &recorder{start: start, window: window}
	}
	runErr := parallel(clients, func(i int, c *client) error { return c.drive(-1, deadline, recs[i]) })
	windowEnd := time.Now()
	peak := heap.finish()
	after, err := sys.readCounters()
	if err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, fmt.Errorf("client stopped: %w", runErr)
	}
	closeClients(clients)
	clients = nil

	total := &recorder{}
	for _, r := range recs {
		for i := range r.hist {
			for k := range r.hist[i] {
				total.hist[i][k].Merge(&r.hist[i][k])
			}
		}
		total.attempted += r.attempted
		total.failed += r.failed
		total.busyNs += r.busyNs
		total.userBytes += r.userBytes
		for i, n := range r.readsByPath {
			total.readsByPath[i] += n
		}
		if total.firstErr == nil {
			total.firstErr = r.firstErr
		}
	}
	fail := func(err error) {
		total.failed++
		if total.firstErr == nil {
			total.firstErr = err
		}
	}

	// End-of-run checks. Every miss counts as a failed op.
	layers := map[string]float64{}
	if sys.replica != nil {
		if err := sys.converge(false); err != nil {
			fail(err)
		}
		// From the last reply to a stopped replica whose index equals the
		// primary's, so it includes what the replica still had queued when
		// the clients stopped.
		layers["repl.converge_ms"] = float64(time.Since(windowEnd)) / 1e6
	}
	if _, err := sys.checkAll(0); err != nil {
		fail(fmt.Errorf("final state: %w", err))
	}
	if sys.replicaInst != nil {
		if err := verifyInstance(sys.replicaInst); err != nil {
			fail(fmt.Errorf("replica: %w", err))
		}
	}
	if err := verifyInstance(sys.inst); err != nil {
		fail(err)
	}
	if sp.powerCut {
		if err := sys.cutAndRecover(layers); err != nil {
			fail(fmt.Errorf("power cut: %w", err))
		}
	}

	res.Attempted, res.Failed = total.attempted, total.failed
	if total.firstErr != nil {
		res.FirstError = total.firstErr.Error()
	}
	res.Samples = map[string]uint64{}
	var ops uint64
	for k := load.Kind(0); k < load.NKinds; k++ {
		res.Samples[k.String()] = total.count(k)
		ops += total.count(k)
	}
	if ops == 0 {
		return nil, errors.New("no operation completed inside the window")
	}
	if sp.mix.TextReadPct > 0 {
		res.Samples["read.stmt"], res.Samples["read.text"] = total.readsByPath[0], total.readsByPath[1]
	}
	// Percentiles and throughput are medians over the window's slices.
	us := func(k load.Kind, q float64) float64 {
		var per []float64
		for i := range total.hist {
			if h := &total.hist[i][k]; h.Count() > 0 {
				per = append(per, h.Quantile(q)/1e3)
			}
		}
		return median(per)
	}
	perSlice := make([]float64, Slices)
	for i := range total.hist {
		for k := range total.hist[i] {
			perSlice[i] += float64(total.hist[i][k].Count())
		}
	}
	opsPerS := median(perSlice) * Slices / o.seconds

	// The window is the same in both modes (the traced phase comes
	// before it, with its own client), so a traced run has end-to-end
	// numbers too; its set-up time leaves the traced phase out.
	if res.E2E, err = named(sp, e2eMetrics, map[string]float64{
		"setup_s":      median(setups),
		"ops_per_s":    opsPerS,
		"read_p50_us":  us(load.Read, 0.50),
		"read_p99_us":  us(load.Read, 0.99),
		"write_p50_us": us(load.Write, 0.50),
		"write_p99_us": us(load.Write, 0.99),
		"space_amp":    spaceAmp,
	}); err != nil {
		return nil, err
	}
	if !o.trace {
		return res, nil
	}

	// Per-layer metrics: counts over the window, self times from the
	// traced phase.
	layers["client.scan_p50_us"] = us(load.Scan, 0.50)
	layers["client.scan_p99_us"] = us(load.Scan, 0.99)
	sys.windowLayers(layers, before, after, replBefore, total, ops, o.seconds, peak)
	if sp.handStack {
		// Close the composed product and reopen its page file under the
		// hand-assembled stack.
		if err := sys.inst.Close(); err != nil {
			return nil, err
		}
		sys.inst = nil
		split, err := sys.handStack(streams[0], o.sz.tracedOps/2, tr)
		if err != nil {
			return nil, err
		}
		traced.applySplit(split)
	}
	traced.layers(layers)
	res.SelfUs = traced.selfUs()
	res.TopCutUs = map[string]float64{}
	for k := load.Kind(0); k < load.NKinds; k++ {
		if top := traced.stats[k][cutsFor(sp.style, k)[0]]; top.n > 0 {
			res.TopCutUs[k.String()] = top.med
		}
	}
	res.Shares = traced.shares()
	res.TracedCounts = traced.counts
	if res.Layers, err = named(sp, layerMetrics, layers); err != nil {
		return nil, err
	}
	if o.outDir != "" {
		if err := tr.write(o.outDir, sp.name); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return res, nil
}

// named picks the defined metrics out of m. A metric that applies to
// the workload must be there and finite, or the run fails; one that does
// not apply (its layer is not in the product) reads 0, whatever m holds.
func named(sp *spec, defs []metricDef, m map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		if !d.applies(sp) {
			out[d.name] = value{Value: 0, Unit: d.unit}
			continue
		}
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", sp.name, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", sp.name, d.name, v)
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	return out, nil
}

// cutAndRecover abandons the instance without closing it, cuts power,
// recomposes over what the device kept and times the way to the first
// answer. Every acknowledged write must be there, except that the
// product's GroupCommit may still hold the last groupCommitBatch-1
// singleton commits unsynced — its documented durability window. More
// lost writes than that fail the run.
func (s *system) cutAndRecover(layers map[string]float64) error {
	const durabilityWindow = groupCommitBatch - 1
	if err := s.srv.Close(); err != nil {
		return err
	}
	s.srv = nil
	s.inst = nil // abandoned: no Close, no flush
	if err := s.dev.PowerCut(); err != nil {
		return err
	}
	start := time.Now()
	inst, err := compose(s.dev, s.sp)
	if err != nil {
		return fmt.Errorf("recompose: %w", err)
	}
	s.inst = inst
	key := load.Key(0)
	tx := inst.Txn.Begin()
	v, err := tx.Get(key)
	tx.Abort()
	took := time.Since(start)
	if err != nil {
		return fmt.Errorf("first answer: %w", err)
	}
	if _, err := load.CheckValue(key, v); err != nil {
		return fmt.Errorf("first answer: %w", err)
	}
	layers["client.recovery_s"] = took.Seconds()
	layers["txn.redo_records_per_s"] = float64(inst.Txn.Recovered) / took.Seconds()
	lost, err := s.checkAll(durabilityWindow)
	layers["txn.lost_in_durability_window"] = float64(lost)
	if err != nil {
		return fmt.Errorf("after recovery: %w", err)
	}
	return verifyInstance(inst)
}

// windowLayers fills in the per-layer metrics that are counts over the
// measured window.
func (s *system) windowLayers(m map[string]float64, before, after counters, replBefore flashdev.Stats,
	total *recorder, ops uint64, seconds float64, heapPeak uint64) {
	d := after.stats.Sub(before.stats)
	dev := after.dev.Sub(before.dev)
	all := dev.Total()
	n := float64(ops)
	writes := float64(total.count(load.Write))
	// per is NaN over nothing: a metric that applies to the workload and
	// has nothing to divide by is a broken run, and named refuses it.
	per := func(a, b float64) float64 {
		if b == 0 {
			return math.NaN()
		}
		return a / b
	}

	m["server.wire_bytes_per_op"] = per(float64(after.wireIn-before.wireIn+after.wireOut-before.wireOut), n)

	commits := float64(d.Txn.Commits)
	m["txn.commit_batch_mean"] = per(float64(d.Txn.CommitBatch.Sum), float64(d.Txn.CommitBatch.Count))
	m["txn.wal_syncs_per_kcommit"] = per(float64(d.Txn.WalSyncs)*1000, commits)
	m["txn.wal_bytes_per_commit"] = per(float64(dev[flashdev.WAL].BytesWritten), commits)
	m["txn.commit_stall_p50_us"] = d.Txn.CommitStall.Quantile(0.5) / 1e3

	m["repl.shipped_chunks_per_commit"] = per(float64(d.Repl.ShippedChunks), commits)
	m["repl.acks_per_chunk"] = per(float64(d.Repl.Acks), float64(d.Repl.ShippedChunks))
	m["repl.drops"] = float64(d.Repl.Drops)
	m["repl.snapshot_resyncs"] = float64(d.Repl.Snapshots)
	m["repl.max_lag_bytes"] = float64(after.stats.Repl.MaxLagBytes)

	m["sql.plan_cache_hit_ratio"] = per(float64(d.SQL.PlanHits), float64(d.SQL.PlanHits+d.SQL.PlanMisses))
	if d.Queries != nil {
		var scanned, returned int64
		for _, sh := range d.Queries.Shapes {
			scanned += sh.RowsScanned
			returned += sh.RowsReturned
		}
		m["sql.rows_examined_per_row"] = per(float64(scanned), float64(returned))
	}

	m["btree.height"] = float64(after.stats.BTree.Height)
	m["btree.splits_per_kwrite"] = per(float64(d.BTree.LeafSplits+d.BTree.InnerSplits+d.BTree.RootSplits)*1000, writes)

	m["buffer.hit_ratio"] = per(float64(d.Buffer.Hits), float64(d.Buffer.Hits+d.Buffer.Misses))
	m["buffer.evictions_per_kop"] = per(float64(d.Buffer.Evictions)*1000, n)
	m["buffer.write_backs_per_kop"] = per(float64(d.Buffer.WriteBacks)*1000, n)

	m["storage.page_reads_per_op"] = per(float64(d.Pager.Reads), n)
	m["storage.page_writes_per_op"] = per(float64(d.Pager.Writes), n)

	m["osal.reads_per_op"] = per(float64(all.Reads), n)
	m["osal.writes_per_op"] = per(float64(all.Writes), n)
	m["osal.syncs_per_kop"] = per(float64(all.Syncs)*1000, n)
	m["osal.bytes_written_per_op"] = per(float64(all.BytesWritten), n)
	m["osal.busy_us_per_op"] = per(float64(all.BusyNs())/1e3, n)
	m["osal.wal_sync_us_per_write"] = per(float64(dev[flashdev.WAL].SyncNs)/1e3, writes)

	m["trace.spans_per_op"] = per(float64(d.Trace.RecordedSpans), n)
	m["trace.dropped_spans"] = float64(d.Trace.DroppedSpans)

	m["runtime.cpu_us_per_op"] = per(float64(after.cpu-before.cpu)/1e3, n)
	m["runtime.allocs_per_op"] = per(float64(after.mem.Mallocs-before.mem.Mallocs), n)
	m["runtime.alloc_bytes_per_op"] = per(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), n)
	m["runtime.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	m["runtime.heap_inuse_peak_mb"] = float64(heapPeak) / (1 << 20)

	if rom, err := s.inst.ROM(); err == nil {
		m["footprint.rom_kb"] = float64(rom) / 1024
	}
	m["footprint.ram_kb"] = float64(s.inst.RAM()) / 1024

	m["harness.generator_idle_ratio"] = 1 - per(float64(total.busyNs), float64(s.sp.clients)*seconds*1e9)

	// Device bytes over user bytes, replica's device included: it is the
	// system's cost of one user byte.
	written := all.BytesWritten
	if s.replicaDev != nil {
		written += s.replicaDev.Snapshot().Sub(replBefore).Total().BytesWritten
	}
	m["client.write_amp"] = per(float64(written), float64(total.userBytes))
}

// applySplit replaces the tree's lumped self time with the
// hand-assembled stack's split of it.
func (t *tracedResult) applySplit(sp *stackSplit) {
	for k := load.Kind(0); k < load.NKinds; k++ {
		if k == load.Write {
			continue
		}
		t.self.set("btree", k, sp.btree[k])
		t.self.set("buffer", k, sp.buffer[k])
		t.self.set("storage", k, sp.storage[k])
		t.self.set("osal", k, sp.osal[k])
	}
	t.split = sp
}

// layers fills in the per-layer metrics that are self times. A layer
// the traced phase never closed a cut for is left out, so that named
// can tell "not measured" from a measured zero.
func (t *tracedResult) layers(m map[string]float64) {
	ls := t.self
	self := func(name, layer string, k load.Kind) {
		if ls[layer] != nil && t.stats[k][cutsFor(t.style, k)[0]].n > 0 {
			m[name] = ls[layer][k]
		}
	}
	self("server.self_us_per_read", "server", load.Read)
	self("server.self_us_per_write", "server", load.Write)
	self("txn.self_us_per_read", "txn", load.Read)
	self("txn.self_us_per_write", "txn", load.Write)
	self("sql.self_us_per_select", "sql", load.Read)
	self("sql.self_us_per_update", "sql", load.Write)
	self("sql.parse_plan_us_per_stmt", "sql.parse", load.Read)
	self("access.self_us_per_op", "access", load.Read)
	self("btree.self_us_per_get", "btree", load.Read)
	self("btree.self_us_per_scan", "btree", load.Scan)
	if st := t.stats[load.Read][cutIndex]; st.n > 0 {
		m["btree.pages_per_lookup"] = st.pages
	}
	if t.split != nil {
		m["buffer.self_us_per_page"] = t.split.bufferPerPage
		m["storage.self_us_per_page"] = t.split.storagePerPage
	}
	m["repl.self_us_per_write"] = t.replSelf
	m["trace.overhead_ratio"] = t.traceRatio
	m["harness.tracing_overhead_ratio"] = t.overhead

	// The smallest self time, as a share of its kind's top cut: a layer
	// far below zero means the cuts do not nest and the split is wrong.
	least := math.Inf(1)
	for layer, byKind := range ls {
		if layer == "osal" {
			continue
		}
		for k, v := range byKind {
			if t.kindOps[k] > 0 && v != 0 && v < least { // exactly 0: the layer has no cut for this kind
				least = v
			}
		}
	}
	if math.IsInf(least, 1) {
		least = 0
	}
	m["harness.min_layer_self_us"] = least
}

// selfUs lists every layer's self time per op kind, for the report.
func (t *tracedResult) selfUs() map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	put := func(layer string, k load.Kind, v float64) {
		if t.kindOps[k] == 0 || v == 0 {
			return
		}
		if out[layer] == nil {
			out[layer] = map[string]float64{}
		}
		out[layer][k.String()] = v
	}
	for layer, byKind := range t.self {
		for k, v := range byKind {
			put(layer, load.Kind(k), v)
		}
	}
	put("repl", load.Write, t.replSelf)
	for k, v := range t.traceSelf {
		put("trace", load.Kind(k), v)
	}
	return out
}

// shareLayers is the order shares are reported in; sql.parse is part of
// sql.
var shareLayers = []string{"server", "txn", "repl", "sql", "access", "btree", "buffer", "storage", "osal", "trace"}

// shares weighs each layer's self time by the traced phase's op mix and
// divides by the sum, so the parts of a workload add up to one.
func (t *tracedResult) shares() map[string]float64 {
	part := map[string]float64{}
	add := func(layer string, k load.Kind, us float64) {
		if us > 0 {
			part[layer] += us * float64(t.kindOps[k])
		}
	}
	for layer, byKind := range t.self {
		name := layer
		if layer == "sql.parse" {
			name = "sql"
		}
		for k, v := range byKind {
			add(name, load.Kind(k), v)
		}
	}
	for k, v := range t.traceSelf {
		add("trace", load.Kind(k), v)
	}
	var sum float64
	for _, v := range part {
		sum += v
	}
	// Replication's share is measured under load; the others split what
	// it leaves.
	out := map[string]float64{"repl": t.replShare}
	for _, l := range shareLayers {
		if sum > 0 && l != "repl" {
			out[l] = part[l] / sum * (1 - t.replShare)
		}
	}
	return out
}
