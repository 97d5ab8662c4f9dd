package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"famedb/benchmark/flashdev"
	"famedb/benchmark/load"
	"famedb/internal/buffer"
	"famedb/internal/index"
	"famedb/internal/storage"
)

// The traced phase times calls into each layer's public functions from
// here, outside the program. One client issues a fixed prefix of the
// seeded stream, one op at a time, from a freshly loaded product, so
// every count it makes repeats exactly for a seed. The j-th op of a
// kind enters the stack at cut j mod K; a layer's self time is the
// median at its cut minus the median at the next cut down, and at the
// lowest cut the op's own duration minus the device calls under it.

// span is one timed interval: a root "<layer>.<call>" per op, and
// "osal.<op>.<class>" children emitted by the device while the op was
// in flight.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	Phase   string `json:"phase,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	phase string

	mu    sync.Mutex
	spans []span
	next  uint64

	// inFlight is the request id device spans hang under; childNs is the
	// device time charged to it so far.
	inFlight atomic.Uint64
	childNs  atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// sink returns a device span sink. Spans from the primary's device are
// children of the op in flight and count towards its device time; a
// replica's device works asynchronously, so its spans carry the suffix
// and are charged to no op.
func (t *tracer) sink(suffix string) flashdev.SpanSink {
	return func(op string, class flashdev.Class, start time.Time, d time.Duration) {
		parent := t.inFlight.Load()
		if suffix == "" && parent != 0 {
			t.childNs.Add(int64(d))
		}
		t.mu.Lock()
		t.next++
		t.spans = append(t.spans, span{
			ID: t.next, Parent: parent, Phase: t.phase,
			Name:    "osal." + op + "." + class.String() + suffix,
			StartNs: int64(start.Sub(t.epoch)), DurNs: int64(d),
		})
		t.mu.Unlock()
	}
}

// child records a harness-made child span (the hand-assembled stack's
// pager cuts).
func (t *tracer) child(name string, start time.Time, d time.Duration) {
	t.mu.Lock()
	t.next++
	t.spans = append(t.spans, span{
		ID: t.next, Parent: t.inFlight.Load(), Phase: t.phase, Name: name,
		StartNs: int64(start.Sub(t.epoch)), DurNs: int64(d),
	})
	t.mu.Unlock()
}

// begin opens a root span and returns its id.
func (t *tracer) begin() uint64 {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	t.childNs.Store(0)
	t.inFlight.Store(id)
	return id
}

// end closes the root span and returns the device time under it.
func (t *tracer) end(id uint64, name string, tm timing) int64 {
	t.inFlight.Store(0)
	child := t.childNs.Load()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: id, Phase: t.phase, Name: name,
		StartNs: int64(tm.start.Sub(t.epoch)), DurNs: int64(tm.end.Sub(tm.start)),
	})
	t.mu.Unlock()
	return child
}

func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace_"+workload+".json"))
	if err != nil {
		return err
	}
	t.mu.Lock()
	err = json.NewEncoder(f).Encode(map[string]any{"workload": workload, "spans": t.spans})
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// opRec is one traced op, kept for the self-time arithmetic.
type opRec struct {
	kind    load.Kind
	cut     int
	durNs   int64
	childNs int64
	pages   int64 // buffer accesses, counted at the index cut only
}

// cutStat summarises the ops of one kind at one cut, in microseconds.
type cutStat struct {
	n         int
	med       float64 // median duration
	selfMed   float64 // median of duration minus device time
	childMean float64 // mean device time
	pages     float64 // mean buffer accesses
}

type passStats [load.NKinds][nCuts]cutStat

// median leaves v as it was.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

func summarise(recs []opRec) *passStats {
	var durs, selfs [load.NKinds][nCuts][]float64
	var ps passStats
	for _, r := range recs {
		durs[r.kind][r.cut] = append(durs[r.kind][r.cut], float64(r.durNs)/1e3)
		selfs[r.kind][r.cut] = append(selfs[r.kind][r.cut], float64(r.durNs-r.childNs)/1e3)
		st := &ps[r.kind][r.cut]
		st.n++
		st.childMean += float64(r.childNs) / 1e3
		st.pages += float64(r.pages)
	}
	for k := range ps {
		for c := range ps[k] {
			st := &ps[k][c]
			if st.n == 0 {
				continue
			}
			st.med = median(durs[k][c])
			st.selfMed = median(selfs[k][c])
			st.childMean /= float64(st.n)
			st.pages /= float64(st.n)
		}
	}
	return &ps
}

// pass issues n ops from cli, rotating each kind through its cuts. With
// tr it records spans; without, it only times (the untraced comparison).
// topOnly pins every op to its top cut.
func (s *system) pass(cli *client, n int, tr *tracer, topOnly bool) ([]opRec, error) {
	recs := make([]opRec, 0, n)
	var turn [load.NKinds]int
	for i := 0; i < n; i++ {
		op := cli.next()
		cuts := cutsFor(s.sp.style, op.Kind)
		cut := cuts[0]
		if !topOnly {
			cut = cuts[turn[op.Kind]%len(cuts)]
			turn[op.Kind]++
		}
		var pages int64
		countPages := cut == cutIndex && op.Kind == load.Read
		if countPages {
			st, _ := s.inst.CacheStats()
			pages = -(st.Hits + st.Misses)
		}
		var id uint64
		if tr != nil {
			id = tr.begin()
		}
		tm, _, err := cli.do(op, cut)
		var child int64
		if tr != nil {
			child = tr.end(id, cutNames[cut]+"."+op.Kind.String(), tm)
		}
		if err != nil {
			return nil, fmt.Errorf("traced %s at the %s cut: %w", op.Kind, cutNames[cut], err)
		}
		if countPages {
			st, _ := s.inst.CacheStats()
			pages += st.Hits + st.Misses
		}
		recs = append(recs, opRec{kind: op.Kind, cut: cut, durNs: int64(tm.end.Sub(tm.start)), childNs: child, pages: pages})
	}
	return recs, nil
}

// burst runs n pipelined ops on every client at once and returns the
// processor time the process spent per op, in µs. It waits for the
// replica, if any, to apply what the burst shipped: that work is the
// burst's too.
func (s *system) burst(clients []*client, n int) (float64, error) {
	start := processCPU()
	if err := parallel(clients, func(_ int, c *client) error { return c.runPipelined(n, time.Time{}, nil) }); err != nil {
		return 0, err
	}
	if s.replica != nil {
		if err := s.catchUp(); err != nil {
			return 0, err
		}
	}
	return float64(processCPU()-start) / 1e3 / float64(len(clients)*n), nil
}

// layerSelf is the self time of each layer, per op kind, in µs.
type layerSelf map[string]*[load.NKinds]float64

func (ls layerSelf) set(layer string, k load.Kind, v float64) {
	if ls[layer] == nil {
		ls[layer] = new([load.NKinds]float64)
	}
	ls[layer][k] = v
}

func (ls layerSelf) get(layer string, k load.Kind) float64 {
	if ls[layer] == nil {
		return 0
	}
	return ls[layer][k]
}

// selfTimes turns a pass's cut medians into layer self times.
func selfTimes(st style, ps *passStats) layerSelf {
	ls := layerSelf{}
	for k := load.Kind(0); k < load.NKinds; k++ {
		cuts := cutsFor(st, k)
		if ps[k][cuts[0]].n == 0 {
			continue
		}
		for i, cut := range cuts {
			layer := layerOfCut(st, k, cut)
			if i+1 < len(cuts) {
				ls.set(layer, k, ps[k][cut].med-ps[k][cuts[i+1]].med)
				continue
			}
			ls.set(layer, k, ps[k][cut].selfMed)
			ls.set("osal", k, ps[k][cut].childMean)
		}
	}
	return ls
}

// layerOfCut names the layer whose self time a cut closes. At the
// lowest cut a layer also holds what lies under it and has no cut of
// its own: the tree holds buffer and pager (embed_scan_cold splits
// them on a hand-assembled stack), the transaction manager holds the
// apply into the tree, and a KV write enters at the store.
func layerOfCut(st style, k load.Kind, cut int) string {
	switch cut {
	case cutServer:
		return "server"
	case cutTxn:
		return "txn"
	case cutSQLText:
		if k == load.Read {
			return "sql.parse"
		}
		return "sql"
	case cutSQLStmt:
		return "sql"
	case cutAccess:
		if k != load.Read {
			return "btree"
		}
		return "access"
	default:
		return "btree"
	}
}

// tracedResult is what the traced phase hands to the report.
type tracedResult struct {
	style      style
	self       layerSelf            // workload's normal state
	stats      *passStats           // its cut medians
	replSelf   float64              // wire_put_repl1: processor µs per op under load, one replica minus none
	replShare  float64              // and as a share of the processor time per op with the replica
	traceSelf  [load.NKinds]float64 // embed_traced_kv: top cut, tracing on minus off
	traceRatio float64              // embed_traced_kv: throughput off / on
	overhead   float64              // harness: traced top-cut time / untraced
	counts     map[string]int64     // exact counts of the traced phase
	kindOps    [load.NKinds]int     // ops per kind in the main pass
	split      *stackSplit          // embed_scan_cold: the hand-assembled stack's split
}

func opsPerSec(recs []opRec) float64 {
	var ns int64
	for _, r := range recs {
		ns += r.durNs
	}
	if ns == 0 {
		return 0
	}
	return float64(len(recs)) / (float64(ns) / 1e9)
}

// tracedPhase runs on a freshly built system, before clients connect.
// It serves the product (and attaches the replica) as a side effect, so
// the caller goes on to connect and warm up.
func (s *system) tracedPhase(streams []load.Stream, sz size, tr *tracer) (*tracedResult, error) {
	res := &tracedResult{style: s.sp.style, counts: map[string]int64{}}
	if err := s.listen(); err != nil {
		return nil, err
	}
	cli, err := newClient(s, 0, streams[0])
	if err != nil {
		return nil, err
	}
	defer cli.close()
	s.dev.SetSpanSink(tr.sink(""))
	defer s.dev.SetSpanSink(nil)

	// rotate is a traced pass through the cuts. The device work under
	// these passes is the traced phase's exact count: one client, one
	// request in flight, a fixed prefix.
	var dev flashdev.Stats
	rotate := func(phase string, n int) ([]opRec, error) {
		tr.phase = phase
		before := s.dev.Snapshot()
		recs, err := s.pass(cli, n, tr, false)
		d := s.dev.Snapshot().Sub(before)
		for c := range dev {
			dev[c] = dev[c].Add(d[c])
		}
		return recs, err
	}

	n := sz.tracedOps
	var main []opRec
	switch {
	case s.sp.replica:
		// Half the prefix with nobody to ship to, half with one live
		// replica. One client with one request in flight does not feel a
		// replica: shipping is a copy and a channel send, and the replica
		// applies on the other core. Its cost is the processor time it
		// takes from a loaded primary, so it is measured under load: the
		// same pipelined burst from every client before and after the
		// replica attaches, and the processor time per op that it adds.
		other, err := newClient(s, 1, streams[1])
		if err != nil {
			return nil, err
		}
		defer other.close()
		both := []*client{cli, other}
		alone, err := rotate("no-replica", n/2)
		if err != nil {
			return nil, err
		}
		s.dev.SetSpanSink(nil)
		without, err := s.burst(both, sz.burstOps)
		if err != nil {
			return nil, err
		}
		if err := s.attachReplica(); err != nil {
			return nil, err
		}
		with, err := s.burst(both, sz.burstOps)
		if err != nil {
			return nil, err
		}
		if err := s.converge(true); err != nil {
			return nil, err
		}
		res.replSelf = with - without
		if with > 0 {
			res.replShare = math.Max(0, 1-without/with)
		}
		s.dev.SetSpanSink(tr.sink(""))
		s.replicaDev.SetSpanSink(tr.sink("@replica"))
		defer s.replicaDev.SetSpanSink(nil)
		if main, err = rotate("one-replica", n/2); err != nil {
			return nil, err
		}
		if err := s.converge(true); err != nil {
			return nil, err
		}
		// The other layers are read where replication is absent.
		res.stats = summarise(alone)
		res.self = selfTimes(s.sp.style, res.stats)
	case s.inst.Tracer() != nil:
		if main, err = rotate("tracing-on", n/2); err != nil {
			return nil, err
		}
		if err := s.inst.SetTracing(false); err != nil {
			return nil, err
		}
		off, err := rotate("tracing-off", n/2)
		if err != nil {
			return nil, err
		}
		if err := s.inst.SetTracing(true); err != nil {
			return nil, err
		}
		on, offS := summarise(main), summarise(off)
		for k := load.Kind(0); k < load.NKinds; k++ {
			top := cutsFor(s.sp.style, k)[0]
			res.traceSelf[k] = on[k][top].med - offS[k][top].med
		}
		res.traceRatio = opsPerSec(off) / opsPerSec(main)
		res.stats, res.self = on, selfTimes(s.sp.style, offS)
	default:
		if main, err = rotate("traced", n); err != nil {
			return nil, err
		}
		res.stats = summarise(main)
		res.self = selfTimes(s.sp.style, res.stats)
	}
	for _, r := range main {
		res.kindOps[r.kind]++
	}

	for _, c := range flashdev.Classes() {
		res.counts["osal.reads."+c.String()] = dev[c].Reads
		res.counts["osal.writes."+c.String()] = dev[c].Writes
		res.counts["osal.syncs."+c.String()] = dev[c].Syncs
		res.counts["osal.bytes_written."+c.String()] = dev[c].BytesWritten
	}
	res.counts["ops"] = int64(n)

	// The same kind of ops at the top cut with and without span
	// recording: what the harness's own tracing costs. Short blocks
	// alternate, so that drift (a replica catching up, the heap growing)
	// lands on both sides, and the result is the median of the blocks'
	// ratios: a wire round trip is three goroutine wake-ups, and the host
	// moves the median of one block by a fifth on its own.
	const blocks = 8
	topPass := func(tr *tracer) (*passStats, error) {
		if s.replica != nil {
			if err := s.catchUp(); err != nil {
				return nil, err
			}
		}
		s.dev.SetSpanSink(nil)
		if tr != nil {
			s.dev.SetSpanSink(tr.sink(""))
			tr.phase = "traced-top"
		}
		recs, err := s.pass(cli, sz.overheadOps/blocks, tr, true)
		return summarise(recs), err
	}
	var ratios []float64
	for b := 0; b < blocks; b++ {
		// Odd pairs run the traced block first: whatever the second block
		// of a pair gains from the first, both sides gain it equally often.
		first, second := (*tracer)(nil), tr
		if b%2 == 1 {
			first, second = tr, nil
		}
		p, err := topPass(first)
		if err != nil {
			return nil, err
		}
		t, err := topPass(second)
		if err != nil {
			return nil, err
		}
		if b%2 == 1 {
			p, t = t, p
		}
		var num, den float64
		for k := load.Kind(0); k < load.NKinds; k++ {
			top := cutsFor(s.sp.style, k)[0]
			if p[k][top].n > 0 && t[k][top].n > 0 {
				num += float64(p[k][top].n) * t[k][top].med
				den += float64(p[k][top].n) * p[k][top].med
			}
		}
		if den > 0 {
			ratios = append(ratios, num/den)
		}
	}
	if len(ratios) == 0 {
		return nil, errors.New("no op completed in the tracing-overhead passes")
	}
	res.overhead = median(ratios)
	return res, nil
}

// timingPager is a cut between two pager layers of the hand-assembled
// stack: it times every page call of the op in flight.
type timingPager struct {
	storage.Pager
	name  string
	tr    *tracer
	ns    int64
	calls int64
}

func (p *timingPager) ReadPage(id storage.PageID, buf []byte) error {
	start := time.Now()
	err := p.Pager.ReadPage(id, buf)
	d := time.Since(start)
	p.ns += int64(d)
	p.calls++
	p.tr.child(p.name+".read", start, d)
	return err
}

func (p *timingPager) WritePage(id storage.PageID, buf []byte) error {
	start := time.Now()
	err := p.Pager.WritePage(id, buf)
	d := time.Since(start)
	p.ns += int64(d)
	p.calls++
	p.tr.child(p.name+".write", start, d)
	return err
}

// stackSplit is the self time of the layers under the index cut, in µs:
// per get, per scan, and per page call for buffer and storage.
type stackSplit struct {
	btree, buffer, storage, osal  [load.NKinds]float64
	bufferPerPage, storagePerPage float64
}

// handStack reopens the closed product's page file under a stack built
// here — PageFile, timing cut, buffer.Manager, timing cut, B+-tree —
// and replays the stream's reads and scans on it. storage.Pager is the
// public seam between those layers, so the tree, the buffer pool and
// the pager each get a self time the composed product cannot show.
func (s *system) handStack(st load.Stream, n int, tr *tracer) (*stackSplit, error) {
	lf, err := s.dev.Open("fame.layout")
	if err != nil {
		return nil, err
	}
	size, err := lf.Size()
	if err != nil {
		return nil, err
	}
	raw := make([]byte, size)
	if _, err := lf.ReadAt(raw, 0); err != nil {
		return nil, err
	}
	lf.Close()
	var layout struct {
		StoreMeta uint32 `json:"store_meta"`
	}
	if err := json.Unmarshal(raw, &layout); err != nil {
		return nil, fmt.Errorf("fame.layout: %w", err)
	}
	f, err := s.dev.Open("fame.db")
	if err != nil {
		return nil, err
	}
	pf, err := storage.OpenPageFile(f)
	if err != nil {
		return nil, err
	}
	defer pf.Close()
	low := &timingPager{Pager: pf, name: "storage", tr: tr}
	bm, err := buffer.NewManager(low, s.sp.cachePages, buffer.NewLRU(), buffer.NewDynamicAllocator(pf.PageSize()))
	if err != nil {
		return nil, err
	}
	high := &timingPager{Pager: bm, name: "buffer", tr: tr}
	idx, err := index.OpenBTree(high, storage.PageID(layout.StoreMeta), index.AllBTreeOps())
	if err != nil {
		return nil, err
	}

	s.dev.SetSpanSink(tr.sink(""))
	defer s.dev.SetSpanSink(nil)
	tr.phase = "hand-stack"
	var bt, bf, sg, os_ [load.NKinds][]float64
	var bufNs, bufCalls, stoNs, stoCalls int64
	pos := 0
	for done := 0; done < n; {
		op := st.Ops[pos%len(st.Ops)]
		pos++
		if op.Kind == load.Write {
			continue
		}
		done++
		key := load.Key(uint64(op.ID))
		high.ns, high.calls, low.ns, low.calls = 0, 0, 0, 0
		id := tr.begin()
		var tm timing
		var found bool
		tm.start = time.Now()
		if op.Kind == load.Read {
			_, found, err = idx.Get(key)
		} else {
			rows := 0
			err = idx.Scan(key, nil, func(k, v []byte) bool { rows++; return rows < int(op.Len) })
			found = rows > 0
		}
		tm.end = time.Now()
		child := tr.end(id, "index."+op.Kind.String(), tm)
		if err != nil || !found {
			return nil, fmt.Errorf("hand-assembled stack: %s of %q: found=%v err=%v", op.Kind, key, found, err)
		}
		dur := int64(tm.end.Sub(tm.start))
		bt[op.Kind] = append(bt[op.Kind], float64(dur-high.ns)/1e3)
		bf[op.Kind] = append(bf[op.Kind], float64(high.ns-low.ns)/1e3)
		sg[op.Kind] = append(sg[op.Kind], float64(low.ns-child)/1e3)
		os_[op.Kind] = append(os_[op.Kind], float64(child)/1e3)
		bufNs += high.ns - low.ns
		bufCalls += high.calls
		stoNs += low.ns - child
		stoCalls += low.calls
	}
	sp := &stackSplit{}
	for k := load.Kind(0); k < load.NKinds; k++ {
		sp.btree[k], sp.buffer[k], sp.storage[k] = median(bt[k]), median(bf[k]), median(sg[k])
		for _, v := range os_[k] {
			sp.osal[k] += v
		}
		if len(os_[k]) > 0 {
			sp.osal[k] /= float64(len(os_[k]))
		}
	}
	if bufCalls > 0 {
		sp.bufferPerPage = float64(bufNs) / float64(bufCalls) / 1e3
	}
	if stoCalls > 0 {
		sp.storagePerPage = float64(stoNs) / float64(stoCalls) / 1e3
	}
	return sp, nil
}
