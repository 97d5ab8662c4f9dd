// Package monitor is the Monitor feature of FAME-DBMS: the subsystem
// that *watches* a composed product while it runs. Where the Statistics
// feature (internal/stats) accumulates counters since composition and
// the Tracing feature (internal/trace) retains individual operations,
// Monitor turns both into live operational signal:
//
//   - a sampler goroutine takes a stats.Snapshot every Interval and
//     keeps a fixed ring of per-tick deltas (stats.Snapshot.Sub), so
//     windowed rates and windowed latency quantiles — commits/s over
//     the last minute, commit-stall p99 over the last minute — come
//     from histogram differences instead of lifetime aggregates;
//   - a watchdog evaluates declarative threshold rules against every
//     fresh window and records transitions in a bounded event log;
//   - an HTTP endpoint (http.go) serves /metrics, /healthz, /varz,
//     /events and /trace for scrapers and operators.
//
// The feature requires Statistics (the model constraint Monitor =>
// Statistics): without the registry there is nothing to sample. Its
// memory is fixed at composition — the sample ring and the event log
// never grow with traffic — and a product derived without Monitor
// carries none of this package (the footprint guard enforces that).
package monitor

import (
	"sync"
	"time"

	"famedb/internal/stats"
	"famedb/internal/storage"
	"famedb/internal/trace"
)

// Config sizes the monitor. Zero values take the defaults.
type Config struct {
	// Interval is the sampler period (default 1s).
	Interval time.Duration
	// Rules are the watchdog thresholds.
	Rules Thresholds
	// window is how much history the sample ring covers: windowTicks
	// intervals, lowered only by this package's tests. The ring holds
	// window/Interval samples, minimum 2.
	window time.Duration
}

// windowTicks is how many sampler intervals the sample ring spans, and
// eventCap how many operational events the log keeps before it drops
// the oldest (counting the drops).
const (
	windowTicks = 60
	eventCap    = 128
)

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.window <= 0 {
		c.window = windowTicks * c.Interval
	}
	return c
}

// Source is what the monitor observes: closures into the composed
// instance, so the package depends on layer interfaces rather than the
// composer. Snapshot is required; everything else is optional.
type Source struct {
	// Snapshot returns the Statistics registry's current cumulative
	// snapshot (with the trace-ring gauges refreshed when Tracing is
	// composed).
	Snapshot func() stats.Snapshot
	// Health is the engine-wide degraded-mode latch; nil reads as
	// never-degraded.
	Health *storage.Health
	// LogSize returns the WAL's current size in bytes; nil when the
	// product has no Transaction feature.
	LogSize func() int64
	// Trace returns the span recorder's snapshot for the /trace
	// endpoint; nil when the product has no Tracing feature.
	Trace func() (trace.Snapshot, error)
	// Features names the composed product, for /varz.
	Features []string
}

// Sample is one sampler tick: the cumulative snapshot at the tick plus
// the delta against the previous tick.
type Sample struct {
	Time time.Time
	// Dur is the span this sample's Delta covers (since the previous
	// tick, or since Start for the first).
	Dur time.Duration
	// Cum is the cumulative snapshot at the tick; Delta the activity
	// since the previous tick (Cum.Sub(prev.Cum)).
	Cum   stats.Snapshot
	Delta stats.Snapshot
	// LogSize is the WAL size at the tick (0 without Transaction).
	LogSize int64
}

// Window is one windowed reading: rates and latency quantiles derived
// from the difference between the newest and oldest retained samples.
type Window struct {
	// Seconds is the wall time the window spans; Samples how many
	// sampler ticks it aggregates.
	Seconds float64 `json:"seconds"`
	Samples int     `json:"samples"`

	// Degraded mirrors the health latch at the newest tick.
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`

	// Windowed operation rates, per second.
	GetsPerSec    float64 `json:"gets_per_sec"`
	PutsPerSec    float64 `json:"puts_per_sec"`
	CommitsPerSec float64 `json:"commits_per_sec"`
	StmtsPerSec   float64 `json:"stmts_per_sec"`

	// HitRate is the buffer hit fraction over the window; -1 when the
	// window saw no cache traffic.
	HitRate float64 `json:"hit_rate"`

	// Windowed latency quantiles from histogram deltas, nanoseconds.
	GetP50Ns    float64 `json:"get_p50_ns"`
	GetP99Ns    float64 `json:"get_p99_ns"`
	PutP50Ns    float64 `json:"put_p50_ns"`
	PutP99Ns    float64 `json:"put_p99_ns"`
	CommitP99Ns float64 `json:"commit_p99_ns"`
	StallP50Ns  float64 `json:"stall_p50_ns"`
	StallP99Ns  float64 `json:"stall_p99_ns"`

	// WALGrowthBytes is the journal growth across the window (negative
	// after a checkpoint truncated it).
	WALGrowthBytes int64 `json:"wal_growth_bytes"`
	// TraceDropsPerSec is the span ring's windowed overwrite rate.
	TraceDropsPerSec float64 `json:"trace_drops_per_sec"`

	// Replication gauges at the newest tick (zero without the Server /
	// Replication features): connected replicas and the worst
	// per-replica lag behind the primary WAL, in bytes.
	ReplicasConnected int64 `json:"replicas_connected"`
	ReplicaLagBytes   int64 `json:"replica_lag_bytes"`
}

// Monitor is the live-observation subsystem of one composed product.
type Monitor struct {
	cfg Config
	src Source

	mu      sync.Mutex
	ring    []Sample // fixed capacity, ring[next-1] is newest
	next    int      // ring insertion cursor
	filled  int      // live samples in the ring
	ticks   uint64   // total samples ever taken
	started time.Time
	lastCum stats.Snapshot
	lastLog int64
	baseLog int64

	watchdog *watchdog
	events   *eventLog
	// servers are the telemetry listeners Serve started; Stop shuts
	// them down gracefully.
	servers []*Server

	runOnce sync.Once
	stop    chan struct{}
	done    chan struct{}
}

// New creates a monitor over src. The sampler does not run until Start;
// Tick can drive it manually (tests, on-demand reads).
func New(cfg Config, src Source) *Monitor {
	cfg = cfg.withDefaults()
	n := int(cfg.window / cfg.Interval)
	if n < 2 {
		n = 2
	}
	m := &Monitor{
		cfg:     cfg,
		src:     src,
		ring:    make([]Sample, n),
		started: time.Now(),
		events:  newEventLog(eventCap),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	m.watchdog = newWatchdog(cfg.Rules)
	return m
}

// Interval returns the sampler period.
func (m *Monitor) Interval() time.Duration { return m.cfg.Interval }

// Features returns the composed product's feature names.
func (m *Monitor) Features() []string { return m.src.Features }

// Start launches the sampler goroutine. Safe to call once; Stop ends
// it. A monitor that is never started still works through Tick.
func (m *Monitor) Start() {
	m.runOnce.Do(func() {
		go func() {
			defer close(m.done)
			t := time.NewTicker(m.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-m.stop:
					return
				case <-t.C:
					m.Tick()
				}
			}
		}()
	})
}

// Stop ends the sampler goroutine, waits for it to exit, and shuts
// down any telemetry listeners gracefully. Safe to call multiple times
// and without Start.
func (m *Monitor) Stop() {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	m.runOnce.Do(func() { close(m.done) }) // never started: mark done
	<-m.done
	m.closeServers()
}

// Tick takes one sample now: snapshot, delta, ring insertion, then a
// watchdog pass over the fresh window.
func (m *Monitor) Tick() {
	now := time.Now()
	cum := m.src.Snapshot()
	var logSize int64
	if m.src.LogSize != nil {
		logSize = m.src.LogSize()
	}

	m.mu.Lock()
	prevTime := m.started
	if m.filled > 0 {
		prevTime = m.newestLocked().Time
	}
	s := Sample{
		Time:    now,
		Dur:     now.Sub(prevTime),
		Cum:     cum,
		Delta:   cum.Sub(m.lastCum),
		LogSize: logSize,
	}
	m.lastCum = cum
	m.lastLog = logSize
	m.ring[m.next] = s
	m.next = (m.next + 1) % len(m.ring)
	if m.filled < len(m.ring) {
		m.filled++
	}
	m.ticks++
	w := m.windowLocked()
	for _, e := range m.watchdog.evaluate(now, w) {
		m.events.add(e)
	}
	m.mu.Unlock()
}

// newestLocked returns the most recent sample; filled must be > 0.
func (m *Monitor) newestLocked() Sample {
	return m.ring[(m.next-1+len(m.ring))%len(m.ring)]
}

// oldestLocked returns the oldest retained sample; filled must be > 0.
func (m *Monitor) oldestLocked() Sample {
	if m.filled < len(m.ring) {
		return m.ring[0]
	}
	return m.ring[m.next]
}

// Window returns the current windowed reading: the difference between
// the newest and oldest retained samples. Before the first tick it is
// the zero window.
func (m *Monitor) Window() Window {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.windowLocked()
}

func (m *Monitor) windowLocked() Window {
	var w Window
	if h := m.src.Health; h != nil && h.Degraded() {
		w.Degraded = true
		if r := h.Reason(); r != nil {
			w.DegradedReason = r.Error()
		}
	}
	if m.filled == 0 {
		return w
	}
	newest := m.newestLocked()
	oldest := m.oldestLocked()

	// The window spans from just before the oldest sample's delta to the
	// newest tick; with one sample that is the sample's own delta span.
	var d stats.Snapshot
	var secs float64
	var walBase int64
	if m.filled == 1 {
		d = newest.Delta
		secs = newest.Dur.Seconds()
		walBase = m.baseLog
	} else {
		d = newest.Cum.Sub(oldest.Cum)
		secs = newest.Time.Sub(oldest.Time).Seconds()
		walBase = oldest.LogSize
	}
	w.Samples = m.filled
	w.Seconds = secs
	if secs <= 0 {
		secs = 1e-9 // degenerate clock: avoid division by zero
	}

	w.GetsPerSec = float64(d.Access.GetLatency.Count) / secs
	w.PutsPerSec = float64(d.Access.PutLatency.Count) / secs
	w.CommitsPerSec = float64(d.Txn.Commits) / secs
	stmts := d.SQL.Creates + d.SQL.Drops + d.SQL.Inserts + d.SQL.Selects + d.SQL.Updates + d.SQL.Deletes
	w.StmtsPerSec = float64(stmts) / secs

	if traffic := d.Buffer.Hits + d.Buffer.Misses; traffic > 0 {
		w.HitRate = float64(d.Buffer.Hits) / float64(traffic)
	} else {
		w.HitRate = -1
	}

	w.GetP50Ns = d.Access.GetLatency.P50()
	w.GetP99Ns = d.Access.GetLatency.P99()
	w.PutP50Ns = d.Access.PutLatency.P50()
	w.PutP99Ns = d.Access.PutLatency.P99()
	w.CommitP99Ns = d.Txn.CommitLatency.P99()
	w.StallP50Ns = d.Txn.CommitStall.P50()
	w.StallP99Ns = d.Txn.CommitStall.P99()

	w.WALGrowthBytes = newest.LogSize - walBase
	w.TraceDropsPerSec = float64(d.Trace.DroppedSpans) / secs
	w.ReplicasConnected = newest.Cum.Repl.Connected
	w.ReplicaLagBytes = newest.Cum.Repl.MaxLagBytes
	return w
}

// Ticks returns how many samples the monitor has taken.
func (m *Monitor) Ticks() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ticks
}

// Events returns a copy of the retained operational events, oldest
// first, plus how many older events the bounded log has dropped.
func (m *Monitor) Events() ([]Event, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.events.list()
}

// Alerts returns how many alert (not clear) events the watchdog has
// ever emitted.
func (m *Monitor) Alerts() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.watchdog.alerts
}

// Active returns the currently-firing watchdog rules with their latest
// detail, sorted by rule name.
func (m *Monitor) Active() []ActiveRule {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.watchdog.activeRules()
}
