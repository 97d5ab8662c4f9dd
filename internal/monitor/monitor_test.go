package monitor

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"famedb/internal/stats"
	"famedb/internal/storage"
)

func testSource(r *stats.Registry, h *storage.Health) Source {
	return Source{
		Snapshot: r.Snapshot,
		Health:   h,
		Features: []string{"Get", "Put", "Statistics", "Monitor"},
	}
}

// stall injects a synthetic commit stall of duration d into the
// registry's stall histogram.
func stall(r *stats.Registry, d time.Duration) {
	r.Done(stats.TxnCommitStall, time.Now().UnixNano()-d.Nanoseconds())
}

func TestWindowRatesAndQuantiles(t *testing.T) {
	r := stats.New()
	m := New(Config{Interval: time.Hour, window: 4 * time.Hour}, testSource(r, nil))

	m.Tick() // baseline
	for i := 0; i < 10; i++ {
		r.Add(stats.BufferHits, 1)
	}
	r.Add(stats.BufferMisses, 1)
	r.Add(stats.TxnCommits, 1)
	r.Add(stats.TxnCommits, 1)
	stall(r, 50*time.Millisecond)
	m.Tick()

	w := m.Window()
	if w.Samples != 2 {
		t.Fatalf("samples = %d, want 2", w.Samples)
	}
	if want := 10.0 / 11.0; w.HitRate < want-1e-9 || w.HitRate > want+1e-9 {
		t.Errorf("hit rate = %f, want %f", w.HitRate, want)
	}
	if w.CommitsPerSec <= 0 {
		t.Errorf("commits/s = %f, want > 0", w.CommitsPerSec)
	}
	// The stall histogram tops out at ~4.1ms, so a 50ms observation
	// reports p99 at the last finite bound — still well above 2ms.
	if w.StallP99Ns < float64(2*time.Millisecond) {
		t.Errorf("windowed stall p99 = %s, too low for a 50ms stall",
			time.Duration(w.StallP99Ns))
	}

	// A quiet window clears the rates: after two idle ticks the 4-sample
	// ring still holds the busy tick, but once it rotates out the rates
	// drop. Tick enough to evict it.
	for i := 0; i < 4; i++ {
		m.Tick()
	}
	if w := m.Window(); w.CommitsPerSec != 0 || w.HitRate != -1 {
		t.Errorf("idle window = %+v, want zero rates and hit rate -1", w)
	}
}

func TestWindowDegradedLatch(t *testing.T) {
	r := stats.New()
	h := storage.NewHealth()
	m := New(Config{Interval: time.Hour}, testSource(r, h))
	m.Tick()
	if w := m.Window(); w.Degraded {
		t.Fatal("healthy latch read as degraded")
	}
	h.Poison(errors.New("write quota exhausted"))
	m.Tick()
	w := m.Window()
	if !w.Degraded || !strings.Contains(w.DegradedReason, "write quota") {
		t.Fatalf("window = %+v, want degraded with reason", w)
	}
}

func TestWatchdogTransitions(t *testing.T) {
	r := stats.New()
	m := New(Config{
		Interval: time.Hour,
		Rules:    Thresholds{CommitStallP99: 2 * time.Millisecond},
	}, testSource(r, nil))

	m.Tick() // baseline: nothing firing
	stall(r, 80*time.Millisecond)
	m.Tick() // alert transition
	m.Tick() // still firing in the window: no new event yet

	events, dropped := m.Events()
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	if len(events) != 1 || events[0].Rule != "commit-stall-p99" || !events[0].Alert() {
		t.Fatalf("events = %+v, want one commit-stall-p99 alert", events)
	}
	if active := m.Active(); len(active) != 1 || active[0].Rule != "commit-stall-p99" {
		t.Fatalf("active = %+v, want the stall rule firing", active)
	}
	if m.Alerts() != 1 {
		t.Fatalf("alerts = %d, want 1", m.Alerts())
	}

	// Let the stall rotate out of the window: the rule clears.
	for i := 0; i < 130; i++ { // ring is Window/Interval = 60 min capacity... use enough ticks
		m.Tick()
	}
	events, _ = m.Events()
	last := events[len(events)-1]
	if last.Kind != "clear" || last.Rule != "commit-stall-p99" {
		t.Fatalf("last event = %+v, want a clear", last)
	}
	if len(m.Active()) != 0 {
		t.Fatalf("active = %+v, want empty after clear", m.Active())
	}
}

func TestWatchdogHitRateFloor(t *testing.T) {
	r := stats.New()
	m := New(Config{
		Interval: time.Hour,
		Rules:    Thresholds{HitRateFloor: 0.9},
	}, testSource(r, nil))
	m.Tick()
	// No traffic: the floor must not fire on an idle window.
	m.Tick()
	if len(m.Active()) != 0 {
		t.Fatalf("idle window fired: %+v", m.Active())
	}
	r.Add(stats.BufferHits, 1)
	for i := 0; i < 9; i++ {
		r.Add(stats.BufferMisses, 1)
	}
	m.Tick()
	if active := m.Active(); len(active) != 1 || active[0].Rule != "hit-rate" {
		t.Fatalf("active = %+v, want hit-rate firing at 0.1", active)
	}
}

func TestEventLogBounded(t *testing.T) {
	l := newEventLog(3)
	for i := 1; i <= 5; i++ {
		l.add(Event{Seq: uint64(i)})
	}
	events, dropped := l.list()
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	if len(events) != 3 || events[0].Seq != 3 || events[2].Seq != 5 {
		t.Fatalf("events = %+v, want seqs 3..5", events)
	}
}

func TestSamplerGoroutine(t *testing.T) {
	r := stats.New()
	m := New(Config{Interval: 2 * time.Millisecond}, testSource(r, nil))
	m.Start()
	deadline := time.Now().Add(2 * time.Second)
	for m.Ticks() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("sampler took no ticks")
		}
		time.Sleep(time.Millisecond)
	}
	m.Stop()
	m.Stop() // idempotent
	after := m.Ticks()
	time.Sleep(10 * time.Millisecond)
	if m.Ticks() != after {
		t.Fatal("sampler still ticking after Stop")
	}
}

func TestStopWithoutStart(t *testing.T) {
	m := New(Config{}, testSource(stats.New(), nil))
	m.Stop() // must not hang
}

func TestHTTPEndpoints(t *testing.T) {
	r := stats.New()
	h := storage.NewHealth()
	m := New(Config{Interval: time.Hour}, testSource(r, h))
	r.Add(stats.BufferHits, 1)
	m.Tick()

	srv, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, body)
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	assertPrometheus(t, body)
	for _, want := range []string{"famedb_buffer_hits_total", "famedb_monitor_ticks_total"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	code, body = get("/varz")
	if code != 200 {
		t.Fatalf("/varz = %d", code)
	}
	var v Varz
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("/varz not JSON: %v", err)
	}
	if v.Ticks < 2 { // the manual tick plus the /varz tick
		t.Errorf("varz ticks = %d, want >= 2", v.Ticks)
	}
	if len(v.Features) == 0 || v.Window.Samples == 0 {
		t.Errorf("varz = %+v, want features and a window", v)
	}

	if code, _ := get("/events"); code != 200 {
		t.Fatalf("/events = %d", code)
	}
	if code, _ := get("/trace"); code != 404 {
		t.Fatalf("/trace without Tracing = %d, want 404", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}

	// Degrade the latch: /healthz flips to 503 with the reason.
	h.Poison(errors.New("page 7 checksum mismatch"))
	if code, body := get("/healthz"); code != 503 || !strings.Contains(body, "checksum") {
		t.Fatalf("/healthz after poison = %d %q, want 503 + reason", code, body)
	}
}

// assertPrometheus is a minimal exposition-format parser: every
// non-comment line must be `name[{labels}] value`, and every sample
// name must have HELP/TYPE metadata.
func assertPrometheus(t *testing.T, body string) {
	t.Helper()
	typed := map[string]bool{}
	samples := 0
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("malformed sample line: %q", line)
		}
		var val float64
		if _, err := fmt.Sscanf(f[1], "%g", &val); err != nil {
			t.Fatalf("non-numeric value in %q: %v", line, err)
		}
		name := f[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unclosed label braces: %q", line)
			}
			name = name[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum")
		base = strings.TrimSuffix(base, "_count")
		if !typed[name] && !typed[base] {
			t.Fatalf("sample %q has no TYPE metadata", name)
		}
		samples++
	}
	if samples == 0 {
		t.Fatal("no samples in exposition")
	}
}

func TestWatchdogWALGrowthAndTraceDrops(t *testing.T) {
	r := stats.New()
	var logSize int64
	m := New(Config{
		Interval: time.Hour,
		Rules:    Thresholds{WALGrowthBytes: 1024, TraceDropsPerSec: 1000},
	}, Source{
		Snapshot: r.Snapshot,
		LogSize:  func() int64 { return logSize },
		Features: []string{"Transaction", "Monitor"},
	})
	m.Tick()
	logSize = 4096
	m.Tick()
	found := false
	for _, a := range m.Active() {
		if a.Rule == "wal-growth" {
			found = true
		}
	}
	if !found {
		t.Fatalf("active = %+v, want wal-growth firing", m.Active())
	}
}
