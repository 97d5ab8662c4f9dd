package composer

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"famedb/internal/access"
	"famedb/internal/monitor"
	"famedb/internal/osal"
	"famedb/internal/stats"
	"famedb/internal/storage"
)

// monitorFeatures is a group-commit product with live monitoring: the
// deployment the ROADMAP's network-server item is heading toward.
var monitorFeatures = []string{
	"Linux", "BPlusTree", "BTreeUpdate", "BTreeRemove",
	"BufferManager", "LRU", "DynamicAlloc",
	"Put", "Get", "Remove", "Update",
	"Transaction", "GroupCommit", "Locking",
	"Statistics", "Monitor",
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestComposeMonitorRequiresStatistics(t *testing.T) {
	// Selecting Monitor alone must pull Statistics in by propagation.
	inst, err := ComposeProduct(Options{}, "Linux", "BPlusTree", "Put", "Get", "Monitor")
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if !inst.Configuration.Has("Statistics") {
		t.Fatal("Monitor did not pull in Statistics")
	}
	if inst.Monitor() == nil {
		t.Fatal("Monitor feature selected but no monitor composed")
	}
	if _, err := inst.MonitorWindow(); err != nil {
		t.Fatal(err)
	}
}

func TestMonitorNotComposed(t *testing.T) {
	inst, err := ComposeProduct(Options{}, "Linux", "BPlusTree", "Put", "Get", "Statistics")
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if inst.Monitor() != nil {
		t.Fatal("monitor composed without the Monitor feature")
	}
	if _, err := inst.MonitorWindow(); !errors.Is(err, access.ErrNotComposed) {
		t.Fatalf("MonitorWindow = %v, want ErrNotComposed", err)
	}
	if _, _, err := inst.MonitorEvents(); !errors.Is(err, access.ErrNotComposed) {
		t.Fatalf("MonitorEvents = %v, want ErrNotComposed", err)
	}
	if _, err := inst.ServeMonitor("127.0.0.1:0"); !errors.Is(err, access.ErrNotComposed) {
		t.Fatalf("ServeMonitor = %v, want ErrNotComposed", err)
	}
}

// TestMonitorEndpointLive is the acceptance-criteria scrape: a live
// telemetry endpoint over a real composed product. /metrics must be
// well-formed Prometheus exposition, /varz must carry the product's
// features and a fresh window, /healthz reads 200 while healthy.
func TestMonitorEndpointLive(t *testing.T) {
	inst, err := ComposeProduct(Options{
		MonitorInterval: time.Hour, // sampling driven by /varz ticks
	}, monitorFeatures...)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if err := inst.Store.Put([]byte(k), []byte("value of "+k)); err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Store.Get([]byte(k)); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := inst.ServeMonitor("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if code, body := httpGet(t, srv.URL()+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, body)
	}

	code, body := httpGet(t, srv.URL()+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	parsePrometheus(t, body)
	for _, want := range []string{
		"famedb_access_get_latency_ns_bucket", "famedb_txn_commits_total",
		"famedb_monitor_ticks_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	code, body = httpGet(t, srv.URL()+"/varz")
	if code != 200 {
		t.Fatalf("/varz = %d", code)
	}
	var v monitor.Varz
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("/varz is not JSON: %v\n%s", err, body)
	}
	hasMonitor := false
	for _, f := range v.Features {
		if f == "Monitor" {
			hasMonitor = true
		}
	}
	if !hasMonitor {
		t.Errorf("/varz features = %v, missing Monitor", v.Features)
	}
	if v.Window.Samples == 0 {
		t.Errorf("/varz window has no samples: %+v", v.Window)
	}
	// The 50 puts and gets above landed inside the first window.
	if v.Window.PutsPerSec <= 0 || v.Window.GetsPerSec <= 0 {
		t.Errorf("window rates = %+v, want positive put/get rates", v.Window)
	}
}

// parsePrometheus asserts the exposition format line by line: samples
// are `name[{labels}] value` and every sample has TYPE metadata.
func parsePrometheus(t *testing.T, body string) {
	t.Helper()
	typed := map[string]bool{}
	samples := 0
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[f[2]] = true
		case strings.HasPrefix(line, "#"):
		default:
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
				name = name[:i]
			}
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(
				name, "_bucket"), "_sum"), "_count")
			if !typed[name] && !typed[base] {
				t.Fatalf("sample %q has no TYPE metadata", name)
			}
			samples++
		}
	}
	if samples == 0 {
		t.Fatal("no samples in exposition")
	}
}

// TestMonitorDegradedAlert drives the engine into degraded mode via
// transient-fault exhaustion (the osal fault schedule) and asserts the
// full observability chain: the watchdog's degraded rule fires into the
// event log as its first event, and /healthz flips to 503 with the
// poison reason.
func TestMonitorDegradedAlert(t *testing.T) {
	ffs := osal.NewFaultFS(osal.NewMemFS())
	inst, err := ComposeProduct(Options{
		FS:              ffs,
		CachePages:      4,
		Retry:           storage.RetryPolicy{Attempts: 2, Sleep: func(time.Duration) {}},
		MonitorInterval: time.Hour, // tick manually for determinism
	}, monitorFeatures...)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if err := inst.Store.Put([]byte(k), []byte("value of "+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := inst.Sync(); err != nil {
		t.Fatal(err)
	}

	srv, err := inst.ServeMonitor("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if code, _ := httpGet(t, srv.URL()+"/healthz"); code != 200 {
		t.Fatalf("healthy /healthz = %d", code)
	}

	// Every device write fails transiently from here on; flushing until
	// the retry budget runs out poisons the health latch.
	sched := osal.NewSchedule(7)
	sched.Add(osal.Rule{Class: osal.OpWrite, At: 1, Kind: osal.FaultError, Heal: 1 << 30})
	ffs.SetSchedule(sched)
	for i := 0; !inst.Degraded() && i < 100; i++ {
		inst.Store.Put([]byte(fmt.Sprintf("w-%d", i)), []byte("x"))
		inst.Sync()
	}
	if !inst.Degraded() {
		t.Fatal("retry exhaustion did not degrade the engine")
	}

	// The next sample sees the latch; the watchdog fires.
	w, err := inst.MonitorWindow()
	if err != nil {
		t.Fatal(err)
	}
	if !w.Degraded || w.DegradedReason == "" {
		t.Fatalf("window = %+v, want degraded with reason", w)
	}
	events, _, err := inst.MonitorEvents()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range events {
		if e.Rule == "degraded" && e.Alert() {
			found = true
		}
	}
	if !found {
		t.Fatalf("events = %+v, want a degraded alert", events)
	}
	if events[0].Rule != "degraded" || !events[0].Alert() {
		t.Fatalf("first event = %+v, want the degraded alert", events[0])
	}

	if code, body := httpGet(t, srv.URL()+"/healthz"); code != 503 ||
		!strings.Contains(body, "degraded") {
		t.Fatalf("/healthz after degrade = %d %q, want 503", code, body)
	}
}

// TestMonitorCommitStallAlert injects commit stalls with a DelayFS (the
// group-commit leader's fsync is slowed, so followers wait) and asserts
// the stall rule's alert reaches the /events endpoint — the acceptance
// criterion's injected-stall scrape.
func TestMonitorCommitStallAlert(t *testing.T) {
	fs := osal.NewDelayFS(osal.NewMemFS(), 0, 2*time.Millisecond)
	inst, err := ComposeProduct(Options{
		FS:              fs,
		MonitorInterval: time.Hour,
		MonitorRules:    monitor.Thresholds{CommitStallP99: time.Millisecond},
	}, monitorFeatures...)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if _, err := inst.MonitorWindow(); err != nil { // baseline sample
		t.Fatal(err)
	}

	// Concurrent committers: followers stall on the leader's delayed
	// fsync, pushing the windowed stall p99 over the 1ms threshold.
	const committers = 8
	var wg sync.WaitGroup
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				tx := inst.Txn.Begin()
				k := fmt.Sprintf("key-%d-%d", g, i)
				if err := tx.Put([]byte(k), []byte("v")); err != nil {
					t.Error(err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if _, err := inst.MonitorWindow(); err != nil { // sample the stalls
		t.Fatal(err)
	}

	srv, err := inst.ServeMonitor("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := httpGet(t, srv.URL()+"/events")
	if code != 200 {
		t.Fatalf("/events = %d", code)
	}
	var doc struct {
		Events []monitor.Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/events is not JSON: %v", err)
	}
	found := false
	for _, e := range doc.Events {
		if e.Rule == "commit-stall-p99" && e.Alert() {
			found = true
		}
	}
	if !found {
		t.Fatalf("/events = %s, want a commit-stall-p99 alert", body)
	}
}

// TestMonitorRaceStress runs the sampler at full speed against a
// group-commit write load with concurrent window/event readers and
// /varz scrapes — the -race satellite. The assertions are weak on
// purpose; the race detector is the judge.
func TestMonitorRaceStress(t *testing.T) {
	inst, err := ComposeProduct(Options{
		MonitorInterval: time.Millisecond,
		MonitorRules: monitor.Thresholds{
			CommitStallP99: time.Millisecond,
			HitRateFloor:   0.5,
		},
	}, monitorFeatures...)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := inst.ServeMonitor("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Group-commit writers.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx := inst.Txn.Begin()
				tx.Put([]byte(fmt.Sprintf("k-%d-%d", g, i%256)), []byte("v"))
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// Window and event readers alongside the sampler goroutine.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				inst.MonitorWindow()
				inst.MonitorEvents()
			}
		}()
	}
	// One HTTP scraper.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(srv.URL() + "/varz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()

	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	srv.Close()

	if m := inst.Monitor(); m.Ticks() == 0 {
		t.Error("sampler took no ticks under load")
	}
	var snap stats.Snapshot
	if snap, err = inst.Stats(); err != nil || snap.Txn.Commits == 0 {
		t.Errorf("stress produced no commits: %v %+v", err, snap.Txn)
	}
	if err := inst.Close(); err != nil {
		t.Fatal(err)
	}
}
