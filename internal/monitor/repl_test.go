package monitor

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"famedb/internal/stats"
	"famedb/internal/trace"
)

func TestWatchdogReplicaRules(t *testing.T) {
	r := stats.New()
	m := New(Config{
		Interval: time.Hour,
		Rules:    Thresholds{ReplicaLagBytes: 1024, ReplicaMinConnected: 2},
	}, testSource(r, nil))

	// Healthy: 2 replicas connected, no lag.
	r.Set(stats.ReplConnected, 2)
	r.Set(stats.ReplMaxLagBytes, 0)
	m.Tick()
	if got := m.Active(); len(got) != 0 {
		t.Fatalf("healthy replicas fired %v", got)
	}
	// One replica lost, the other far behind.
	r.Set(stats.ReplConnected, 1)
	r.Set(stats.ReplMaxLagBytes, 4096)
	m.Tick()
	active := m.Active()
	names := map[string]bool{}
	for _, a := range active {
		names[a.Rule] = true
	}
	if !names["replica-lag"] || !names["replica-lost"] {
		t.Fatalf("active = %v, want replica-lag and replica-lost", active)
	}
	// Recovery clears both.
	r.Set(stats.ReplConnected, 2)
	r.Set(stats.ReplMaxLagBytes, 10)
	m.Tick()
	if got := m.Active(); len(got) != 0 {
		t.Fatalf("recovered replicas still firing %v", got)
	}
	w := m.Window()
	if w.ReplicasConnected != 2 || w.ReplicaLagBytes != 10 {
		t.Fatalf("window gauges = %d connected, %d lag", w.ReplicasConnected, w.ReplicaLagBytes)
	}
}

func TestServeReadHeaderTimeoutAndGracefulStop(t *testing.T) {
	r := stats.New()
	m := New(Config{Interval: time.Hour}, testSource(r, nil))
	srv, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if srv.srv.ReadHeaderTimeout <= 0 {
		t.Fatal("telemetry server has no ReadHeaderTimeout (slow-loris hole)")
	}
	// A connection that never sends a request must not survive Stop:
	// the monitor owns its servers and shuts them down.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Wait until the server has accepted it, so Stop has to deal with it.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		accepted := len(srv.fresh) == 1
		srv.mu.Unlock()
		if accepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the server never accepted the connection")
		}
	}
	start := time.Now()
	m.Stop()
	// Nothing is in flight, so Stop must not sit out the drain deadline
	// waiting for the connection that never spoke.
	if d := time.Since(start); d > drainTimeout/4 {
		t.Fatalf("Stop took %v with one idle connection, drain deadline %v", d, drainTimeout)
	}
	// After Stop the listener is gone: new dials fail.
	if c, err := net.Dial("tcp", srv.Addr()); err == nil {
		c.Close()
		t.Fatal("telemetry listener still accepting after Stop")
	}
}

// TestStopDrainsInFlightRequest: Stop still waits for a request that is
// being served, and its client gets the whole answer.
func TestStopDrainsInFlightRequest(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	src := testSource(stats.New(), nil)
	src.Trace = func() (trace.Snapshot, error) {
		close(entered)
		<-release
		return trace.Snapshot{}, nil
	}
	m := New(Config{Interval: time.Hour}, src)
	srv, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	status := make(chan int, 1)
	go func() {
		resp, err := http.Get(srv.URL() + "/trace")
		if err != nil {
			status <- 0
			return
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			status <- 0
			return
		}
		status <- resp.StatusCode
	}()
	<-entered
	stopped := make(chan struct{})
	go func() {
		m.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a request was in flight")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	<-stopped
	if code := <-status; code != http.StatusOK {
		t.Fatalf("in-flight request answered %d across Stop, want 200", code)
	}
}
