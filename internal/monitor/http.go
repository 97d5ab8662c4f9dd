package monitor

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Handler returns the telemetry endpoint as an http.Handler:
//
//	/metrics        Prometheus exposition (cumulative snapshot + the
//	                monitor's own counters)
//	/healthz        200 "ok" normally, 503 + reason once the storage
//	                health latch is degraded — a load-balancer probe
//	/varz           JSON: product features, uptime, the current windowed
//	                reading, active watchdog rules, cumulative snapshot
//	/events         JSON: the bounded operational event log
//	/trace          Chrome trace-event export of the span ring (404
//	                without the Tracing feature)
//	/querystats     JSON: per-shape statement profiles and the
//	                slow-query ring (404 without the QueryStats feature)
//	/debug/pprof/   the standard Go profiler
//
// The handler is safe for concurrent use alongside the sampler.
func (m *Monitor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", m.handleMetrics)
	mux.HandleFunc("/healthz", m.handleHealthz)
	mux.HandleFunc("/varz", m.handleVarz)
	mux.HandleFunc("/events", m.handleEvents)
	mux.HandleFunc("/trace", m.handleTrace)
	mux.HandleFunc("/querystats", m.handleQueryStats)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleMetrics is a pure scrape: the cumulative snapshot in Prometheus
// exposition format plus the monitor's self-metrics. It does not tick
// the sampler — scrape cadence must not perturb the window.
func (m *Monitor) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := m.src.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := snap.WritePrometheus(w); err != nil {
		return
	}
	m.mu.Lock()
	ticks := m.ticks
	alerts := m.watchdog.alerts
	active := len(m.watchdog.firing)
	_, dropped := m.events.list()
	m.mu.Unlock()
	fmt.Fprintf(w, "# HELP famedb_monitor_ticks_total Sampler ticks taken.\n")
	fmt.Fprintf(w, "# TYPE famedb_monitor_ticks_total counter\n")
	fmt.Fprintf(w, "famedb_monitor_ticks_total %d\n", ticks)
	fmt.Fprintf(w, "# HELP famedb_monitor_alerts_total Watchdog alert events emitted.\n")
	fmt.Fprintf(w, "# TYPE famedb_monitor_alerts_total counter\n")
	fmt.Fprintf(w, "famedb_monitor_alerts_total %d\n", alerts)
	fmt.Fprintf(w, "# HELP famedb_monitor_active_rules Watchdog rules currently firing.\n")
	fmt.Fprintf(w, "# TYPE famedb_monitor_active_rules gauge\n")
	fmt.Fprintf(w, "famedb_monitor_active_rules %d\n", active)
	fmt.Fprintf(w, "# HELP famedb_monitor_events_dropped_total Operational events evicted from the bounded log.\n")
	fmt.Fprintf(w, "# TYPE famedb_monitor_events_dropped_total counter\n")
	fmt.Fprintf(w, "famedb_monitor_events_dropped_total %d\n", dropped)
}

func (m *Monitor) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if h := m.src.Health; h != nil && h.Degraded() {
		reason := "storage degraded"
		if err := h.Reason(); err != nil {
			reason = err.Error()
		}
		http.Error(w, "degraded: "+reason, http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Varz is the /varz document: one JSON object an operator (or the
// future live NFP controller) can poll for the whole live picture.
type Varz struct {
	Features  []string     `json:"features"`
	UptimeSec float64      `json:"uptime_sec"`
	Interval  string       `json:"interval"`
	Ticks     uint64       `json:"ticks"`
	Window    Window       `json:"window"`
	Active    []ActiveRule `json:"active_rules"`
	Snapshot  interface{}  `json:"snapshot"`
}

// handleVarz ticks the sampler first so the reading includes activity
// since the last periodic sample, then serves the combined document.
func (m *Monitor) handleVarz(w http.ResponseWriter, r *http.Request) {
	m.Tick()
	m.mu.Lock()
	v := Varz{
		Features:  m.src.Features,
		UptimeSec: time.Since(m.started).Seconds(),
		Interval:  m.cfg.Interval.String(),
		Ticks:     m.ticks,
		Window:    m.windowLocked(),
		Active:    m.watchdog.activeRules(),
		Snapshot:  m.newestLocked().Cum,
	}
	m.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (m *Monitor) handleEvents(w http.ResponseWriter, r *http.Request) {
	events, dropped := m.Events()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Dropped uint64  `json:"dropped"`
		Events  []Event `json:"events"`
	}{dropped, events})
}

func (m *Monitor) handleTrace(w http.ResponseWriter, r *http.Request) {
	if m.src.Trace == nil {
		http.Error(w, "tracing not composed", http.StatusNotFound)
		return
	}
	snap, err := m.src.Trace()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	snap.WriteChrome(w)
}

// handleQueryStats serves the QueryStats registry's current snapshot:
// per-shape profiles (sorted by cumulative time) and the slow-query
// ring. Reading does not drain the ring — scrapes must not race each
// other for the slow entries.
func (m *Monitor) handleQueryStats(w http.ResponseWriter, r *http.Request) {
	snap := m.src.Snapshot()
	if snap.Queries == nil {
		http.Error(w, "querystats not composed", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap.Queries)
}

// drainTimeout bounds how long Close waits for in-flight requests.
const drainTimeout = 2 * time.Second

// Server is a running telemetry listener, returned by Serve.
type Server struct {
	ln  net.Listener
	srv *http.Server

	mu sync.Mutex
	// fresh holds the connections that have not sent a request yet.
	// http.Server.Shutdown counts such a connection as busy until it is
	// five seconds old, so Close closes them itself.
	fresh   map[net.Conn]struct{}
	closing bool
}

// trackConn is the server's ConnState hook: it keeps fresh current and
// closes a connection that arrives once Close has begun.
func (s *Server) trackConn(c net.Conn, state http.ConnState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case state == http.StateNew && s.closing:
		c.Close()
	case state == http.StateNew:
		s.fresh[c] = struct{}{}
	default:
		delete(s.fresh, c)
	}
}

// Serve binds addr (e.g. "127.0.0.1:0") and serves the telemetry
// handler on it until Close. The listener is bound synchronously so
// Addr is valid on return; request serving happens on a background
// goroutine. The server carries a ReadHeaderTimeout so a slow-loris
// scraper cannot hold a connection open forever, and is tracked by the
// monitor: Stop shuts it down gracefully.
func (m *Monitor) Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("monitor: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, fresh: make(map[net.Conn]struct{})}
	s.srv = &http.Server{
		Handler:           m.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       time.Minute,
		ConnState:         s.trackConn,
	}
	m.mu.Lock()
	m.servers = append(m.servers, s)
	m.mu.Unlock()
	go s.srv.Serve(ln)
	return s, nil
}

// closeServers gracefully shuts down every telemetry listener the
// monitor started; called from Stop (and so from DB.Close).
func (m *Monitor) closeServers() {
	m.mu.Lock()
	servers := m.servers
	m.servers = nil
	m.mu.Unlock()
	for _, s := range servers {
		s.Close()
	}
}

// Addr returns the bound listen address (with the real port when addr
// was :0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the http base URL of the endpoint.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close closes the connections that never sent a request, drains
// in-flight requests (bounded by drainTimeout) and stops the listener;
// stragglers past the deadline are cut off.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closing = true
	for c := range s.fresh {
		c.Close()
	}
	s.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}
