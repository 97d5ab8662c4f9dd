package monitor

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"famedb/internal/stats"
)

// TestQueryStatsEndpoint serves /querystats from a registry with the
// QueryStats feature attached and checks the JSON document carries the
// per-shape profiles and the slow ring — and that scraping does not
// drain the ring.
func TestQueryStatsEndpoint(t *testing.T) {
	r := stats.New()
	q := stats.NewQueryStats()
	r.SetQueryStats(q)
	q.Observe(stats.QueryExec{Shape: "SELECT v FROM t WHERE id = ?", Verb: "select", DurNs: int64(2 * time.Millisecond)})
	q.CacheHit("SELECT v FROM t WHERE id = ?")

	m := New(Config{Interval: time.Hour}, testSource(r, nil))
	srv, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func() (int, []byte) {
		resp, err := http.Get(srv.URL() + "/querystats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	for pass := 0; pass < 2; pass++ { // second pass: the ring survived the scrape
		code, body := get()
		if code != 200 {
			t.Fatalf("/querystats = %d", code)
		}
		var snap stats.QuerySnapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatalf("/querystats not JSON: %v", err)
		}
		if len(snap.Shapes) != 1 || snap.Shapes[0].Count != 1 || snap.Shapes[0].PlanHits != 1 {
			t.Fatalf("pass %d: shapes = %+v", pass, snap.Shapes)
		}
		if len(snap.Slow) != 1 {
			t.Fatalf("pass %d: slow = %+v, want the 2ms entry retained", pass, snap.Slow)
		}
	}
}

// TestQueryStatsEndpointNotComposed: without the feature the route
// answers 404, mirroring /trace.
func TestQueryStatsEndpointNotComposed(t *testing.T) {
	m := New(Config{Interval: time.Hour}, testSource(stats.New(), nil))
	srv, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(srv.URL() + "/querystats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("/querystats without QueryStats = %d, want 404", resp.StatusCode)
	}
}
