package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"famedb/internal/core"
	"famedb/internal/footprint"
	"famedb/internal/nfp"
	"famedb/internal/solver"
)

// smokeOps is the fame-bench -ops the table test runs at: small enough
// that most rows fall to their own floors.
const smokeOps = 3200

// pointsBy indexes a report's points by their variant label.
func pointsBy(r *Report) map[string][]Point {
	by := map[string][]Point{}
	for _, p := range r.Points {
		by[p.Labels[r.LabelNames[0]]] = append(by[p.Labels[r.LabelNames[0]]], p)
	}
	return by
}

// rowChecks are the per-row assertions beyond the common shape: what
// each scenario's workload must have done for its numbers to mean
// anything.
var rowChecks = map[string]func(t *testing.T, r *Report){
	"B2": func(t *testing.T, r *Report) {
		if len(r.Points) != 6 {
			t.Fatalf("points = %d, want 2 pools x 3 goroutine counts", len(r.Points))
		}
		for _, p := range r.Points {
			if p.Metrics["hit_rate"] <= 0.5 {
				t.Errorf("%v: hit rate %f on a hit-heavy mix", p.Labels, p.Metrics["hit_rate"])
			}
		}
		if r.Feedback.MeasuredProducts != 2 {
			t.Errorf("measured products = %d, want both pools", r.Feedback.MeasuredProducts)
		}
		speedupAt16 := 0.0
		for _, row := range r.Ratios {
			if row.Labels["pool"] == "sharded" && row.Labels["goroutines"] == "16" {
				speedupAt16 = row.Metrics["ops_per_sec_ratio"]
			}
		}
		if speedupAt16 <= 0 {
			t.Errorf("speedup at 16 goroutines = %f", speedupAt16)
		}
		if r.Config["shards"] != b2Shards {
			t.Errorf("config lost the shard count: %v", r.Config)
		}
	},
	"B5": func(t *testing.T, r *Report) {
		// Two products × three sizes.
		if len(r.Points) != 6 {
			t.Fatalf("points = %d, want 6", len(r.Points))
		}
		for _, p := range r.Points {
			m := p.Metrics
			if m["commits_per_sec"] <= 0 || m["gets_per_sec"] <= 0 {
				t.Errorf("point %v: no throughput", p.Labels)
			}
			if p.Labels["records"] != formatValue(m["recovered_commits"]) {
				t.Errorf("point %v: recovered %v commits", p.Labels, m["recovered_commits"])
			}
			if trailered := p.Labels["checksums"] == "on"; trailered != (m["scrubbed_pages"] > 0) {
				t.Errorf("point %v: scrubbed %v pages", p.Labels, m["scrubbed_pages"])
			}
		}
		if len(r.Ratios) != 3+1 {
			t.Fatalf("ratio rows = %d, want one per size plus the fitted weights", len(r.Ratios))
		}
		if fb := r.Feedback; fb.Weight <= -0.5 && !fb.Selected {
			t.Errorf("deriver dropped Checksums despite a %+.0f fitted weight", fb.Weight)
		}
	},
	"B9": func(t *testing.T, r *Report) {
		// The objective is deterministic: the bare product leaves every
		// statement unprofiled, the instrumented one none.
		if fb := r.Feedback; fb.Weight >= 0 || !fb.Selected {
			t.Errorf("QueryStats: unprofiled weight %+.0f, selected %v", fb.Weight, fb.Selected)
		}
		for _, p := range pointsBy(r)["on"] {
			if p.Metrics["query_p99_ns"] <= 0 {
				t.Errorf("point %v: the registry measured no point-lookup p99", p.Labels)
			}
		}
		attributed := map[string]bool{}
		for _, row := range r.Ratios {
			if row.Metrics["count"] > 0 {
				attributed[row.Labels["shape"]] = true
			}
		}
		for _, shape := range sqlPrepared {
			if !attributed[shape] {
				t.Errorf("no per-shape row for %q", shape)
			}
		}
	},
	"B10": func(t *testing.T, r *Report) {
		if len(r.Points) != 5 {
			t.Fatalf("points = %d, want all five scenarios", len(r.Points))
		}
		by := pointsBy(r)
		for name, ps := range by {
			if ps[0].Metrics["converged"] != 1 {
				t.Errorf("scenario %s did not converge", name)
			}
		}
		if by["2"][0].Metrics["shipped_chunks"] == 0 {
			t.Error("no chunks shipped with two replicas")
		}
		if by["1-dead"][0].Metrics["dead_dropped"] == 0 {
			t.Error("dead replica dropped nothing")
		}
		if by["no-repl"][0].Metrics["shipped_chunks"] != 0 {
			t.Error("unreplicated product shipped chunks")
		}
		if len(r.Crash) != 2 || !r.Ok() {
			t.Fatalf("crash sweeps: %+v", r.Crash)
		}
		if !strings.Contains(r.Format(), "crash sweep (replica, cut)") {
			t.Errorf("format misses the crash sweeps:\n%s", r.Format())
		}
	},
}

// TestScenarioShapes runs every row of the feedback table at smoke size
// and asserts the *shape* of its report, not absolute numbers: every
// declared metric present and finite in every cell, with-variants
// paired with their baselines, the deriver's verdict following the
// fitted weight, the ROM side priced, and the report surviving a JSON
// round trip.
func TestScenarioShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all ten benchmark rows, B10 over loopback TCP")
	}
	for _, row := range scenarioRows {
		row := row
		t.Run(row.id, func(t *testing.T) {
			sc := row.build(smokeOps / row.scale)
			sc.ID = row.id
			r, err := RunScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			if r.ID != row.id || r.Env.GoVersion == "" || r.Env.NumCPU <= 0 || r.Env.GOMAXPROCS <= 0 {
				t.Errorf("report header incomplete: id %q env %+v", r.ID, r.Env)
			}
			if len(r.Points) != len(sc.Variants)*len(sc.Sweep) {
				t.Fatalf("points = %d, want %d variants x %d positions", len(r.Points), len(sc.Variants), len(sc.Sweep))
			}
			for _, p := range r.Points {
				for _, name := range r.LabelNames {
					if _, ok := p.Labels[name]; !ok {
						t.Errorf("point %v misses label %q", p.Labels, name)
					}
				}
				for _, name := range sc.Metrics {
					if v, ok := p.Metrics[name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("point %v: metric %q = %v (present %v)", p.Labels, name, v, ok)
					}
				}
				if p.Metrics[sc.Metrics[0]] <= 0 {
					t.Errorf("point %v: no throughput", p.Labels)
				}
			}

			// Every with-variant is compared against a measured baseline at
			// every sweep position.
			by := pointsBy(r)
			paired := 0
			for _, row := range r.Ratios {
				against, isRatio := row.Labels["vs"]
				if !isRatio {
					continue
				}
				paired++
				if len(by[against]) != len(sc.Sweep) {
					t.Errorf("ratio row %v names an unmeasured baseline", row.Labels)
				}
				for _, name := range sc.Compare {
					if v := row.Metrics[name+"_ratio"]; v <= 0 || math.IsInf(v, 0) {
						t.Errorf("ratio row %v: %s_ratio = %v", row.Labels, name, v)
					}
				}
			}
			with, without := 0, 0
			for _, v := range sc.Variants {
				if v.With {
					with++
				} else {
					without++
				}
			}
			if without > 0 && paired != with*len(sc.Sweep) {
				t.Errorf("ratio rows = %d, want %d with-variants x %d positions", paired, with, len(sc.Sweep))
			}

			// The measured latency deltas are noise-bound at smoke size, so a
			// fitted weight's SIGN can flip run to run; what must hold is
			// that the deriver's choice follows the measurement — a feature
			// priced as a cost gets excluded. (Weights round to whole units
			// in the cost table. The converse — a feature measured to help
			// gets selected — holds only where Required covers what the
			// feature implies; B5 and B9 check it below.)
			fb := r.Feedback
			if fb.Feature != sc.Feature || fb.Property != string(sc.Property) || fb.MeasuredProducts < 2 {
				t.Errorf("feedback header: %+v", fb)
			}
			if fb.Weight >= 0.5 && fb.Selected {
				t.Errorf("deriver kept %s despite a %+.0f fitted weight", fb.Feature, fb.Weight)
			}
			if fb.BaseROM <= 0 || fb.FeatureROM <= 0 {
				t.Errorf("ROM side incomplete: %+v", fb)
			}
			if !fb.InfeasibleWhenRequired {
				t.Errorf("requiring %s under budget %d with +%d B should be infeasible",
					fb.Feature, fb.TightROMBudget, fb.FeatureROM)
			}

			out := r.Format()
			for _, want := range []string{row.id + " — ", sc.Title, sc.Feature + " selected:"} {
				if !strings.Contains(out, want) {
					t.Errorf("format misses %q:\n%s", want, out)
				}
			}
			for _, v := range sc.Variants {
				if !strings.Contains(out, v.Name) {
					t.Errorf("format misses variant %q", v.Name)
				}
			}
			var buf bytes.Buffer
			if err := WriteJSON(&buf, r); err != nil {
				t.Fatal(err)
			}
			var back Report
			if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&back, r) {
				t.Errorf("JSON round trip lost data:\n got %+v\nwant %+v", &back, r)
			}
			if check := rowChecks[row.id]; check != nil {
				check(t, r)
			}
		})
	}
}

// pair is a two-product measurement set differing only in one feature.
func pair(feature string, without, with float64) []Measurement {
	return []Measurement{
		{Features: product(), Values: map[nfp.Property]float64{nfp.LatencyP50: without}},
		{Features: product(feature), Values: map[nfp.Property]float64{nfp.LatencyP50: with}},
	}
}

func TestPrice(t *testing.T) {
	m := core.FAMEModel()
	required := []string{"Linux", "BPlusTree", "Put", "Get"}

	// A feature measured to lower the property carries a negative weight
	// and is selected on the measurements alone (given the BufferManager
	// it refines is required, as in B2).
	fb, err := Price(m, "ShardedBuffer", nfp.LatencyP50, append(required, "BufferManager"), pair("ShardedBuffer", 1000, 400))
	if err != nil {
		t.Fatal(err)
	}
	if fb.Weight >= 0 || !fb.Selected {
		t.Errorf("helpful feature: weight %+.0f, selected %v", fb.Weight, fb.Selected)
	}
	if fb.MeasuredProducts != 2 || fb.Feature != "ShardedBuffer" || fb.Property != string(nfp.LatencyP50) {
		t.Errorf("feedback header: %+v", fb)
	}

	// A feature measured as a pure cost is excluded, and requiring it
	// under the budget halfway to its ROM price is infeasible.
	fb, err = Price(m, "Tracing", nfp.LatencyP50, required, pair("Tracing", 400, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if fb.Weight <= 0 || fb.Selected {
		t.Errorf("costly feature: weight %+.0f, selected %v", fb.Weight, fb.Selected)
	}
	for _, f := range fb.DerivedFeatures {
		if f == "Tracing" {
			t.Errorf("derived product carries the priced-out feature: %v", fb.DerivedFeatures)
		}
	}
	rom, err := footprint.Load(m.Name)
	if err != nil {
		t.Fatal(err)
	}
	if fb.FeatureROM != rom.Features["Tracing"] {
		t.Errorf("Tracing implies nothing, so its price is its own bytes: got %d, table says %d",
			fb.FeatureROM, rom.Features["Tracing"])
	}
	if fb.TightROMBudget != fb.BaseROM+fb.FeatureROM/2 || !fb.InfeasibleWhenRequired {
		t.Errorf("tight budget: %+v", fb)
	}

	// Replication implies Transaction and Recovery, so requiring it costs
	// more than its own bytes.
	fb, err = Price(m, "Replication", nfp.LatencyP50, required, pair("Tracing", 400, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if fb.FeatureROM <= rom.Features["Replication"] || !fb.InfeasibleWhenRequired {
		t.Errorf("closure price %d, own bytes %d, infeasible %v",
			fb.FeatureROM, rom.Features["Replication"], fb.InfeasibleWhenRequired)
	}

	// A solver failure that is not infeasibility — here the required
	// features contradict the priced one (NutOS excludes Tracing) — is an
	// error, never folded into the infeasible flag.
	nut := []string{"NutOS", "Put", "Get"}
	fb, err = Price(m, "Tracing", nfp.LatencyP50, nut, pair("Tracing", 400, 1000))
	if err == nil || errors.Is(err, solver.ErrInfeasible) {
		t.Fatalf("conflicting requirement: err = %v, feedback %+v", err, fb)
	}
	if fb.InfeasibleWhenRequired {
		t.Error("a model conflict was reported as a budget infeasibility")
	}

	// No measurement carries the objective: the fit has nothing to work
	// from.
	if _, err := Price(m, "Tracing", nfp.QueryP99, required, pair("Tracing", 400, 1000)); !errors.Is(err, nfp.ErrNoData) {
		t.Errorf("unmeasured property: err = %v", err)
	}
}
