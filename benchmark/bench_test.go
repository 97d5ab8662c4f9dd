package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"famedb/benchmark/load"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json and the tables in spec.go say the same thing.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b := readBenchmarkJSON(t)
	sp := specs(false)
	if len(b.Workloads) != len(sp) {
		t.Fatalf("BENCHMARK.json lists %d workloads, spec.go %d", len(b.Workloads), len(sp))
	}
	for i, w := range b.Workloads {
		if w.Name != sp[i].name || !strings.HasPrefix(w.Why, sp[i].why) {
			t.Errorf("workload %d: BENCHMARK.json %q %q, spec.go %q %q", i, w.Name, w.Why, sp[i].name, sp[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, spec.go %d", len(b.EndToEnd), len(e2eMetrics))
	}
	for i, m := range b.EndToEnd {
		d := e2eMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, spec.go %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, spec.go %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		d := layerMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, spec.go %+v", i, m, d)
		}
	}
}

// Every workload, at smoke size, yields every metric BENCHMARK.json
// names, finite, with no failed op; its layers nest (no self time far
// below zero); and the traced phase's counts repeat exactly for a seed.
func TestSmokeEveryWorkload(t *testing.T) {
	b := readBenchmarkJSON(t)
	o := runOpts{seed: 1, seconds: 1, trace: true, sz: smokeSize}
	for _, sp := range specs(true) {
		t.Run(sp.name, func(t *testing.T) {
			res, err := runWorkload(sp, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("%d of %d ops failed: %s", res.Failed, res.Attempted, res.FirstError)
			}
			for _, m := range b.EndToEnd {
				v, ok := res.E2E[m.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v (present %v): want a finite, positive number", m.Name, v.Value, ok)
				}
				if v.Unit != m.Unit {
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, v.Unit, m.Unit)
				}
			}
			for _, m := range b.PerLayer {
				v, ok := res.Layers[m.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("per-layer metric %s = %v (present %v): want a finite number", m.Name, v.Value, ok)
				}
			}
			// Layers nest: none takes less than -5% of its kind's top cut.
			for layer, byKind := range res.SelfUs {
				for kind, self := range byKind {
					if layer == "repl" {
						continue // a difference of two loaded bursts, not of nested cuts
					}
					top := res.TopCutUs[kind]
					if self < -0.05*top {
						t.Errorf("%s self time for %s is %.2f us against a top cut of %.2f us", layer, kind, self, top)
					}
				}
			}
			if sp.name == "embed_sql_mix" {
				// Both point-read paths ran in the window, two prepared for
				// one text, as the mix says.
				stmt, text := float64(res.Samples["read.stmt"]), float64(res.Samples["read.text"])
				if stmt == 0 || text == 0 || stmt/text < 1.8 || stmt/text > 2.2 {
					t.Errorf("point SELECTs: %v prepared and %v as text, want 2:1", stmt, text)
				}
			}
			if sp.name == "embed_scan_cold" {
				again, err := runWorkload(sp, o)
				if err != nil {
					t.Fatal(err)
				}
				for k, v := range res.TracedCounts {
					if again.TracedCounts[k] != v {
						t.Errorf("traced count %s: %d then %d; counts of the traced phase must repeat exactly", k, v, again.TracedCounts[k])
					}
				}
				if again.Layers["btree.pages_per_lookup"] != res.Layers["btree.pages_per_lookup"] {
					t.Errorf("btree.pages_per_lookup: %v then %v", res.Layers["btree.pages_per_lookup"], again.Layers["btree.pages_per_lookup"])
				}
			}
		})
	}
}

// The op streams are a function of the seed alone.
func TestStreamHashFollowsSeed(t *testing.T) {
	for _, sp := range specs(true) {
		a := load.Hash(load.Streams(1, sp.clients, 4096, sp.mix))
		b := load.Hash(load.Streams(1, sp.clients, 4096, sp.mix))
		c := load.Hash(load.Streams(2, sp.clients, 4096, sp.mix))
		if a != b {
			t.Errorf("%s: seed 1 hashed to %x and %x", sp.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 both hashed to %x", sp.name, a)
		}
	}
}

// quartiles agrees with Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	got := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles of 1…10 = %v, want %v", got, want)
	}
}

func writeSet(t *testing.T, dir, name string, e env, metrics map[string]float64) string {
	t.Helper()
	res := &result{Workload: "wire_ycsb_a", E2E: map[string]value{}, Layers: map[string]value{}, Failed: uint64(metrics["failed"])}
	for _, d := range e2eMetrics {
		if v, ok := metrics[d.name]; ok {
			res.E2E[d.name] = value{Value: v, Unit: d.unit}
		}
	}
	for _, d := range layerMetrics {
		if v, ok := metrics[d.name]; ok {
			res.Layers[d.name] = value{Value: v, Unit: d.unit}
		}
	}
	path := filepath.Join(dir, name)
	if err := (&report{Env: e, Workloads: []*result{res}}).write(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// -compare: ok inside the bound, regressed beyond it or when a bounded
// metric is missing or its base is zero, unresolved when a side's own
// sets disagree by more than the bound, and a refusal when the
// environments differ, a workload is missing or a run had failed ops.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	e := env{NumCPU: 2, GOMAXPROCS: 2, Device: "d", Seconds: 10}
	base := map[string]float64{"setup_s": 1, "ops_per_s": 1000, "read_p50_us": 100, "read_p99_us": 400,
		"write_p50_us": 200, "write_p99_us": 800, "space_amp": 2,
		"txn.commit_batch_mean": 4, "client.write_amp": 2, "client.recovery_s": 1.5}
	with := func(k string, v float64) map[string]float64 {
		m := map[string]float64{}
		for kk, vv := range base {
			m[kk] = vv
		}
		m[k] = v
		return m
	}
	without := func(k string) map[string]float64 {
		m := with(k, 0)
		delete(m, k)
		return m
	}
	bound := map[string]float64{}
	for _, d := range e2eMetrics {
		bound[d.name] = d.bound
	}
	old1 := writeSet(t, dir, "old1.json", e, base)
	old2 := writeSet(t, dir, "old2.json", e, with("read_p50_us", 100*(1+2*bound["read_p50_us"]))) // far from old1: noise
	same := writeSet(t, dir, "same.json", e, with("ops_per_s", 1000*(1-bound["ops_per_s"]/2)))    // slower, inside the bound
	slow := writeSet(t, dir, "slow.json", e, with("ops_per_s", 1000*(1-2*bound["ops_per_s"])))    // slower by twice the bound
	e4 := e
	e4.NumCPU = 4
	other := writeSet(t, dir, "other.json", e4, base)

	var out bytes.Buffer
	regressed, err := compareSets(&out, []string{old1}, []string{same}, false)
	if err != nil || regressed || strings.Contains(out.String(), "regressed") {
		t.Errorf("slower inside the bound: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	regressed, err = compareSets(&out, []string{old1}, []string{slow}, false)
	if err != nil || !regressed || !strings.Contains(out.String(), "regressed") {
		t.Errorf("slower by twice the bound: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if !strings.Contains(out.String(), "txn.commit_batch_mean") {
		t.Errorf("per-layer deltas missing:\n%s", out.String())
	}
	out.Reset()
	regressed, err = compareSets(&out, []string{old1, old2}, []string{same}, false)
	if err != nil || regressed || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("noisy base: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	// A regression in a client.* metric of the workload that has it, and
	// holes in the data, are regressions, not passes.
	for name, set := range map[string]map[string]float64{
		"slow recovery":    with("client.recovery_s", 1.5*(1+2*0.25)),
		"no recovery time": without("client.recovery_s"),
		"no read_p50_us":   without("read_p50_us"),
	} {
		out.Reset()
		p := writeSet(t, dir, "hole.json", e, set)
		if regressed, err = compareSets(&out, []string{old1}, []string{p}, false); err != nil || !regressed {
			t.Errorf("%s: regressed=%v err=%v\n%s", name, regressed, err, out.String())
		}
	}
	out.Reset()
	zero := writeSet(t, dir, "zero.json", e, with("write_p99_us", 0))
	if regressed, err = compareSets(&out, []string{zero}, []string{old1}, false); err != nil || !regressed {
		t.Errorf("base of zero: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	failed := writeSet(t, dir, "failed.json", e, with("failed", 3))
	if _, err := compareSets(&out, []string{old1}, []string{failed}, false); err == nil {
		t.Error("a report with failed ops was compared")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := (&report{Env: e}).write(empty); err != nil {
		t.Fatal(err)
	}
	if _, err := compareSets(&out, []string{old1}, []string{empty}, false); err == nil {
		t.Error("a report without the base's workload was compared")
	}
	if _, err := compareSets(&out, []string{old1}, []string{other}, false); err == nil {
		t.Error("reports from 2 and 4 CPUs compared without -force")
	}
	if _, err := compareSets(&out, []string{old1}, []string{other}, true); err != nil {
		t.Errorf("-force: %v", err)
	}
}
