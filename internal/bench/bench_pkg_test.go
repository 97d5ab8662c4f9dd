package bench

import (
	"strings"
	"testing"

	"famedb/internal/composer"
	"famedb/internal/core"
)

// The experiment tests run with small op counts: they assert the
// *shape* of each result, not absolute numbers.

func TestE1Shape(t *testing.T) {
	rows, err := E1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	byNum := map[int]E1Row{}
	for _, r := range rows {
		byNum[r.Num] = r
	}
	// Configurations 1-6 exist in C; 7-8 do not.
	for n := 1; n <= 6; n++ {
		if byNum[n].CBytes < 0 {
			t.Errorf("config %d missing C footprint", n)
		}
	}
	for n := 7; n <= 8; n++ {
		if byNum[n].CBytes >= 0 {
			t.Errorf("config %d should be FeatureC++-only", n)
		}
	}
	// Paper orderings.
	for n := 2; n <= 6; n++ {
		if byNum[n].FBytes >= byNum[1].FBytes {
			t.Errorf("config %d (%d) not smaller than complete (%d)", n, byNum[n].FBytes, byNum[1].FBytes)
		}
	}
	if byNum[7].FBytes >= byNum[6].CBytes {
		t.Errorf("minimal composed (%d) not smaller than minimal C (%d)", byNum[7].FBytes, byNum[6].CBytes)
	}
	for n := 1; n <= 6; n++ {
		if byNum[n].CBytes < byNum[n].FBytes {
			t.Errorf("config %d: C (%d) smaller than composed (%d)", n, byNum[n].CBytes, byNum[n].FBytes)
		}
	}
	out := FormatE1(rows)
	if !strings.Contains(out, "Figure 1a") || !strings.Contains(out, "complete configuration") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestE2Shape(t *testing.T) {
	rows, err := E2(3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7 (config 8 omitted)", len(rows))
	}
	for _, r := range rows {
		if r.FOps <= 0 {
			t.Errorf("config %d: no composed throughput", r.Num)
		}
		if r.Num <= 6 && r.COps <= 0 {
			t.Errorf("config %d: no C throughput", r.Num)
		}
		if r.Num >= 7 && r.COps != 0 {
			t.Errorf("config %d: unexpected C throughput", r.Num)
		}
	}
	out := FormatE2(rows)
	if !strings.Contains(out, "Figure 1b") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestE3Claims(t *testing.T) {
	r, err := E3(12000)
	if err != nil {
		t.Fatal(err)
	}
	if r.OptionalFeatures != 24 {
		t.Errorf("optional features = %d, want 24", r.OptionalFeatures)
	}
	// "No negative impact": composed must not be dramatically slower
	// than monolithic. Allow generous noise margins in CI.
	if r.PerfRatio < 0.5 {
		t.Errorf("composed/monolithic = %.2f: transformation hurt performance", r.PerfRatio)
	}
	if r.MinimalSavings <= 0.2 {
		t.Errorf("minimal product saves only %.0f%%", r.MinimalSavings*100)
	}
	if !strings.Contains(FormatE3(r), "24") {
		t.Fatal("format broken")
	}
}

func TestE4Products(t *testing.T) {
	rows, variants, err := E4(2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if variants == "" || variants == "0" {
		t.Fatalf("variants = %q", variants)
	}
	byName := map[string]E4Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	sensor, full := byName["sensor-node"], byName["full"]
	if sensor.ROM >= full.ROM {
		t.Errorf("sensor ROM %d >= full ROM %d", sensor.ROM, full.ROM)
	}
	if sensor.RAM >= full.RAM {
		t.Errorf("sensor RAM %d >= full RAM %d", sensor.RAM, full.RAM)
	}
	if sensor.Features >= full.Features {
		t.Errorf("sensor features %d >= full features %d", sensor.Features, full.Features)
	}
	if !strings.Contains(FormatE4(rows, variants), "sensor-node") {
		t.Fatal("format broken")
	}
}

func TestE5Detection(t *testing.T) {
	rows, examined, derivable, err := E5()
	if err != nil {
		t.Fatal(err)
	}
	if examined != 18 || derivable != 15 {
		t.Fatalf("examined/derivable = %d/%d, want 18/15", examined, derivable)
	}
	if len(rows) != 18 {
		t.Fatalf("rows = %d", len(rows))
	}
	detected := 0
	for _, r := range rows {
		if r.Derivable && len(r.DetectedIn) > 0 {
			detected++
		}
		if !r.Derivable && r.Reason == "" {
			t.Errorf("%s: underivable without reason", r.Feature)
		}
	}
	// The corpus exercises every derivable feature at least once.
	if detected != derivable {
		t.Errorf("corpus detected %d of %d derivable features", detected, derivable)
	}
	if !strings.Contains(FormatE5(rows, examined, derivable), "15 of 18") {
		t.Fatal("format broken")
	}
}

func TestE6SolverAndFeedback(t *testing.T) {
	r, err := E6(2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Sweep) < 4 {
		t.Fatalf("sweep = %d points", len(r.Sweep))
	}
	first := r.Sweep[0]
	if first.GreedyROM != -1 || first.ExactROM != -1 {
		t.Errorf("budget below optimum should be infeasible for both: %+v", first)
	}
	for _, row := range r.Sweep[1:] {
		if row.ExactROM < 0 {
			t.Errorf("budget %d: exact infeasible", row.BudgetROM)
			continue
		}
		if row.GreedyROM >= 0 && row.GreedyROM < row.ExactROM {
			t.Errorf("budget %d: greedy (%d) beat exact (%d)", row.BudgetROM, row.GreedyROM, row.ExactROM)
		}
	}
	if r.MeasuredProducts < 10 {
		t.Errorf("measured products = %d", r.MeasuredProducts)
	}
	// ROM is additive by construction, so with a dozen measured
	// products the additive estimator must predict it closely.
	if r.FeedbackROMError > 0.10 {
		t.Errorf("feedback ROM error = %.2f", r.FeedbackROMError)
	}
	// The synthetic trap shows the greedy gap the paper's CSP
	// discussion anticipates.
	if r.TrapGreedyROM <= r.TrapExactROM {
		t.Errorf("trap: greedy %d, exact %d — no gap demonstrated", r.TrapGreedyROM, r.TrapExactROM)
	}
	if !strings.Contains(FormatE6(r), "feedback estimator") {
		t.Fatal("format broken")
	}
}

func TestRunBDBRejectsBadFeatures(t *testing.T) {
	if _, err := RunBDB(0, []string{"NoSuchFeature"}, 'B', 10, 1); err == nil {
		t.Fatal("bad features should fail")
	}
}

func TestRunFAMEWorks(t *testing.T) {
	ops, err := RunFAME([]string{"Linux", "BPlusTree", "Put", "Get"}, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ops <= 0 {
		t.Fatalf("ops = %f", ops)
	}
}

// The runner measures a product as it was generated: the writes of a
// Transaction product go through its journal.
func TestRunnerJournalsTransactionalProducts(t *testing.T) {
	for _, p := range core.FAMEProducts() {
		if p.Name != "calendar-app" && p.Name != "full" {
			continue
		}
		step, inst, err := SetupFAME(p.Features, mix(benchSeed), composer.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runSteps(1000, step); err != nil {
			t.Fatal(err)
		}
		if syncs := inst.Txn.LogSyncs(); syncs == 0 {
			t.Errorf("%s: the journal never synced during the mix", p.Name)
		}
		inst.Close()
	}
}

func TestE7Pipeline(t *testing.T) {
	r, err := E7()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"SQLEngine": true, "Optimizer": true, "Transaction": true, "Put": true}
	for _, d := range r.Detected {
		delete(want, d)
	}
	if len(want) != 0 {
		t.Fatalf("calendar analysis missed %v (got %v)", want, r.Detected)
	}
	if len(r.Forced) == 0 || len(r.Open) == 0 {
		t.Fatalf("pipeline incomplete: forced=%v open=%v", r.Forced, r.Open)
	}
	if r.ProductROM <= 0 {
		t.Fatalf("ROM = %d", r.ProductROM)
	}
	if !strings.Contains(FormatE7(r), "detected from sources") {
		t.Fatal("format broken")
	}
}
