package bench

import "testing"

// The crash sweep runs here with small budgets: every write op of a
// tiny workload is a crash point, for both families under both models.
func TestCrashSweep(t *testing.T) {
	for _, family := range []string{"primary", "replica"} {
		for _, model := range []string{"cut", "torn"} {
			torn := model == "torn"
			cfg := CrashConfig{Family: family, Commits: 8, Torn: torn, Seed: 23}
			t.Run(family+"/"+model, func(t *testing.T) {
				r, err := CrashSweep(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(r.Failures) > 0 || r.Recovered != int(r.Points) {
					t.Fatalf("recovered %d of %d:\n%s", r.Recovered, r.Points, r.Format())
				}
				if torn && r.Injected == 0 {
					t.Error("no tear ever fired; the sweep tested nothing")
				}
				// Pulling the power between two applied chunks leaves what a
				// death at the next chunk's first write leaves: the cut sweep
				// reaches every boundary the replica's log can recover to.
				if family == "replica" && !torn && (r.Boundaries != cfg.Commits+1 || r.BoundariesRecovered != r.Boundaries) {
					t.Errorf("recovered ends cover %d of %d chunk boundaries, want all %d", r.BoundariesRecovered, r.Boundaries, cfg.Commits+1)
				}
				if !r.Ok() {
					t.Errorf("report not ok:\n%s", r.Format())
				}
			})
		}
	}
}
