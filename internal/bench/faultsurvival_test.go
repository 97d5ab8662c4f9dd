package bench

import (
	"strings"
	"testing"
)

// The fault-survival harness runs here with small budgets: the
// crash-point tests sweep every write op of a tiny workload.

func TestCrashPointsCut(t *testing.T) {
	r, err := CrashPoints(CrashPointConfig{Commits: 6, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if r.WriteOps < 8 {
		t.Fatalf("swept only %d crash points", r.WriteOps)
	}
	if !r.Ok() {
		t.Fatalf("invariant violations:\n%s", FormatCrashPoints(r))
	}
	if int64(r.Recovered) != r.WriteOps {
		t.Fatalf("recovered %d of %d points", r.Recovered, r.WriteOps)
	}
	if !strings.Contains(FormatCrashPoints(r), "all invariants held") {
		t.Fatal("format broken")
	}
}

func TestCrashPointsTorn(t *testing.T) {
	r, err := CrashPoints(CrashPointConfig{Commits: 6, Torn: true, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Ok() {
		t.Fatalf("invariant violations:\n%s", FormatCrashPoints(r))
	}
	// The sweep is only meaningful if tears actually fired.
	if r.Injected == 0 {
		t.Fatal("no torn write was ever injected")
	}
	if !strings.Contains(FormatCrashPoints(r), "tears fired") {
		t.Fatal("format broken")
	}
}
