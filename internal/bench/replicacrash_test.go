package bench

import (
	"strings"
	"testing"
)

// The replica crash harness is the tentpole invariant: every kill
// point must recover to a byte-exact primary prefix and catch up.

func TestReplicaCrashPointsBoundary(t *testing.T) {
	r, err := ReplicaCrashPoints(ReplicaCrashConfig{Commits: 8, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if r.Points != r.Chunks+1 {
		t.Errorf("swept %d points for %d chunks, want every boundary", r.Points, r.Chunks)
	}
	if !r.Ok() {
		t.Fatalf("crash points failed:\n%s", FormatReplicaCrashPoints(r))
	}
	if r.Recovered != r.Points {
		t.Errorf("recovered %d of %d", r.Recovered, r.Points)
	}
	out := FormatReplicaCrashPoints(r)
	if !strings.Contains(out, "byte-exact") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestReplicaCrashPointsTorn(t *testing.T) {
	r, err := ReplicaCrashPoints(ReplicaCrashConfig{Commits: 8, Torn: true, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Ok() {
		t.Fatalf("torn crash points failed:\n%s", FormatReplicaCrashPoints(r))
	}
	if r.Injected == 0 {
		t.Error("no tear ever fired; the sweep tested nothing")
	}
}
