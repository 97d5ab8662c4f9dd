package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Env is the host a report was measured on. Every 1/4/16-goroutine
// curve in this repository is only readable next to it: on a 2-core box
// the curve is flat because the host is, not because the code is.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// HostEnv describes the running process's host.
func HostEnv() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

func (e Env) String() string {
	return fmt.Sprintf("host: %s %s/%s, %d CPUs, GOMAXPROCS %d",
		e.GoVersion, e.GOOS, e.GOARCH, e.NumCPU, e.GOMAXPROCS)
}

// Metrics are one cell's measured values by name.
type Metrics map[string]float64

// Point is one row of a report: what was measured (labels) and what
// came out (metrics).
type Point struct {
	Labels  map[string]string `json:"labels"`
	Metrics Metrics           `json:"metrics"`
}

// Report is the one machine-readable schema of the B experiments
// (BENCH_N.json): the host, the scenario's fixed parameters, one point
// per measured cell, the with/without comparisons, and the feedback
// derivation. LabelNames and MetricNames give the column order of
// Points; every point carries every name.
type Report struct {
	ID          string             `json:"id"`
	Title       string             `json:"title"`
	Env         Env                `json:"env"`
	Config      map[string]float64 `json:"config"`
	LabelNames  []string           `json:"label_names"`
	MetricNames []string           `json:"metric_names"`
	Points      []Point            `json:"points"`
	// Ratios holds the comparison rows — a with-variant's metric over
	// its baseline's at the same sweep position — and the summary rows a
	// scenario adds (fitted weights per measured property, B9's
	// per-shape attribution).
	Ratios   []Point  `json:"ratios"`
	Feedback Feedback `json:"feedback"`
	// Crash holds B10's crash sweeps of the replica family.
	Crash []*CrashReport `json:"crash,omitempty"`
}

// Ok reports whether the run's own invariants held: every cell that
// checks replica convergence converged, and every crash sweep
// recovered. Reports without such checks are trivially ok.
func (r *Report) Ok() bool {
	for _, p := range r.Points {
		if c, checked := p.Metrics["converged"]; checked && c != 1 {
			return false
		}
	}
	for _, c := range r.Crash {
		if !c.Ok() {
			return false
		}
	}
	return true
}

// WriteJSON is the package's one JSON writer: scenario reports and the
// crash-harness reports all go through it.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// formatValue renders a metric: counts and large values without
// decimals, small fractional ones (hit rates, seconds) with four
// significant digits.
func formatValue(v float64) string {
	if v == math.Trunc(v) || math.Abs(v) >= 1000 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// sortedKeys returns a row's names in a stable order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Format renders a report as text: the point table, the comparison and
// summary rows, the feedback derivation, and any crash sweeps.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	if len(r.Config) > 0 {
		b.WriteString("config:")
		for _, k := range sortedKeys(r.Config) {
			fmt.Fprintf(&b, " %s=%s", k, formatValue(r.Config[k]))
		}
		b.WriteByte('\n')
	}
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(append(append([]string{}, r.LabelNames...), r.MetricNames...), "\t"))
	for _, p := range r.Points {
		var cols []string
		for _, l := range r.LabelNames {
			cols = append(cols, p.Labels[l])
		}
		for _, m := range r.MetricNames {
			cols = append(cols, formatValue(p.Metrics[m]))
		}
		fmt.Fprintln(w, strings.Join(cols, "\t"))
	}
	w.Flush()
	for _, p := range r.Ratios {
		var cols []string
		for _, l := range sortedKeys(p.Labels) {
			// B9's preload leaves a wide INSERT shape that would blow the
			// line apart.
			value := p.Labels[l]
			if len(value) > 60 {
				value = value[:57] + "..."
			}
			cols = append(cols, l+"="+value)
		}
		b.WriteString(strings.Join(cols, " ") + ":")
		for _, m := range sortedKeys(p.Metrics) {
			fmt.Fprintf(&b, " %s %s", m, formatValue(p.Metrics[m]))
		}
		b.WriteByte('\n')
	}
	fb := r.Feedback
	fmt.Fprintf(&b, "feedback: min %s via greedy over %d measurements, required %v:\n  %v\n",
		fb.Property, fb.MeasuredProducts, fb.Required, fb.DerivedFeatures)
	fmt.Fprintf(&b, "  %s selected: %v (fitted weight %+.0f)\n", fb.Feature, fb.Selected, fb.Weight)
	fmt.Fprintf(&b, "  ROM: base %d B, requiring %s +%d B; under a %d B budget infeasible: %v\n",
		fb.BaseROM, fb.Feature, fb.FeatureROM, fb.TightROMBudget, fb.InfeasibleWhenRequired)
	for _, c := range r.Crash {
		b.WriteString(c.Format())
	}
	return b.String()
}
