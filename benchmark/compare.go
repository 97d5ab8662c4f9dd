package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"text/tabwriter"
)

// side is one side of a comparison: one or more sets of the same commit.
type side struct {
	env  env
	sets []*report
}

func readSide(paths []string) (*side, error) {
	s := &side{}
	for i, p := range paths {
		r, err := readReport(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if i == 0 {
			s.env = r.Env
		} else if why := envDiffers(s.env, r.Env); why != "" {
			return nil, fmt.Errorf("%s and %s are not sets of one configuration: %s", paths[0], p, why)
		}
		s.sets = append(s.sets, r)
	}
	return s, nil
}

// envDiffers names the first field that makes two reports incomparable.
func envDiffers(a, b env) string {
	switch {
	case a.NumCPU != b.NumCPU:
		return fmt.Sprintf("num_cpu %d vs %d", a.NumCPU, b.NumCPU)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("gomaxprocs %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.Device != b.Device:
		return fmt.Sprintf("device_model %q vs %q", a.Device, b.Device)
	case a.Seconds != b.Seconds:
		return fmt.Sprintf("window_s %g vs %g", a.Seconds, b.Seconds)
	case a.Smoke != b.Smoke:
		return "one is a smoke-size set"
	}
	return ""
}

// values collects one metric of one workload across a side's sets.
func (s *side) values(workload, metric string, layer bool) []float64 {
	var out []float64
	for _, r := range s.sets {
		for _, w := range r.Workloads {
			if w.Workload != workload {
				continue
			}
			m := w.E2E
			if layer {
				m = w.Layers
			}
			if v, ok := m[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// spread is the range of a side's values over their median: with two
// sets, how far apart they are.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	m := median(v)
	if m == 0 {
		return 0
	}
	return (hi - lo) / math.Abs(m)
}

// workloadNames lists a side's workloads in report order and refuses a
// side whose sets do not all hold the same ones, or hold a failed run:
// its numbers are not a measurement of a working system.
func (s *side) workloadNames(paths []string) ([]string, error) {
	var names []string
	for i, r := range s.sets {
		var got []string
		for _, w := range r.Workloads {
			if w.Failed != 0 {
				return nil, fmt.Errorf("%s: %s has %d failed ops (%s); not comparing a failed run", paths[i], w.Workload, w.Failed, w.FirstError)
			}
			got = append(got, w.Workload)
		}
		if i == 0 {
			names = got
		} else if !slices.Equal(names, got) {
			return nil, fmt.Errorf("%s holds workloads %v, %s holds %v", paths[0], names, paths[i], got)
		}
	}
	return names, nil
}

// judge compares one bounded metric. It is regressed when it is worse by
// more than the bound, and also when it cannot be compared at all: absent
// from a set, not finite, or a base of zero — a hole in the data must not
// read as a pass. It is unresolved, not ok, when either side's own sets
// disagree by more than the bound: the comparison cannot tell a change
// that small from noise.
func judge(d metricDef, b, c []float64, sets [2]int) (row string, regressed bool) {
	if len(b) != sets[0] || len(c) != sets[1] {
		return fmt.Sprintf("-\t-\t-\t%.0f%%\t-\tregressed (in %d of %d base sets, %d of %d new)",
			d.bound*100, len(b), sets[0], len(c), sets[1]), true
	}
	bm, cm := median(b), median(c)
	worse := (cm - bm) / bm
	if d.better == "higher" {
		worse = (bm - cm) / bm
	}
	sp := math.Max(spread(b), spread(c))
	verdict := "ok"
	switch {
	case bm <= 0 || math.IsNaN(worse) || math.IsInf(worse, 0):
		verdict, regressed = "regressed (not comparable)", true
	case sp > d.bound:
		verdict = "unresolved"
	case worse > d.bound:
		verdict, regressed = "regressed", true
	}
	return fmt.Sprintf("%.4g\t%.4g\t%.3f\t%.0f%%\t%.1f%%\t%s", bm, cm, cm/bm, d.bound*100, sp*100, verdict), regressed
}

// compareSets prints one row per (workload, bounded metric) — the
// end-to-end metrics, then the client.* metrics of the workloads that
// have them — and the other per-layer deltas underneath, and reports
// whether anything regressed.
func compareSets(w io.Writer, oldPaths, newPaths []string, force bool) (regressed bool, err error) {
	base, err := readSide(oldPaths)
	if err != nil {
		return false, err
	}
	cand, err := readSide(newPaths)
	if err != nil {
		return false, err
	}
	if why := envDiffers(base.env, cand.env); why != "" {
		if !force {
			return false, fmt.Errorf("reports are not comparable (%s); -force compares anyway", why)
		}
		fmt.Fprintf(w, "warning: env differs (%s), compared anyway\n", why)
	}
	names, err := base.workloadNames(oldPaths)
	if err != nil {
		return false, err
	}
	candNames, err := cand.workloadNames(newPaths)
	if err != nil {
		return false, err
	}
	if !slices.Equal(names, candNames) {
		return false, fmt.Errorf("base holds workloads %v, new holds %v", names, candNames)
	}
	sets := [2]int{len(base.sets), len(cand.sets)}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tratio\tbound\tspread\tverdict")
	for _, name := range names {
		sp := specByName(name, false)
		if sp == nil {
			return false, fmt.Errorf("unknown workload %q", name)
		}
		for _, d := range e2eMetrics {
			row, bad := judge(d, base.values(name, d.name, false), cand.values(name, d.name, false), sets)
			fmt.Fprintf(tw, "%s\t%s\t%s\n", name, d.name, row)
			regressed = regressed || bad
		}
		for _, d := range layerMetrics {
			if d.bound == 0 || !d.applies(sp) {
				continue
			}
			row, bad := judge(d, base.values(name, d.name, true), cand.values(name, d.name, true), sets)
			fmt.Fprintf(tw, "%s\t%s\t%s\n", name, d.name, row)
			regressed = regressed || bad
		}
	}
	if err := tw.Flush(); err != nil {
		return regressed, err
	}

	fmt.Fprintln(w, "\nper-layer deltas (no bound; where a change shows):")
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tdelta")
	for _, name := range names {
		sp := specByName(name, false)
		for _, d := range layerMetrics {
			if d.bound != 0 || !d.applies(sp) {
				continue
			}
			b, c := base.values(name, d.name, true), cand.values(name, d.name, true)
			if len(b) != sets[0] || len(c) != sets[1] {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\tmissing\n", name, d.name)
				continue
			}
			bm, cm := median(b), median(c)
			if bm == 0 && cm == 0 {
				continue
			}
			delta := "new"
			if bm != 0 {
				delta = fmt.Sprintf("%+.1f%%", (cm-bm)/math.Abs(bm)*100)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\n", name, d.name, bm, cm, delta)
		}
	}
	return regressed, tw.Flush()
}
