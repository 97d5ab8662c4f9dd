package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"text/tabwriter"
)

// quartiles are the cut points Python's statistics.quantiles(v, n=4)
// gives (the exclusive method), which is what the bounds are held to.
func quartiles(v []float64) (q [3]float64) {
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	ld := len(v)
	for i := 1; i <= 3; i++ {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		q[i-1] = (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return q
}

// spreadRuns runs each workload once per seed, first…first+runs-1, each
// run a process of its own with the flags the driver passes, and prints
// per end-to-end metric the median and the interquartile range as a
// share of it: the spread the bounds are set against.
func spreadRuns(w io.Writer, workloads []*spec, first uint64, runs int, seconds float64) error {
	if runs < 2 {
		return fmt.Errorf("-spread needs at least 2 runs, got %d", runs)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	worst := 0.0
	for _, sp := range workloads {
		vals := map[string][]float64{}
		for seed := first; seed < first+uint64(runs); seed++ {
			cmd := exec.Command(self, "-workload", sp.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", sp.name, seed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res struct {
				Correct bool
				Metrics map[string]value
			}
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || !res.Correct {
				return fmt.Errorf("%s seed %d: result line %q: %v", sp.name, seed, lines[len(lines)-1], err)
			}
			for _, d := range e2eMetrics {
				vals[d.name] = append(vals[d.name], res.Metrics[d.name].Value)
			}
		}
		fmt.Fprintf(w, "\n%s  (seeds %d…%d)\n", sp.name, first, first+uint64(runs)-1)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "  metric\tmedian\tiqr/median\tbound\tverdict")
		for _, d := range e2eMetrics {
			q := quartiles(vals[d.name])
			med := median(vals[d.name])
			spread := (q[2] - q[0]) / med
			verdict := "ok"
			switch {
			case d.name == "setup_s":
				verdict = "(medians only)"
			case spread >= d.bound:
				verdict = "TOO WIDE"
			case spread >= d.bound/3:
				verdict = "within bound"
			}
			if d.name != "setup_s" {
				worst = max(worst, spread/d.bound)
			}
			fmt.Fprintf(tw, "  %s\t%.4g\t%.1f%%\t%.0f%%\t%s\n", d.name, med, spread*100, d.bound*100, verdict)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "\nworst spread/bound: %.2f\n", worst)
	return nil
}
