// Command benchmark is the repository's one benchmark: five workloads
// on composed FAME-DBMS products over a flash-model device, end-to-end
// metrics from an untraced run and per-layer metrics from a traced one.
// See README.md.
//
//	benchmark -workload NAME -seed N -seconds S -trace 0|1   one run; the last stdout line is its result
//	benchmark -workload all -seed N -out FILE                a full set: every workload, untraced then traced
//	benchmark -compare OLD.json[,OLD2.json] NEW.json[,…]     diff two sets against the bounds
//	benchmark -spread 10 [-workload NAME] [-seed FIRST]      run-to-run spread of the end-to-end metrics
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Uint64("seed", 1, "seed of the op streams")
		seconds  = flag.Float64("seconds", 10, "length of the measured window")
		trace    = flag.Int("trace", 0, "1: traced run, reports the per-layer metrics; 0: untraced, the end-to-end ones")
		smoke    = flag.Bool("smoke", false, "test size: a tenth of the records, a 2k-op traced prefix, one set-up")
		out      = flag.String("out", "", "write the report (env, workloads[].e2e, workloads[].layers) to this file")
		outDir   = flag.String("outdir", defaultOutDir(), "directory for trace_<workload>.json")
		compare  = flag.Bool("compare", false, "compare two sets: -compare OLD.json[,…] NEW.json[,…]")
		force    = flag.Bool("force", false, "compare even when the reports' env differs")
		spreadN  = flag.Int("spread", 0, "run each workload on this many seeds, from -seed up, and print each end-to-end metric's spread")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two arguments, got %d", flag.NArg()))
		}
		regressed, err := compareSets(os.Stdout, strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ","), *force)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace is 0 or 1, got %d", *trace))
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, sz: fullSize, outDir: *outDir}
	if *smoke {
		o.sz = smokeSize
	}
	if o.seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive, got %v", o.seconds))
	}

	if *spreadN != 0 {
		chosen := specs(false)
		if sp := specByName(*workload, false); sp != nil {
			chosen = []*spec{sp}
		} else if *workload != "all" {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		if err := spreadRuns(os.Stdout, chosen, *seed, *spreadN, *seconds); err != nil {
			fatal(err)
		}
		return
	}

	rep := &report{Env: readEnv(o, *smoke)}
	var attempted, failed uint64
	metrics := map[string]value{}
	if *workload == "all" {
		for _, sp := range specs(*smoke) {
			o.trace = false
			plain, err := runWorkload(sp, o)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", sp.name, err))
			}
			o.trace = true
			traced, err := runWorkload(sp, o)
			if err != nil {
				fatal(fmt.Errorf("%s traced: %w", sp.name, err))
			}
			merged := merge(plain, traced)
			printResult(merged)
			rep.Workloads = append(rep.Workloads, merged)
			attempted += merged.Attempted
			failed += merged.Failed
		}
	} else {
		sp := specByName(*workload, *smoke)
		if sp == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		res, err := runWorkload(sp, o)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", sp.name, err))
		}
		printResult(res)
		rep.Workloads = append(rep.Workloads, res)
		attempted, failed = res.Attempted, res.Failed
		// -trace 0 reports the end-to-end metrics, -trace 1 the per-layer
		// ones; the report file has whatever the run measured.
		chosen := res.E2E
		if o.trace {
			chosen = res.Layers
		}
		for k, v := range chosen {
			metrics[k] = v
		}
	}
	if *out != "" {
		if err := rep.write(*out); err != nil {
			fatal(err)
		}
	}
	// The result line: last on stdout, one JSON object.
	line, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if failed != 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// defaultOutDir is benchmark/out from the repository root and out from
// inside benchmark/.
func defaultOutDir() string {
	if _, err := os.Stat("benchmark/go.mod"); err == nil {
		return "benchmark/out"
	}
	return "out"
}

// printResult prints every metric by name with its unit.
func printResult(r *result) {
	fmt.Printf("%s  attempted=%d failed=%d window=%gs stream=%s\n", r.Workload, r.Attempted, r.Failed, r.Seconds, r.StreamHash)
	if r.FirstError != "" {
		fmt.Printf("  first error: %s\n", r.FirstError)
	}
	kinds := make([]string, 0, len(r.Samples))
	for k := range r.Samples {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("  samples.%-28s %14d\n", k, r.Samples[k])
	}
	for _, d := range e2eMetrics {
		if v, ok := r.E2E[d.name]; ok {
			fmt.Printf("  %-36s %14.4f %s\n", d.name, v.Value, v.Unit)
		}
	}
	for _, d := range layerMetrics {
		if v, ok := r.Layers[d.name]; ok {
			fmt.Printf("  %-36s %14.4f %s\n", d.name, v.Value, v.Unit)
		}
	}
	for _, l := range shareLayers {
		if v, ok := r.Shares[l]; ok && v > 0 {
			fmt.Printf("  share.%-30s %14.4f\n", l, v)
		}
	}
}
