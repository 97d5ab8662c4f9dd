// Command fame-bench regenerates every figure and table of the paper's
// evaluation as text output (see DESIGN.md §3 for the experiment
// index and EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	fame-bench [-run E1,...,E7,B1,B2,B3,B4,B5,B6,B7,B8,B9,B10,CP] [-ops N]
//	           [-out BENCH_N.json] [-stats]
//
// B1 runs the Statistics-feature benchmark: instrumented product runs
// whose measured throughput and latency quantiles feed the NFP store,
// closing the paper's feedback loop. B2 runs the ShardedBuffer
// concurrency benchmark — both buffer pools under parallel get/put
// mixes at 1/4/16 goroutines. B3 runs the GroupCommit benchmark —
// ForceCommit vs the group-commit pipeline at 1/4/16 concurrent
// committers on a delayed-sync device. B4 runs the Tracing benchmark —
// the same product with and without span recording at 1/4/16
// goroutines, closing the loop the other way (the deriver excludes
// Tracing under a latency or ROM budget). B5 runs the Checksums
// benchmark — commit/read/recovery cost with and without page
// trailers at three store sizes, again closing the feedback loop (the
// deriver prices Checksums out under a latency or ROM budget). B6 runs
// the Monitor benchmark — a group-commit mixed load with the live
// sampler off, at 1s, and at 100ms, quantifying the monitoring
// subsystem's overhead and pricing the Monitor feature through the
// same feedback loop. B7 runs the MVCC benchmark — snapshot reads vs
// latched reads across a reader/writer sweep while group-commit
// writers rewrite the scanned keys, closing the loop both ways (the
// deriver selects MVCC under a read-latency objective and prices it
// out under a tight ROM budget). B8 runs the CompiledQueries benchmark
// — uncached vs plan-cached vs prepared execution of point lookups,
// range scans and filtered scans at 1/4/16 goroutines, closing the
// loop both ways (the deriver selects CompiledQueries under a
// statement-latency objective and prices it out under a tight ROM
// budget). B9 runs the QueryStats benchmark — the same mixed
// point/range/filtered load with and without per-statement
// observation at 1/4/16 goroutines, quantifying the profile
// registry's overhead and closing the loop both ways (the deriver
// selects QueryStats under an observability objective and prices it
// out under a tight ROM budget). B10 runs the Replication benchmark —
// pipelined put throughput over loopback TCP against the Server
// product with 0/1/2 live replicas, without the Replication feature,
// and with one dead replica (proving replica failure never blocks
// commits), closing the feedback loop by pricing Replication's latency
// and ROM closure, then the crash sweep's replica family: a replica
// applying the primary's shipped chunks, crashed at every device op
// under the cut and torn models, must recover a byte-exact log prefix
// and catch up, and the cut sweep's recovered log ends must cover every
// chunk boundary. CP runs the crash sweep's primary family: committed
// transactions with a checkpoint, crashed at every device op under
// both models, reopened, and scrubbed.
//
// -out names the machine-readable reports with a literal "N" standing
// for the benchmark number: -out BENCH_N.json writes BENCH_1.json ..
// BENCH_10.json for whichever of B1..B10 run, all in the one report
// schema (EXPERIMENTS.md); -out "" suppresses them. An id -run does not
// know is an error that lists the valid ids. -stats dumps the Prometheus
// text exposition of a full instrumented run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"famedb/internal/bench"
)

func main() {
	experiments := bench.Experiments()
	var ids []string
	known := map[string]bool{}
	for _, e := range experiments {
		ids = append(ids, e.ID)
		known[e.ID] = true
	}
	run := flag.String("run", strings.Join(ids, ","), "comma-separated experiment ids")
	ops := flag.Int("ops", 200000, "operations per measured engine run")
	outPattern := flag.String("out", "BENCH_N.json", "file pattern for the B benchmarks' machine-readable reports; a literal N becomes the benchmark number, empty suppresses them")
	statsDump := flag.Bool("stats", false, "dump Prometheus metrics of a full instrumented run")
	flag.Parse()

	fail := func(id string, err error) {
		fmt.Fprintf(os.Stderr, "fame-bench: %s: %v\n", id, err)
		os.Exit(1)
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*run, ",") {
		id = strings.TrimSpace(strings.ToUpper(id))
		if !known[id] {
			fail("-run", fmt.Errorf("unknown experiment %q; valid ids: %s", id, strings.Join(ids, ",")))
		}
		want[id] = true
	}

	fmt.Println(bench.HostEnv())
	fmt.Println()
	for _, e := range experiments {
		if !want[e.ID] {
			continue
		}
		text, report, err := e.Run(*ops)
		if text != "" {
			fmt.Println(text)
		}
		if err != nil {
			fail(e.ID, err)
		}
		if report == nil || *outPattern == "" {
			continue
		}
		// Replace the LAST "N" so names like BENCH_N.json keep their
		// prefix intact.
		path := *outPattern
		if i := strings.LastIndex(path, "N"); i >= 0 {
			path = path[:i] + e.ID[1:] + path[i+1:]
		}
		f, err := os.Create(path)
		if err != nil {
			fail(e.ID, err)
		}
		if err := bench.WriteJSON(f, report); err != nil {
			f.Close()
			fail(e.ID, err)
		}
		if err := f.Close(); err != nil {
			fail(e.ID, err)
		}
		fmt.Printf("wrote %s\n", path)
	}
	if *statsDump {
		text, err := bench.StatsDump(*ops / 4)
		if err != nil {
			fail("stats", err)
		}
		fmt.Print(text)
	}
}
