package fame

// The benchmark harness: one testing.B benchmark per paper artifact
// (Fig. 1a, Fig. 1b, the Sec. 2.2 monolithic-vs-composed claim, the
// Fig. 2 products, the Sec. 3.2 solvers) plus the design-choice
// ablations listed in DESIGN.md §5. Run with:
//
//	go test -bench=. -benchmem
//
// cmd/fame-bench prints the same experiments as paper-style tables.

import (
	"fmt"
	"testing"

	"famedb/internal/bdb"
	"famedb/internal/bench"
	"famedb/internal/composer"
	"famedb/internal/core"
	"famedb/internal/footprint"
	"famedb/internal/solver"
	"famedb/internal/workload"
)

// BenchmarkE1FootprintPerConfig computes the Fig. 1a footprints and
// reports them as custom metrics (bytes per configuration and mode).
func BenchmarkE1FootprintPerConfig(b *testing.B) {
	var rows []bench.E1Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = bench.E1()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.CBytes >= 0 {
			b.ReportMetric(float64(r.CBytes), fmt.Sprintf("cfg%d-C-bytes", r.Num))
		}
		b.ReportMetric(float64(r.FBytes), fmt.Sprintf("cfg%d-FCpp-bytes", r.Num))
	}
}

// BenchmarkE2QueriesPerConfig measures Fig. 1b: the benchmark-app mix
// per configuration and implementation technology.
func BenchmarkE2QueriesPerConfig(b *testing.B) {
	for _, cfg := range core.BDBConfigurations() {
		if !cfg.InPerfFigure {
			continue
		}
		for _, mode := range cfg.Modes {
			b.Run(fmt.Sprintf("cfg%d/%s", cfg.Num, mode), func(b *testing.B) {
				step, cleanup, err := bench.SetupBDB(mode, cfg.Features, bdb.MethodBtree, 42)
				if err != nil {
					b.Fatal(err)
				}
				defer cleanup()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := step(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE3MonolithicVsComposed isolates the Sec. 2.2 claim on the
// complete configuration: composition must not be slower than the
// flag-checked monolith.
func BenchmarkE3MonolithicVsComposed(b *testing.B) {
	for _, mode := range []core.BDBMode{core.ModeC, core.ModeComposed} {
		b.Run(mode.String(), func(b *testing.B) {
			step, cleanup, err := bench.SetupBDB(mode, core.BDBOptionalFeatures(), bdb.MethodBtree, 7)
			if err != nil {
				b.Fatal(err)
			}
			defer cleanup()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4Products measures each Fig. 2 representative product on a
// get/put mix and reports its footprint alongside.
func BenchmarkE4Products(b *testing.B) {
	for _, p := range core.FAMEProducts() {
		b.Run(p.Name, func(b *testing.B) {
			cfg := workload.Config{
				Seed: 11, Keys: 1000, ValueSize: 32,
				Mix: map[workload.OpKind]int{workload.OpGet: 9, workload.OpPut: 1},
			}
			step, inst, err := bench.SetupFAME(p.Features, cfg, composer.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer inst.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6GreedyVsExact compares the derivation cost of the two
// solvers on the FAME model (Sec. 3.2: greedy copes with the
// NP-complete CSP).
func BenchmarkE6GreedyVsExact(b *testing.B) {
	tab, err := footprint.Load("FAME-DBMS")
	if err != nil {
		b.Fatal(err)
	}
	req := solver.Request{
		Model: core.FAMEModel(), Table: tab,
		Required: []string{"Put", "Get", "Remove"},
	}
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solver.Greedy(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solver.BranchAndBound(req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationReplacement: LRU vs LFU under uniform and Zipf
// access with a cache smaller than the working set.
func BenchmarkAblationReplacement(b *testing.B) {
	for _, policy := range []string{"LRU", "LFU"} {
		for _, dist := range []workload.Distribution{workload.Uniform, workload.Zipf} {
			name := fmt.Sprintf("%s/%v", policy, map[workload.Distribution]string{
				workload.Uniform: "uniform", workload.Zipf: "zipf"}[dist])
			b.Run(name, func(b *testing.B) {
				features := []string{
					"Linux", "BPlusTree", "BufferManager", policy, "DynamicAlloc",
					"Put", "Get",
				}
				cfg := workload.Config{
					Seed: 3, Keys: 20000, ValueSize: 64, Distribution: dist,
					Mix: map[workload.OpKind]int{workload.OpGet: 1},
				}
				step, inst, err := bench.SetupFAME(features, cfg, composer.Options{CachePages: 16})
				if err != nil {
					b.Fatal(err)
				}
				defer inst.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := step(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationAlloc: static arena vs heap allocation for buffer
// frames.
func BenchmarkAblationAlloc(b *testing.B) {
	for _, alloc := range []string{"StaticAlloc", "DynamicAlloc"} {
		b.Run(alloc, func(b *testing.B) {
			features := []string{
				"Linux", "BPlusTree", "BufferManager", "LRU", alloc,
				"Put", "Get",
			}
			cfg := workload.Config{
				Seed: 5, Keys: 5000, ValueSize: 64,
				Mix: map[workload.OpKind]int{workload.OpGet: 4, workload.OpPut: 1},
			}
			step, inst, err := bench.SetupFAME(features, cfg, composer.Options{CachePages: 32})
			if err != nil {
				b.Fatal(err)
			}
			defer inst.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCommit: force vs group commit under a write-only
// transactional load; group commit amortizes log syncs.
func BenchmarkAblationCommit(b *testing.B) {
	for _, proto := range []string{"ForceCommit", "GroupCommit"} {
		b.Run(proto, func(b *testing.B) {
			inst, err := composer.ComposeProduct(composer.Options{GroupCommitBatch: 16},
				"Linux", "BPlusTree", "BufferManager", "LRU", "DynamicAlloc",
				"Put", "Get", "Transaction", proto)
			if err != nil {
				b.Fatal(err)
			}
			defer inst.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := inst.Txn.Begin()
				if err := tx.Put(workload.Key(i%1000), []byte("v")); err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(inst.Txn.LogSyncs())/float64(b.N), "syncs/op")
		})
	}
}

// BenchmarkAblationIndex: B+-tree vs List as the workload shifts from
// point reads to scans, at two data sizes. The List index only
// competes at tiny sizes — the paper's future-work point about
// selecting the index from the data.
func BenchmarkAblationIndex(b *testing.B) {
	for _, idx := range []string{"BPlusTree", "ListIndex"} {
		for _, keys := range []int{64, 2048} {
			b.Run(fmt.Sprintf("%s/keys%d", idx, keys), func(b *testing.B) {
				cfg := workload.Config{
					Seed: 9, Keys: keys, ValueSize: 16,
					Mix: map[workload.OpKind]int{workload.OpGet: 1},
				}
				step, inst, err := bench.SetupFAME(
					[]string{"Linux", idx, "Put", "Get"}, cfg, composer.Options{})
				if err != nil {
					b.Fatal(err)
				}
				defer inst.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := step(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationOptimizer: the same primary-key query with and
// without the Optimizer feature (index scan vs full scan).
func BenchmarkAblationOptimizer(b *testing.B) {
	for _, optimizer := range []bool{true, false} {
		name := "with-optimizer"
		features := []string{
			"Linux", "BPlusTree", "BTreeUpdate", "BTreeRemove",
			"Put", "Get", "Remove", "Update", "SQLEngine", "Optimizer",
		}
		if !optimizer {
			name = "without-optimizer"
			features = features[:len(features)-1]
		}
		b.Run(name, func(b *testing.B) {
			db, err := Open(Options{}, features...)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			if _, err := db.Exec("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 2000; i++ {
				if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'v')", i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := db.Exec(fmt.Sprintf("SELECT v FROM t WHERE id = %d", i%2000))
				if err != nil || len(r.Rows) != 1 {
					b.Fatalf("rows=%d err=%v", len(r.Rows), err)
				}
			}
		})
	}
}

// BenchmarkVariantCounting measures the SPL engine itself: counting the
// products of both paper models.
func BenchmarkVariantCounting(b *testing.B) {
	for _, m := range []*core.Model{core.FAMEModel(), core.BDBModel()} {
		b.Run(m.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if m.CountVariants().Sign() <= 0 {
					b.Fatal("no variants")
				}
			}
		})
	}
}
