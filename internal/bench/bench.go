// Package bench is the experiment harness of the reproduction: one
// runner per paper artifact (Fig. 1a, Fig. 1b, the Sec. 2.2 claims,
// Fig. 2's products, Sec. 3.1's detection experiment, Sec. 3.2's
// solver comparison), the feedback table B1–B10 (scenarios.go: one row
// per priced feature, run by the one driver in scenario.go and closed
// by Price), and the crash-point harnesses. registry.go maps experiment
// ids to runners; cmd/fame-bench prints the tables; bench_test.go wraps
// the E runners in testing.B benchmarks; EXPERIMENTS.md records the
// measured outcomes.
package bench

import (
	"fmt"
	"time"

	"famedb/internal/bdb"
	"famedb/internal/composer"
	"famedb/internal/core"
	"famedb/internal/osal"
	"famedb/internal/workload"
)

// RunBDB measures a Berkeley DB case-study configuration: an engine is
// opened in the given mode with the given features, preloaded, and the
// Fig. 1 benchmark mix is executed n times. It returns achieved
// operations per second.
func RunBDB(mode core.BDBMode, features []string, method bdb.Method, n int, seed int64) (float64, error) {
	env, err := bdb.Open(bdb.Config{
		FS:         osal.NewMemFS(),
		Mode:       mode,
		Features:   features,
		PageSize:   4096,
		Passphrase: []byte("bench"),
	})
	if err != nil {
		return 0, err
	}
	defer env.Close()
	db, err := env.CreateDB("bench", method)
	if err != nil {
		return 0, err
	}
	gen := workload.New(workload.Fig1Config(seed))
	for _, op := range gen.Preload() {
		if err := db.Put(op.Key, op.Value); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		op := gen.Next()
		switch op.Kind {
		case workload.OpGet:
			if _, _, err := db.Get(op.Key); err != nil {
				return 0, err
			}
		case workload.OpPut:
			if err := db.Put(op.Key, op.Value); err != nil {
				return 0, err
			}
		}
	}
	elapsed := time.Since(start)
	return float64(n) / elapsed.Seconds(), nil
}

// runMix composes a product, preloads it and runs the standard 9:1
// get/put mix over it on one goroutine — the "measure generated
// products" step of the paper's feedback approach. It returns the
// instance, for the caller to read the Statistics feature's
// instrumentation off (B1) and to close, and the mix's wall time.
func runMix(features []string, n int, seed int64) (*composer.Instance, time.Duration, error) {
	inst, err := composer.ComposeProduct(composer.Options{}, features...)
	if err != nil {
		return nil, 0, err
	}
	gen := workload.New(workload.Config{
		Seed:      seed,
		Keys:      2000,
		ValueSize: 32,
		Mix:       map[workload.OpKind]int{workload.OpGet: 9, workload.OpPut: 1},
	})
	for _, op := range gen.Preload() {
		if err := inst.Store.Put(op.Key, op.Value); err != nil {
			inst.Close()
			return nil, 0, err
		}
	}
	elapsed, err := fanOut(1, n, func(_, n int) error {
		for i := 0; i < n; i++ {
			op := gen.Next()
			switch op.Kind {
			case workload.OpGet:
				if _, err := inst.Store.Get(op.Key); err != nil {
					return err
				}
			case workload.OpPut:
				if err := inst.Store.Put(op.Key, op.Value); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		inst.Close()
		return nil, 0, err
	}
	return inst, elapsed, nil
}

// RunFAME measures a FAME-DBMS product: compose, preload, run a
// put/get mix, return operations per second.
func RunFAME(features []string, n int, seed int64) (float64, error) {
	inst, elapsed, err := runMix(features, n, seed)
	if err != nil {
		return 0, err
	}
	defer inst.Close()
	return perSecond(n, elapsed), nil
}

// mops formats operations/second as the paper's "Mio. queries / s".
func mops(opsPerSec float64) string {
	return fmt.Sprintf("%.3f", opsPerSec/1e6)
}
