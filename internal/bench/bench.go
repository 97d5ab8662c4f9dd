// Package bench is the experiment harness of the reproduction: one
// runner per paper artifact (Fig. 1a, Fig. 1b, the Sec. 2.2 claims,
// Fig. 2's products, Sec. 3.1's detection experiment, Sec. 3.2's
// solver comparison), the feedback table B1–B10 (scenarios.go: one row
// per priced feature, run by the one driver in scenario.go and closed
// by Price), and the crash sweep (crash.go: one sweep, two families —
// CP's committing primary and B10's replica applying shipped chunks —
// each crashed at every device op under the cut and torn models).
// bench.go holds one runner per engine: SetupBDB and SetupFAME build a
// preloaded product and its workload step, and RunBDB and RunFAME time
// that step. registry.go maps experiment ids to runners; cmd/fame-bench
// prints the tables; bench_test.go wraps the E runners in testing.B
// benchmarks; EXPERIMENTS.md records the measured outcomes.
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

// Step executes one pre-generated workload operation.
type Step func() error

// runSteps runs step n times on one goroutine and returns the wall time.
func runSteps(n int, step Step) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := step(); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// SetupBDB opens a preloaded Berkeley DB case-study engine in the given
// mode with the given features and returns a step executing the Fig. 1
// benchmark mix and the engine's close.
func SetupBDB(mode core.BDBMode, features []string, method bdb.Method, seed int64) (Step, func() error, error) {
	env, err := bdb.Open(bdb.Config{
		FS:         osal.NewMemFS(),
		Mode:       mode,
		Features:   features,
		Passphrase: []byte("bench"),
	})
	if err != nil {
		return nil, nil, err
	}
	db, err := env.CreateDB("bench", method)
	if err != nil {
		env.Close()
		return nil, nil, err
	}
	gen := workload.New(workload.Fig1Config(seed))
	for _, op := range gen.Preload() {
		if err := db.Put(op.Key, op.Value); err != nil {
			env.Close()
			return nil, nil, err
		}
	}
	step := func() error {
		op := gen.Next()
		switch op.Kind {
		case workload.OpGet:
			_, _, err := db.Get(op.Key)
			return err
		case workload.OpPut:
			return db.Put(op.Key, op.Value)
		}
		return nil
	}
	return step, env.Close, nil
}

// RunBDB runs SetupBDB's step n times and returns operations per
// second.
func RunBDB(mode core.BDBMode, features []string, method bdb.Method, n int, seed int64) (float64, error) {
	step, closeEnv, err := SetupBDB(mode, features, method, seed)
	if err != nil {
		return 0, err
	}
	defer closeEnv()
	elapsed, err := runSteps(n, step)
	if err != nil {
		return 0, err
	}
	return perSecond(n, elapsed), nil
}

// mix is the standard 9:1 get/put workload over 2,000 keys.
func mix(seed int64) workload.Config {
	return workload.Config{
		Seed:      seed,
		Keys:      2000,
		ValueSize: 32,
		Mix:       map[workload.OpKind]int{workload.OpGet: 9, workload.OpPut: 1},
	}
}

// SetupFAME composes a FAME-DBMS product, preloads it and returns a
// step executing the workload on the product's record path (a
// Transaction product journals every write, as it was generated to),
// and the instance, for the caller to read its instrumentation off and
// to close. The preload is setup and writes the store directly.
func SetupFAME(features []string, cfg workload.Config, opts composer.Options) (Step, *composer.Instance, error) {
	inst, err := composer.ComposeProduct(opts, features...)
	if err != nil {
		return nil, nil, err
	}
	gen := workload.New(cfg)
	for _, op := range gen.Preload() {
		if err := inst.Store.Put(op.Key, op.Value); err != nil {
			inst.Close()
			return nil, nil, err
		}
	}
	rec := inst.Records()
	step := func() error {
		op := gen.Next()
		switch op.Kind {
		case workload.OpGet:
			_, err := rec.Get(op.Key)
			return err
		case workload.OpPut:
			return rec.Put(op.Key, op.Value)
		case workload.OpUpdate:
			return rec.Update(op.Key, op.Value)
		case workload.OpScan:
			n := 0
			return rec.Scan(op.Key, nil, func(k, v []byte) bool {
				n++
				return n < 20
			})
		}
		return nil
	}
	return step, inst, nil
}

// RunFAME measures a FAME-DBMS product: SetupFAME's standard mix run n
// times, in operations per second.
func RunFAME(features []string, n int, seed int64) (float64, error) {
	step, inst, err := SetupFAME(features, mix(seed), composer.Options{})
	if err != nil {
		return 0, err
	}
	defer inst.Close()
	elapsed, err := runSteps(n, step)
	if err != nil {
		return 0, err
	}
	return perSecond(n, elapsed), nil
}

// mops formats operations/second as the paper's "Mio. queries / s".
func mops(opsPerSec float64) string {
	return fmt.Sprintf("%.3f", opsPerSec/1e6)
}
