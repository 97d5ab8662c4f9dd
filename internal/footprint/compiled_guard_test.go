package footprint

import (
	"testing"
)

// keptPlanSources are the files dedicated to the CompiledQueries
// feature: the prepared-statement surface and the shape-keyed plan
// cache — what keeps a plan past the statement that built it.
var keptPlanSources = map[string]bool{
	"internal/sql/prepare.go": true,
	"internal/sql/cache.go":   true,
}

// executorSources are the files of the one SQL executor, which every
// SQL product carries whether or not it keeps plans.
var executorSources = map[string]bool{
	"internal/sql/engine.go":    true,
	"internal/sql/compile.go":   true,
	"internal/sql/optimizer.go": true,
}

// TestOnlyCompiledQueriesMapsKeptPlanSources guards the feature's
// zero-cost contract on the ROM side: a product derived without
// CompiledQueries must carry no Prepare/Stmt surface and no plan cache,
// so no other feature and not the core may claim those sources.
func TestOnlyCompiledQueriesMapsKeptPlanSources(t *testing.T) {
	for _, spec := range FAMECore() {
		if keptPlanSources[spec.File] {
			t.Errorf("core claims CompiledQueries source %s", spec.File)
		}
	}
	for feat, specs := range FAMESources() {
		for _, spec := range specs {
			if keptPlanSources[spec.File] && feat != "CompiledQueries" {
				t.Errorf("feature %q claims CompiledQueries source %s", feat, spec.File)
			}
		}
	}
	// And CompiledQueries claims them whole-file, so its ROM cost is
	// real.
	mapped := map[string]bool{}
	for _, spec := range FAMESources()["CompiledQueries"] {
		if keptPlanSources[spec.File] {
			if len(spec.Funcs) != 0 {
				t.Errorf("CompiledQueries maps %s partially; want whole file", spec.File)
			}
			mapped[spec.File] = true
		}
	}
	for f := range keptPlanSources {
		if !mapped[f] {
			t.Errorf("CompiledQueries feature does not map %s", f)
		}
	}
}

// TestCompiledQueriesClaimsNoExecutorSource is the inverse guard: there
// is one executor and SQLEngine (with Optimizer) pays for it. If
// CompiledQueries claimed any of it, a product without the feature
// would be priced as if it could not execute SQL.
func TestCompiledQueriesClaimsNoExecutorSource(t *testing.T) {
	for _, spec := range FAMESources()["CompiledQueries"] {
		if executorSources[spec.File] {
			t.Errorf("CompiledQueries claims executor source %s", spec.File)
		}
		if !keptPlanSources[spec.File] {
			t.Errorf("CompiledQueries claims shared source %s", spec.File)
		}
	}
	claimed := map[string]bool{}
	for _, feat := range []string{"SQLEngine", "Optimizer"} {
		for _, spec := range FAMESources()[feat] {
			claimed[spec.File] = true
		}
	}
	for f := range executorSources {
		if !claimed[f] {
			t.Errorf("neither SQLEngine nor Optimizer maps executor source %s", f)
		}
	}
}
