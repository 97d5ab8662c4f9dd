package bench

// The paper's Sec. 3.2 feedback approach, once: measure generated
// products, store their non-functional properties on features, derive
// greedily under a budget. Every B scenario feeds its measured cells
// through Price; nothing else in the package fits a table or calls the
// greedy deriver (E6 keeps its own solver comparison).

import (
	"errors"
	"fmt"

	"famedb/internal/core"
	"famedb/internal/footprint"
	"famedb/internal/nfp"
	"famedb/internal/solver"
)

// Measurement is one measured product: the features it was composed
// from and the properties the run observed.
type Measurement struct {
	Features []string
	Values   map[nfp.Property]float64
}

// Feedback is the closed loop for one optional feature: what the
// measurements say it contributes to the objective, whether the greedy
// deriver minimizing that objective keeps it, and what it costs in ROM.
type Feedback struct {
	Feature          string   `json:"feature"`
	Property         string   `json:"property"`
	MeasuredProducts int      `json:"measured_products"`
	Required         []string `json:"required"`
	DerivedFeatures  []string `json:"derived_features"`
	// Selected reports whether the deriver picked the feature on the
	// strength of the measurements alone: a negative fitted weight (the
	// feature improves the property) selects it, a positive one prices
	// it out.
	Selected bool `json:"selected"`
	// Weight is the fitted per-feature contribution to Property.
	Weight float64 `json:"weight"`
	// The ROM side: the minimal product satisfying Required, what
	// requiring the feature adds on top of it — the feature's own bytes
	// plus whatever it implies (Replication drags in Transaction and
	// Recovery) — and the budget halfway between, under which requiring
	// the feature must fail.
	BaseROM                int  `json:"base_rom_bytes"`
	FeatureROM             int  `json:"feature_rom_bytes"`
	TightROMBudget         int  `json:"tight_rom_budget_bytes"`
	InfeasibleWhenRequired bool `json:"infeasible_when_required"`
}

// fitted records the measurements into a fresh NFP store for the model.
func fitted(m *core.Model, ms []Measurement) (*nfp.Store, error) {
	store := nfp.NewStore(m)
	for _, x := range ms {
		if err := nfp.RecordMeasurement(store, x.Features, x.Values); err != nil {
			return nil, err
		}
	}
	return store, nil
}

// Price closes the feedback loop for one feature. Latency side: the
// measurements are fitted to per-feature weights and the greedy deriver
// — which, unlike branch-and-bound, accepts the signed cost table —
// derives the product minimizing the property under the required
// features. ROM side: branch-and-bound sizes the minimal product with
// and without the feature, and a budget between the two shows whether
// requiring the feature is affordable.
func Price(m *core.Model, feature string, property nfp.Property, required []string, ms []Measurement) (Feedback, error) {
	fb := Feedback{Feature: feature, Property: string(property), Required: required}
	store, err := fitted(m, ms)
	if err != nil {
		return fb, err
	}
	fb.MeasuredProducts = len(store.Measurements())
	tab, err := store.SignedTable(property)
	if err != nil {
		return fb, err
	}
	derived, err := solver.Greedy(solver.Request{Model: m, Table: tab, Required: required})
	if err != nil {
		return fb, err
	}
	fb.DerivedFeatures = derived.Config.SelectedNames()
	fb.Selected = derived.Config.Has(feature)
	fb.Weight, _ = store.FeatureWeight(property, feature)

	rom, err := footprint.Load(m.Name)
	if err != nil {
		return fb, err
	}
	base, err := solver.BranchAndBound(solver.Request{Model: m, Table: rom, Required: required})
	if err != nil {
		return fb, err
	}
	with := solver.Request{Model: m, Table: rom, Required: append(append([]string{}, required...), feature)}
	closure, err := solver.BranchAndBound(with)
	if err != nil {
		return fb, fmt.Errorf("requiring %s: %w", feature, err)
	}
	fb.BaseROM = base.ROM
	fb.FeatureROM = closure.ROM - base.ROM
	fb.TightROMBudget = base.ROM + fb.FeatureROM/2
	with.MaxROM = fb.TightROMBudget
	_, err = solver.BranchAndBound(with)
	fb.InfeasibleWhenRequired = errors.Is(err, solver.ErrInfeasible)
	if err != nil && !fb.InfeasibleWhenRequired {
		return fb, err
	}
	return fb, nil
}

// Weights fits every property the measurements carry and returns the
// feature's weight under each — the same fit Price runs for its
// objective, exposed for the properties a scenario measured alongside
// it (B3's commit throughput next to its commit latency).
func Weights(m *core.Model, feature string, ms []Measurement) (map[string]float64, error) {
	store, err := fitted(m, ms)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, x := range ms {
		for p := range x.Values {
			if _, done := out[string(p)]; done {
				continue
			}
			if err := store.Fit(p); err != nil {
				return nil, err
			}
			out[string(p)], _ = store.FeatureWeight(p, feature)
		}
	}
	return out, nil
}
