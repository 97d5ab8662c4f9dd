package bench

// The B experiments are rows of one table (scenarios.go) run by one
// driver: every row measures products with and without one optional
// feature across a sweep, feeds the cells it names to the NFP store,
// and lets Price derive from the measurements whether the feature earns
// its place. A new optional feature is priced by adding a row.

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"famedb/internal/composer"
	"famedb/internal/core"
	"famedb/internal/nfp"
	"famedb/internal/stats"
)

// benchSeed is the fixed seed of every seeded workload and crash sweep,
// so reports replay.
const benchSeed = 23

// Variant is one product of a scenario's comparison.
type Variant struct {
	// Name is the value of the scenario's variant label.
	Name string
	// Features is the product, as composed and as recorded into the NFP
	// store when one of its cells feeds the loop.
	Features []string
	// With marks the variants that compose the priced feature.
	With bool
	// Against names the variant a With variant is compared to in the
	// ratio rows; empty means the first variant without the feature.
	Against string
}

// Position is one position of a scenario's sweep.
type Position struct {
	// Labels are the values of the scenario's sweep labels, in order.
	Labels []string
	// Workers is the number of goroutines sharing the timed operations.
	Workers int
	// Size is the position's second parameter where the sweep has one:
	// B5's records, B7's writers.
	Size int
}

// goroutineSweep is the 1/4/16-goroutine sweep most scenarios share.
var goroutineSweep = []Position{
	{Labels: []string{"1"}, Workers: 1},
	{Labels: []string{"4"}, Workers: 4},
	{Labels: []string{"16"}, Workers: 16},
}

// Cell is one measured (variant, sweep position) pair.
type Cell struct {
	Variant Variant
	Pos     Position
}

func (c Cell) String() string {
	return strings.Join(append([]string{c.Variant.Name}, c.Pos.Labels...), "/")
}

// Scenario is one row of the feedback table.
type Scenario struct {
	ID, Title string
	// Feature is the optional feature the row prices, Property the
	// objective the greedy deriver minimizes, Required the
	// stakeholder's functional requirements for the derivation.
	Feature  string
	Property nfp.Property
	Required []string
	// Config is the row's fixed parameters, echoed into the report.
	Config map[string]float64
	// VariantLabel and SweepLabels name the label columns, Metrics the
	// metric columns every cell reports, Compare the metrics the ratio
	// rows divide (with-variant over its baseline).
	VariantLabel string
	SweepLabels  []string
	Metrics      []string
	Compare      []string
	Variants     []Variant
	Sweep        []Position
	// Run measures one cell: compose the variant's product over the
	// row's device model, preload, fan the timed operations over the
	// position's workers, and read the metrics off the Statistics snapshot.
	Run func(Cell) (Metrics, error)
	// Feed says which cells feed the NFP store and with what values; it
	// returns nil for the cells that do not.
	Feed func(Cell, Metrics) map[nfp.Property]float64
	// After, when set, completes the report once the loop has closed
	// (B9's per-shape rows, B10's crash sweeps).
	After func(*Report) error
}

// RunScenario drives one row: measure every cell, compute the
// with/without ratio rows, and close the feedback loop over the cells
// the row feeds.
func RunScenario(sc Scenario) (*Report, error) {
	r := &Report{
		ID: sc.ID, Title: sc.Title, Env: HostEnv(), Config: sc.Config,
		LabelNames:  append([]string{sc.VariantLabel}, sc.SweepLabels...),
		MetricNames: sc.Metrics,
	}
	var fed []Measurement
	for _, v := range sc.Variants {
		for _, st := range sc.Sweep {
			c := Cell{Variant: v, Pos: st}
			m, err := sc.Run(c)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", sc.ID, c, err)
			}
			labels := map[string]string{sc.VariantLabel: v.Name}
			for i, name := range sc.SweepLabels {
				labels[name] = st.Labels[i]
			}
			r.Points = append(r.Points, Point{Labels: labels, Metrics: m})
			if values := sc.Feed(c, m); values != nil {
				fed = append(fed, Measurement{Features: v.Features, Values: values})
			}
		}
	}
	r.Ratios = ratioRows(sc, r.Points)

	model := core.FAMEModel()
	weights, err := Weights(model, sc.Feature, fed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sc.ID, err)
	}
	r.Ratios = append(r.Ratios, Point{Labels: map[string]string{"fitted_weight": sc.Feature}, Metrics: weights})
	if r.Feedback, err = Price(model, sc.Feature, sc.Property, sc.Required, fed); err != nil {
		return nil, fmt.Errorf("%s: %w", sc.ID, err)
	}
	if sc.After != nil {
		if err := sc.After(r); err != nil {
			return nil, fmt.Errorf("%s: %w", sc.ID, err)
		}
	}
	return r, nil
}

// ratioRows compares every With variant against its baseline at each
// sweep position. Points arrive variant-major, so a cell's index is
// variant*len(sweep)+step.
func ratioRows(sc Scenario, points []Point) []Point {
	index := map[string]int{}
	base := ""
	for i, v := range sc.Variants {
		index[v.Name] = i
		if base == "" && !v.With {
			base = v.Name
		}
	}
	var rows []Point
	for si := range sc.Sweep {
		for vi, v := range sc.Variants {
			against := v.Against
			if against == "" {
				against = base
			}
			if !v.With || against == "" {
				continue
			}
			with := points[vi*len(sc.Sweep)+si]
			without := points[index[against]*len(sc.Sweep)+si]
			row := Point{Labels: map[string]string{"vs": against}, Metrics: Metrics{}}
			for name, value := range with.Labels {
				row.Labels[name] = value
			}
			for _, name := range sc.Compare {
				if without.Metrics[name] > 0 {
					row.Metrics[name+"_ratio"] = with.Metrics[name] / without.Metrics[name]
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// fanOut is the package's one worker fan-out and timer: n operations
// are split over g workers, each worker runs work(w, share) on its own
// goroutine, and the wall time of the whole phase comes back with the
// first error any worker hit.
func fanOut(g, n int, work func(w, n int) error) (time.Duration, error) {
	errs := make(chan error, g)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g; w++ {
		share := n / g
		if w < n%g {
			share++
		}
		wg.Add(1)
		go func(w, share int) {
			defer wg.Done()
			if err := work(w, share); err != nil {
				errs <- err
			}
		}(w, share)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	return elapsed, <-errs
}

// perSecond is a phase's throughput.
func perSecond(n int, elapsed time.Duration) float64 {
	return float64(n) / elapsed.Seconds()
}

// atLeast floors a smoke-sized -ops so every scenario still measures a
// meaningful phase.
func atLeast(ops, floor int) int {
	if ops < floor {
		return floor
	}
	return ops
}

// payload is the value every scenario writes.
func payload(n int) []byte {
	value := make([]byte, n)
	for i := range value {
		value[i] = byte(i)
	}
	return value
}

func benchKey(i int) []byte { return []byte(fmt.Sprintf("k%07d", i)) }

// preload writes keys sequentially through the access layer — the
// B+-tree has no internal latching without the Locking feature, so
// loading stays on one goroutine.
func preload(inst *composer.Instance, keys int, value []byte) error {
	for i := 0; i < keys; i++ {
		if err := inst.Store.Put(benchKey(i), value); err != nil {
			return err
		}
	}
	return nil
}

// accessLatency copies the Statistics feature's access-layer latency
// quantiles (nanoseconds) into a cell's metrics.
func accessLatency(m Metrics, snap stats.Snapshot) {
	m["get_p50_ns"] = snap.Access.GetLatency.P50()
	m["get_p99_ns"] = snap.Access.GetLatency.P99()
	m["put_p50_ns"] = snap.Access.PutLatency.P50()
	m["put_p99_ns"] = snap.Access.PutLatency.P99()
}

// timed runs one operation and records its wall time in the harness's
// own histogram, for scenarios whose latency must not be measured by
// the feature under test.
func timed(h *stats.Histogram, op func() error) error {
	t0 := time.Now()
	err := op()
	h.Observe(time.Since(t0).Nanoseconds())
	return err
}
