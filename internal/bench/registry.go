package bench

import (
	"fmt"
	"strings"
)

// Experiment is one entry of fame-bench's registry.
type Experiment struct {
	ID string
	// Run executes the experiment at fame-bench's -ops and returns its
	// text; the B rows also return their report. A run that completed
	// but broke its own invariants returns its text together with the
	// error, so the evidence is printed before the exit.
	Run func(ops int) (string, *Report, error)
}

// textOnly adapts an experiment that has no machine-readable report.
func textOnly(run func(ops int) (string, error)) func(int) (string, *Report, error) {
	return func(ops int) (string, *Report, error) {
		text, err := run(ops)
		return text, nil, err
	}
}

// Experiments is every experiment fame-bench can run, in print order:
// the paper's figures and claims (E1–E7), the feedback table (B1–B10),
// and the crash sweep's primary family (CP).
func Experiments() []Experiment {
	exps := []Experiment{
		{"E1", textOnly(func(int) (string, error) {
			rows, err := E1()
			if err != nil {
				return "", err
			}
			return FormatE1(rows), nil
		})},
		{"E2", textOnly(func(ops int) (string, error) {
			rows, err := E2(ops)
			if err != nil {
				return "", err
			}
			return FormatE2(rows), nil
		})},
		{"E3", textOnly(func(ops int) (string, error) {
			r, err := E3(ops)
			if err != nil {
				return "", err
			}
			return FormatE3(r), nil
		})},
		{"E4", textOnly(func(ops int) (string, error) {
			rows, variants, err := E4(ops / 4)
			if err != nil {
				return "", err
			}
			return FormatE4(rows, variants), nil
		})},
		{"E5", textOnly(func(int) (string, error) {
			rows, examined, derivable, err := E5()
			if err != nil {
				return "", err
			}
			return FormatE5(rows, examined, derivable), nil
		})},
		{"E6", textOnly(func(ops int) (string, error) {
			r, err := E6(ops / 10)
			if err != nil {
				return "", err
			}
			return FormatE6(r), nil
		})},
		{"E7", textOnly(func(int) (string, error) {
			r, err := E7()
			if err != nil {
				return "", err
			}
			return FormatE7(r), nil
		})},
	}
	for _, row := range scenarioRows {
		row := row
		exps = append(exps, Experiment{row.id, func(ops int) (string, *Report, error) {
			sc := row.build(ops / row.scale)
			sc.ID = row.id
			r, err := RunScenario(sc)
			if err != nil {
				return "", nil, err
			}
			if !r.Ok() {
				err = fmt.Errorf("replica convergence or crash-point invariants violated")
			}
			return r.Format(), r, err
		}})
	}
	// CP sweeps the primary family under both crash models.
	return append(exps, Experiment{"CP", textOnly(func(int) (string, error) {
		reps, err := crashSweeps("primary", 8)
		var texts []string
		for _, r := range reps {
			texts = append(texts, r.Format())
			if err == nil && !r.Ok() {
				err = fmt.Errorf("%d crash points violated invariants", len(r.Failures))
			}
		}
		return strings.Join(texts, "\n"), err
	})})
}
