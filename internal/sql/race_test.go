//go:build race

package sql

// raceEnabled marks a -race build. The race detector adds allocations
// of its own, so allocation guards do not hold there.
const raceEnabled = true
