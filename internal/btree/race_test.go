//go:build race

package btree

// raceEnabled marks a -race build. The race detector makes sync.Pool
// drop items at random, so allocation guards do not hold there.
const raceEnabled = true
