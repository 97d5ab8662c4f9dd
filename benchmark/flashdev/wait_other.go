//go:build !linux

package flashdev

import (
	"runtime"
	"time"
)

// wait yields the processor until d has passed: exact when the process
// is otherwise idle, late when every core is busy.
func wait(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		runtime.Gosched()
	}
}
