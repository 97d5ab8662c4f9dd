//go:build unix

package main

import (
	"syscall"
	"time"
)

// processCPU is the processor time (user and system) this process has
// used so far. The replica, the server and the clients all run in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
