//go:build !unix

package main

import "time"

// processCPU is not available here; CPU-based metrics read 0.
func processCPU() time.Duration { return 0 }
