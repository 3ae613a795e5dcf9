// Package helpers is a non-deterministic utility package: its functions
// may touch the wall clock or global randomness, and the fixture's
// deterministic package must not call the tainted ones.
package helpers

import (
	"math/rand"
	"time"
)

// Stamp reaches the wall clock directly.
func Stamp() int64 {
	return time.Now().UnixNano()
}

// Jitter launders the wall clock through one more hop.
func Jitter() int64 {
	return Stamp() / 2
}

// Roll reaches the process-global random generator.
func Roll() int {
	return rand.Intn(6)
}

// Pick reads only what its caller threads in. Its method calls share
// names with two sources (rand.Intn, time.After) but reach neither.
func Pick(r *rand.Rand, now, deadline time.Time) int {
	if now.After(deadline) {
		return 0
	}
	return r.Intn(6)
}

// Pure is taint-free and callable from anywhere.
func Pure(x int) int {
	return x * 2
}
