//lintest:importpath cendev/internal/simnet

// Package det exercises dettaint inside a deterministic package path:
// any call into a module function that transitively reaches the wall
// clock or global randomness is a finding, with the witness chain.
package det

import (
	"math/rand"
	"time"

	"fixture/det/helpers"
)

func badDirect() int64 {
	return helpers.Stamp() // want "call into helpers.Stamp reaches time.Now"
}

func badThroughChain() int64 {
	return helpers.Jitter() // want "call into helpers.Jitter reaches time.Now .wall-clock.* helpers.Jitter → helpers.Stamp"
}

func badRand() int {
	return helpers.Roll() // want "call into helpers.Roll reaches rand.Intn .global-rand"
}

func okPure() int {
	return helpers.Pure(21)
}

func okThreaded(r *rand.Rand, now, deadline time.Time) int {
	return helpers.Pick(r, now, deadline)
}

func okVolatile() int64 {
	return helpers.Stamp() //cenlint:volatile fixture: latency gauge feeding a volatile-only series
}
