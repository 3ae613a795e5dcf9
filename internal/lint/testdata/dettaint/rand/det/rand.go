//lintest:importpath cendev/internal/cenfuzz

// Package det exercises dettaint's direct randomness sources inside a
// deterministic package path: global math/rand functions and the
// crypto/rand import are findings; seeded *rand.Rand generators are the
// approved pattern.
package det

import (
	crand "crypto/rand" // want "crypto/rand imported in deterministic package"
	"math/rand"
)

func badGlobalIntn() int {
	return rand.Intn(10) // want "math/rand.Intn uses the process-global generator"
}

func badGlobalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "math/rand.Shuffle"
}

func badGlobalSeed(seed int64) {
	rand.Seed(seed) // want "math/rand.Seed"
}

func badCryptoRead() []byte {
	b := make([]byte, 8)
	crand.Read(b)
	return b
}

func okSeeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

func okThreaded(r *rand.Rand) float64 {
	return r.Float64()
}

func okVolatile() float64 {
	return rand.Float64() //cenlint:volatile fixture: jitter for a wall-clock retry path, never in results
}

func badBareDirective() float64 {
	return rand.Float64() /* want "justification" */ //cenlint:volatile
}
