//lintest:importpath cendev/internal/topology

// Package free shows dettaint staying silent outside the deterministic
// package set.
package free

import (
	crand "crypto/rand"
	"math/rand"
)

func fineGlobal() int {
	return rand.Intn(10)
}

func fineCrypto() []byte {
	b := make([]byte, 8)
	crand.Read(b)
	return b
}
