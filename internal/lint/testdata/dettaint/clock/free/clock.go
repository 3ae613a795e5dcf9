//lintest:importpath cendev/internal/topology

// Package free shows dettaint staying silent outside the deterministic
// package set: the same wall-clock reads draw no findings here.
package free

import "time"

func fineNow() time.Time {
	return time.Now()
}

func fineSleep() {
	time.Sleep(time.Millisecond)
}
