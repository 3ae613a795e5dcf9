//lintest:importpath cendev/internal/simnet

// Package det exercises dettaint's direct wall-clock sources inside a
// deterministic package path: every wall-clock read is a finding unless
// annotated.
package det

import "time"

// Clock is the injectable pattern the analyzer pushes callers toward.
type Clock func() time.Time

func badNow() time.Time {
	return time.Now() // want "time.Now reads the wall clock"
}

func badSleep() {
	time.Sleep(time.Millisecond) // want "time.Sleep"
}

func badSince(t0 time.Time) time.Duration {
	return time.Since(t0) // want "time.Since"
}

func badTimer() *time.Timer {
	return time.NewTimer(time.Second) // want "time.NewTimer"
}

func badDefault(now Clock) Clock {
	if now == nil {
		now = time.Now // want "time.Now"
	}
	return now
}

func okVolatile() time.Time {
	return time.Now() //cenlint:volatile fixture: wall-clock latency gauge, volatile series only
}

func okPrecedingLine() time.Time {
	//cenlint:volatile fixture: wall-clock latency gauge, volatile series only
	return time.Now()
}

func badBareDirective() time.Time {
	return time.Now() /* want "justification" */ //cenlint:volatile
}

func okDurationMath(d time.Duration) time.Duration {
	return d * 2 // time.Duration arithmetic never reads the clock
}

func okThreaded(now Clock) time.Time {
	return now()
}
