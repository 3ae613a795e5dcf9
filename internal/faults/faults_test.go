package faults

import (
	"testing"
	"time"
)

func TestUniformLossRate(t *testing.T) {
	e := NewEngine(1).AddGlobal(UniformLoss(0.3))
	drops := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if e.Global(0).Drop {
			drops++
		}
	}
	rate := float64(drops) / n
	if rate < 0.25 || rate > 0.35 {
		t.Errorf("uniform loss rate = %.3f, want ≈0.3", rate)
	}
}

func TestUniformLossZeroNeverDrops(t *testing.T) {
	e := NewEngine(1).AddGlobal(UniformLoss(0))
	for i := 0; i < 100; i++ {
		if o := e.Global(0); o.Drop || o.Duplicate {
			t.Fatal("zero-rate loss dropped a packet")
		}
	}
}

func TestGilbertElliottBurstiness(t *testing.T) {
	// Bad state loses everything, Good state nothing: drops must appear in
	// runs whose mean length approximates 1/pBadToGood.
	e := NewEngine(7).AddGlobal(GilbertElliott(0.02, 0.25, 0, 1))
	var runs []int
	cur := 0
	for i := 0; i < 50000; i++ {
		if e.Global(0).Drop {
			cur++
		} else if cur > 0 {
			runs = append(runs, cur)
			cur = 0
		}
	}
	if len(runs) < 50 {
		t.Fatalf("only %d loss bursts observed", len(runs))
	}
	total := 0
	for _, r := range runs {
		total += r
	}
	mean := float64(total) / float64(len(runs))
	// Mean sojourn in Bad is 1/0.25 = 4 packets.
	if mean < 2.5 || mean > 6 {
		t.Errorf("mean burst length = %.2f, want ≈4", mean)
	}
}

func TestBlackholeWindow(t *testing.T) {
	e := NewEngine(1).AddLink("a", "b", Blackhole(10*time.Second, 20*time.Second))
	for _, tc := range []struct {
		now  time.Duration
		drop bool
	}{
		{0, false},
		{10*time.Second - 1, false},
		{10 * time.Second, true},
		{15 * time.Second, true},
		{20*time.Second - 1, true},
		{20 * time.Second, false},
		{time.Hour, false},
	} {
		if got := e.Cross("a", "b", tc.now).Drop; got != tc.drop {
			t.Errorf("blackhole at %s: drop=%v, want %v", tc.now, got, tc.drop)
		}
		// Undirected: the reverse crossing behaves identically.
		if got := e.Cross("b", "a", tc.now).Drop; got != tc.drop {
			t.Errorf("reverse blackhole at %s: drop=%v, want %v", tc.now, got, tc.drop)
		}
	}
}

func TestLinkScopingDoesNotLeak(t *testing.T) {
	e := NewEngine(1).AddLink("a", "b", Blackhole(0, time.Hour))
	if e.Cross("a", "c", 0).Drop {
		t.Error("impairment on a–b leaked onto a–c")
	}
	if e.Global(0).Drop {
		t.Error("link impairment leaked into global scope")
	}
}

func TestDuplication(t *testing.T) {
	e := NewEngine(3).AddGlobal(Duplication(0.5))
	dups := 0
	const n = 2000
	for i := 0; i < n; i++ {
		o := e.Global(0)
		if o.Drop {
			t.Fatal("duplication must never drop")
		}
		if o.Duplicate {
			dups++
		}
	}
	rate := float64(dups) / n
	if rate < 0.4 || rate > 0.6 {
		t.Errorf("duplication rate = %.3f, want ≈0.5", rate)
	}
}

func TestSilenceICMP(t *testing.T) {
	e := NewEngine(1).SilenceICMP("r2")
	if e.AllowICMP("r2", 0) {
		t.Error("silenced router allowed ICMP")
	}
	if !e.AllowICMP("r3", 0) {
		t.Error("unsilenced router denied ICMP")
	}
}

func TestICMPTokenBucket(t *testing.T) {
	e := NewEngine(1).LimitICMP("r", 2, 0.1) // 2-token burst, 1 token per 10s
	if !e.AllowICMP("r", 0) || !e.AllowICMP("r", 0) {
		t.Fatal("burst tokens not granted")
	}
	if e.AllowICMP("r", 0) {
		t.Error("third immediate ICMP should be rate-limited")
	}
	// After 10 virtual seconds one token has refilled.
	if !e.AllowICMP("r", 10*time.Second) {
		t.Error("token did not refill after 10s")
	}
	if e.AllowICMP("r", 10*time.Second) {
		t.Error("second token granted without refill time")
	}
	// A long idle period refills to the burst cap, not beyond.
	if !e.AllowICMP("r", time.Hour) || !e.AllowICMP("r", time.Hour) {
		t.Error("bucket did not refill to burst cap")
	}
	if e.AllowICMP("r", time.Hour) {
		t.Error("bucket exceeded burst cap")
	}
}

func TestDeterminismAcrossEngines(t *testing.T) {
	build := func() *Engine {
		return NewEngine(99).
			AddGlobal(UniformLoss(0.2)).
			AddGlobal(Duplication(0.1)).
			AddLink("a", "b", GilbertElliott(0.05, 0.3, 0, 0.8)).
			LimitICMP("r2", 3, 0.5)
	}
	e1, e2 := build(), build()
	for i := 0; i < 5000; i++ {
		now := time.Duration(i) * time.Second
		if e1.Global(now) != e2.Global(now) {
			t.Fatalf("global outcome diverged at %d", i)
		}
		if e1.Cross("a", "b", now) != e2.Cross("a", "b", now) {
			t.Fatalf("link outcome diverged at %d", i)
		}
		if e1.AllowICMP("r2", now) != e2.AllowICMP("r2", now) {
			t.Fatalf("icmp outcome diverged at %d", i)
		}
	}
}

func TestSeedIndependencePerImpairment(t *testing.T) {
	// Registering an extra impairment must not perturb the stream of the
	// first one: both engines must agree on the first impairment's drops.
	a := NewEngine(5).AddGlobal(UniformLoss(0.5))
	b := NewEngine(5).AddGlobal(UniformLoss(0.5)).AddLink("x", "y", UniformLoss(0.5))
	for i := 0; i < 1000; i++ {
		if a.Global(0).Drop != b.Global(0).Drop {
			t.Fatal("extra registration perturbed earlier impairment's stream")
		}
		b.Cross("x", "y", 0) // interleave consults; streams must stay independent
	}
}

func TestProfileStrings(t *testing.T) {
	for _, imp := range []Impairment{
		UniformLoss(0.05),
		GilbertElliott(0.05, 0.3, 0, 0.8),
		Blackhole(time.Second, time.Minute),
		Duplication(0.1),
	} {
		if imp.String() == "" {
			t.Errorf("%T has empty String()", imp)
		}
	}
}
