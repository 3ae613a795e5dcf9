package faults

import (
	"testing"
	"time"
)

// sample drains a deterministic sequence of events from an engine.
func sample(e *Engine, n int) []Outcome {
	out := make([]Outcome, 0, 3*n)
	for i := 0; i < n; i++ {
		now := time.Duration(i) * 100 * time.Millisecond
		out = append(out, e.Global(now), e.Cross("r1", "r2", now))
		out = append(out, Outcome{Drop: !e.AllowICMP("r2", now)})
	}
	return out
}

func cloneTestEngine(seed int64) *Engine {
	return NewEngine(seed).
		AddGlobal(UniformLoss(0.3)).
		AddGlobal(Duplication(0.2)).
		AddLink("r1", "r2", GilbertElliott(0.1, 0.4, 0.01, 0.9)).
		AddLink("r1", "r2", Blackhole(2*time.Second, 4*time.Second)).
		LimitICMP("r2", 3, 1).
		SilenceICMP("r9")
}

// TestEngineCloneMatchesFreshBuild: a clone of a pristine engine draws the
// exact streams of a freshly constructed identical engine — registration
// ids survive cloning, so generator derivation is unchanged.
func TestEngineCloneMatchesFreshBuild(t *testing.T) {
	a := cloneTestEngine(42)
	b := cloneTestEngine(42).Clone()
	sa, sb := sample(a, 200), sample(b, 200)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("event %d: fresh=%v clone=%v", i, sa[i], sb[i])
		}
	}
	if a.Seed() != b.Seed() {
		t.Errorf("clone seed = %d, want %d", b.Seed(), a.Seed())
	}
}

// TestEngineClonePristine: cloning a used engine rewinds all state — the
// clone draws like a fresh engine, not like the used one, and further
// draws on either side never perturb the other.
func TestEngineClonePristine(t *testing.T) {
	used := cloneTestEngine(42)
	sample(used, 137) // burn state: rng streams, GE chain, ICMP tokens

	clone := used.Clone()
	fresh := cloneTestEngine(42)
	sc, sf := sample(clone, 200), sample(fresh, 200)
	for i := range sc {
		if sc[i] != sf[i] {
			t.Fatalf("event %d: clone of used engine diverged from fresh build", i)
		}
	}

	// Independence: interleave draws on the original between clone draws.
	c2 := cloneTestEngine(7)
	clone2 := c2.Clone()
	want := sample(cloneTestEngine(7), 100)
	got := make([]Outcome, 0, len(want))
	for i := 0; i < 100; i++ {
		c2.Global(0) // noise on the original only
		now := time.Duration(i) * 100 * time.Millisecond
		got = append(got, clone2.Global(now), clone2.Cross("r1", "r2", now))
		got = append(got, Outcome{Drop: !clone2.AllowICMP("r2", now)})
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: draws on the original perturbed the clone", i)
		}
	}
}

// TestEngineCloneSeeded: a different seed re-derives every stream; the
// same label always derives the same sub-seed.
func TestEngineCloneSeeded(t *testing.T) {
	base := cloneTestEngine(42)
	same := base.CloneSeeded(42)
	other := base.CloneSeeded(43)
	ss, so := sample(same, 200), sample(other, 200)
	diverged := false
	for i := range ss {
		if ss[i] != so[i] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("CloneSeeded(43) drew identically to seed 42 over 600 events")
	}

	if DeriveSeed(42, "a|0") != DeriveSeed(42, "a|0") {
		t.Error("DeriveSeed is not deterministic")
	}
	if DeriveSeed(42, "a|0") == DeriveSeed(42, "a|1") {
		t.Error("DeriveSeed collides across labels")
	}
	if DeriveSeed(42, "a|0") == DeriveSeed(43, "a|0") {
		t.Error("DeriveSeed ignores the base seed")
	}
}

// TestEngineCloneNil: a nil engine clones to nil, so callers can pass
// through un-faulted networks without special cases.
func TestEngineCloneNil(t *testing.T) {
	var e *Engine
	if e.CloneSeeded(1) != nil {
		t.Error("nil engine should clone to nil")
	}
}
