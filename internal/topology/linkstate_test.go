package topology

import (
	"sync"
	"testing"
)

func TestSetLinkUpWithdrawsAndRestores(t *testing.T) {
	g, src, dst := buildDiamond(t)
	g.SetLinkUp("r1", "r2a", false)
	if g.LinkUp("r1", "r2a") || g.LinkUp("r2a", "r1") {
		t.Fatal("withdrawn link still reports up")
	}
	for i := 0; i < 64; i++ {
		path := g.PathForFlow(src, dst, uint64(i)*0x9e3779b97f4a7c15)
		for _, r := range path {
			if r.ID == "r2a" {
				t.Fatalf("flow %d routed over withdrawn link via %s", i, r.ID)
			}
		}
		if len(path) != 3 {
			t.Fatalf("flow %d path length %d, want 3", i, len(path))
		}
	}
	if hops := g.NextHops("r1", "r3"); len(hops) != 1 || hops[0] != "r2b" {
		t.Fatalf("NextHops with r2a withdrawn = %v, want [r2b]", hops)
	}
	if paths := g.AllPaths(src, dst, 0); len(paths) != 1 {
		t.Fatalf("AllPaths with r2a withdrawn = %d paths, want 1", len(paths))
	}
	g.SetLinkUp("r2a", "r1", true) // order-insensitive key
	if paths := g.AllPaths(src, dst, 0); len(paths) != 2 {
		t.Fatalf("AllPaths after re-announce = %d paths, want 2", len(paths))
	}
}

func TestSetLinkUpPartitions(t *testing.T) {
	g, src, dst := buildDiamond(t)
	g.SetLinkUp("r1", "r2a", false)
	g.SetLinkUp("r1", "r2b", false)
	if p := g.PathForFlow(src, dst, 1); p != nil {
		t.Fatalf("partitioned graph returned path %v", p)
	}
	if len(g.AllPaths(src, dst, 0)) != 0 {
		t.Fatal("partitioned graph enumerated paths")
	}
}

func TestSetLinkUpNotifiesAndIsIdempotent(t *testing.T) {
	g, _, _ := buildDiamond(t)
	s := &counter{}
	g.Subscribe(s)
	g.SetLinkUp("r1", "r2a", true) // already up: no-op
	if s.n != 0 {
		t.Fatalf("no-op announce told the subscriber %d times", s.n)
	}
	g.SetLinkUp("r1", "r2a", false)
	if s.n != 1 {
		t.Fatalf("withdrawal told the subscriber %d times, want 1", s.n)
	}
	g.SetLinkUp("r1", "r2a", false) // already down: no-op
	if s.n != 1 {
		t.Fatal("no-op withdrawal told the subscriber")
	}
	g.SetLinkUp("r2a", "r1", true)
	if s.n != 2 {
		t.Fatalf("announce told the subscriber %d times in all, want 2", s.n)
	}
}

// TestSecondSubscriberPanics: a graph keeps one subscriber. The same
// one may subscribe again; a different one panics instead of silently
// cutting the first off from change notices.
func TestSecondSubscriberPanics(t *testing.T) {
	g, _, _ := buildDiamond(t)
	first := &counter{}
	g.Subscribe(first)
	g.Subscribe(first)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a second subscriber did not panic")
			}
		}()
		g.Subscribe(&counter{})
	}()
	g.SetLinkUp("r1", "r2a", false)
	if first.n != 1 {
		t.Fatalf("first subscriber told %d times after a rejected second one, want 1", first.n)
	}
}

func TestSetLinkUpUnknownLinkPanics(t *testing.T) {
	g, _, _ := buildDiamond(t)
	defer func() {
		if recover() == nil {
			t.Fatal("SetLinkUp on unlinked routers did not panic")
		}
	}()
	g.SetLinkUp("r2a", "r2b", false)
}

// TestCloneSubscriptionsPrivate: a clone inherits no subscriber, and a
// change on a graph reaches its own subscriber only, whether it is made
// on the source, a clone, or a clone of a clone.
func TestCloneSubscriptionsPrivate(t *testing.T) {
	g, _, _ := buildDiamond(t)
	sg := &counter{}
	g.Subscribe(sg)
	c := g.Clone()
	c.SetLinkUp("r1", "r2a", false)
	if sg.n != 0 {
		t.Fatal("a clone's change reached the source's subscriber: the clone inherited it")
	}
	sc := &counter{}
	c.Subscribe(sc)
	g.SetLinkUp("r1", "r2b", false)
	if sg.n != 1 || sc.n != 0 {
		t.Fatalf("source change told source %d and clone %d times, want 1 and 0", sg.n, sc.n)
	}
	c.SetLinkUp("r1", "r2a", true)
	if sg.n != 1 || sc.n != 1 {
		t.Fatalf("clone change told source %d and clone %d times, want 1 and 1", sg.n, sc.n)
	}
	cc := c.Clone()
	cc.AddRouter("r4", cc.AS(300))
	if sg.n != 1 || sc.n != 1 {
		t.Fatal("a second-level clone's change reached an ancestor's subscriber")
	}
}

func TestClonePreservesLinkState(t *testing.T) {
	g, src, dst := buildDiamond(t)
	g.SetLinkUp("r1", "r2a", false)
	c := g.Clone()
	if c.LinkUp("r1", "r2a") {
		t.Fatal("clone lost withdrawn link state")
	}
	csrc, cdst := c.Host(src.ID), c.Host(dst.ID)
	if paths := c.AllPaths(csrc, cdst, 0); len(paths) != 1 {
		t.Fatalf("clone AllPaths = %d paths, want 1", len(paths))
	}
	// Announcing on the clone must not resurrect the source's link.
	c.SetLinkUp("r1", "r2a", true)
	if g.LinkUp("r1", "r2a") {
		t.Fatal("clone announce leaked into source")
	}
}

// TestCloneDuringRecomputeRace hammers Clone against concurrent path
// computation on the same graph — the interaction the route-dynamics
// engine exercises when it snapshots an epoch graph while a measurement
// worker is walking paths on the base. Run with -race.
func TestCloneDuringRecomputeRace(t *testing.T) {
	g, src, dst := buildDiamond(t)
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]*Router, 0, 8)
			for i := 0; i < iters; i++ {
				buf = g.AppendPathForFlow(buf, src, dst, uint64(w*iters+i), nil)
				if len(buf) == 0 {
					t.Error("path computation failed mid-hammer")
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters/4; i++ {
				c := g.Clone()
				// The clone is private: mutating it (an epoch snapshot
				// applying withdrawals) must not disturb the base.
				c.SetLinkUp("r1", "r2a", false)
				if p := c.PathForFlow(c.Host(src.ID), c.Host(dst.ID), uint64(i)); len(p) != 3 {
					t.Errorf("clone path length %d, want 3", len(p))
					return
				}
			}
		}()
	}
	wg.Wait()
}
