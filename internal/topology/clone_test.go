package topology

import (
	"fmt"
	"sync"
	"testing"
)

// structuralMutations are the graph mutators a clone must keep private,
// each with a probe that reports whether its effect shows on a graph.
var structuralMutations = []struct {
	name    string
	apply   func(g *Graph)
	visible func(g *Graph) bool
}{
	{
		name:    "AddAS",
		apply:   func(g *Graph) { g.AddAS(400, "NewNet", "BY") },
		visible: func(g *Graph) bool { return g.AS(400) != nil || len(g.ASes()) != 3 },
	},
	{
		name:    "AddRouter",
		apply:   func(g *Graph) { g.AddRouter("r4", g.AS(300)) },
		visible: func(g *Graph) bool { return g.Router("r4") != nil || len(g.Routers()) != 4 },
	},
	{
		name:    "Link",
		apply:   func(g *Graph) { g.Link("r1", "r3") },
		visible: func(g *Graph) bool { return g.Linked("r1", "r3") || len(g.NextHops("r1", "r3")) != 2 },
	},
	{
		name:    "AddHost",
		apply:   func(g *Graph) { g.AddHost("h2", g.AS(100), g.Router("r1")) },
		visible: func(g *Graph) bool { return g.Host("h2") != nil || len(g.Hosts()) != 2 },
	},
	{
		name:    "SetLinkUp",
		apply:   func(g *Graph) { g.SetLinkUp("r1", "r2a", false) },
		visible: func(g *Graph) bool { return !g.LinkUp("r1", "r2a") || len(g.NextHops("r1", "r3")) != 2 },
	},
}

// TestCloneStructuralMutationsPrivate: a structural mutation on a clone
// never shows on its source or a sibling clone, and one on the source
// never shows on its clones — including through route caches that were
// warm before the mutation.
func TestCloneStructuralMutationsPrivate(t *testing.T) {
	for _, m := range structuralMutations {
		for _, target := range []string{"clone", "source"} {
			t.Run(m.name+"/on-"+target, func(t *testing.T) {
				g, src, dst := buildDiamond(t)
				a, b := g.Clone(), g.Clone()
				graphs := map[string]*Graph{"source": g, "clone": a, "sibling": b}
				for name, x := range graphs {
					if m.visible(x) {
						t.Fatalf("setup: %s already shows the mutation", name)
					}
					if p := x.PathForFlow(src, dst, 7); len(p) != 3 {
						t.Fatalf("setup: %s path length %d, want 3", name, len(p))
					}
				}
				gens := map[string]uint64{}
				for name, x := range graphs {
					gens[name] = x.Gen()
				}

				m.apply(graphs[target])
				if !m.visible(graphs[target]) {
					t.Fatalf("mutation does not show on the %s it was applied to", target)
				}
				for name, x := range graphs {
					if name == target {
						continue
					}
					if m.visible(x) {
						t.Errorf("%s on the %s leaked into the %s", m.name, target, name)
					}
					if x.Gen() != gens[name] {
						t.Errorf("%s on the %s moved the %s's Gen", m.name, target, name)
					}
					for h := uint64(0); h < 16; h++ {
						if p := x.PathForFlow(src, dst, h); len(p) != 3 {
							t.Errorf("%s path length %d after a mutation elsewhere, want 3", name, len(p))
							break
						}
					}
				}
			})
		}
	}
}

// TestCloneSharesRecords documents the sharing contract: a clone hands out
// the source's records (which is why they are immutable once cloned),
// while records created after the clone are private to their graph, with
// addresses allocated from each graph's own sequence.
func TestCloneSharesRecords(t *testing.T) {
	g, src, _ := buildDiamond(t)
	c := g.Clone()
	if c.Router("r1") != g.Router("r1") || c.Host(src.ID) != src || c.AS(100) != g.AS(100) {
		t.Fatal("clone does not share the source's records")
	}
	cr := c.AddRouter("r4", c.AS(300))
	gr := g.AddRouter("r4", g.AS(300))
	if cr == gr {
		t.Fatal("a router added on both sides after the clone is one record")
	}
	if cr.Addr != gr.Addr {
		t.Errorf("same allocation on both sides got %s and %s; the address sequences diverged", cr.Addr, gr.Addr)
	}
	if c.Router("r1") != g.Router("r1") {
		t.Error("copying the shape for a mutation replaced pre-existing records")
	}
}

// TestCloneCopyOnWriteRace hammers the sharing under -race: clones compute
// paths (warm caches, fills after their own invalidation) while the source
// and another clone mutate their structure and link state.
func TestCloneCopyOnWriteRace(t *testing.T) {
	g, src, dst := buildDiamond(t)
	readers := []*Graph{g.Clone(), g.Clone(), g.Clone()}
	writer := g.Clone()
	const iters = 200
	var wg sync.WaitGroup
	for _, c := range readers {
		wg.Add(1)
		go func(c *Graph) {
			defer wg.Done()
			buf := make([]*Router, 0, 8)
			for i := 0; i < iters; i++ {
				buf = c.AppendPathForFlow(buf, src, dst, uint64(i), nil)
				if len(buf) != 3 {
					t.Errorf("reader clone path length %d, want 3", len(buf))
					return
				}
				if len(c.AllPaths(src, dst, 0)) != 2 || len(c.NextHops("r1", "r3")) != 2 {
					t.Error("reader clone lost an equal-cost path")
					return
				}
				// A destination no warm cache holds forces a cache fill
				// while the maps may still be shared with the source.
				if hops := c.NextHops("r1", fmt.Sprintf("ghost-%d", i)); hops != nil {
					t.Errorf("next hops toward an unknown router: %v", hops)
					return
				}
				if i%50 == 0 {
					// A private flip forces this clone's own cache refill.
					c.SetLinkUp("r1", "r2a", false)
					c.SetLinkUp("r1", "r2a", true)
				}
			}
		}(c)
	}
	for _, w := range []*Graph{g, writer} {
		wg.Add(1)
		go func(w *Graph) {
			defer wg.Done()
			for i := 0; i < iters/10; i++ {
				id := fmt.Sprintf("x%d", i)
				w.AddRouter(id, w.AS(200))
				w.Link("r2a", id)
				w.AddHost("h-"+id, w.AS(200), w.Router(id))
				w.SetLinkUp("r2a", id, i%2 == 0)
				if p := w.PathForFlow(src, w.Host("h-"+id), uint64(i)); i%2 == 0 && len(p) != 3 {
					t.Errorf("writer path to new host length %d, want 3", len(p))
					return
				}
				w.Clone() // re-share the freshly copied shape
			}
		}(w)
	}
	wg.Wait()
}
