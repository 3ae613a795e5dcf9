package tomography_test

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"cendev/internal/endpoint"
	"cendev/internal/middlebox"
	"cendev/internal/parallel"
	"cendev/internal/routedyn"
	"cendev/internal/simnet"
	"cendev/internal/tomography"
	"cendev/internal/topology"
)

const (
	testDomain    = "blocked.example"
	controlDomain = "control.example"
)

// buildDiamond builds the canonical multi-path testbed: vantage c behind
// r1 with ECMP over r2a/r2b, direct vantages va/vb behind each branch
// router, and the server behind r3.
func buildDiamond(t *testing.T) (n *simnet.Network, c, va, vb, s *topology.Host) {
	t.Helper()
	g := topology.NewGraph()
	as := g.AddAS(1, "A", "US")
	r1 := g.AddRouter("r1", as)
	r2a := g.AddRouter("r2a", as)
	r2b := g.AddRouter("r2b", as)
	r3 := g.AddRouter("r3", as)
	g.Link("r1", "r2a")
	g.Link("r1", "r2b")
	g.Link("r2a", "r3")
	g.Link("r2b", "r3")
	c = g.AddHost("c", as, r1)
	va = g.AddHost("va", as, r2a)
	vb = g.AddHost("vb", as, r2b)
	s = g.AddHost("s", as, r3)
	n = simnet.New(g)
	n.RegisterServer("s", endpoint.NewServer(testDomain, controlDomain))
	return n, c, va, vb, s
}

// rehashEngine attaches a route-dynamics schedule that re-salts ECMP
// twice, giving the campaign three epochs of path diversity.
func rehashEngine(t *testing.T, n *simnet.Network, seed int64) {
	t.Helper()
	eng := routedyn.NewEngine(seed, n.Graph)
	eng.MustSchedule(routedyn.Event{At: 30 * time.Second, Kind: routedyn.Rehash})
	eng.MustSchedule(routedyn.Event{At: 60 * time.Second, Kind: routedyn.Rehash})
	n.SetRoutes(eng)
}

func campaign() tomography.CollectConfig {
	return tomography.CollectConfig{TestDomain: testDomain, ControlDomain: controlDomain}
}

// A censor on the r2a-r3 link is pinned exactly when a vantage behind r2a
// joins the campaign: its blocked paths overlap vantage c's only on the
// censored link itself.
func TestCollectExactLocalizesCensorLink(t *testing.T) {
	n, c, va, _, _ := buildDiamond(t)
	dev := middlebox.NewDevice("d", middlebox.VendorUnknownRST, []string{testDomain}, netip.Addr{})
	n.AttachDevice("r2a", "r3", dev)
	rehashEngine(t, n, 21)

	obs := tomography.Collect(n, []*topology.Host{c, va}, n.Graph.Host("s"), campaign())
	r := tomography.Solve(obs)
	if r.Verdict != tomography.Exact {
		t.Fatalf("verdict = %s, want exact (%s)", r.Verdict, tomography.Render(r))
	}
	if top, _ := r.Top(); top != tomography.MakeLink("r2a", "r3") {
		t.Fatalf("top = %s, want r2a<->r3 (%s)", top, tomography.Render(r))
	}
	if !r.High() {
		t.Fatalf("exact multi-vantage result should be high confidence: %s", tomography.Render(r))
	}
}

// From a single vantage the censored link and its forced successor
// co-occur on every blocked path: the verdict is ambiguous, contains the
// truth, and stays below the high-confidence bar.
func TestCollectAmbiguousSingleVantage(t *testing.T) {
	n, c, _, _, _ := buildDiamond(t)
	dev := middlebox.NewDevice("d", middlebox.VendorUnknownRST, []string{testDomain}, netip.Addr{})
	n.AttachDevice("r1", "r2a", dev)
	rehashEngine(t, n, 21)

	obs := tomography.Collect(n, []*topology.Host{c}, n.Graph.Host("s"), campaign())
	r := tomography.Solve(obs)
	if r.BlockedObs == 0 || r.CleanObs == 0 {
		t.Fatalf("campaign did not sample both branches: %s", tomography.Render(r))
	}
	if r.Verdict != tomography.Ambiguous {
		t.Fatalf("verdict = %s, want ambiguous (%s)", r.Verdict, tomography.Render(r))
	}
	if !r.Contains(tomography.MakeLink("r1", "r2a")) {
		t.Fatalf("candidate set lost the true link: %s", tomography.Render(r))
	}
	if r.High() {
		t.Fatalf("single-vantage ambiguity must not be high confidence: %s", tomography.Render(r))
	}
}

// At-Endpoint blocking seen from vantages with disjoint paths is
// unlocalizable: no single link is on every blocked path.
func TestCollectUnlocalizableEndpointGuard(t *testing.T) {
	n, _, va, vb, _ := buildDiamond(t)
	guard := middlebox.NewDevice("g", middlebox.VendorUnknownDrop, []string{testDomain}, netip.Addr{})
	n.AttachGuard("s", guard)
	rehashEngine(t, n, 21)

	obs := tomography.Collect(n, []*topology.Host{va, vb}, n.Graph.Host("s"), campaign())
	r := tomography.Solve(obs)
	if r.BlockedObs == 0 {
		t.Fatalf("guard never fired: %s", tomography.Render(r))
	}
	if r.Verdict != tomography.Unlocalizable || len(r.Candidates) != 0 {
		t.Fatalf("want unlocalizable with no candidates, got %s", tomography.Render(r))
	}
}

// Without a route-dynamics engine Collect degrades to a single canonical
// epoch and still produces observations.
func TestCollectWithoutEngine(t *testing.T) {
	n, c, va, _, _ := buildDiamond(t)
	dev := middlebox.NewDevice("d", middlebox.VendorUnknownRST, []string{testDomain}, netip.Addr{})
	n.AttachDevice("r2a", "r3", dev)

	obs := tomography.Collect(n, []*topology.Host{c, va}, n.Graph.Host("s"), campaign())
	if len(obs) == 0 {
		t.Fatal("no observations without an engine")
	}
	for _, o := range obs {
		if o.Epoch != 0 {
			t.Fatalf("engine-less observation in epoch %d, want 0", o.Epoch)
		}
	}
	r := tomography.Solve(obs)
	if r.Verdict != tomography.Exact {
		t.Fatalf("verdict = %s, want exact (%s)", r.Verdict, tomography.Render(r))
	}
}

// The full campaign — build, collect, solve — is byte-identical at any
// worker count: cells are claimed dynamically but results are indexed by
// cell, and every cell builds its own world.
func TestCollectDeterministicAcrossWorkers(t *testing.T) {
	seeds := []int64{3, 7, 21, 40, 55, 101}
	run := func(workers int) string {
		results := make([]string, len(seeds))
		parallel.ForEachOpt(len(seeds), workers, parallel.Options{}, func(_, i int) {
			n, c, va, _, _ := buildDiamond(t)
			dev := middlebox.NewDevice("d", middlebox.VendorUnknownRST, []string{testDomain}, netip.Addr{})
			n.AttachDevice("r1", "r2a", dev)
			rehashEngine(t, n, seeds[i])
			obs := tomography.Collect(n, []*topology.Host{c, va}, n.Graph.Host("s"), campaign())
			results[i] = fmt.Sprintf("seed=%d %s", seeds[i], tomography.Render(tomography.Solve(obs)))
		})
		return strings.Join(results, "\n")
	}
	one := run(1)
	four := run(4)
	if one != four {
		t.Fatalf("-workers divergence:\nworkers=1:\n%s\nworkers=4:\n%s", one, four)
	}
	if !strings.Contains(one, "exact") {
		t.Fatalf("expected at least one exact cell:\n%s", one)
	}
}
