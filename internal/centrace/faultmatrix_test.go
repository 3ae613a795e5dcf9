package centrace

// The fault matrix: CenTrace must hold its localization guarantee under
// every impairment profile the faults engine can compose — it either
// localizes the correct blocking hop, or it returns a Degraded verdict
// whose confidence sits below the HighConfidence threshold. It must never
// name a wrong hop with high confidence.

import (
	"encoding/json"
	"testing"
	"time"

	"cendev/internal/endpoint"
	"cendev/internal/faults"
	"cendev/internal/middlebox"
	"cendev/internal/routedyn"
	"cendev/internal/simnet"
	"cendev/internal/topology"
)

// matrixConfig keeps the matrix fast while leaving enough repetitions for
// modal statistics.
func matrixConfig() Config {
	return Config{
		ControlDomain: controlDomain,
		TestDomain:    blockedDomain,
		Repetitions:   5,
	}
}

// assertCorrectOrDegraded is the matrix invariant.
func assertCorrectOrDegraded(t *testing.T, res *Result, wantHop topology.Router) {
	t.Helper()
	if !res.Blocked {
		t.Fatalf("device active but not Blocked (term=%s ttl=%d)", res.TermKind, res.TermTTL)
	}
	if res.Degraded {
		if res.Confidence.High() {
			t.Errorf("Degraded result scored high confidence (%.2f ≥ %.2f)",
				res.Confidence.Score, HighConfidence)
		}
		return // degraded is an acceptable outcome under impairment
	}
	if res.BlockingHop.Addr != wantHop.Addr {
		t.Errorf("misattributed blocking hop without Degraded: got %s (conf %.2f), want %s",
			res.BlockingHop, res.Confidence.Score, wantHop.Addr)
	}
}

func TestFaultMatrix(t *testing.T) {
	profiles := []struct {
		name   string
		engine func() *faults.Engine
	}{
		{"uniform-loss-5pct", func() *faults.Engine {
			return faults.NewEngine(11).AddGlobal(faults.UniformLoss(0.05))
		}},
		{"bursty-loss", func() *faults.Engine {
			// Mean burst ≈3 packets at 70% loss: the §4.1 retries plus the
			// exponential backoff must ride the bursts out.
			return faults.NewEngine(12).AddGlobal(faults.GilbertElliott(0.05, 0.3, 0, 0.7))
		}},
		{"blackhole-window", func() *faults.Engine {
			// The r1–r2 link dies for half an hour mid-measurement.
			return faults.NewEngine(13).AddLink("r1", "r2",
				faults.Blackhole(10*time.Minute, 40*time.Minute))
		}},
		{"icmp-silent-midpath", func() *faults.Engine {
			return faults.NewEngine(14).SilenceICMP("r2")
		}},
		{"icmp-silent-blocking-hop", func() *faults.Engine {
			// The blocking hop itself never answers: localization must
			// degrade rather than invent an address.
			return faults.NewEngine(15).SilenceICMP("r3")
		}},
		{"icmp-rate-limit", func() *faults.Engine {
			// One-token bucket refilling every 15 virtual minutes starves a
			// fraction of the ICMP the hop statistics are built from.
			return faults.NewEngine(16).LimitICMP("r3", 1, 1.0/900)
		}},
		{"duplication", func() *faults.Engine {
			return faults.NewEngine(17).AddGlobal(faults.Duplication(0.3))
		}},
	}
	devices := []struct {
		name   string
		attach func(n *simnet.Network)
	}{
		{"inpath-drop", func(n *simnet.Network) {
			dev := middlebox.NewDevice("d", middlebox.VendorCisco, []string{blockedDomain}, n.Graph.Router("r3").Addr)
			n.AttachDevice("r2", "r3", dev)
		}},
		{"onpath-rst", func(n *simnet.Network) {
			dev := middlebox.NewDevice("d", middlebox.VendorUnknownRST, []string{blockedDomain}, n.Graph.Router("r3").Addr)
			n.AttachDevice("r2", "r3", dev)
		}},
	}
	for _, prof := range profiles {
		for _, dev := range devices {
			t.Run(prof.name+"/"+dev.name, func(t *testing.T) {
				n, client, server := buildNet(t)
				dev.attach(n)
				n.SetFaults(prof.engine())
				res := New(n, client, server, matrixConfig()).Run()
				assertCorrectOrDegraded(t, res, *n.Graph.Router("r3"))
			})
		}
	}
}

// buildDiamond is the ECMP topology with a country-style deployment:
// devices on both links entering r3, so the blocking hop is r3 whichever
// branch a flow takes.
func buildDiamond(t *testing.T) (*simnet.Network, *topology.Host, *topology.Host) {
	t.Helper()
	g := topology.NewGraph()
	asC := g.AddAS(100, "ClientNet", "US")
	asT := g.AddAS(200, "Transit", "DE")
	asE := g.AddAS(300, "EndpointNet", "KZ")
	r1 := g.AddRouter("r1", asC)
	g.AddRouter("r2a", asT)
	g.AddRouter("r2b", asT)
	r3 := g.AddRouter("r3", asE)
	g.Link("r1", "r2a")
	g.Link("r1", "r2b")
	g.Link("r2a", "r3")
	g.Link("r2b", "r3")
	client := g.AddHost("client", asC, r1)
	server := g.AddHost("server", asE, r3)
	n := simnet.New(g)
	n.RegisterServer("server", endpoint.NewServer(blockedDomain, controlDomain))
	for _, from := range []string{"r2a", "r2b"} {
		dev := middlebox.NewDevice("d-"+from, middlebox.VendorCisco, []string{blockedDomain}, n.Graph.Router(from).Addr)
		n.AttachDevice(from, "r3", dev)
	}
	return n, client, server
}

// flapRoutes is a route engine bound to n's graph under seed that flaps
// one router every period.
func flapRoutes(t *testing.T, n *simnet.Network, seed int64, routerID string, period time.Duration) *routedyn.Engine {
	t.Helper()
	eng := routedyn.NewEngine(seed, n.Graph)
	if err := eng.Flap(routerID, period); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestFaultMatrixPathFlap(t *testing.T) {
	n, client, server := buildDiamond(t)
	// r1 re-rolls its ECMP choice every 7 virtual minutes: successive
	// probes churn between the two transit branches.
	n.SetRoutes(flapRoutes(t, n, 18, "r1", 7*time.Minute))
	res := New(n, client, server, matrixConfig()).Run()
	assertCorrectOrDegraded(t, res, *n.Graph.Router("r3"))
	// Churn must actually have been exercised: the control saw both
	// branches at hop 2.
	if len(res.Control.HopDist[2]) != 2 {
		t.Errorf("hop-2 distribution %v: expected both branches under flap", res.Control.HopDist[2])
	}
}

// TestFaultMatrixDeterministic asserts the acceptance criterion that every
// impairment profile is deterministic given a seed: two identically built
// worlds produce byte-identical campaign results.
func TestFaultMatrixDeterministic(t *testing.T) {
	build := func() ([]CampaignResult, error) {
		n, client, server := buildNet(t)
		dev := middlebox.NewDevice("d", middlebox.VendorUnknownRST, []string{blockedDomain}, n.Graph.Router("r3").Addr)
		n.AttachDevice("r2", "r3", dev)
		n.SetFaults(faults.NewEngine(99).
			AddGlobal(faults.UniformLoss(0.05)).
			AddGlobal(faults.Duplication(0.1)).
			AddLink("r2", "r3", faults.GilbertElliott(0.05, 0.3, 0, 0.6)).
			LimitICMP("r2", 2, 1.0/600))
		n.SetRoutes(flapRoutes(t, n, 99, "r1", 11*time.Minute))
		c := &Campaign{Net: n, Client: client,
			Base: Config{ControlDomain: controlDomain, Repetitions: 3}}
		results := c.Run([]Target{
			{Endpoint: server, Domain: blockedDomain, Protocol: HTTP},
			{Endpoint: server, Domain: blockedDomain, Protocol: HTTPS},
			{Endpoint: server, Domain: "www.open-other.example", Protocol: HTTP},
		})
		return results, nil
	}
	a, _ := build()
	b, _ := build()
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Error("same seed produced different campaign results")
	}
	// And the impairments really fired: some retries were spent somewhere.
	retried := false
	for _, cr := range a {
		for _, ag := range []*Aggregate{cr.Result.Control, cr.Result.Test} {
			for i := range ag.Traces {
				if ag.Traces[i].Retries > 0 {
					retried = true
				}
			}
		}
	}
	if !retried {
		t.Error("impairment profiles never forced a retry — matrix too soft")
	}
}
