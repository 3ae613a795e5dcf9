package simnet

import (
	"testing"
	"time"

	"cendev/internal/netem"
	"cendev/internal/routedyn"
	"cendev/internal/topology"
)

// diamondNet builds the 4-router diamond with a client at r1 and server
// at r3.
func diamondNet(t *testing.T) (*Network, *topology.Host, *topology.Host) {
	t.Helper()
	g := topology.NewGraph()
	as := g.AddAS(1, "A", "US")
	r1 := g.AddRouter("r1", as)
	g.AddRouter("r2a", as)
	g.AddRouter("r2b", as)
	r3 := g.AddRouter("r3", as)
	g.Link("r1", "r2a")
	g.Link("r1", "r2b")
	g.Link("r2a", "r3")
	g.Link("r2b", "r3")
	client := g.AddHost("c", as, r1)
	server := g.AddHost("s", as, r3)
	return New(g), client, server
}

// branchAt returns which branch router answered a TTL-2 probe right now.
func branchAt(t *testing.T, n *Network, client, server *topology.Host) string {
	t.Helper()
	pkt := netem.NewUDPPacket(client.Addr, server.Addr, 40000, 9, nil)
	pkt.IP.TTL = 2
	ds := n.Transmit(pkt.Clone(), client, server)
	if len(ds) != 1 {
		t.Fatalf("TTL-2 probe got %d deliveries, want 1 ICMP", len(ds))
	}
	return ds[0].Packet.IP.Src.String()
}

func TestRoutesWithdrawalForcesBranch(t *testing.T) {
	n, client, server := diamondNet(t)
	eng := routedyn.NewEngine(9, n.Graph)
	eng.MustSchedule(routedyn.Event{At: 10 * time.Second, Kind: routedyn.Withdraw, From: "r1", To: "r2a"})
	eng.MustSchedule(routedyn.Event{At: 20 * time.Second, Kind: routedyn.Announce, From: "r1", To: "r2a"})
	n.SetRoutes(eng)

	r2a := n.Graph.Router("r2a").Addr.String()
	r2b := n.Graph.Router("r2b").Addr.String()

	// Epoch 0: canonical path, identical to a network with no engine.
	before := branchAt(t, n, client, server)

	// Epoch 1: r1-r2a withdrawn; every flow must cross r2b.
	n.Sleep(10 * time.Second)
	for i := 0; i < 8; i++ {
		pkt := netem.NewUDPPacket(client.Addr, server.Addr, uint16(40000+i), 9, nil)
		pkt.IP.TTL = 2
		ds := n.Transmit(pkt.Clone(), client, server)
		if len(ds) != 1 {
			t.Fatalf("flow %d: %d deliveries, want 1", i, len(ds))
		}
		if got := ds[0].Packet.IP.Src.String(); got != r2b {
			t.Fatalf("flow %d crossed %s during withdrawal, want %s", i, got, r2b)
		}
	}

	// Epoch 2: link re-announced; both branches are reachable again and the
	// epoch re-hash spreads flows across them.
	n.Sleep(10 * time.Second)
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		pkt := netem.NewUDPPacket(client.Addr, server.Addr, uint16(41000+i), 9, nil)
		pkt.IP.TTL = 2
		ds := n.Transmit(pkt.Clone(), client, server)
		if len(ds) == 1 {
			seen[ds[0].Packet.IP.Src.String()] = true
		}
	}
	if !seen[r2a] || !seen[r2b] {
		t.Fatalf("post-announce flows crossed %v, want both %s and %s (before: %s)", seen, r2a, r2b, before)
	}
}

func TestRoutesRehashChurnsPathsWithoutLinkChange(t *testing.T) {
	n, client, server := diamondNet(t)
	eng := routedyn.NewEngine(5, n.Graph)
	eng.MustSchedule(routedyn.Event{At: time.Minute, Kind: routedyn.Rehash})
	n.SetRoutes(eng)

	first := branchAt(t, n, client, server)
	// Across rehash epochs the same flow may flip branches; with one rehash
	// and a handful of flows, at least one flow must land differently than
	// its epoch-0 choice (seed chosen so it does).
	n.Sleep(time.Minute)
	flipped := false
	for i := 0; i < 16; i++ {
		pkt := netem.NewUDPPacket(client.Addr, server.Addr, 40000, 9, nil)
		pkt.IP.TTL = 2
		ds := n.Transmit(pkt.Clone(), client, server)
		if len(ds) == 1 && ds[0].Packet.IP.Src.String() != first {
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("rehash epoch did not change the flow's ECMP choice")
	}
}

func TestRoutesCloneByteIdentical(t *testing.T) {
	n, client, server := diamondNet(t)
	eng := routedyn.NewEngine(3, n.Graph)
	if err := eng.FlapLink("r1", "r2a", 5*time.Second, 10*time.Second, 3); err != nil {
		t.Fatal(err)
	}
	n.SetRoutes(eng)

	c := n.Clone()
	if c.Routes() == nil {
		t.Fatal("clone dropped the route-dynamics engine")
	}
	cclient, cserver := c.Graph.Host(client.ID), c.Graph.Host(server.ID)

	for step := 0; step < 12; step++ {
		pkt := netem.NewUDPPacket(client.Addr, server.Addr, uint16(40000+step), 9, nil)
		pkt.IP.TTL = 2
		ds1 := n.Transmit(pkt.Clone(), client, server)
		pkt2 := netem.NewUDPPacket(cclient.Addr, cserver.Addr, uint16(40000+step), 9, nil)
		pkt2.IP.TTL = 2
		ds2 := c.Transmit(pkt2.Clone(), cclient, cserver)
		if len(ds1) != len(ds2) {
			t.Fatalf("step %d: delivery counts diverge (%d vs %d)", step, len(ds1), len(ds2))
		}
		for k := range ds1 {
			if ds1[k].Packet.IP.Src != ds2[k].Packet.IP.Src {
				t.Fatalf("step %d delivery %d: sources diverge (%s vs %s)",
					step, k, ds1[k].Packet.IP.Src, ds2[k].Packet.IP.Src)
			}
		}
		n.Sleep(2 * time.Second)
		c.Sleep(2 * time.Second)
	}
}

func TestFlowPathMatchesTransmit(t *testing.T) {
	n, client, server := diamondNet(t)
	eng := routedyn.NewEngine(11, n.Graph)
	eng.MustSchedule(routedyn.Event{At: 30 * time.Second, Kind: routedyn.Rehash})
	n.SetRoutes(eng)

	for _, sleep := range []time.Duration{0, 35 * time.Second} {
		n.Sleep(sleep)
		for i := 0; i < 8; i++ {
			srcPort := uint16(42000 + i)
			want := n.FlowPath(client, server, srcPort, 80)
			if len(want) == 0 {
				t.Fatal("FlowPath found no route")
			}
			// FlowPath hashes proto TCP, so probe with a TTL-limited SYN of
			// the same 5-tuple; the branch router is path hop 2 (index 1).
			tcp := netem.NewTCPPacket(client.Addr, server.Addr, srcPort, 80, netem.TCPSyn, 1, 0, nil)
			tcp.IP.TTL = 2
			ds := n.Transmit(tcp, client, server)
			if len(ds) != 1 {
				t.Fatalf("probe got %d deliveries, want 1", len(ds))
			}
			if got := ds[0].Packet.IP.Src; got != want[1].Addr {
				t.Fatalf("flow %d: Transmit crossed %s, FlowPath predicts %s", i, got, want[1].Addr)
			}
		}
	}
}

// TestSaltedSendAllocatesNothing: forwarding asks the route engine for its
// graph and salt once per packet, and past an epoch boundary or under a
// flap that salt is a function value. The engine binds those functions
// once, so a TTL-limited send on salted routing allocates nothing.
func TestSaltedSendAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		routes func(*testing.T, *Network) *routedyn.Engine
	}{
		{"past an epoch boundary", func(t *testing.T, n *Network) *routedyn.Engine {
			return routedyn.NewEngine(9, n.Graph).MustSchedule(routedyn.Event{At: time.Second, Kind: routedyn.Rehash})
		}},
		{"under a flap", func(t *testing.T, n *Network) *routedyn.Engine { return flapR1(t, n, 9) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, client, server := diamondNet(t)
			n.SetRoutes(tc.routes(t, n))
			n.Sleep(2 * time.Minute)
			if _, salt := n.activeRouting(); salt == nil {
				t.Fatal("setup: routing is unsalted")
			}
			pkt := netem.NewUDPPacket(client.Addr, server.Addr, 40000, 9, nil)
			pkt.IP.TTL = 2
			send := func() {
				if ds := n.Transmit(pkt, client, server); len(ds) != 1 || ds[0].Packet.ICMP == nil {
					t.Fatalf("TTL-2 send got %d deliveries, want one Time Exceeded", len(ds))
				}
			}
			send() // builds the epoch snapshot and grows the packet pools
			if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
				t.Errorf("TTL-2 send on salted routing: %v allocs, want 0", allocs)
			}
		})
	}
}
