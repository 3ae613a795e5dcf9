package simnet

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"cendev/internal/endpoint"
	"cendev/internal/faults"
	"cendev/internal/middlebox"
	"cendev/internal/netem"
	"cendev/internal/routedyn"
	"cendev/internal/topology"
)

// tridentNet builds a client at r1 fanning out over r2a, r2b and r2c to a
// server at r3. Withdrawing one branch still leaves the pair two paths.
func tridentNet(t *testing.T) (*Network, *topology.Host, *topology.Host) {
	t.Helper()
	g := topology.NewGraph()
	as := g.AddAS(1, "A", "US")
	r1 := g.AddRouter("r1", as)
	r3 := g.AddRouter("r3", as)
	for _, b := range []string{"r2a", "r2b", "r2c"} {
		g.AddRouter(b, as)
		g.Link("r1", b)
		g.Link(b, "r3")
	}
	client := g.AddHost("c", as, r1)
	server := g.AddHost("s", as, r3)
	n := New(g)
	n.RegisterServer("s", endpoint.NewServer(blockedDomain, openDomain))
	return n, client, server
}

// wideNet fans a client at r1 out over 17 equal-cost branches to a server
// at r3, so the flows of one pair take up to 17 paths that differ at one
// hop.
func wideNet(t *testing.T) (*Network, *topology.Host, *topology.Host) {
	t.Helper()
	g := topology.NewGraph()
	as := g.AddAS(1, "A", "US")
	r1 := g.AddRouter("r1", as)
	r3 := g.AddRouter("r3", as)
	for i := 0; i < 17; i++ {
		b := fmt.Sprintf("r2-%02d", i)
		g.AddRouter(b, as)
		g.Link("r1", b)
		g.Link(b, "r3")
	}
	client := g.AddHost("c", as, r1)
	server := g.AddHost("s", as, r3)
	n := New(g)
	n.RegisterServer("s", endpoint.NewServer(blockedDomain, openDomain))
	return n, client, server
}

// longNet chains 17 two-way ECMP diamonds from a client at r1 to a server
// behind the last one, so two paths of one pair can agree on their first
// 16 choices and differ only in the last.
func longNet(t *testing.T) (*Network, *topology.Host, *topology.Host) {
	t.Helper()
	g := topology.NewGraph()
	as := g.AddAS(1, "A", "US")
	prev := g.AddRouter("r1", as)
	client := g.AddHost("c", as, prev)
	for i := 1; i <= 17; i++ {
		merge := g.AddRouter(fmt.Sprintf("m%02d", i), as)
		for _, side := range []string{"a", "b"} {
			b := g.AddRouter(fmt.Sprintf("%s%02d", side, i), as)
			g.Link(prev.ID, b.ID)
			g.Link(b.ID, merge.ID)
		}
		prev = merge
	}
	server := g.AddHost("s", as, prev)
	n := New(g)
	n.RegisterServer("s", endpoint.NewServer(blockedDomain, openDomain))
	return n, client, server
}

// planNets are a single-path pair and ECMP pairs, whose flows of one host
// pair take different paths: a three-way fan, a 17-way fan, and a chain
// of 17 two-way choices.
var planNets = []struct {
	name  string
	build func(*testing.T) (*Network, *topology.Host, *topology.Host)
	ecmp  bool
}{
	{"single-path", testNet, false},
	{"ecmp", tridentNet, true},
	{"wide", wideNet, true},
	{"long", longNet, true},
}

// hasPlan reports whether the network holds a per-flow forwarding plan.
func hasPlan(n *Network) bool { return n.flow.key != planKey{} }

// hop2 sends an open-domain payload at TTL 2 and returns the address of
// the router whose Time Exceeded answered it.
func hop2(t *testing.T, conn *Conn) netip.Addr {
	t.Helper()
	ds := conn.SendPayload(getRequest(openDomain), 2)
	if len(ds) != 1 || ds[0].Packet.ICMP == nil {
		t.Fatalf("TTL-2 payload got %d deliveries, want one Time Exceeded", len(ds))
	}
	return ds[0].Packet.IP.Src
}

// TestPlanDroppedOnDeviceAttach attaches a dropping device after Dial,
// on the client's access link or as the server's guard: the connection's
// next payload must meet it.
func TestPlanDroppedOnDeviceAttach(t *testing.T) {
	attach := []struct {
		name string
		do   func(n *Network, client, server *topology.Host, dev *middlebox.Device)
	}{
		{"client-side", func(n *Network, client, _ *topology.Host, dev *middlebox.Device) {
			n.AttachClientSideDevice(client, dev)
		}},
		{"guard", func(n *Network, _, server *topology.Host, dev *middlebox.Device) {
			n.AttachGuard(server.ID, dev)
		}},
	}
	for _, tc := range planNets {
		t.Run(tc.name, func(t *testing.T) {
			for _, at := range attach {
				t.Run(at.name, func(t *testing.T) {
					n, client, server := tc.build(t)
					// The handshake resolves and caches the pair's state and
					// the connection's plan.
					conn, err := n.Dial(client, server, 80)
					if err != nil {
						t.Fatal(err)
					}
					dev := middlebox.NewDevice("d", middlebox.VendorCisco, []string{blockedDomain}, netip.Addr{})
					dev.ResidualWindow = 0
					at.do(n, client, server, dev)
					if ds := conn.SendPayload(getRequest(blockedDomain), 64); len(ds) != 0 {
						t.Errorf("device attached after Dial missed the payload: %d deliveries, want a drop", len(ds))
					}
				})
			}
		})
	}
}

// TestPlanDroppedOnServerRegister registers a server on a host the client
// already sent to: the next connection must reach it.
func TestPlanDroppedOnServerRegister(t *testing.T) {
	for _, tc := range planNets {
		t.Run(tc.name, func(t *testing.T) {
			n, client, server := tc.build(t)
			late := n.Graph.AddHost("late", server.AS, server.Router)
			if _, err := n.Dial(client, late, 80); err != ErrConnRefused {
				t.Fatalf("dial before any server: err = %v, want refused", err)
			}
			n.RegisterServer("late", endpoint.NewServer(openDomain))
			conn, err := n.Dial(client, late, 80)
			if err != nil {
				t.Fatalf("dial after RegisterServer: %v", err)
			}
			ds := conn.SendPayload(getRequest(openDomain), 64)
			if len(ds) == 0 || !strings.Contains(string(ds[0].Packet.Payload), "200 OK") {
				t.Errorf("server registered after traffic did not answer: %d deliveries", len(ds))
			}
		})
	}
}

// TestPlanDevicesMatchLinks gives every link its own device and checks,
// for many flows, that the plan forwarding resolves is the flow's walked
// path with exactly the devices a direct per-link lookup finds, unsalted
// and under a flap: the per-pair path memo never hands one path's device
// lists to another, however many choices the pair has.
func TestPlanDevicesMatchLinks(t *testing.T) {
	for _, tc := range planNets {
		t.Run(tc.name, func(t *testing.T) {
			n, client, server := tc.build(t)
			mark := func(i int) *middlebox.Device {
				return middlebox.NewDevice(fmt.Sprintf("mark-%d", i), middlebox.VendorCisco, []string{"never.example"}, netip.Addr{})
			}
			n.AttachClientSideDevice(client, mark(0))
			routers := n.Graph.Routers()
			for _, a := range routers {
				for _, b := range routers {
					if n.Graph.Linked(a.ID, b.ID) {
						n.AttachDevice(a.ID, b.ID, mark(len(n.Devices())))
					}
				}
			}
			check := func(mode string) {
				t.Helper()
				paths := map[string]bool{}
				for port := uint16(40000); port < 40256; port++ {
					hash := topology.FlowHash(client.Addr, server.Addr, port, 80, uint8(netem.ProtoTCP))
					_, plan := n.forwardingPlan(client, server, hash)
					want := n.FlowPath(client, server, port, 80)
					if !slices.Equal(plan.path, want) {
						t.Fatalf("%s port %d: plan path %v, walk %v", mode, port, plan.path, want)
					}
					prev := ClientAccessLink(client)
					for i, r := range plan.path {
						var want []devRef
						for _, k := range n.linkDevices[topology.LinkID{From: prev, To: r.ID}] {
							want = append(want, devRef{n.devices[k], n.flows[k]})
						}
						if got := plan.devs[i]; !slices.Equal(got, want) {
							t.Fatalf("%s port %d hop %d: plan devices %v, link %s→%s has %v", mode, port, i+1, got, prev, r.ID, want)
						}
						prev = r.ID
					}
					paths[fmt.Sprint(plan.path)] = true
				}
				if tc.ecmp && len(paths) < 3 {
					t.Errorf("%s: 256 flows took %d paths, want ECMP spread", mode, len(paths))
				}
			}
			check("unsalted")
			n.SetRoutes(flapR1(t, n, 5))
			for epoch := 0; epoch < 3; epoch++ {
				check(fmt.Sprintf("flap epoch %d", epoch))
				n.Sleep(time.Minute)
			}
		})
	}
}

func TestPlanFollowsLinkWithdrawal(t *testing.T) {
	n, client, server := tridentNet(t)
	conn, err := n.Dial(client, server, 80)
	if err != nil {
		t.Fatal(err)
	}
	before := n.FlowPath(client, server, conn.SrcPort, 80)
	n.Graph.SetLinkUp("r1", before[1].ID, false)
	if len(n.Graph.AllPaths(client, server, 0)) < 2 {
		t.Fatal("withdrawal left a single path; the pair must stay ECMP")
	}
	want := n.FlowPath(client, server, conn.SrcPort, 80)
	got := hop2(t, conn)
	if got == before[1].Addr {
		t.Fatalf("payload crossed %s after its link was withdrawn", before[1].ID)
	}
	if got != want[1].Addr {
		t.Errorf("payload crossed %s, FlowPath predicts %s", got, want[1].Addr)
	}
}

// TestClonePlanFollowsOwnGraph: a link withdrawn on a clone's graph moves
// the clone's next packet, and neither its source's nor a sibling
// clone's, though all three held a plan over that link for the same
// 5-tuple.
func TestClonePlanFollowsOwnGraph(t *testing.T) {
	n, client, server := tridentNet(t)
	nets := map[string]*Network{"source": n, "clone": n.Clone(), "sibling": n.Clone()}
	conns := map[string]*Conn{}
	var branch netip.Addr
	for name, x := range nets {
		conn, err := x.Dial(client, server, 80)
		if err != nil {
			t.Fatal(err)
		}
		conns[name] = conn
		branch = hop2(t, conn)
	}
	c := nets["clone"]
	before := c.FlowPath(client, server, conns["clone"].SrcPort, 80)
	if before[1].Addr != branch {
		t.Fatal("setup: the three networks took different branches for one 5-tuple")
	}
	c.Graph.SetLinkUp("r1", before[1].ID, false)
	for name, conn := range conns {
		got := hop2(t, conn)
		if moved := got != branch; moved != (name == "clone") {
			t.Errorf("%s: payload crossed %s after the clone withdrew the link to %s", name, got, before[1].ID)
		}
	}
}

// TestPlanFollowsRouteEpoch opens a connection just before each of eight
// route-dynamics epoch boundaries and sends its payload just after it: the
// first boundary withdraws the first connection's branch, the others
// re-hash ECMP choices.
func TestPlanFollowsRouteEpoch(t *testing.T) {
	n, client, server := tridentNet(t)
	port := n.PortSeq()
	first := n.FlowPath(client, server, port, 80)
	eng := routedyn.NewEngine(3, n.Graph)
	eng.MustSchedule(routedyn.Event{At: 10 * time.Second, Kind: routedyn.Withdraw, From: "r1", To: first[1].ID})
	for k := 2; k <= 8; k++ {
		eng.MustSchedule(routedyn.Event{At: time.Duration(k) * 10 * time.Second, Kind: routedyn.Rehash})
	}
	n.SetRoutes(eng)

	for k := 1; k <= 8; k++ {
		boundary := time.Duration(k) * 10 * time.Second
		n.Sleep(boundary - time.Second - n.Now())
		conn, err := n.Dial(client, server, 80)
		if err != nil {
			t.Fatal(err)
		}
		if k == 1 && (conn.SrcPort != port || !hasPlan(n)) {
			t.Fatal("the epoch-0 handshake should leave a per-flow plan for the connection")
		}
		n.Sleep(time.Second)
		want := n.FlowPath(client, server, conn.SrcPort, 80)
		got := hop2(t, conn)
		if k == 1 && got == first[1].Addr {
			t.Fatalf("payload crossed %s in the epoch that withdrew it", first[1].ID)
		}
		if got != want[1].Addr {
			t.Errorf("boundary %d: payload crossed %s, FlowPath predicts %s", k, got, want[1].Addr)
		}
		conn.Close()
	}
}

func TestPlanNeverReusedUnderFlaps(t *testing.T) {
	for _, tc := range planNets {
		t.Run(tc.name, func(t *testing.T) {
			n, client, server := tc.build(t)
			n.SetRoutes(flapR1(t, n, 5))
			conn, err := n.Dial(client, server, 80)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[netip.Addr]bool{}
			for epoch := 0; epoch < 8; epoch++ {
				want := n.FlowPath(client, server, conn.SrcPort, 80)
				got := hop2(t, conn)
				if got != want[1].Addr {
					t.Fatalf("flap epoch %d: payload crossed %s, FlowPath predicts %s", epoch, got, want[1].Addr)
				}
				if hasPlan(n) {
					t.Fatalf("flap epoch %d: a forwarding plan was cached under a flap policy", epoch)
				}
				seen[got] = true
				n.Sleep(time.Minute)
			}
			if tc.ecmp && len(seen) < 2 {
				t.Errorf("one connection saw branches %v across flap epochs, want churn", seen)
			}
		})
	}
}

func TestPlanReusedUnderLossOnlyFaults(t *testing.T) {
	for _, tc := range planNets {
		t.Run(tc.name, func(t *testing.T) {
			n, client, server := tc.build(t)
			n.SetFaults(faults.NewEngine(5).AddGlobal(faults.UniformLoss(0)))
			if _, salt := n.activeRouting(); salt != nil {
				t.Fatal("a fault engine should leave routing unsalted")
			}
			if _, err := n.Dial(client, server, 80); err != nil {
				t.Fatal(err)
			}
			if !hasPlan(n) {
				t.Error("loss-only faults should still reuse forwarding plans")
			}
		})
	}
}

// TestPlanMatchesWalk checks that plan reuse never changes where a packet
// goes: every TTL of a connection's payload expires at the router the
// flow's walked path puts there, for single-path and ECMP pairs.
func TestPlanMatchesWalk(t *testing.T) {
	for _, tc := range planNets {
		t.Run(tc.name, func(t *testing.T) {
			n, client, server := tc.build(t)
			for i := 0; i < 8; i++ {
				conn, err := n.Dial(client, server, 80)
				if err != nil {
					t.Fatal(err)
				}
				hash := topology.FlowHash(client.Addr, server.Addr, conn.SrcPort, 80, uint8(netem.ProtoTCP))
				path := n.Graph.PathForFlow(client, server, hash)
				for ttl := 1; ttl <= len(path); ttl++ {
					ds := conn.SendPayload(getRequest(openDomain), uint8(ttl))
					if len(ds) != 1 || ds[0].Packet.IP.Src != path[ttl-1].Addr {
						t.Fatalf("flow %d ttl %d: want Time Exceeded from %s, got %d deliveries", i, ttl, path[ttl-1].ID, len(ds))
					}
				}
				conn.Close()
			}
		})
	}
}
