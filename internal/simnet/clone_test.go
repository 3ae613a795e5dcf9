package simnet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cendev/internal/endpoint"
	"cendev/internal/faults"
	"cendev/internal/middlebox"
	"cendev/internal/netem"
	"cendev/internal/obs"
	"cendev/internal/parallel"
	"cendev/internal/routedyn"
	"cendev/internal/topology"
)

const (
	cloneBlocked = "www.blocked.example"
	cloneControl = "www.control.example"
)

// buildCloneNet: client—r1—r2—server with a residual-capable device on
// r1→r2, a fault engine, and a registered server.
func buildCloneNet(t *testing.T) (*Network, *topology.Host, *topology.Host, *middlebox.Device) {
	t.Helper()
	g := topology.NewGraph()
	asC := g.AddAS(100, "ClientNet", "US")
	asE := g.AddAS(300, "EndpointNet", "KZ")
	r1 := g.AddRouter("r1", asC)
	r2 := g.AddRouter("r2", asE)
	g.Link("r1", "r2")
	client := g.AddHost("client", asC, r1)
	server := g.AddHost("server", asE, r2)
	n := New(g)
	n.RegisterServer("server", endpoint.NewServer(cloneBlocked, cloneControl))
	dev := middlebox.NewDevice("d", middlebox.VendorCisco, []string{cloneBlocked}, g.Router("r2").Addr)
	dev.ResidualWindow = 1000 * time.Hour
	n.AttachDevice("r1", "r2", dev)
	n.SetFaults(faults.NewEngine(11).AddGlobal(faults.UniformLoss(0.5)))
	return n, client, server, dev
}

// residualActive reports whether the device currently blocks the
// client→server pair via residual state — the observable face of device
// flow state.
func residualActive(n *Network, client, server *topology.Host) bool {
	conn, err := n.Dial(client, server, 80)
	if err != nil {
		return true
	}
	defer conn.Close()
	req := []byte("GET / HTTP/1.1\r\nHost: " + cloneControl + "\r\n\r\n")
	for _, d := range conn.SendPayload(req, 64) {
		if d.Packet.IP.Src == server.Addr && len(d.Packet.Payload) > 0 {
			return false
		}
	}
	return true
}

// trip drives a blocked request so the device records residual state for
// the client↔server pair.
func trip(n *Network, client, server *topology.Host) {
	conn, err := n.Dial(client, server, 80)
	if err != nil {
		return
	}
	defer conn.Close()
	conn.SendPayload([]byte("GET / HTTP/1.1\r\nHost: "+cloneBlocked+"\r\n\r\n"), 64)
}

// TestCloneDeviceStateIndependent: tripping residual blocking on the clone
// leaves the original clean, and vice versa.
func TestCloneDeviceStateIndependent(t *testing.T) {
	n, client, server, _ := buildCloneNet(t)
	n.SetFaults(nil) // keep this test about device state
	c := n.Clone()

	trip(c, client, server)
	if !residualActive(c, client, server) {
		t.Fatal("setup: residual blocking should be active on the clone")
	}
	if residualActive(n, client, server) {
		t.Error("clone's residual state leaked into the original")
	}

	// And the other direction, on a fresh pair.
	n2, client2, server2, _ := buildCloneNet(t)
	n2.SetFaults(nil)
	c2 := n2.Clone()
	trip(n2, client2, server2)
	if !residualActive(n2, client2, server2) {
		t.Fatal("setup: residual blocking should be active on the original")
	}
	if residualActive(c2, client2, server2) {
		t.Error("original's residual state leaked into the clone")
	}

	// Sibling clones share the device itself, configuration and all, but
	// not its flow state.
	n3, client3, server3, dev := buildCloneNet(t)
	n3.SetFaults(nil)
	a, b := n3.Clone(), n3.Clone()
	trip(a, client3, server3)
	if !residualActive(a, client3, server3) {
		t.Fatal("setup: residual blocking should be active on the first clone")
	}
	if residualActive(b, client3, server3) || residualActive(n3, client3, server3) {
		t.Error("a clone's residual state leaked into its sibling or source")
	}
	if got := b.Devices(); len(got) != 1 || got[0] != dev {
		t.Errorf("sibling devices = %v, want the source's device %p itself", got, dev)
	}
}

// midFlowNet: client and client2 behind r1, r2 and the server behind r3,
// with one in-path RST device on r2→r3 that keeps a residual window,
// injects once per flow and reassembles streams.
func midFlowNet(t *testing.T) (n *Network, client, client2, server *topology.Host) {
	t.Helper()
	g := topology.NewGraph()
	as := g.AddAS(100, "Net", "KZ")
	r1 := g.AddRouter("r1", as)
	r2 := g.AddRouter("r2", as)
	r3 := g.AddRouter("r3", as)
	g.Link("r1", "r2")
	g.Link("r2", "r3")
	client = g.AddHost("client", as, r1)
	client2 = g.AddHost("client2", as, r2)
	server = g.AddHost("server", as, r3)
	n = New(g)
	n.RegisterServer("server", endpoint.NewServer(cloneBlocked, cloneControl))
	dev := middlebox.NewDevice("d", middlebox.VendorUnknownRST, []string{cloneBlocked}, netip.Addr{})
	dev.Placement = middlebox.InPath
	dev.ResidualWindow = time.Minute
	dev.MaxInjectsPerFlow = 1
	dev.Reassembles = true
	n.AttachDevice("r2", "r3", dev)
	return n, client, client2, server
}

// sendSegment transmits one data segment of the flow from src:port to
// the server's port 80 and reports whether a reset came back (the
// device's injection) and whether the server answered with data.
func sendSegment(n *Network, src, server *topology.Host, port uint16, payload []byte) (reset, served bool) {
	pkt := netem.NewTCPPacket(src.Addr, server.Addr, port, 80, netem.TCPPsh|netem.TCPAck, 1, 1, payload)
	for _, d := range n.Transmit(pkt, src, server) {
		reset = reset || d.Packet.TCP.Flags&netem.TCPRst != 0
		served = served || len(d.Packet.Payload) > 0
	}
	return reset, served
}

// TestCloneMidFlowCarriesState: a clone taken mid-flow starts from its
// source's device flow state — the residual window of a tripped pair, a
// flow's injection count, and a half-reassembled stream all carry over.
func TestCloneMidFlowCarriesState(t *testing.T) {
	blocked := []byte("GET / HTTP/1.1\r\nHost: " + cloneBlocked + "\r\n\r\n")
	control := []byte("GET / HTTP/1.1\r\nHost: " + cloneControl + "\r\n\r\n")
	cut := len(blocked) - 8
	n, client, client2, server := midFlowNet(t)
	if reset, served := sendSegment(n, client, server, 40000, blocked); !reset || served {
		t.Fatalf("setup: blocked request reset=%v served=%v, want an injected reset", reset, served)
	}
	if reset, _ := sendSegment(n, client2, server, 40001, blocked[:cut]); reset {
		t.Fatal("setup: the first half of the split request tripped the device")
	}
	c := n.Clone()

	if _, served := sendSegment(c, client, server, 40002, control); served {
		t.Error("clone lost the tripped pair's residual window: control request served")
	}
	if reset, _ := sendSegment(c, client2, server, 40001, blocked[cut:]); !reset {
		t.Error("clone lost the reassembly stream: the second half of the split request did not trip the device")
	}
	c.Sleep(2 * time.Minute) // past the residual window
	if _, served := sendSegment(c, client, server, 40003, control); !served {
		t.Fatal("setup: residual window did not expire on the clone")
	}
	if reset, _ := sendSegment(c, client, server, 40000, blocked); reset {
		t.Error("clone lost the flow's injection count: a second reset injected past the per-flow cap of one")
	}
}

// TestCloneAttachPrivate: attaching a device or a guard on a network
// after it has been cloned never shows on its clone, and the reverse,
// whichever side attaches first.
func TestCloneAttachPrivate(t *testing.T) {
	n, client, server, dev := buildCloneNet(t)
	n.SetFaults(nil)
	c, sibling := n.Clone(), n.Clone()
	controlBlocked := func(addr string) *middlebox.Device {
		return middlebox.NewDevice("ctl", middlebox.VendorCisco, []string{cloneControl}, netip.MustParseAddr(addr))
	}
	onClone, onSource := controlBlocked("10.99.0.1"), controlBlocked("10.99.0.2")
	c.AttachDevice("r1", "r2", onClone)
	n.AttachGuard("server", onSource)

	for _, tc := range []struct {
		name    string
		net     *Network
		devices []*middlebox.Device
		blocked bool
	}{
		{"clone", c, []*middlebox.Device{dev, onClone}, true},
		{"source", n, []*middlebox.Device{dev, onSource}, true},
		{"sibling", sibling, []*middlebox.Device{dev}, false},
	} {
		if got := tc.net.Devices(); !slices.Equal(got, tc.devices) {
			t.Errorf("%s: devices %v, want %v", tc.name, got, tc.devices)
		}
		for _, other := range []*middlebox.Device{onClone, onSource} {
			want := other
			if !slices.Contains(tc.devices, other) {
				want = nil
			}
			if got := tc.net.DeviceByAddr(other.Addr); got != want {
				t.Errorf("%s: device at %s = %v, want %v", tc.name, other.Addr, got, want)
			}
		}
		if got := residualActive(tc.net, client, server); got != tc.blocked {
			t.Errorf("%s: control request blocked = %v, want %v", tc.name, got, tc.blocked)
		}
	}
}

// TestCloneLinkListsPrivate: a link's device list is never appended in
// place, so attaching on one link on both sides of a clone leaves each
// side exactly its own devices there, even where the list the two share
// has spare capacity and the two sides number their new devices apart.
func TestCloneLinkListsPrivate(t *testing.T) {
	n, _, _, dev := buildCloneNet(t)
	mark := func(id string) *middlebox.Device {
		return middlebox.NewDevice(id, middlebox.VendorCisco, []string{"never.example"}, netip.Addr{})
	}
	m1, m2 := mark("m1"), mark("m2")
	n.AttachDevice("r1", "r2", m1)
	n.AttachDevice("r1", "r2", m2)
	c := n.Clone()
	guard, onClone, onSource := mark("guard"), mark("on-clone"), mark("on-source")
	c.AttachGuard("server", guard) // shifts the clone's numbering
	c.AttachDevice("r1", "r2", onClone)
	n.AttachDevice("r1", "r2", onSource)

	link := topology.LinkID{From: "r1", To: "r2"}
	for _, tc := range []struct {
		name string
		net  *Network
		want []*middlebox.Device
	}{
		{"clone", c, []*middlebox.Device{dev, m1, m2, onClone}},
		{"source", n, []*middlebox.Device{dev, m1, m2, onSource}},
	} {
		var got []*middlebox.Device
		for _, k := range tc.net.linkDevices[link] {
			got = append(got, tc.net.devices[k])
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: devices on r1→r2 %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestDeviceAttachedTwiceOneState: a device attached on both branches of
// an ECMP split is one device with one flow state, on the network and on
// its clones: residual blocking tripped on one branch drops the pair's
// flows on the other.
func TestDeviceAttachedTwiceOneState(t *testing.T) {
	g := topology.NewGraph()
	as := g.AddAS(1, "A", "KZ")
	r1 := g.AddRouter("r1", as)
	g.AddRouter("r2a", as)
	g.AddRouter("r2b", as)
	r3 := g.AddRouter("r3", as)
	g.Link("r1", "r2a")
	g.Link("r1", "r2b")
	g.Link("r2a", "r3")
	g.Link("r2b", "r3")
	client := g.AddHost("client", as, r1)
	server := g.AddHost("server", as, r3)
	n := New(g)
	n.RegisterServer("server", endpoint.NewServer(cloneBlocked, cloneControl))
	dev := middlebox.NewDevice("d", middlebox.VendorCisco, []string{cloneBlocked}, netip.Addr{})
	dev.ResidualWindow = time.Hour
	n.AttachDevice("r2a", "r3", dev)
	n.AttachDevice("r2b", "r3", dev)
	if got := n.Devices(); len(got) != 1 || len(n.flows) != 1 {
		t.Fatalf("devices %v and %d flow states, want the one device once", got, len(n.flows))
	}

	// One source port per branch.
	ports := map[string]uint16{}
	for port := uint16(40000); len(ports) < 2; port++ {
		if port == 40100 {
			t.Fatal("setup: 100 flows all took one branch")
		}
		branch := n.FlowPath(client, server, port, 80)[1].ID
		if _, ok := ports[branch]; !ok {
			ports[branch] = port
		}
	}
	blocked := []byte("GET / HTTP/1.1\r\nHost: " + cloneBlocked + "\r\n\r\n")
	control := []byte("GET / HTTP/1.1\r\nHost: " + cloneControl + "\r\n\r\n")
	for _, net := range []*Network{n.Clone(), n} {
		if _, served := sendSegment(net, client, server, ports["r2b"], control); !served {
			t.Fatal("setup: control request on r2b blocked before any trip")
		}
		if _, served := sendSegment(net, client, server, ports["r2a"], blocked); served {
			t.Fatal("setup: blocked request on r2a served")
		}
		if _, served := sendSegment(net, client, server, ports["r2b"], control); served {
			t.Error("residual window tripped on r2a does not drop the pair's flow on r2b")
		}
	}
}

// TestCloneConcurrentTraffic drives traffic through several clones of one
// network at once (run with -race): shared configuration — graph shape,
// device rules, endpoint servers — is only read, and each clone's device
// flow state and trigger memo stay its own.
func TestCloneConcurrentTraffic(t *testing.T) {
	n, client, server, _ := buildCloneNet(t)
	n.SetFaults(nil)
	// Traffic on the source first, so the clones start from a device whose
	// lazily filled trigger memo already exists.
	if residualActive(n, client, server) {
		t.Fatal("setup: control request blocked on the source")
	}
	clones := make([]*Network, 4)
	for i := range clones {
		clones[i] = n.Clone()
	}
	var wg sync.WaitGroup
	for i, c := range clones {
		wg.Add(1)
		go func(i int, c *Network) {
			defer wg.Done()
			if i%2 == 0 {
				trip(c, client, server)
			}
			for k := 0; k < 20; k++ {
				if got, want := residualActive(c, client, server), i%2 == 0; got != want {
					t.Errorf("clone %d: residual blocking = %v, want %v", i, got, want)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	if residualActive(n, client, server) {
		t.Error("clone traffic left residual state on the source")
	}
}

// TestCloneFaultEngineIndependent: the clone gets its own engine object
// with its own generator state — drawing from one must not perturb the
// other — and both produce identical streams from the same pristine start.
func TestCloneFaultEngineIndependent(t *testing.T) {
	n, _, _, _ := buildCloneNet(t)
	c := n.Clone()
	if c.Faults() == n.Faults() {
		t.Fatal("clone shares the fault engine object")
	}

	// Identical draws from identical pristine state.
	a, b := n.Faults(), c.Faults()
	for i := 0; i < 64; i++ {
		now := time.Duration(i) * time.Second
		if a.Global(now) != b.Global(now) {
			t.Fatalf("draw %d diverged between original and clone", i)
		}
	}

	// Advancing one engine's state must not move the other: a fresh clone
	// of the untouched engine still matches a fresh clone of the advanced
	// engine (pristine state), while the advanced engine itself has moved.
	n2, _, _, _ := buildCloneNet(t)
	c2 := n2.Clone()
	for i := 0; i < 10; i++ {
		n2.Faults().Global(0) // advance only the original
	}
	fresh := c2.Faults().Clone()
	for i := 0; i < 64; i++ {
		if c2.Faults().Global(0) != fresh.Global(0) {
			t.Fatal("original's draws perturbed the clone's generator state")
		}
	}
}

// TestCloneGraphAndClockIndependent: mutating the clone's clock, port
// sequence, or per-clone graph caches never shows up in the original.
func TestCloneGraphAndClockIndependent(t *testing.T) {
	n, client, server, _ := buildCloneNet(t)
	c := n.Clone()
	sibling := n.Clone()

	if c.Graph == n.Graph {
		t.Fatal("clone shares the topology graph")
	}
	before := n.Now()
	c.Sleep(42 * time.Minute)
	if n.Now() != before {
		t.Error("clone's clock advanced the original")
	}
	p := n.PortSeq()
	c.AllocPort()
	c.AllocPort()
	if n.PortSeq() != p {
		t.Error("clone's port allocations advanced the original")
	}
	if h := c.HostByAddr(server.Addr); h == nil || h.ID != server.ID {
		t.Error("clone lost the host index")
	}
	if h := c.HostByAddr(client.Addr); h == nil || h.ID != client.ID {
		t.Error("clone lost the client host index")
	}
	// The address index and the server and resolver registries are
	// shared until one side registers: neither side, nor a sibling
	// clone, sees the other's registrations.
	extra := c.Graph.AddHost("extra", c.Graph.AS(300), c.Graph.Router("r2"))
	c.RegisterServer("extra", endpoint.NewServer(cloneBlocked, cloneControl))
	c.RegisterResolver("extra", endpoint.NewResolver(nil))
	if c.HostByAddr(extra.Addr) != extra || c.Server("extra") == nil || c.Resolver("extra") == nil {
		t.Error("clone did not register its host, server and resolver")
	}
	for name, other := range map[string]*Network{"original": n, "sibling": sibling} {
		if other.HostByAddr(extra.Addr) != nil || other.Server("extra") != nil || other.Resolver("extra") != nil {
			t.Errorf("registration on the clone shows on the %s", name)
		}
	}
	late := n.Graph.AddHost("late", n.Graph.AS(300), n.Graph.Router("r2"))
	n.RegisterServer("late", endpoint.NewServer(cloneBlocked, cloneControl))
	n.RegisterResolver("late", endpoint.NewResolver(nil))
	if sibling.HostByAddr(late.Addr) != nil || sibling.Server("late") != nil || sibling.Resolver("late") != nil {
		t.Error("registration on the original after cloning shows on the clone")
	}
}

// TestBeginMeasurementRewindsState: BeginMeasurement resets device flow
// state, the clock, and the port sequence to the canonical origin.
func TestBeginMeasurementRewindsState(t *testing.T) {
	n, client, server, _ := buildCloneNet(t)
	n.SetFaults(nil)
	baseClock := n.Now()
	basePort := n.PortSeq()

	trip(n, client, server)
	n.Sleep(5 * time.Minute)
	if !residualActive(n, client, server) {
		t.Fatal("setup: residual blocking should be active")
	}

	n.BeginMeasurement(baseClock, basePort)
	if n.Now() != baseClock {
		t.Errorf("clock = %v, want %v", n.Now(), baseClock)
	}
	if n.PortSeq() != basePort {
		t.Errorf("port = %d, want %d", n.PortSeq(), basePort)
	}
	if residualActive(n, client, server) {
		t.Error("residual device state survived BeginMeasurement")
	}
}

// fanNet: client—r1—{r2a, r2b}—r3—r4—server. Flows split at r1, so a flap
// there moves them; every path crosses a residual-capable device on
// r3→r4.
func fanNet(t *testing.T) (*Network, *topology.Host, *topology.Host) {
	t.Helper()
	g := topology.NewGraph()
	as := g.AddAS(1, "A", "KZ")
	r1 := g.AddRouter("r1", as)
	for _, id := range []string{"r2a", "r2b", "r3"} {
		g.AddRouter(id, as)
	}
	r4 := g.AddRouter("r4", as)
	g.Link("r1", "r2a")
	g.Link("r1", "r2b")
	g.Link("r2a", "r3")
	g.Link("r2b", "r3")
	g.Link("r3", "r4")
	client := g.AddHost("client", as, r1)
	server := g.AddHost("server", as, r4)
	n := New(g)
	n.RegisterServer("server", endpoint.NewServer(cloneBlocked, cloneControl))
	dev := middlebox.NewDevice("d", middlebox.VendorCisco, []string{cloneBlocked}, g.Router("r4").Addr)
	dev.ResidualWindow = 1000 * time.Hour
	n.AttachDevice("r3", "r4", dev)
	return n, client, server
}

// setLossyFlappy installs a fault engine that drops and duplicates, and a
// route engine that flaps r1.
func setLossyFlappy(t *testing.T, n *Network) {
	t.Helper()
	n.SetFaults(faults.NewEngine(23).
		AddGlobal(faults.UniformLoss(0.15)).
		AddGlobal(faults.Duplication(0.2)))
	n.SetRoutes(flapR1(t, n, 29))
}

// flapR1 is a route engine bound to n's graph that flaps r1 every minute.
func flapR1(t *testing.T, n *Network, seed int64) *routedyn.Engine {
	t.Helper()
	eng := routedyn.NewEngine(seed, n.Graph)
	if err := eng.Flap("r1", time.Minute); err != nil {
		t.Fatal(err)
	}
	return eng
}

func itemLabel(i int) string { return fmt.Sprintf("item-%d", i) }

// referenceClone hand-builds what ForEachClone promises item i: a fresh
// clone of base, rewound to base's clock and port sequence, with its own
// fault and route engines seeded from the item's label.
func referenceClone(base *Network, i int) *Network {
	c := base.Clone()
	c.BeginMeasurement(base.Now(), base.PortSeq())
	eng, routes := base.Faults(), base.Routes()
	c.SetFaults(eng.CloneSeeded(faults.DeriveSeed(eng.Seed(), itemLabel(i))))
	c.SetRoutes(routes.CloneSeeded(c.Graph, faults.DeriveSeed(routes.Seed(), itemLabel(i))))
	return c
}

// fanItem is one ForEachClone item: it waits an item-dependent time,
// sends a control request at every TTL, records what came back, asks
// which branch router r1 picks for eight flows, and on even items leaves
// residual blocking behind. It never flushes, so what it counts reaches a
// registry only through FlushObs.
func fanItem(n *Network, client, server *topology.Host, i int) string {
	var b strings.Builder
	n.Sleep(time.Duration(i%3) * time.Minute)
	req := []byte("GET / HTTP/1.1\r\nHost: " + cloneControl + "\r\n\r\n")
	for ttl := uint8(1); ttl <= 5; ttl++ {
		conn, err := n.Dial(client, server, 80)
		if err != nil {
			fmt.Fprintf(&b, "ttl%d %v; ", ttl, err)
			continue
		}
		for _, d := range conn.SendPayload(req, ttl) {
			fmt.Fprintf(&b, "ttl%d %s@%v/%d; ", ttl, d.Packet.IP.Src, d.At, len(d.Packet.Payload))
		}
		conn.Close()
	}
	for port := uint16(40000); port < 40008; port++ {
		pkt := netem.NewUDPPacket(client.Addr, server.Addr, port, 9, nil)
		pkt.IP.TTL = 2 // expires at the branch router
		for _, d := range n.Transmit(pkt, client, server) {
			fmt.Fprintf(&b, "branch %s; ", d.Packet.IP.Src)
		}
	}
	if i%2 == 0 {
		trip(n, client, server)
	}
	fmt.Fprintf(&b, "end %v port %d", n.Now(), n.PortSeq())
	return b.String()
}

// TestForEachCloneMatchesReference: under loss, duplication and route
// flaps, every item at every worker count sees exactly what it sees on a
// fresh clone rewound to base's clock and port and given its own
// label-seeded engines.
func TestForEachCloneMatchesReference(t *testing.T) {
	const items = 8
	base, client, server := fanNet(t)
	setLossyFlappy(t, base)
	want := make([]string, items)
	for i := range want {
		want[i] = fanItem(referenceClone(base, i), client, server, i)
	}
	if want[0] == want[6] {
		t.Fatal("setup: items 0 and 6 differ only in their seed, yet saw the same traffic")
	}

	for _, workers := range []int{1, 2, 4} {
		base, client, server := fanNet(t)
		setLossyFlappy(t, base)
		got := make([]string, items)
		ForEachClone(base, items, workers, parallel.Options{}, itemLabel, func(c *Network, i int) {
			got[i] = fanItem(c, client, server, i)
		})
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("workers=%d item %d:\n got %s\nwant %s", workers, i, got[i], want[i])
			}
		}
	}
}

// TestForEachCloneLeavesBaseAlone: items run on clones, never on base, at
// every worker count. Residual blocking an item trips stays on its clone,
// and base keeps its fault and route engines and its port sequence. The
// fault engine is loss-free: a lost probe would read as residual blocking
// on base.
func TestForEachCloneLeavesBaseAlone(t *testing.T) {
	for _, workers := range []int{1, 2} {
		base, client, server := fanNet(t)
		eng, routes := faults.NewEngine(5), flapR1(t, base, 5)
		base.SetFaults(eng)
		base.SetRoutes(routes)
		port := base.PortSeq()
		ForEachClone(base, 3, workers, parallel.Options{}, itemLabel, func(c *Network, i int) {
			if c == base {
				t.Errorf("workers=%d: item %d ran on base", workers, i)
			}
			trip(c, client, server)
			if !residualActive(c, client, server) {
				t.Errorf("workers=%d: setup: item %d did not trip residual blocking", workers, i)
			}
		})
		if base.Faults() != eng {
			t.Errorf("workers=%d: base's fault engine was replaced", workers)
		}
		if base.Routes() != routes {
			t.Errorf("workers=%d: base's route engine was replaced", workers)
		}
		if base.PortSeq() != port {
			t.Errorf("workers=%d: base port sequence = %d, want %d", workers, base.PortSeq(), port)
		}
		if residualActive(base, client, server) {
			t.Errorf("workers=%d: an item's residual blocking shows on base", workers)
		}
	}
}

// TestForEachCloneFlushesClones: what items count but never flush reaches
// the registry by the time ForEachClone returns, and equals what the same
// items count on clones flushed by hand.
func TestForEachCloneFlushesClones(t *testing.T) {
	const items = 5
	ref, client, server := fanNet(t)
	refReg := obs.NewRegistry()
	ref.SetObs(refReg)
	setLossyFlappy(t, ref)
	for i := 0; i < items; i++ {
		c := referenceClone(ref, i)
		fanItem(c, client, server, i)
		c.FlushObs()
	}
	want, err := json.Marshal(refReg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := refReg.Snapshot().Get("simnet_packets_forwarded_total"); m.Value == 0 {
		t.Fatal("setup: the reference items forwarded no packets")
	}

	for _, workers := range []int{1, 3} {
		base, client, server := fanNet(t)
		reg := obs.NewRegistry()
		base.SetObs(reg)
		setLossyFlappy(t, base)
		ForEachClone(base, items, workers, parallel.Options{}, itemLabel, func(c *Network, i int) {
			fanItem(c, client, server, i)
		})
		got, err := json.Marshal(reg.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: registry after ForEachClone\n got %s\nwant %s", workers, got, want)
		}
	}
}

// TestForEachCloneAdvancesClock: base's clock ends at the latest item end,
// whichever item that is, and zero items leave it alone. Without a fault
// or route engine no item is labelled.
func TestForEachCloneAdvancesClock(t *testing.T) {
	waits := []time.Duration{3 * time.Minute, 10 * time.Minute, time.Minute, 5 * time.Minute}
	noLabel := func(i int) string {
		t.Errorf("label(%d) called without a fault or route engine", i)
		return ""
	}
	for _, workers := range []int{1, 2, 4} {
		base, _, _ := fanNet(t)
		base.Sleep(time.Hour)
		ForEachClone(base, len(waits), workers, parallel.Options{}, noLabel, func(c *Network, i int) {
			c.Sleep(waits[i])
		})
		if got, want := base.Now(), time.Hour+10*time.Minute; got != want {
			t.Errorf("workers=%d: base clock = %v, want %v", workers, got, want)
		}

		ForEachClone(base, 0, workers, parallel.Options{}, noLabel, func(*Network, int) {
			t.Error("measure called with zero items")
		})
		if got, want := base.Now(), time.Hour+10*time.Minute; got != want {
			t.Errorf("workers=%d: zero items moved base clock to %v, want %v", workers, got, want)
		}
	}
}
