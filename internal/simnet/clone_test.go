package simnet

import (
	"sync"
	"testing"
	"time"

	"cendev/internal/endpoint"
	"cendev/internal/faults"
	"cendev/internal/middlebox"
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

	// Sibling clones share device configuration but not flow state.
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
	if got := b.Devices()[0]; got == dev || got.Rules.Domains[0] != dev.Rules.Domains[0] {
		t.Errorf("sibling device = %p with rules %v; want a distinct device with the source's rules", got, got.Rules.Domains)
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
	// The address index is shared until one side registers a host.
	extra := c.Graph.AddHost("extra", c.Graph.AS(300), c.Graph.Router("r2"))
	c.RegisterServer("extra", endpoint.NewServer(cloneBlocked, cloneControl))
	if c.HostByAddr(extra.Addr) != extra {
		t.Error("clone did not index its registered host")
	}
	if n.HostByAddr(extra.Addr) != nil {
		t.Error("host registered on the clone shows in the original's index")
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
