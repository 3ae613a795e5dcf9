package simnet

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"cendev/internal/endpoint"
	"cendev/internal/faults"
	"cendev/internal/httpgram"
	"cendev/internal/middlebox"
	"cendev/internal/netem"
	"cendev/internal/topology"
)

const (
	blockedDomain = "www.blocked.example"
	openDomain    = "www.open.example"
)

// testNet builds a linear topology client—r1—r2—r3—r4—server with a web
// server hosting both domains.
func testNet(t *testing.T) (*Network, *topology.Host, *topology.Host) {
	t.Helper()
	g := topology.NewGraph()
	asC := g.AddAS(100, "ClientNet", "US")
	asT := g.AddAS(200, "Transit", "DE")
	asE := g.AddAS(300, "EndpointNet", "KZ")
	r1 := g.AddRouter("r1", asC)
	g.AddRouter("r2", asT)
	g.AddRouter("r3", asT)
	r4 := g.AddRouter("r4", asE)
	g.Link("r1", "r2")
	g.Link("r2", "r3")
	g.Link("r3", "r4")
	client := g.AddHost("client", asC, r1)
	server := g.AddHost("server", asE, r4)
	n := New(g)
	srv := endpoint.NewServer(blockedDomain, openDomain)
	n.RegisterServer("server", srv)
	return n, client, server
}

func getRequest(host string) []byte { return httpgram.NewRequest(host).Render() }

func TestDialAndFetch(t *testing.T) {
	n, client, server := testNet(t)
	conn, err := n.Dial(client, server, 80)
	if err != nil {
		t.Fatal(err)
	}
	ds := conn.SendPayload(getRequest(openDomain), 64)
	var body string
	for _, d := range ds {
		if len(d.Packet.Payload) > 0 {
			body = string(d.Packet.Payload)
		}
	}
	if !strings.Contains(body, "HTTP/1.1 200 OK") {
		t.Errorf("response = %q", body)
	}
	if !strings.Contains(body, openDomain) {
		t.Errorf("response body missing domain content: %q", body)
	}
	conn.Close()
}

func TestDialClosedPortRefused(t *testing.T) {
	n, client, server := testNet(t)
	if _, err := n.Dial(client, server, 9999); err != ErrConnRefused {
		t.Errorf("Dial closed port: err = %v, want ErrConnRefused", err)
	}
}

func TestDialUnreachableTimesOut(t *testing.T) {
	g := topology.NewGraph()
	as := g.AddAS(1, "A", "US")
	r1 := g.AddRouter("r1", as)
	r2 := g.AddRouter("r2", as) // not linked
	c := g.AddHost("c", as, r1)
	s := g.AddHost("s", as, r2)
	n := New(g)
	if _, err := n.Dial(c, s, 80); err != ErrConnTimeout {
		t.Errorf("Dial unreachable: err = %v, want ErrConnTimeout", err)
	}
}

func TestTTLExpiryICMP(t *testing.T) {
	n, client, server := testNet(t)
	conn, err := n.Dial(client, server, 80)
	if err != nil {
		t.Fatal(err)
	}
	for ttl := uint8(1); ttl <= 4; ttl++ {
		ds := conn.SendPayload(getRequest(openDomain), ttl)
		if len(ds) != 1 {
			t.Fatalf("ttl=%d: %d deliveries, want 1", ttl, len(ds))
		}
		p := ds[0].Packet
		if p.ICMP == nil || p.ICMP.Type != netem.ICMPTimeExceeded {
			t.Fatalf("ttl=%d: got %s, want Time Exceeded", ttl, p)
		}
		wantRouter := n.Graph.Router([]string{"r1", "r2", "r3", "r4"}[ttl-1])
		if p.IP.Src != wantRouter.Addr {
			t.Errorf("ttl=%d: ICMP from %s, want %s (%s)", ttl, p.IP.Src, wantRouter.Addr, wantRouter.ID)
		}
		if ds[0].FromHop != int(ttl) {
			t.Errorf("ttl=%d: FromHop = %d", ttl, ds[0].FromHop)
		}
		// Quoted packet must carry our ports.
		q, err := p.ICMP.QuotedPacket()
		if err != nil {
			t.Fatal(err)
		}
		if src, dst, ok := q.QuotedPorts(); !ok || src != conn.SrcPort || dst != 80 {
			t.Errorf("ttl=%d: quoted ports %d>%d ok=%v", ttl, src, dst, ok)
		}
	}
	// TTL 5 reaches the endpoint.
	ds := conn.SendPayload(getRequest(openDomain), 5)
	found := false
	for _, d := range ds {
		if strings.Contains(string(d.Packet.Payload), "200 OK") {
			found = true
		}
	}
	if !found {
		t.Error("ttl=5: endpoint response missing")
	}
}

func TestSilentRouterNoICMP(t *testing.T) {
	n, client, server := testNet(t)
	n.Graph.Router("r2").SendsICMP = false
	conn, _ := n.Dial(client, server, 80)
	ds := conn.SendPayload(getRequest(openDomain), 2)
	if len(ds) != 0 {
		t.Errorf("silent router answered: %v", ds[0].Packet)
	}
	// Next hop still answers.
	ds3 := conn.SendPayload(getRequest(openDomain), 3)
	if len(ds3) != 1 || ds3[0].Packet.ICMP == nil {
		t.Error("r3 should still answer with ICMP")
	}
}

func TestInPathDropDevice(t *testing.T) {
	n, client, server := testNet(t)
	dev := middlebox.NewDevice("d", middlebox.VendorCisco, []string{blockedDomain}, n.Graph.Router("r3").Addr)
	dev.ResidualWindow = 0 // keep probes independent for this test
	n.AttachDevice("r2", "r3", dev)

	conn, _ := n.Dial(client, server, 80)
	// Below the device: normal ICMP.
	ds := conn.SendPayload(getRequest(blockedDomain), 2)
	if len(ds) != 1 || ds[0].Packet.ICMP == nil {
		t.Fatal("ttl=2 should get ICMP from r2")
	}
	// At/after the device: silence (drop).
	for ttl := uint8(3); ttl <= 5; ttl++ {
		if ds := conn.SendPayload(getRequest(blockedDomain), ttl); len(ds) != 0 {
			t.Errorf("ttl=%d: blocked probe got %s", ttl, ds[0].Packet)
		}
	}
	// Control domain unaffected at every TTL.
	conn2, _ := n.Dial(client, server, 80)
	if ds := conn2.SendPayload(getRequest(openDomain), 3); len(ds) != 1 || ds[0].Packet.ICMP == nil {
		t.Error("control domain should still traceroute normally")
	}
}

func TestInPathRSTDevice(t *testing.T) {
	n, client, server := testNet(t)
	dev := middlebox.NewDevice("d", middlebox.VendorDDoSGuard, []string{blockedDomain}, n.Graph.Router("r3").Addr)
	dev.ResidualWindow = 0
	n.AttachDevice("r2", "r3", dev)

	conn, _ := n.Dial(client, server, 80)
	ds := conn.SendPayload(getRequest(blockedDomain), 3)
	if len(ds) != 1 {
		t.Fatalf("%d deliveries, want 1 (injected RST)", len(ds))
	}
	p := ds[0].Packet
	if p.TCP == nil || p.TCP.Flags&netem.TCPRst == 0 {
		t.Fatalf("got %s, want RST", p)
	}
	if p.IP.Src != server.Addr {
		t.Errorf("RST spoofed from %s, want endpoint %s", p.IP.Src, server.Addr)
	}
	// In-path: no ICMP from r3 alongside the RST.
	for _, d := range ds {
		if d.Packet.ICMP != nil {
			t.Error("in-path device should suppress the ICMP from the next hop")
		}
	}
}

func TestOnPathDeviceInjectsAndForwards(t *testing.T) {
	n, client, server := testNet(t)
	dev := middlebox.NewDevice("d", middlebox.VendorUnknownRST, []string{blockedDomain}, netip.Addr{})
	dev.ResidualWindow = 0
	n.AttachDevice("r2", "r3", dev)

	conn, _ := n.Dial(client, server, 80)
	ds := conn.SendPayload(getRequest(blockedDomain), 3)
	var gotRST, gotICMP bool
	for _, d := range ds {
		if d.Packet.TCP != nil && d.Packet.TCP.Flags&netem.TCPRst != 0 {
			gotRST = true
		}
		if d.Packet.ICMP != nil && d.Packet.ICMP.Type == netem.ICMPTimeExceeded {
			gotICMP = true
		}
	}
	if !gotRST || !gotICMP {
		t.Errorf("on-path signature: RST=%v ICMP=%v, want both (Figure 2(D))", gotRST, gotICMP)
	}
	// At full TTL the endpoint's real response arrives alongside the RST.
	n.ResetDeviceState()
	conn2, _ := n.Dial(client, server, 80)
	ds2 := conn2.SendPayload(getRequest(blockedDomain), 64)
	var gotRST2, gotReal bool
	for _, d := range ds2 {
		if d.Packet.TCP != nil && d.Packet.TCP.Flags&netem.TCPRst != 0 {
			gotRST2 = true
		}
		if strings.Contains(string(d.Packet.Payload), "200 OK") {
			gotReal = true
		}
	}
	if !gotRST2 || !gotReal {
		t.Errorf("full TTL on-path: RST=%v real=%v, want both", gotRST2, gotReal)
	}
}

func TestCopyTTLDevicePastE(t *testing.T) {
	n, client, server := testNet(t)
	// Device between r1 and r2: hop distance 2 from the client.
	dev := middlebox.NewDevice("d", middlebox.VendorUnknownCopyTTL, []string{blockedDomain}, netip.Addr{})
	dev.ResidualWindow = 0
	n.AttachDevice("r1", "r2", dev)

	conn, _ := n.Dial(client, server, 80)
	// TTL 2: packet crosses the device (remaining TTL 1), device injects
	// RST with TTL 1, which dies after r1 decrements it. Timeout.
	if ds := conn.SendPayload(getRequest(blockedDomain), 2); len(ds) != 0 {
		t.Errorf("ttl=2: got %s, want timeout (injection died on return)", ds[0].Packet)
	}
	// TTL 3: remaining TTL at device = 2; survives one decrement, arrives
	// with TTL 1 — the paper's observation that injected RSTs arrive with
	// TTL set to one.
	ds := conn.SendPayload(getRequest(blockedDomain), 3)
	if len(ds) != 1 || ds[0].Packet.TCP == nil || ds[0].Packet.TCP.Flags&netem.TCPRst == 0 {
		t.Fatalf("ttl=3: want RST, got %v", ds)
	}
	if got := ds[0].Packet.IP.TTL; got != 1 {
		t.Errorf("arrived RST TTL = %d, want 1", got)
	}
}

func TestGuardDeviceAtEndpoint(t *testing.T) {
	n, client, server := testNet(t)
	guard := middlebox.NewDevice("g", middlebox.VendorUnknownDrop, []string{blockedDomain}, netip.Addr{})
	guard.ResidualWindow = 0
	n.AttachGuard("server", guard)

	conn, _ := n.Dial(client, server, 80)
	// All four routers answer ICMP normally for the test domain.
	for ttl := uint8(1); ttl <= 4; ttl++ {
		if ds := conn.SendPayload(getRequest(blockedDomain), ttl); len(ds) != 1 || ds[0].Packet.ICMP == nil {
			t.Fatalf("ttl=%d: want ICMP through the path", ttl)
		}
	}
	// At the endpoint: silence.
	if ds := conn.SendPayload(getRequest(blockedDomain), 5); len(ds) != 0 {
		t.Errorf("ttl=5: got %s, want guard drop at endpoint", ds[0].Packet)
	}
	// Open domain unaffected.
	conn2, _ := n.Dial(client, server, 80)
	ds := conn2.SendPayload(getRequest(openDomain), 5)
	if len(ds) == 0 || !strings.Contains(string(ds[0].Packet.Payload), "200 OK") {
		t.Error("open domain should reach the endpoint")
	}
}

func TestResidualBlockingAcrossConnections(t *testing.T) {
	n, client, server := testNet(t)
	dev := middlebox.NewDevice("d", middlebox.VendorCisco, []string{blockedDomain}, netip.Addr{})
	n.AttachDevice("r2", "r3", dev)

	conn, _ := n.Dial(client, server, 80)
	conn.SendPayload(getRequest(blockedDomain), 64) // trigger
	// A new dial inside the residual window times out: the device drops
	// even the SYN.
	if _, err := n.Dial(client, server, 80); err != ErrConnTimeout {
		t.Errorf("dial inside residual window: err = %v, want timeout", err)
	}
	// After waiting out the window (the 120 s CenTrace pause), dials work.
	n.Sleep(120 * time.Second)
	if _, err := n.Dial(client, server, 80); err != nil {
		t.Errorf("dial after residual window: err = %v", err)
	}
}

func TestRouterTOSRewriteVisibleInQuote(t *testing.T) {
	n, client, server := testNet(t)
	tos := uint8(0x48)
	n.Graph.Router("r2").RewriteTOS = &tos
	n.Graph.Router("r3").QuoteLen = 128 // RFC 1812-style quoting

	conn, _ := n.Dial(client, server, 80)
	sent := netem.NewTCPPacket(client.Addr, server.Addr, conn.SrcPort, 80,
		netem.TCPPsh|netem.TCPAck, 2, 1001, getRequest(openDomain))
	sent.IP.TTL = 3
	ds := conn.SendPayload(getRequest(openDomain), 3)
	if len(ds) != 1 || ds[0].Packet.ICMP == nil {
		t.Fatal("want ICMP from r3")
	}
	q, err := ds[0].Packet.ICMP.QuotedPacket()
	if err != nil {
		t.Fatal(err)
	}
	delta := netem.CompareQuote(sent, q)
	if !delta.TOSChanged {
		t.Error("TOS rewrite by r2 should appear in r3's quote")
	}
}

func TestProbeServiceDeviceBanner(t *testing.T) {
	n, client, server := testNet(t)
	_ = client
	_ = server
	devAddr := n.Graph.Router("r3").Addr
	dev := middlebox.NewDevice("d", middlebox.VendorFortinet, []string{blockedDomain}, devAddr)
	n.AttachDevice("r2", "r3", dev)

	banner, ok := n.ProbeService(devAddr, 22)
	if !ok || !strings.Contains(banner, "FortiSSH") {
		t.Errorf("banner = %q ok=%v", banner, ok)
	}
	if _, ok := n.ProbeService(devAddr, 12345); ok {
		t.Error("closed port reported open")
	}
	open := n.OpenPorts(devAddr, []int{21, 22, 23, 80, 161, 443})
	if len(open) != 3 { // 22, 161, 443 per the Fortinet profile
		t.Errorf("OpenPorts = %v", open)
	}
}

func TestProbeServiceEndpointWeb(t *testing.T) {
	n, _, server := testNet(t)
	banner, ok := n.ProbeService(server.Addr, 80)
	if !ok || !strings.Contains(banner, "nginx") {
		t.Errorf("endpoint web banner = %q ok=%v", banner, ok)
	}
	if _, ok := n.ProbeService(netip.MustParseAddr("203.0.113.1"), 80); ok {
		t.Error("unknown address reported open")
	}
}

func TestVirtualClockAdvances(t *testing.T) {
	n, client, server := testNet(t)
	t0 := n.Now()
	conn, _ := n.Dial(client, server, 80)
	conn.SendPayload(getRequest(openDomain), 64)
	if n.Now() <= t0 {
		t.Error("clock did not advance during traffic")
	}
	t1 := n.Now()
	n.Sleep(2 * time.Minute)
	if n.Now() != t1+2*time.Minute {
		t.Error("Sleep did not advance clock exactly")
	}
}

func TestAttachValidation(t *testing.T) {
	n, _, _ := testNet(t)
	for _, fn := range []func(){
		func() { n.AttachDevice("r1", "nope", nil) },
		func() { n.AttachGuard("nope", nil) },
		func() { n.RegisterServer("nope", nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic for unknown attach target")
				}
			}()
			fn()
		}()
	}
}

func TestClientSideDevice(t *testing.T) {
	n, client, server := testNet(t)
	dev := middlebox.NewDevice("d", middlebox.VendorCisco, []string{blockedDomain}, netip.Addr{})
	dev.ResidualWindow = 0
	n.AttachClientSideDevice(client, dev)
	conn, _ := n.Dial(client, server, 80)
	if ds := conn.SendPayload(getRequest(blockedDomain), 1); len(ds) != 0 {
		t.Error("client-side device should drop before the first router")
	}
}

func TestTransientLoss(t *testing.T) {
	n, client, server := testNet(t)
	n.SetFaults(faults.NewEngine(42).AddGlobal(faults.UniformLoss(0.5)))
	lost, got := 0, 0
	for i := 0; i < 100; i++ {
		conn, err := n.Dial(client, server, 80)
		if err != nil {
			lost++
			continue
		}
		ds := conn.SendPayload(getRequest(openDomain), 64)
		if len(ds) == 0 {
			lost++
		} else {
			got++
		}
	}
	if lost == 0 || got == 0 {
		t.Errorf("loss model: lost=%d got=%d, want a mix at 50%% loss", lost, got)
	}
	// Disabling loss restores reliability.
	n.SetFaults(nil)
	if _, err := n.Dial(client, server, 80); err != nil {
		t.Errorf("dial with loss disabled: %v", err)
	}
}

func TestSegmentedRequestReassembledByServer(t *testing.T) {
	n, client, server := testNet(t)
	conn, err := n.Dial(client, server, 80)
	if err != nil {
		t.Fatal(err)
	}
	req := getRequest(openDomain)
	split := len(req) / 2
	ds := conn.SendSegments([][]byte{req[:split], req[split:]}, 64)
	var body string
	for _, d := range ds {
		if len(d.Packet.Payload) > 0 {
			body = string(d.Packet.Payload)
		}
	}
	if !strings.Contains(body, "200 OK") {
		t.Errorf("segmented request response = %q, want 200", body)
	}
}

func TestSegmentationEvadesPerPacketDevice(t *testing.T) {
	n, client, server := testNet(t)
	dev := middlebox.NewDevice("d", middlebox.VendorCisco, []string{blockedDomain}, netip.Addr{})
	dev.ResidualWindow = 0
	n.AttachDevice("r2", "r3", dev)

	req := getRequest(blockedDomain)
	// Split inside the Host header so neither segment alone matches.
	split := len(req) - 10
	conn, _ := n.Dial(client, server, 80)
	ds := conn.SendSegments([][]byte{req[:split], req[split:]}, 64)
	got200 := false
	for _, d := range ds {
		if strings.Contains(string(d.Packet.Payload), "200 OK") {
			got200 = true
		}
	}
	if !got200 {
		t.Error("segmentation should evade a per-packet DPI engine")
	}

	// A reassembling engine (Fortinet profile) is not evaded.
	n2, client2, server2 := testNet(t)
	dev2 := middlebox.NewDevice("d", middlebox.VendorFortinet, []string{blockedDomain}, netip.Addr{})
	dev2.ResidualWindow = 0
	n2.AttachDevice("r2", "r3", dev2)
	conn2, _ := n2.Dial(client2, server2, 80)
	ds2 := conn2.SendSegments([][]byte{req[:split], req[split:]}, 64)
	blockedPage := false
	for _, d := range ds2 {
		if strings.Contains(string(d.Packet.Payload), "FortiGuard") {
			blockedPage = true
		}
	}
	if !blockedPage {
		t.Error("reassembling DPI engine should still catch the split request")
	}
}

func TestSendUDPWithoutResolver(t *testing.T) {
	n, client, server := testNet(t)
	// No resolver registered: DNS queries fall silent.
	ds := n.SendUDP(client, server, 53, []byte{0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1}, 64)
	for _, d := range ds {
		if d.Packet.UDP != nil {
			t.Errorf("unexpected UDP answer from host without resolver: %s", d.Packet)
		}
	}
	// TTL-limited UDP still gets router ICMP.
	ds2 := n.SendUDP(client, server, 53, []byte("x"), 2)
	if len(ds2) != 1 || ds2[0].Packet.ICMP == nil {
		t.Error("UDP probe should elicit ICMP Time Exceeded at TTL 2")
	}
}

func TestGuardInspectsDNS(t *testing.T) {
	n, client, server := testNet(t)
	n.RegisterResolver("server", endpoint.NewResolver(map[string]netip.Addr{
		blockedDomain: netip.MustParseAddr("192.0.2.80"),
	}))
	guard := middlebox.NewDevice("g", middlebox.VendorUnknownDrop, []string{blockedDomain}, netip.Addr{})
	guard.ResidualWindow = 0
	n.AttachGuard("server", guard)

	q := dnsQueryBytes(blockedDomain)
	ds := n.SendUDP(client, server, 53, q, 64)
	for _, d := range ds {
		if d.Packet.UDP != nil {
			t.Errorf("guard should drop the blocked query: got %s", d.Packet)
		}
	}
}

// dnsQueryBytes builds a raw A query without importing dnsgram here.
func dnsQueryBytes(name string) []byte {
	out := []byte{0, 9, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0}
	start := 0
	for i := 0; i <= len(name); i++ {
		if i == len(name) || name[i] == '.' {
			out = append(out, byte(i-start))
			out = append(out, name[start:i]...)
			start = i + 1
		}
	}
	out = append(out, 0, 0, 1, 0, 1)
	return out
}

func TestSegmentedDropMidSequence(t *testing.T) {
	// In-path drop device with reassembly: the second segment completes
	// the trigger and is dropped; the endpoint never gets a full request.
	n, client, server := testNet(t)
	dev := middlebox.NewDevice("d", middlebox.VendorFortinet, []string{blockedDomain}, netip.Addr{})
	dev.Action = middlebox.ActionDrop
	dev.ResidualWindow = 0
	n.AttachDevice("r2", "r3", dev)

	req := getRequest(blockedDomain)
	cut := len(req) - 10
	conn, _ := n.Dial(client, server, 80)
	ds := conn.SendSegments([][]byte{req[:cut], req[cut:]}, 64)
	for _, d := range ds {
		if strings.Contains(string(d.Packet.Payload), "200 OK") {
			t.Error("reassembling drop device should prevent the fetch")
		}
	}
}
