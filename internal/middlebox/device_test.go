package middlebox

import (
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"cendev/internal/httpgram"
	"cendev/internal/netem"
	"cendev/internal/tlsgram"
)

var (
	clientAddr   = netip.MustParseAddr("10.1.0.1")
	endpointAddr = netip.MustParseAddr("10.2.0.1")
	deviceAddr   = netip.MustParseAddr("10.3.0.1")
)

const blockedDomain = "www.blocked.example"

// inspect is Inspect returning the verdict.
func inspect(d *Device, st *FlowState, pkt *netem.Packet, endpoint netip.Addr, now time.Duration) Verdict {
	var v Verdict
	d.Inspect(&v, st, pkt, endpoint, now)
	return v
}

// httpProbe builds a client→endpoint packet carrying a canonical GET for
// the given hostname.
func httpProbe(host string) *netem.Packet {
	return netem.NewTCPPacket(clientAddr, endpointAddr, 40000, 80,
		netem.TCPPsh|netem.TCPAck, 100, 1, httpgram.NewRequest(host).Render())
}

// tlsProbe builds a client→endpoint packet carrying a Client Hello for the
// given server name.
func tlsProbe(sni string) *netem.Packet {
	return netem.NewTCPPacket(clientAddr, endpointAddr, 40000, 443,
		netem.TCPPsh|netem.TCPAck, 100, 1, tlsgram.NewClientHello(sni).Serialize())
}

func TestRuleSetModes(t *testing.T) {
	cases := []struct {
		mode    MatchMode
		entry   string
		host    string
		matches bool
	}{
		{MatchExact, "www.blocked.example", "www.blocked.example", true},
		{MatchExact, "www.blocked.example", "m.blocked.example", false},
		{MatchExact, "www.blocked.example", "**www.blocked.example", false},
		{MatchSuffix, "www.blocked.example", "**www.blocked.example", true},
		{MatchSuffix, "www.blocked.example", "www.blocked.example**", false},
		{MatchSuffix, "blocked.example", "m.blocked.example", true},
		{MatchSuffix, "blocked.example", "www.blocked.net", false},
		{MatchContains, "blocked.example", "**www.blocked.example**", true},
		{MatchContains, "blocked.example", "www.blocked.net", false},
		{MatchKeyword, "www.blocked.example", "www.blocked.net", true},
		{MatchKeyword, "www.blocked.example", "www.open.example", false},
	}
	for _, tc := range cases {
		rs := RuleSet{Mode: tc.mode, Domains: []string{tc.entry}}
		if got := rs.Matches(tc.host); got != tc.matches {
			t.Errorf("mode=%s entry=%q host=%q: Matches = %v, want %v",
				tc.mode, tc.entry, tc.host, got, tc.matches)
		}
	}
}

func TestRuleSetCaseInsensitive(t *testing.T) {
	rs := RuleSet{Mode: MatchExact, Domains: []string{"www.Blocked.Example"}, CaseInsensitive: true}
	if !rs.Matches("WWW.BLOCKED.EXAMPLE") {
		t.Error("case-insensitive rule should match upper-cased host")
	}
	strict := RuleSet{Mode: MatchExact, Domains: []string{"www.blocked.example"}}
	if strict.Matches("WWW.BLOCKED.EXAMPLE") {
		t.Error("case-sensitive rule should not match upper-cased host")
	}
	if rs.Matches("") {
		t.Error("empty host should never match")
	}
}

func TestDropDeviceTriggersOnHTTP(t *testing.T) {
	d := NewDevice("d1", VendorCisco, []string{blockedDomain}, deviceAddr)
	st := new(FlowState)
	v := inspect(d, st, httpProbe(blockedDomain), endpointAddr, 0)
	if !v.Triggered || !v.DropOriginal || v.Injected != nil {
		t.Errorf("verdict = %+v, want triggered drop without injection", v)
	}
	st.Reset() // clear residual flow state before the control probe
	v2 := inspect(d, st, httpProbe("www.open.example"), endpointAddr, 0)
	if v2.Triggered {
		t.Error("unblocked domain should not trigger")
	}
}

func TestRSTDeviceInjects(t *testing.T) {
	d := NewDevice("d1", VendorDDoSGuard, []string{blockedDomain}, deviceAddr)
	st := new(FlowState)
	probe := httpProbe(blockedDomain)
	v := inspect(d, st, probe, endpointAddr, 0)
	if !v.Triggered || len(v.Injected) != 1 {
		t.Fatalf("verdict = %+v, want one injected packet", v)
	}
	inj := v.Injected[0]
	if inj.TCP.Flags&netem.TCPRst == 0 {
		t.Errorf("injected flags = %s, want RST", inj.TCP.Flags)
	}
	if inj.IP.Src != endpointAddr {
		t.Errorf("injected src = %s, want spoofed endpoint %s", inj.IP.Src, endpointAddr)
	}
	if inj.IP.Dst != clientAddr {
		t.Errorf("injected dst = %s, want client %s", inj.IP.Dst, clientAddr)
	}
	if inj.TCP.SrcPort != 80 || inj.TCP.DstPort != 40000 {
		t.Errorf("injected ports = %d>%d", inj.TCP.SrcPort, inj.TCP.DstPort)
	}
}

func TestBlockpageDeviceInjectsPageAndFIN(t *testing.T) {
	d := NewDevice("d1", VendorFortinet, []string{blockedDomain}, deviceAddr)
	st := new(FlowState)
	v := inspect(d, st, httpProbe(blockedDomain), endpointAddr, 0)
	if len(v.Injected) != 2 {
		t.Fatalf("injected %d packets, want 2 (page + FIN)", len(v.Injected))
	}
	page := string(v.Injected[0].Payload)
	if !strings.Contains(page, "FortiGuard") {
		t.Errorf("blockpage missing vendor marker: %q", page)
	}
	if v.Injected[1].TCP.Flags&netem.TCPFin == 0 {
		t.Error("second injected packet should carry FIN")
	}
}

func TestFINDeviceInjects(t *testing.T) {
	d := NewDevice("d1", VendorDDoSGuard, []string{blockedDomain}, deviceAddr)
	st := new(FlowState)
	d.Action = ActionFIN
	v := inspect(d, st, httpProbe(blockedDomain), endpointAddr, 0)
	if len(v.Injected) != 1 || v.Injected[0].TCP.Flags&netem.TCPFin == 0 {
		t.Fatalf("verdict = %+v, want single FIN injection", v)
	}
}

func TestOnPathDeviceForwardsOriginal(t *testing.T) {
	d := NewDevice("d1", VendorUnknownRST, []string{blockedDomain}, netip.Addr{})
	st := new(FlowState)
	v := inspect(d, st, httpProbe(blockedDomain), endpointAddr, 0)
	if !v.Triggered {
		t.Fatal("on-path device should trigger")
	}
	if v.DropOriginal {
		t.Error("on-path device cannot drop the original packet")
	}
	if len(v.Injected) != 1 {
		t.Errorf("injected %d packets, want 1", len(v.Injected))
	}
}

func TestTLSSNITrigger(t *testing.T) {
	d := NewDevice("d1", VendorKerio, []string{blockedDomain}, deviceAddr)
	st := new(FlowState)
	if v := inspect(d, st, tlsProbe(blockedDomain), endpointAddr, 0); !v.Triggered {
		t.Error("Client Hello with blocked SNI should trigger")
	}
	st.Reset() // clear residual flow state before the control probe
	if v := inspect(d, st, tlsProbe("www.open.example"), endpointAddr, 0); v.Triggered {
		t.Error("Client Hello with open SNI should not trigger")
	}
}

func TestTLSVersionQuirkEvasion(t *testing.T) {
	d := NewDevice("d1", VendorPaloAlto, []string{blockedDomain}, deviceAddr)
	st := new(FlowState)
	// Palo Alto profile parses version ranges intersecting 1.1–1.2. The
	// canonical hello offers 1.2–1.3, which intersects, so it triggers.
	ch := tlsgram.NewClientHello(blockedDomain)
	probe := netem.NewTCPPacket(clientAddr, endpointAddr, 40000, 443,
		netem.TCPPsh|netem.TCPAck, 100, 1, ch.Serialize())
	if v := inspect(d, st, probe, endpointAddr, 0); !v.Triggered {
		t.Error("canonical 1.2–1.3 hello should trigger")
	}
	st.Reset()
	// A pure TLS 1.3 hello falls outside the parser's window and evades.
	ch13 := tlsgram.NewClientHello(blockedDomain)
	ch13.SetSupportedVersions(tlsgram.VersionTLS13, tlsgram.VersionTLS13)
	probe13 := netem.NewTCPPacket(clientAddr, endpointAddr, 40000, 443,
		netem.TCPPsh|netem.TCPAck, 100, 1, ch13.Serialize())
	if v := inspect(d, st, probe13, endpointAddr, 0); v.Triggered {
		t.Error("pure TLS 1.3 hello should evade a 1.2-max parser")
	}
	// A pure TLS 1.0 hello falls below the window and evades too.
	ch10 := tlsgram.NewClientHello(blockedDomain)
	ch10.SetSupportedVersions(tlsgram.VersionTLS10, tlsgram.VersionTLS10)
	probe10 := netem.NewTCPPacket(clientAddr, endpointAddr, 40000, 443,
		netem.TCPPsh|netem.TCPAck, 100, 1, ch10.Serialize())
	if v := inspect(d, st, probe10, endpointAddr, 0); v.Triggered {
		t.Error("pure TLS 1.0 hello should evade a 1.1-min parser")
	}
}

func TestTLSCipherSuiteQuirk(t *testing.T) {
	d := NewDevice("d1", VendorKerio, []string{blockedDomain}, deviceAddr)
	st := new(FlowState)
	d.Quirks.TLS.RequireKnownSuite = map[uint16]bool{tlsgram.TLS_AES_128_GCM_SHA256: true}
	legacy := tlsgram.NewClientHello(blockedDomain)
	legacy.CipherSuites = []uint16{tlsgram.TLS_RSA_WITH_RC4_128_SHA}
	probe := netem.NewTCPPacket(clientAddr, endpointAddr, 40000, 443,
		netem.TCPPsh|netem.TCPAck, 100, 1, legacy.Serialize())
	if v := inspect(d, st, probe, endpointAddr, 0); v.Triggered {
		t.Error("RC4-only hello should evade a device requiring a known suite")
	}
}

func TestMethodAllowlistEvasion(t *testing.T) {
	d := NewDevice("d1", VendorCisco, []string{blockedDomain}, deviceAddr)
	st := new(FlowState)
	req := httpgram.NewRequest(blockedDomain)
	req.Method = "PATCH"
	probe := netem.NewTCPPacket(clientAddr, endpointAddr, 40000, 80,
		netem.TCPPsh|netem.TCPAck, 100, 1, req.Render())
	if v := inspect(d, st, probe, endpointAddr, 0); v.Triggered {
		t.Error("PATCH should evade a device triggering only on GET/POST/PUT/HEAD")
	}
}

func TestSubstringScannerIgnoresMethod(t *testing.T) {
	d := NewDevice("d1", VendorFortinet, []string{blockedDomain}, deviceAddr)
	st := new(FlowState)
	req := httpgram.NewRequest(blockedDomain)
	req.Method = ""
	probe := netem.NewTCPPacket(clientAddr, endpointAddr, 40000, 80,
		netem.TCPPsh|netem.TCPAck, 100, 1, req.Render())
	if v := inspect(d, st, probe, endpointAddr, 0); !v.Triggered {
		t.Error("substring-scanning device should trigger regardless of method")
	}
}

func TestPathSensitivity(t *testing.T) {
	d := NewDevice("d1", VendorKerio, []string{blockedDomain}, deviceAddr)
	st := new(FlowState)
	req := httpgram.NewRequest(blockedDomain)
	req.Path = "?"
	probe := netem.NewTCPPacket(clientAddr, endpointAddr, 40000, 80,
		netem.TCPPsh|netem.TCPAck, 100, 1, req.Render())
	if v := inspect(d, st, probe, endpointAddr, 0); v.Triggered {
		t.Error("non-root path should evade a path-sensitive device")
	}
}

func TestCopyTTLInjection(t *testing.T) {
	d := NewDevice("d1", VendorUnknownCopyTTL, []string{blockedDomain}, netip.Addr{})
	st := new(FlowState)
	probe := httpProbe(blockedDomain)
	probe.IP.TTL = 5
	probe.IP.ID = 777
	v := inspect(d, st, probe, endpointAddr, 0)
	if len(v.Injected) != 1 {
		t.Fatalf("injected %d packets, want 1", len(v.Injected))
	}
	if v.Injected[0].IP.TTL != 5 {
		t.Errorf("injected TTL = %d, want copied 5", v.Injected[0].IP.TTL)
	}
	if v.Injected[0].IP.ID != 777 {
		t.Errorf("injected IP ID = %d, want copied 777", v.Injected[0].IP.ID)
	}
}

func TestResidualBlocking(t *testing.T) {
	d := NewDevice("d1", VendorCisco, []string{blockedDomain}, deviceAddr)
	st := new(FlowState)
	if v := inspect(d, st, httpProbe(blockedDomain), endpointAddr, 0); !v.Triggered {
		t.Fatal("first probe should trigger")
	}
	// An innocuous request between the same hosts inside the window is
	// dropped by residual state.
	v := inspect(d, st, httpProbe("www.open.example"), endpointAddr, 10*time.Second)
	if !v.Triggered || !v.Residual {
		t.Errorf("within residual window: verdict = %+v, want residual trigger", v)
	}
	// After the window expires, the innocuous request passes.
	v2 := inspect(d, st, httpProbe("www.open.example"), endpointAddr, 10*time.Minute)
	if v2.Triggered {
		t.Errorf("after residual window: verdict = %+v, want pass", v2)
	}
}

func TestResetStateClearsResidual(t *testing.T) {
	d := NewDevice("d1", VendorCisco, []string{blockedDomain}, deviceAddr)
	st := new(FlowState)
	inspect(d, st, httpProbe(blockedDomain), endpointAddr, 0)
	st.Reset()
	if v := inspect(d, st, httpProbe("www.open.example"), endpointAddr, time.Second); v.Triggered {
		t.Error("Reset should clear residual blocking")
	}
}

func TestMaxInjectsPerFlow(t *testing.T) {
	d := NewDevice("d1", VendorUnknownRST, []string{blockedDomain}, netip.Addr{})
	st := new(FlowState)
	d.ResidualWindow = 0 // isolate the injection cap
	d.MaxInjectsPerFlow = 2
	for i := 0; i < 2; i++ {
		if v := inspect(d, st, httpProbe(blockedDomain), endpointAddr, 0); len(v.Injected) != 1 {
			t.Fatalf("probe %d: injected %d, want 1", i, len(v.Injected))
		}
	}
	v := inspect(d, st, httpProbe(blockedDomain), endpointAddr, 0)
	if !v.Triggered || len(v.Injected) != 0 {
		t.Errorf("after cap: verdict = %+v, want trigger without injection", v)
	}
}

// TestFlowStateClonePrivate: a clone copies the flow state it had at
// clone time — residual windows, injection counters, reassembly buffers —
// so traffic through the clone never changes what the original remembers.
func TestFlowStateClonePrivate(t *testing.T) {
	d := NewDevice("d1", VendorUnknownRST, []string{blockedDomain}, deviceAddr)
	st := new(FlowState)
	d.ResidualWindow = time.Minute
	d.MaxInjectsPerFlow = 1
	d.Reassembles = true
	probe := httpProbe(blockedDomain)
	if v := inspect(d, st, probe, endpointAddr, 0); !v.Triggered {
		t.Fatal("setup: probe should trigger")
	}
	flow := flowKey{clientAddr, endpointAddr, 40000, 80}
	until, _ := residualUntil(st, clientAddr, endpointAddr)

	c := st.Clone()
	// Past the window the clone expires the pair, reassembles the flow's
	// stream further, and re-triggers; a second client adds new entries.
	inspect(d, c, probe, endpointAddr, 2*time.Minute)
	other := netem.NewTCPPacket(netip.MustParseAddr("10.1.0.2"), endpointAddr, 40001, 80,
		netem.TCPPsh|netem.TCPAck, 100, 1, httpgram.NewRequest(blockedDomain).Render())
	inspect(d, c, other, endpointAddr, 2*time.Minute)
	if len(c.residual) != 2 || len(c.injects) != 2 || len(c.streams[flow]) != 2*len(probe.Payload) {
		t.Fatalf("setup: clone state residual=%d injects=%d stream=%d bytes",
			len(c.residual), len(c.injects), len(c.streams[flow]))
	}

	if u, _ := residualUntil(st, clientAddr, endpointAddr); len(st.residual) != 1 || u != until {
		t.Errorf("original residual state changed: %v", st.residual)
	}
	if len(st.injects) != 1 || st.injects[flow] != 1 {
		t.Errorf("original injection counters changed: %v", st.injects)
	}
	if len(st.streams) != 1 || string(st.streams[flow]) != string(probe.Payload) {
		t.Errorf("original reassembly buffers changed: %d flows, %q", len(st.streams), st.streams[flow])
	}

	// With a second pair in the original's table, a clone that expires the
	// first pair (and only it) leaves both of the original's entries.
	inspect(d, st, other, endpointAddr, 10*time.Second)
	c2 := st.Clone()
	// A new flow, so the reassembled stream holds only the open request.
	fresh := netem.NewTCPPacket(clientAddr, endpointAddr, 40002, 80,
		netem.TCPPsh|netem.TCPAck, 100, 1, httpgram.NewRequest("www.open.example").Render())
	if v := inspect(d, c2, fresh, endpointAddr, 65*time.Second); v.Triggered {
		t.Errorf("clone past the first pair's window: verdict = %+v, want pass", v)
	}
	open := netem.NewTCPPacket(other.IP.Src, endpointAddr, 40001, 80,
		netem.TCPPsh|netem.TCPAck, 100, 1, httpgram.NewRequest("www.open.example").Render())
	if v := inspect(d, c2, open, endpointAddr, 65*time.Second); !v.Residual {
		t.Errorf("clone inside the second pair's window: verdict = %+v, want residual trigger", v)
	}
	u1, ok1 := residualUntil(st, clientAddr, endpointAddr)
	u2, ok2 := residualUntil(st, other.IP.Src, endpointAddr)
	if len(st.residual) != 2 || !ok1 || u1 != until || !ok2 || u2 != 10*time.Second+time.Minute {
		t.Errorf("a clone's expiry changed the original's residual table: %v", st.residual)
	}

	// A state that holds no flows clones to nil: it costs a network clone
	// nothing. The trigger memo alone does not count, and a reset keeps
	// the residual table's storage without its entries.
	st.Reset()
	if len(st.trigMemo) == 0 || cap(st.residual) == 0 {
		t.Fatalf("setup: reset state holds memo %d, residual capacity %d", len(st.trigMemo), cap(st.residual))
	}
	if c := st.Clone(); c != nil {
		t.Errorf("clone of a reset state = %+v, want nil", c)
	}
}

// TestResidualPairsExpireIndependently: one device holds residual windows
// for several host pairs; expiring one, whichever table slot it holds,
// leaves the others dropped and only them in the table.
func TestResidualPairsExpireIndependently(t *testing.T) {
	probeFrom := func(client, host string) *netem.Packet {
		return netem.NewTCPPacket(netip.MustParseAddr(client), endpointAddr, 40000, 80,
			netem.TCPPsh|netem.TCPAck, 100, 1, httpgram.NewRequest(host).Render())
	}
	clients := []string{"10.1.0.1", "10.1.0.2", "10.1.0.3"}
	type query struct {
		client   int
		residual bool
	}
	cases := []struct {
		name    string
		flagged []time.Duration // client i triggers at flagged[i]
		now     time.Duration
		queries []query
		left    int // the one client still in the table
	}{
		// Client 0 expires from the table's first slot, client 1 stays.
		{"first-slot", []time.Duration{0, 30 * time.Second}, 70 * time.Second,
			[]query{{0, false}, {1, true}, {1, true}, {0, false}}, 1},
		// Client 1 expires from the middle slot first; client 2 stays.
		{"middle-slot", []time.Duration{0, 10 * time.Second, 20 * time.Second}, 75 * time.Second,
			[]query{{1, false}, {2, true}, {0, false}, {2, true}}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDevice("d1", VendorCisco, []string{blockedDomain}, deviceAddr)
			st := new(FlowState)
			d.ResidualWindow = time.Minute
			for i, at := range tc.flagged {
				if v := inspect(d, st, probeFrom(clients[i], blockedDomain), endpointAddr, at); !v.Triggered || v.Residual {
					t.Fatalf("setup: client %d trigger at %v: verdict = %+v", i, at, v)
				}
			}
			for _, q := range tc.queries {
				v := inspect(d, st, probeFrom(clients[q.client], "www.open.example"), endpointAddr, tc.now)
				if v.Residual != q.residual || v.Triggered != q.residual {
					t.Errorf("client %d at %v: verdict = %+v, want residual %v", q.client, tc.now, v, q.residual)
				}
			}
			if len(st.residual) != 1 || !st.residual[0].between(netip.MustParseAddr(clients[tc.left]), endpointAddr) {
				t.Errorf("residual table = %v, want only client %d's pair", st.residual, tc.left)
			}
		})
	}
}

// residualUntil reads a host pair's expiry from a residual table.
func residualUntil(st *FlowState, a, b netip.Addr) (time.Duration, bool) {
	for _, e := range st.residual {
		if e.between(a, b) {
			return e.until, true
		}
	}
	return 0, false
}

func TestNonTCPPacketsIgnored(t *testing.T) {
	d := NewDevice("d1", VendorCisco, []string{blockedDomain}, deviceAddr)
	st := new(FlowState)
	icmp := &netem.Packet{
		IP:   netem.IPv4{Src: clientAddr, Dst: endpointAddr, TTL: 64, Protocol: netem.ProtoICMP},
		ICMP: &netem.ICMP{Type: netem.ICMPEcho},
	}
	if v := inspect(d, st, icmp, endpointAddr, 0); v.Triggered {
		t.Error("ICMP packets should not trigger")
	}
}

func TestEmptyPayloadIgnored(t *testing.T) {
	d := NewDevice("d1", VendorCisco, []string{blockedDomain}, deviceAddr)
	st := new(FlowState)
	syn := netem.NewTCPPacket(clientAddr, endpointAddr, 40000, 80, netem.TCPSyn, 0, 0, nil)
	if v := inspect(d, st, syn, endpointAddr, 0); v.Triggered {
		t.Error("SYN without payload should not trigger")
	}
}

func TestNewDeviceRegistrableRules(t *testing.T) {
	d := NewDevice("d1", VendorFortinet, []string{"www.blocked.example"}, deviceAddr)
	if got := d.Rules.Domains[0]; got != "blocked.example" {
		t.Errorf("Fortinet rule entry = %q, want registrable domain", got)
	}
	d2 := NewDevice("d2", VendorCisco, []string{"www.blocked.example"}, deviceAddr)
	if got := d2.Rules.Domains[0]; got != "www.blocked.example" {
		t.Errorf("Cisco rule entry = %q, want full hostname", got)
	}
}

func TestNewDeviceUnknownVendorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDevice with unknown vendor should panic")
		}
	}()
	NewDevice("d1", Vendor("NoSuchVendor"), nil, deviceAddr)
}

func TestServicesOnlyWithAddress(t *testing.T) {
	with := NewDevice("d1", VendorFortinet, nil, deviceAddr)
	if len(with.Services) == 0 {
		t.Error("addressed Fortinet device should expose services")
	}
	without := NewDevice("d2", VendorFortinet, nil, netip.Addr{})
	if len(without.Services) != 0 {
		t.Error("address-less device should expose no services")
	}
}

func TestAllProfilesInstantiable(t *testing.T) {
	for vendor := range Profiles {
		d := NewDevice("x", vendor, []string{blockedDomain}, deviceAddr)
		if d.Vendor != vendor {
			t.Errorf("vendor %s: instantiated as %s", vendor, d.Vendor)
		}
		if d.DNSOnly {
			continue // DNS-only devices are exercised in dns_test.go
		}
		// Every profile must trigger on a canonical GET for its rule.
		st := new(FlowState)
		v := inspect(d, st, httpProbe(blockedDomain), endpointAddr, 0)
		if !v.Triggered {
			t.Errorf("vendor %s: canonical GET did not trigger", vendor)
		}
		st.Reset()
		// And on a canonical Client Hello, except parsers with narrow
		// version ranges (checked separately above).
		if d.Quirks.TLS.ParseVersionMax == 0 {
			if v := inspect(d, st, tlsProbe(blockedDomain), endpointAddr, 0); !v.Triggered {
				t.Errorf("vendor %s: canonical Client Hello did not trigger", vendor)
			}
		}
	}
}

func TestStringers(t *testing.T) {
	d := NewDevice("dev-9", VendorCisco, nil, deviceAddr)
	if s := d.String(); !strings.Contains(s, "Cisco") || !strings.Contains(s, "in-path") {
		t.Errorf("Device.String() = %q", s)
	}
	if ActionBlockpage.String() != "BLOCKPAGE" || ActionDrop.String() != "DROP" {
		t.Error("Action.String() broken")
	}
	if OnPath.String() != "on-path" {
		t.Error("Placement.String() broken")
	}
	if MatchKeyword.String() != "keyword" {
		t.Error("MatchMode.String() broken")
	}
}

func TestRegistrableHelper(t *testing.T) {
	cases := map[string]string{
		"www.example.com":   "example.com",
		"example.com":       "example.com",
		"a.b.c.example.org": "example.org",
		"localhost":         "localhost",
	}
	for in, want := range cases {
		if got := registrable(in); got != want {
			t.Errorf("registrable(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestQuickMatchModeMonotonicity checks the containment hierarchy of the
// match modes: an exact match is also a suffix match, and a suffix match
// is also a contains match, for any host/entry pair.
func TestQuickMatchModeMonotonicity(t *testing.T) {
	f := func(rawHost, rawEntry []byte) bool {
		host := sanitizeDomain(rawHost)
		entry := sanitizeDomain(rawEntry)
		if host == "" || entry == "" {
			return true
		}
		exact := RuleSet{Mode: MatchExact, Domains: []string{entry}}
		suffix := RuleSet{Mode: MatchSuffix, Domains: []string{entry}}
		contains := RuleSet{Mode: MatchContains, Domains: []string{entry}}
		if exact.Matches(host) && !suffix.Matches(host) {
			return false
		}
		if suffix.Matches(host) && !contains.Matches(host) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickInspectDeterministic verifies that inspecting the same packet
// twice (with state reset in between) yields identical verdicts.
func TestQuickInspectDeterministic(t *testing.T) {
	f := func(rawHost []byte, method uint8) bool {
		host := sanitizeDomain(rawHost)
		if host == "" {
			return true
		}
		methods := []string{"GET", "POST", "PUT", "PATCH", "XXXX", ""}
		d := NewDevice("d", VendorCisco, []string{blockedDomain}, deviceAddr)
		st := new(FlowState)
		req := httpgram.NewRequest(host)
		req.Method = methods[int(method)%len(methods)]
		probe := netem.NewTCPPacket(clientAddr, endpointAddr, 40000, 80,
			netem.TCPPsh|netem.TCPAck, 100, 1, req.Render())
		v1 := inspect(d, st, probe, endpointAddr, 0)
		st.Reset()
		v2 := inspect(d, st, probe, endpointAddr, 0)
		return v1.Triggered == v2.Triggered && v1.DropOriginal == v2.DropOriginal &&
			len(v1.Injected) == len(v2.Injected)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func sanitizeDomain(raw []byte) string {
	const alpha = "abcdefghijklmnopqrstuvwxyz0123456789-."
	b := make([]byte, 0, len(raw))
	for _, c := range raw {
		b = append(b, alpha[int(c)%len(alpha)])
	}
	return strings.Trim(string(b), ".-")
}

func TestThrottleAction(t *testing.T) {
	d := NewDevice("d", VendorUnknownDrop, []string{blockedDomain}, deviceAddr)
	st := new(FlowState)
	d.Action = ActionThrottle
	d.ResidualWindow = 0
	v := inspect(d, st, httpProbe(blockedDomain), endpointAddr, 0)
	if !v.Triggered || v.DropOriginal || v.Injected != nil {
		t.Fatalf("verdict = %+v, want throttle without drop or injection", v)
	}
	if v.ThrottleDelay <= 0 {
		t.Error("ThrottleDelay missing")
	}
	d.ThrottleDelay = 2 * time.Second
	v2 := inspect(d, st, httpProbe(blockedDomain), endpointAddr, 0)
	if v2.ThrottleDelay != 2*time.Second {
		t.Errorf("configured delay = %v", v2.ThrottleDelay)
	}
	if v3 := inspect(d, st, httpProbe("www.open.example"), endpointAddr, 0); v3.Triggered {
		t.Error("open domain should not be throttled")
	}
	if ActionThrottle.String() != "THROTTLE" {
		t.Error("stringer broken")
	}
}

func TestReassemblingDeviceCatchesSplitTrigger(t *testing.T) {
	d := NewDevice("d", VendorFortinet, []string{blockedDomain}, deviceAddr)
	st := new(FlowState)
	d.ResidualWindow = 0
	req := httpgram.NewRequest(blockedDomain).Render()
	cut := len(req) - 10
	seg1 := netem.NewTCPPacket(clientAddr, endpointAddr, 40000, 80, netem.TCPPsh|netem.TCPAck, 1, 1, req[:cut])
	seg2 := netem.NewTCPPacket(clientAddr, endpointAddr, 40000, 80, netem.TCPPsh|netem.TCPAck, 1+uint32(cut), 1, req[cut:])
	if v := inspect(d, st, seg1, endpointAddr, 0); v.Triggered {
		t.Fatal("first segment alone should not trigger")
	}
	if v := inspect(d, st, seg2, endpointAddr, 0); !v.Triggered {
		t.Error("reassembled stream should trigger")
	}
	// Per-packet engine (Cisco) misses both segments.
	c := NewDevice("c", VendorCisco, []string{blockedDomain}, deviceAddr)
	c.ResidualWindow = 0
	cst := new(FlowState)
	if v := inspect(c, cst, seg1, endpointAddr, 0); v.Triggered {
		t.Error("per-packet engine triggered on partial segment")
	}
	if v := inspect(c, cst, seg2, endpointAddr, 0); v.Triggered {
		t.Error("per-packet engine triggered on partial segment 2")
	}
}

func TestStreamBufferBounded(t *testing.T) {
	d := NewDevice("d", VendorFortinet, nil, deviceAddr)
	st := new(FlowState)
	d.ResidualWindow = 0
	big := make([]byte, 3000)
	for i := 0; i < 10; i++ {
		pkt := netem.NewTCPPacket(clientAddr, endpointAddr, 40000, 80, netem.TCPPsh|netem.TCPAck, uint32(i), 1, big)
		inspect(d, st, pkt, endpointAddr, 0)
	}
	// The buffer must stay bounded (8 KiB).
	for _, buf := range st.streams {
		if len(buf) > maxStreamBuffer {
			t.Errorf("stream buffer grew to %d", len(buf))
		}
	}
	st.Reset()
	if st.streams != nil {
		t.Error("Reset should clear stream buffers")
	}
}

func TestPersonalityDefaults(t *testing.T) {
	forti := NewDevice("f", VendorFortinet, nil, deviceAddr)
	if forti.Personality.SYNACKTTL != 64 || forti.Personality.SYNACKWindow != 5840 {
		t.Errorf("Fortinet personality = %+v", forti.Personality)
	}
	cisco := NewDevice("c", VendorCisco, nil, deviceAddr)
	if cisco.Personality.SYNACKTTL != 255 {
		t.Errorf("Cisco personality = %+v", cisco.Personality)
	}
	if DefaultHostPersonality.SYNACKWindow == 0 {
		t.Error("default host personality unset")
	}
}
