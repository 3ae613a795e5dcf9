package cenprobe

import (
	"net/netip"
	"testing"

	"cendev/internal/endpoint"
	"cendev/internal/middlebox"
	"cendev/internal/simnet"
	"cendev/internal/topology"
)

// buildNet returns a network with one device of each commercial vendor
// attached on distinct router links.
func buildNet(t *testing.T) (*simnet.Network, map[string]netip.Addr) {
	t.Helper()
	g := topology.NewGraph()
	as := g.AddAS(100, "Net", "KZ")
	vendors := []middlebox.Vendor{
		middlebox.VendorFortinet, middlebox.VendorCisco, middlebox.VendorKerio,
		middlebox.VendorPaloAlto, middlebox.VendorDDoSGuard,
		middlebox.VendorMikrotik, middlebox.VendorKaspersky,
	}
	prev := g.AddRouter("r0", as)
	_ = prev
	addrs := map[string]netip.Addr{}
	n := simnet.New(g)
	for i, v := range vendors {
		id := string(rune('a' + i))
		r := g.AddRouter("r"+id, as)
		g.Link("r0", "r"+id)
		dev := middlebox.NewDevice("dev-"+id, v, nil, r.Addr)
		n.AttachDevice("r0", "r"+id, dev)
		addrs[string(v)] = r.Addr
	}
	return n, addrs
}

func TestProbeIdentifiesEveryVendor(t *testing.T) {
	n, addrs := buildNet(t)
	for vendor, addr := range addrs {
		res := Probe(n, addr)
		if res.Vendor != vendor {
			t.Errorf("vendor %s: labeled %q (banners: %v)", vendor, res.Vendor, res.Banners)
		}
		if len(res.OpenPorts) == 0 {
			t.Errorf("vendor %s: no open ports", vendor)
		}
		if !res.HasBannerProtocol() {
			t.Errorf("vendor %s: no banner protocol seen", vendor)
		}
	}
}

func TestProbeUnknownAddress(t *testing.T) {
	n, _ := buildNet(t)
	res := Probe(n, netip.MustParseAddr("203.0.113.99"))
	if len(res.OpenPorts) != 0 || res.Vendor != "" {
		t.Errorf("unknown address: %+v", res)
	}
	if res.HasBannerProtocol() {
		t.Error("no banners should be present")
	}
}

func TestProbeAddressedDeviceWithoutServices(t *testing.T) {
	g := topology.NewGraph()
	as := g.AddAS(1, "Net", "RU")
	r0 := g.AddRouter("r0", as)
	r1 := g.AddRouter("r1", as)
	g.Link("r0", "r1")
	_ = r0
	n := simnet.New(g)
	dev := middlebox.NewDevice("d", middlebox.VendorUnknownDrop, nil, r1.Addr)
	n.AttachDevice("r0", "r1", dev)
	res := Probe(n, r1.Addr)
	if len(res.OpenPorts) != 0 || res.Vendor != "" {
		t.Errorf("unknown-drop device should expose nothing: %+v", res)
	}
}

func TestProbeEndpointServer(t *testing.T) {
	g := topology.NewGraph()
	as := g.AddAS(1, "Net", "BY")
	r := g.AddRouter("r", as)
	h := g.AddHost("web", as, r)
	n := simnet.New(g)
	n.RegisterServer("web", endpoint.NewServer("site.example"))
	res := Probe(n, h.Addr)
	if res.Vendor != "" {
		t.Errorf("plain web server labeled as %q", res.Vendor)
	}
	has80 := false
	for _, p := range res.OpenPorts {
		if p == 80 {
			has80 = true
		}
	}
	if !has80 {
		t.Errorf("open ports = %v, want 80", res.OpenPorts)
	}
}

func TestProbeAllAndSummarize(t *testing.T) {
	n, addrs := buildNet(t)
	var list []netip.Addr
	for _, a := range addrs {
		list = append(list, a)
	}
	list = append(list, netip.MustParseAddr("203.0.113.99")) // nothing there
	results := ProbeAllOpt(n, list, Opts{})
	if len(results) != len(list) {
		t.Fatalf("results = %d, want %d", len(results), len(list))
	}
	s := Summarize(results)
	if s.Probed != 8 || s.WithOpenPorts != 7 || s.Labeled != 7 {
		t.Errorf("summary = %+v", s)
	}
	if s.VendorCounts["Fortinet"] != 1 || s.VendorCounts["Cisco"] != 1 {
		t.Errorf("vendor counts = %v", s.VendorCounts)
	}
}

func TestProtocolForPort(t *testing.T) {
	cases := map[int]string{
		21: "ftp", 22: "ssh", 23: "telnet", 25: "smtp", 161: "snmp",
		80: "http", 443: "https", 8443: "https", 9999: "tcp",
	}
	for port, want := range cases {
		if got := ProtocolForPort(port); got != want {
			t.Errorf("ProtocolForPort(%d) = %q, want %q", port, got, want)
		}
	}
}

func TestFingerprintsCoverAllServiceVendors(t *testing.T) {
	// Every commercial vendor profile with services must be identifiable
	// from at least one of its banners.
	for vendor, p := range middlebox.Profiles {
		if len(p.Services) == 0 {
			continue
		}
		matched := false
		for _, banner := range p.Services {
			for _, fp := range Fingerprints {
				if fp.Pattern.MatchString(banner) && fp.Vendor == string(vendor) {
					matched = true
				}
			}
		}
		if !matched {
			t.Errorf("vendor %s: no fingerprint matches its banners", vendor)
		}
	}
}

func TestProbePersonality(t *testing.T) {
	n, addrs := buildNet(t)
	forti := Probe(n, addrs[string(middlebox.VendorFortinet)])
	if !forti.HasPersonality {
		t.Fatal("Fortinet device should answer stack probes")
	}
	cisco := Probe(n, addrs[string(middlebox.VendorCisco)])
	if !cisco.HasPersonality {
		t.Fatal("Cisco device should answer stack probes")
	}
	if forti.Personality == cisco.Personality {
		t.Error("vendor stack personalities should differ")
	}
	if cisco.Personality.SYNACKTTL != 255 {
		t.Errorf("Cisco SYN-ACK TTL = %d, want 255", cisco.Personality.SYNACKTTL)
	}
	none := Probe(n, netip.MustParseAddr("203.0.113.99"))
	if none.HasPersonality {
		t.Error("unreachable address should answer no stack probes")
	}
}
