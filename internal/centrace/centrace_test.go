package centrace

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"

	"cendev/internal/endpoint"
	"cendev/internal/faults"
	"cendev/internal/httpgram"
	"cendev/internal/middlebox"
	"cendev/internal/netem"
	"cendev/internal/simnet"
	"cendev/internal/tlsgram"
	"cendev/internal/topology"
)

const (
	blockedDomain = "www.blocked.example"
	controlDomain = "www.control.example"
)

// buildNet creates client—r1—r2—r3—r4—server with a server hosting both
// domains, and returns the network plus hosts.
func buildNet(t *testing.T) (*simnet.Network, *topology.Host, *topology.Host) {
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
	n := simnet.New(g)
	n.RegisterServer("server", endpoint.NewServer(blockedDomain, controlDomain))
	return n, client, server
}

func cfg() Config {
	return Config{
		ControlDomain: controlDomain,
		TestDomain:    blockedDomain,
		Repetitions:   3, // enough for modal stats on a deterministic path
	}
}

// TestPayloadMemoKeyedByProtocol: a campaign worker's prober measures a
// domain over HTTP and over HTTPS, so its payload memo must key on the
// protocol as well as the domain. Retargeted from HTTP to HTTPS and back,
// the prober must render a ClientHello naming the domain, then a GET for
// it again.
func TestPayloadMemoKeyedByProtocol(t *testing.T) {
	n, client, server := buildNet(t)
	p := New(n, client, server, cfg())
	for step, proto := range []Protocol{HTTP, HTTPS, HTTP} {
		c := cfg()
		c.Protocol = proto
		p.retarget(server, c)
		payload := p.payloadFor(blockedDomain)
		if proto == HTTPS {
			ch, err := tlsgram.Parse(payload)
			if err != nil {
				t.Fatalf("step %d: HTTPS payload is not a ClientHello: %v (%q)", step, err, payload)
			}
			if sni, _ := ch.SNI(); sni != blockedDomain {
				t.Fatalf("step %d: ClientHello SNI = %q, want %q", step, sni, blockedDomain)
			}
			continue
		}
		req := httpgram.Parse(payload)
		if req.Method != "GET" || req.Host != blockedDomain || len(req.Violations) > 0 {
			t.Fatalf("step %d: HTTP payload is %s %q with violations %v, want a GET for %s",
				step, req.Method, req.Host, req.Violations, blockedDomain)
		}
	}
}

func TestUnblockedMeasurement(t *testing.T) {
	n, client, server := buildNet(t)
	res := New(n, client, server, cfg()).Run()
	if !res.Valid {
		t.Fatal("control should reach the endpoint")
	}
	if res.Blocked {
		t.Errorf("no devices, but Blocked: term=%s ttl=%d", res.TermKind, res.TermTTL)
	}
	if res.EndpointTTL != 5 {
		t.Errorf("EndpointTTL = %d, want 5", res.EndpointTTL)
	}
	if res.TermKind != KindData {
		t.Errorf("TermKind = %s, want HTTP data", res.TermKind)
	}
}

func TestInPathDropLocalized(t *testing.T) {
	n, client, server := buildNet(t)
	dev := middlebox.NewDevice("d", middlebox.VendorCisco, []string{blockedDomain}, n.Graph.Router("r3").Addr)
	n.AttachDevice("r2", "r3", dev)

	res := New(n, client, server, cfg()).Run()
	if !res.Blocked {
		t.Fatal("want blocked")
	}
	if res.TermKind != KindTimeout {
		t.Errorf("TermKind = %s, want TIMEOUT", res.TermKind)
	}
	if res.DeviceTTL != 3 {
		t.Errorf("DeviceTTL = %d, want 3", res.DeviceTTL)
	}
	if res.Placement != PlacementInPath {
		t.Errorf("Placement = %s, want in-path", res.Placement)
	}
	if res.Location != LocPath {
		t.Errorf("Location = %s, want Path(C->E)", res.Location)
	}
	if res.BlockingHop.Addr != n.Graph.Router("r3").Addr {
		t.Errorf("BlockingHop = %s, want r3 (%s)", res.BlockingHop, n.Graph.Router("r3").Addr)
	}
	if res.BlockingHop.ASN != 200 || res.BlockingHop.Country != "DE" {
		t.Errorf("BlockingHop metadata = %+v", res.BlockingHop)
	}
}

func TestInPathRSTLocalized(t *testing.T) {
	n, client, server := buildNet(t)
	dev := middlebox.NewDevice("d", middlebox.VendorDDoSGuard, []string{blockedDomain}, n.Graph.Router("r3").Addr)
	n.AttachDevice("r2", "r3", dev)

	res := New(n, client, server, cfg()).Run()
	if !res.Blocked || res.TermKind != KindRST {
		t.Fatalf("blocked=%v term=%s, want blocked RST", res.Blocked, res.TermKind)
	}
	if res.Placement != PlacementInPath {
		t.Errorf("Placement = %s, want in-path", res.Placement)
	}
	if res.DeviceTTL != 3 {
		t.Errorf("DeviceTTL = %d, want 3", res.DeviceTTL)
	}
	if res.Injected == nil {
		t.Fatal("injected features missing")
	}
	if res.Injected.TCPWindow != 0 {
		t.Errorf("injected window = %d, want DDoSGuard profile 0", res.Injected.TCPWindow)
	}
}

func TestOnPathDetection(t *testing.T) {
	n, client, server := buildNet(t)
	dev := middlebox.NewDevice("d", middlebox.VendorUnknownRST, []string{blockedDomain}, netip.Addr{})
	n.AttachDevice("r2", "r3", dev)

	res := New(n, client, server, cfg()).Run()
	if !res.Blocked || res.TermKind != KindRST {
		t.Fatalf("blocked=%v term=%s, want blocked RST", res.Blocked, res.TermKind)
	}
	if res.Placement != PlacementOnPath {
		t.Errorf("Placement = %s, want on-path (Figure 2(D))", res.Placement)
	}
}

func TestAtEndpointGuard(t *testing.T) {
	n, client, server := buildNet(t)
	guard := middlebox.NewDevice("g", middlebox.VendorUnknownDrop, []string{blockedDomain}, netip.Addr{})
	n.AttachGuard("server", guard)

	res := New(n, client, server, cfg()).Run()
	if !res.Blocked {
		t.Fatal("want blocked")
	}
	if res.Location != LocAtE {
		t.Errorf("Location = %s, want At E", res.Location)
	}
	if res.BlockingHop.Addr != server.Addr {
		t.Errorf("BlockingHop = %s, want endpoint address", res.BlockingHop)
	}
}

func TestPastEWithTTLCopyCorrection(t *testing.T) {
	n, client, server := buildNet(t)
	dev := middlebox.NewDevice("d", middlebox.VendorUnknownCopyTTL, []string{blockedDomain}, netip.Addr{})
	n.AttachDevice("r3", "r4", dev) // hop distance 4; first RST arrives at TTL 7

	res := New(n, client, server, cfg()).Run()
	if !res.Blocked || res.TermKind != KindRST {
		t.Fatalf("blocked=%v term=%s, want blocked RST", res.Blocked, res.TermKind)
	}
	if res.TermTTL != 7 {
		t.Errorf("TermTTL = %d, want 7 (≈ twice the device distance)", res.TermTTL)
	}
	if res.Location != LocPastE {
		t.Errorf("Location = %s, want Past E", res.Location)
	}
	if !res.TTLCopyCorrected {
		t.Error("TTL-copy correction not applied")
	}
	if res.DeviceTTL != 4 {
		t.Errorf("corrected DeviceTTL = %d, want 4", res.DeviceTTL)
	}
	if res.BlockingHop.Addr != n.Graph.Router("r4").Addr {
		t.Errorf("BlockingHop = %s, want r4", res.BlockingHop)
	}
	if res.Injected == nil || res.Injected.TTL != 1 {
		t.Errorf("injected TTL = %+v, want 1 (§4.3)", res.Injected)
	}
}

func TestBlockpageAttribution(t *testing.T) {
	n, client, server := buildNet(t)
	dev := middlebox.NewDevice("d", middlebox.VendorFortinet, []string{blockedDomain}, n.Graph.Router("r2").Addr)
	n.AttachDevice("r1", "r2", dev)

	res := New(n, client, server, cfg()).Run()
	if !res.Blocked {
		t.Fatal("want blocked")
	}
	if res.TermKind != KindData {
		t.Errorf("TermKind = %s, want HTTP (injected blockpage)", res.TermKind)
	}
	if res.BlockpageVendor != "Fortinet" {
		t.Errorf("BlockpageVendor = %q", res.BlockpageVendor)
	}
	if res.DeviceTTL != 2 {
		t.Errorf("DeviceTTL = %d, want 2", res.DeviceTTL)
	}
}

func TestNormalErrorResponseNotBlocked(t *testing.T) {
	// A 403 from the real endpoint (vhost mismatch) must NOT count as
	// blocking: the conservative definition accepts only known blockpages.
	n, client, server := buildNet(t)
	c := cfg()
	c.TestDomain = "www.not-hosted.example" // endpoint will 403 it
	res := New(n, client, server, c).Run()
	if res.Blocked {
		t.Errorf("endpoint 403 misclassified as censorship (term=%s)", res.TermKind)
	}
}

func TestNoICMPCase(t *testing.T) {
	n, client, server := buildNet(t)
	n.Graph.Router("r3").SendsICMP = false
	n.Graph.Router("r4").SendsICMP = false
	dev := middlebox.NewDevice("d", middlebox.VendorDDoSGuard, []string{blockedDomain}, netip.Addr{})
	n.AttachDevice("r3", "r4", dev)

	res := New(n, client, server, cfg()).Run()
	if !res.Blocked || res.TermKind != KindRST {
		t.Fatalf("blocked=%v term=%s", res.Blocked, res.TermKind)
	}
	if res.Location != LocNoICMP {
		t.Errorf("Location = %s, want No ICMP", res.Location)
	}
}

func TestQuoteDeltaAtBlockingHop(t *testing.T) {
	n, client, server := buildNet(t)
	tos := uint8(0x48)
	n.Graph.Router("r2").RewriteTOS = &tos
	n.Graph.Router("r3").QuoteLen = 128
	dev := middlebox.NewDevice("d", middlebox.VendorCisco, []string{blockedDomain}, n.Graph.Router("r3").Addr)
	n.AttachDevice("r2", "r3", dev)

	res := New(n, client, server, cfg()).Run()
	if res.QuoteDelta == nil {
		t.Fatal("QuoteDelta missing at blocking hop")
	}
	if !res.QuoteDelta.TOSChanged {
		t.Errorf("QuoteDelta = %s, want IPTOSChanged", res.QuoteDelta)
	}
}

func TestECMPPathVarianceModalHop(t *testing.T) {
	// Diamond topology: two equal-cost transit paths, device on only one of
	// them. With 11 repetitions over fresh source ports, the modal hop
	// distribution covers both paths and the terminating stats stay modal.
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
	// Device on both transit links into r3 (country-level deployment).
	for _, from := range []string{"r2a", "r2b"} {
		dev := middlebox.NewDevice("d-"+from, middlebox.VendorCisco, []string{blockedDomain}, n.Graph.Router(from).Addr)
		n.AttachDevice(from, "r3", dev)
	}

	c := cfg()
	c.Repetitions = 11
	res := New(n, client, server, c).Run()
	if !res.Blocked || res.DeviceTTL != 3 {
		t.Fatalf("blocked=%v deviceTTL=%d, want blocked at TTL 3", res.Blocked, res.DeviceTTL)
	}
	// The hop distribution at TTL 2 must cover both ECMP branches.
	if len(res.Control.HopDist[2]) != 2 {
		t.Errorf("hop 2 distribution = %v, want both ECMP branches observed", res.Control.HopDist[2])
	}
	if _, ok := res.Control.MostLikelyHop(2); !ok {
		t.Error("modal hop at TTL 2 missing")
	}
}

func TestHTTPSProbing(t *testing.T) {
	n, client, server := buildNet(t)
	dev := middlebox.NewDevice("d", middlebox.VendorKerio, []string{blockedDomain}, n.Graph.Router("r3").Addr)
	n.AttachDevice("r2", "r3", dev)

	c := cfg()
	c.Protocol = HTTPS
	res := New(n, client, server, c).Run()
	if !res.Blocked {
		t.Fatal("SNI blocking not detected")
	}
	if res.TermKind != KindTimeout {
		t.Errorf("TermKind = %s", res.TermKind)
	}
	if res.DeviceTTL != 3 {
		t.Errorf("DeviceTTL = %d, want 3", res.DeviceTTL)
	}
	// Control TLS handshake must succeed end to end.
	if res.Control.EndpointTTL != 5 {
		t.Errorf("control TLS EndpointTTL = %d, want 5", res.Control.EndpointTTL)
	}
}

func TestResultStringsAndDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.MaxTTL != 30 || c.Repetitions != 11 || c.Retries != 3 {
		t.Errorf("defaults = %+v", c)
	}
	for k, want := range map[ResponseKind]string{
		KindTimeout: "TIMEOUT", KindICMP: "ICMP", KindRST: "RST",
		KindFIN: "FIN", KindData: "HTTP",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	for l, want := range map[LocationClass]string{
		LocPath: "Path(C->E)", LocAtE: "At E", LocPastE: "Past E",
		LocNoICMP: "No ICMP", LocUnknown: "Unknown",
	} {
		if l.String() != want {
			t.Errorf("LocationClass %d = %q, want %q", l, l.String(), want)
		}
	}
	if PlacementOnPath.String() != "on-path" || HTTP.String() != "HTTP" || HTTPS.Port() != 443 {
		t.Error("stringers broken")
	}
}

func TestRetriesAbsorbTransientLoss(t *testing.T) {
	// With 20% random loss and the default 3 retries, CenTrace should not
	// misclassify an unfiltered path as blocked (§4.1's rationale for
	// retrying timeouts).
	n, client, server := buildNet(t)
	n.SetFaults(faults.NewEngine(7).AddGlobal(faults.UniformLoss(0.2)))
	res := New(n, client, server, cfg()).Run()
	if res.Blocked {
		t.Errorf("transient loss misclassified as blocking (term=%s ttl=%d)", res.TermKind, res.TermTTL)
	}
	// Without retries, the same loss rate produces spurious timeouts in at
	// least some repetitions (we only assert the mechanism is exercised:
	// per-trace timeouts occur).
	n2, client2, server2 := buildNet(t)
	n2.SetFaults(faults.NewEngine(7).AddGlobal(faults.UniformLoss(0.2)))
	c := cfg()
	c.Retries = -1
	res2 := New(n2, client2, server2, c).Run()
	sawTimeout := false
	for _, tr := range append(res2.Control.Traces, res2.Test.Traces...) {
		for _, obs := range tr.Obs {
			if obs.Kind == KindTimeout {
				sawTimeout = true
			}
		}
	}
	if !sawTimeout {
		t.Error("retry-free run under loss should show spurious timeouts")
	}
}

func TestCampaign(t *testing.T) {
	n, client, server := buildNet(t)
	dev := middlebox.NewDevice("d", middlebox.VendorCisco, []string{blockedDomain}, n.Graph.Router("r3").Addr)
	n.AttachDevice("r2", "r3", dev)

	targets := []Target{
		{Endpoint: server, Domain: blockedDomain, Protocol: HTTP, Label: "KZ"},
		{Endpoint: server, Domain: blockedDomain, Protocol: HTTPS, Label: "KZ"},
		{Endpoint: server, Domain: "www.open-other.example", Protocol: HTTP, Label: "KZ"},
	}
	results, yields := eachCollect(&Campaign{
		Net: n, Client: client,
		Base: Config{ControlDomain: controlDomain, Repetitions: 3},
	}, targets)
	if len(results) != 3 || yields != 3 {
		t.Fatalf("results = %d yields = %d", len(results), yields)
	}
	blocked := Blocked(results)
	if len(blocked) != 2 {
		t.Fatalf("blocked = %d, want 2 (HTTP + HTTPS for the test domain)", len(blocked))
	}
	hops := BlockingHops(results)
	if len(hops) != 1 {
		t.Fatalf("blocking hops = %d, want 1 device", len(hops))
	}
	for addr, rs := range hops {
		if addr != n.Graph.Router("r3").Addr.String() || len(rs) != 2 {
			t.Errorf("hop %s has %d results", addr, len(rs))
		}
	}
	if results[0].Target.Label != "KZ" {
		t.Error("label not carried through")
	}
}

// TestObservationPayloadIsPrivateCopy pins the fix for a pooled-alias bug:
// ProbeObs.Payload used to alias the delivered packet's payload bytes —
// storage the simulation owns (pooled packets, the shared render cache) and
// is free to rewrite or hand to other measurements. The observation must
// hold a private copy: it has to survive later traffic on the same network,
// and mutating it must not bleed into the simulation's own buffers.
func TestObservationPayloadIsPrivateCopy(t *testing.T) {
	n, client, server := buildNet(t)
	res1 := New(n, client, server, cfg()).Run()
	if res1.Test.TermKind != KindData {
		t.Fatalf("setup: TermKind = %s, want data", res1.Test.TermKind)
	}
	var live, snap [][]byte
	for ti := range res1.Test.Traces {
		obs := res1.Test.Traces[ti].Obs
		for i := range obs {
			if obs[i].Kind == KindData && len(obs[i].Payload) > 0 {
				live = append(live, obs[i].Payload)
				snap = append(snap, append([]byte(nil), obs[i].Payload...))
			}
		}
	}
	if len(live) == 0 {
		t.Fatal("setup: no KindData observations recorded")
	}

	// Later traffic on the same network must not rewrite recorded
	// observations (the pool reclaims every delivered packet).
	_ = New(n, client, server, cfg()).Run()
	for i := range live {
		if !bytes.Equal(live[i], snap[i]) {
			t.Fatalf("observation payload %d rewritten by later traffic:\n got %q\nwant %q", i, live[i], snap[i])
		}
	}

	// And the reverse direction: a caller scribbling on its result must
	// not corrupt the simulation. Before the fix this trashed the shared
	// HTTP render cache, changing what later measurements received.
	for i := range live {
		for j := range live[i] {
			live[i][j] = '#'
		}
	}
	res3 := New(n, client, server, cfg()).Run()
	term := res3.Test.Traces[0].Terminating()
	if term == nil || term.Kind != KindData {
		t.Fatal("third measurement lost its data response")
	}
	if !bytes.Equal(term.Payload, snap[0]) {
		t.Fatalf("mutating a result corrupted the endpoint's response bytes:\n got %q\nwant %q", term.Payload, snap[0])
	}
}

// TestTraceIsPrivateCopy: a sweep fills the prober's scratch, so a
// returned Trace must own an exact-length copy of it. The same prober's
// next sweep, which here ends two hops earlier at an injected blockpage,
// may neither rewrite a returned observation nor share its backing array.
func TestTraceIsPrivateCopy(t *testing.T) {
	n, client, server := buildNet(t)
	dev := middlebox.NewDevice("d", middlebox.VendorFortinet, []string{blockedDomain}, n.Graph.Router("r3").Addr)
	n.AttachDevice("r2", "r3", dev)
	p := New(n, client, server, cfg())
	first := p.trace(controlDomain, nil)
	if first.Terminating() == nil || first.Terminating().Kind != KindData {
		t.Fatalf("setup: control sweep did not reach the endpoint: %+v", first)
	}
	if len(first.Obs) != cap(first.Obs) {
		t.Errorf("trace kept %d observations in a slice of capacity %d, want an exact-length copy", len(first.Obs), cap(first.Obs))
	}
	snap := append([]ProbeObs(nil), first.Obs...)
	second := p.trace(blockedDomain, nil)
	if second.Terminating() == nil || len(second.Obs) >= len(first.Obs) {
		t.Fatalf("setup: blocked sweep should end before the endpoint: %d observations", len(second.Obs))
	}
	if !reflect.DeepEqual(first.Obs, snap) {
		t.Errorf("the next sweep rewrote a returned trace:\n got %+v\nwant %+v", first.Obs, snap)
	}
	for i := range first.Obs {
		for j := range second.Obs {
			if &first.Obs[i] == &second.Obs[j] {
				t.Fatalf("observation %d of one trace is observation %d of the next: they share a backing array", i, j)
			}
		}
	}
}

// TestQuotesArePrivate: every ICMP observation decodes its quote, the
// quoted TCP header and the quote delta into storage of its own, so no two
// observations share any of them (the blocking hop's delta is read from
// one observation and handed on as the result's).
func TestQuotesArePrivate(t *testing.T) {
	n, client, server := buildNet(t)
	for _, id := range []string{"r1", "r2", "r3", "r4"} {
		n.Graph.Router(id).QuoteLen = 4096 // RFC 1812 quotes carry the full TCP header
	}
	res := New(n, client, server, cfg()).Run()
	quotes := map[*netem.QuotedPacket]bool{}
	tcps := map[*netem.TCP]bool{}
	deltas := map[*netem.QuoteDelta]bool{}
	icmp := 0
	for _, a := range []*Aggregate{res.Control, res.Test} {
		for _, tr := range a.Traces {
			for _, ob := range tr.Obs {
				if ob.Kind != KindICMP {
					continue
				}
				icmp++
				if ob.Quote == nil || ob.Quote.TCP == nil || ob.QuoteDelta == nil {
					t.Fatalf("TTL %d: ICMP observation without a decoded quote, TCP header and delta", ob.TTL)
				}
				if quotes[ob.Quote] || tcps[ob.Quote.TCP] || deltas[ob.QuoteDelta] {
					t.Fatalf("TTL %d: two ICMP observations share a quote, quoted TCP header or delta", ob.TTL)
				}
				quotes[ob.Quote], tcps[ob.Quote.TCP], deltas[ob.QuoteDelta] = true, true, true
			}
		}
	}
	if icmp < 2 {
		t.Fatalf("setup: %d ICMP observations, want several", icmp)
	}
}
