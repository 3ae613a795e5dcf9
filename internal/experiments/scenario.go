// Package experiments builds the simulated four-country measurement world
// (AZ, BY, KZ, RU) and provides one harness per table and figure of the
// paper. The topology, device placements, and vendor mix encode the
// paper's measured ground truth (§4.3, §5.3) at roughly 1/8 scale — see
// DESIGN.md §2 and EXPERIMENTS.md for the substitution notes:
//
//   - AZ: centralized in-path dropping at the Telia (AS1299) → Delta
//     Telecom (AS29049) border; two multihomed ISPs run their own Fortinet
//     and Palo Alto filters.
//   - BY: on-path RST injectors inside the endpoint ASes (including
//     Beltelecom AS6697); Cogent (AS174) drops bridges.torproject.org
//     before traffic enters the country.
//   - KZ: in-path dropping inside JSC-Kazakhtelecom (AS9198) upstream of
//     the AS203087 client; several endpoints route via Russian transit
//     (Megafon AS31133, Kvant-telekom AS43727) where Russian devices drop
//     first; multihomed ISPs run Kerio, Mikrotik, and Fortinet boxes.
//   - RU: decentralized devices on regional border-entry links, mixed
//     vendors and actions, including TTL-copying injectors that produce
//     "Past E"; the in-country client's domestic paths cross no devices.
package experiments

import (
	"fmt"
	"net/netip"

	"cendev/internal/centrace"
	"cendev/internal/endpoint"
	"cendev/internal/middlebox"
	"cendev/internal/netem"
	"cendev/internal/simnet"
	"cendev/internal/topology"
)

// Domains used throughout the study.
const (
	ControlDomain = "www.control.example"
	GlobalBlocked = "www.globalblocked.example"
	AZBlocked     = "www.azblocked.example"
	BYBlocked     = "www.byblocked.example"
	TorBridges    = "bridges.torproject.org"
	KZPoker       = "www.pokerstars.com"
	KZDailymotion = "www.dailymotion.com"
	RUBlocked     = "www.rublocked.example"
	RUNews        = "www.runews.example"
	// OpenNews is a domain on every country's test list that no device
	// blocks; it keeps the blocked-CT ratios below 100%, as in the paper
	// (Table 1: 42% of AZ and 28% of BY remote CTs showed blocking).
	OpenNews = "www.opennews.example"
)

// TestDomainsFor returns the per-country test domain list (the paper picks
// the most-blocked domains per country from Censored Planet data, §4.2).
func TestDomainsFor(country string) []string {
	switch country {
	case "AZ":
		return []string{GlobalBlocked, AZBlocked, OpenNews}
	case "BY":
		return []string{GlobalBlocked, BYBlocked, TorBridges, OpenNews}
	case "KZ":
		return []string{GlobalBlocked, KZPoker, KZDailymotion}
	case "RU":
		return []string{GlobalBlocked, RUBlocked, RUNews, OpenNews}
	default:
		return nil
	}
}

// Countries under study, in report order.
var Countries = []string{"AZ", "BY", "KZ", "RU"}

// EndpointInfo describes one measurement endpoint.
type EndpointInfo struct {
	Host    *topology.Host
	Country string
	ASN     uint32
	// ViaRussia marks KZ endpoints routed through Russian transit.
	ViaRussia bool
}

// Scenario is the fully built world.
type Scenario struct {
	Graph *topology.Graph
	Net   *simnet.Network
	// USClient is the remote measurement machine.
	USClient *topology.Host
	// InCountryClients maps country → vantage point (AZ, KZ, RU; the paper
	// had no BY vantage point).
	InCountryClients map[string]*topology.Host
	// Endpoints are the remote measurement targets.
	Endpoints []EndpointInfo
	// Origins maps test domains to the hosts genuinely serving them (for
	// in-country circumvention measurements).
	Origins map[string]*topology.Host
	// Devices lists every censorship device with its deployment context.
	Devices []DeviceDeployment
	// Guarded marks endpoint host IDs that carry an endpoint-side ("At E")
	// guard device.
	Guarded map[string]bool
	// DNSResolver is the Russian public resolver behind the DNS injector
	// (the §8 extension deployment).
	DNSResolver *topology.Host
}

// DeviceDeployment records where a device was placed.
type DeviceDeployment struct {
	Device  *middlebox.Device
	Country string
	ASN     uint32
}

// EndpointsIn returns the endpoints in a country.
func (s *Scenario) EndpointsIn(country string) []EndpointInfo {
	var out []EndpointInfo
	for _, e := range s.Endpoints {
		if e.Country == country {
			out = append(out, e)
		}
	}
	return out
}

// CampaignTargets is the full CenTrace campaign of the remote vantage
// point: every endpoint × its country's test domains × {HTTP, HTTPS}, in
// that order, each labelled with the endpoint's country. centrace -all
// and censerved's campaign job both measure it.
func (s *Scenario) CampaignTargets() []centrace.Target {
	var targets []centrace.Target
	for _, e := range s.Endpoints {
		for _, domain := range TestDomainsFor(e.Country) {
			for _, proto := range []centrace.Protocol{centrace.HTTP, centrace.HTTPS} {
				targets = append(targets, centrace.Target{
					Endpoint: e.Host, Domain: domain, Protocol: proto, Label: e.Country,
				})
			}
		}
	}
	return targets
}

// regionCounts control the world scale (~1/8 of the paper's endpoint
// counts; see EXPERIMENTS.md).
const (
	azISPs       = 6
	byISPs       = 8
	kzCoreISPs   = 5 // behind JSC-Kazakhtelecom
	kzViaRussia  = 3 // behind Russian transit
	ruRegions    = 32
	ruFiltered   = 15
	perISPHosts  = 2
	azFortinetIx = 4 // multihomed AZ ISP index with a Fortinet box
	azPaloAltoIx = 5 // multihomed AZ ISP index with a Palo Alto box
)

// BuildWorld constructs the full four-country scenario.
func BuildWorld() *Scenario {
	g := topology.NewGraph()
	s := &Scenario{
		Graph:            g,
		InCountryClients: map[string]*topology.Host{},
		Origins:          map[string]*topology.Host{},
	}

	// --- Global transit and measurement infrastructure ---
	asUS := g.AddAS(396982, "MeasurementNet", "US")
	asTelia := g.AddAS(1299, "Telia", "SE")
	asCogent := g.AddAS(174, "COGENT", "US")
	asContent := g.AddAS(13335, "ContentNet", "US")

	usR := g.AddRouter("us-cli-r", asUS)
	telia1 := g.AddRouter("telia1", asTelia)
	telia2 := g.AddRouter("telia2", asTelia)
	cogent1 := g.AddRouter("cogent1", asCogent)
	cogent2 := g.AddRouter("cogent2", asCogent)
	contentR := g.AddRouter("content-r", asContent)
	g.Link("us-cli-r", "telia1")
	g.Link("us-cli-r", "cogent1")
	g.Link("telia1", "telia2")
	g.Link("cogent1", "cogent2")
	g.Link("telia1", "content-r")
	_ = telia1
	_ = cogent1

	s.USClient = g.AddHost("us-client", asUS, usR)

	// RFC 1812-style quoting on a share of routers so quote features vary
	// (§4.3: 57.6% of quotes carried only the RFC 792 minimum).
	telia2.QuoteLen = 128
	cogent2.QuoteLen = 128

	// --- Content origins (for in-country circumvention measurements) ---
	n := buildCountries(g, s, telia2, cogent2)

	// Origin servers: the "real" web servers of the test domains.
	origins := []struct {
		id      string
		domains []string
		padding bool
		wild    bool
	}{
		{"origin-global", []string{GlobalBlocked}, false, false},
		{"origin-poker", []string{KZPoker}, true, false},
		{"origin-daily", []string{KZDailymotion}, false, true},
		{"origin-misc", []string{AZBlocked, BYBlocked, RUBlocked, RUNews, TorBridges, OpenNews, ControlDomain}, false, false},
	}
	for _, o := range origins {
		h := g.AddHost(o.id, g.AS(13335), contentR)
		srv := endpoint.NewServer(append([]string{ControlDomain}, o.domains...)...)
		srv.TolerantPadding = o.padding
		srv.WildcardSubdomains = o.wild
		n.RegisterServer(o.id, srv)
		for _, d := range o.domains {
			s.Origins[d] = h
		}
	}
	// The RU public resolver serves the genuine addresses of every study
	// domain; the on-path injector in front of it forges answers for the
	// blocked ones (§8 extension).
	if s.DNSResolver != nil {
		zone := map[string]netip.Addr{}
		for domain, h := range s.Origins {
			zone[domain] = h.Addr
		}
		n.RegisterResolver(s.DNSResolver.ID, endpoint.NewResolver(zone))
	}
	return s
}

// buildCountries wires the four countries into the graph and returns the
// network with all devices attached.
func buildCountries(g *topology.Graph, s *Scenario, telia2, cogent2 *topology.Router) *simnet.Network {
	// The network must exist before devices attach; but routers/hosts can
	// be added to the graph afterwards only if simnet indexes them. Build
	// graph first, then network, then attach. To keep this simple we add
	// everything to the graph here and construct the network at the end.
	type attach struct {
		from, to string
		dev      *middlebox.Device
		country  string
		asn      uint32
	}
	var attaches []attach
	addDevice := func(from, to string, dev *middlebox.Device, country string, asn uint32) {
		attaches = append(attaches, attach{from, to, dev, country, asn})
	}

	// =================== Azerbaijan ===================
	asDelta := g.AddAS(29049, "Delta Telecom", "AZ")
	azBorder := g.AddRouter("az-border", asDelta)
	azCore := g.AddRouter("az-core", asDelta)
	g.Link("telia2", "az-border")
	g.Link("az-border", "az-core")
	azCliR := g.AddRouter("az-cli-r", asDelta)
	g.Link("az-cli-r", "az-core")
	s.InCountryClients["AZ"] = g.AddHost("az-client", asDelta, azCliR)

	azRules := []string{GlobalBlocked, AZBlocked}
	// Central Delta Telecom filter, as seen by remote measurements: drops
	// on the Telia → Delta link (§4.3, Figure 10). The Delta operator's
	// configuration triggers only on GET and POST — per-deployment config
	// differences like this are what let clustering separate deployments
	// of the same product (§7.4).
	azCentralRemote := middlebox.NewDevice("az-central-remote", middlebox.VendorCisco, azRules, azBorder.Addr)
	azCentralRemote.Quirks.HTTP.MethodAllowlist = []string{"GET", "POST"}
	addDevice("telia2", "az-border", azCentralRemote, "AZ", 29049)
	// The same system as seen from the in-country client (2 hops away).
	azCentralIn := middlebox.NewDevice("az-central-in", middlebox.VendorCisco, azRules, azCore.Addr)
	azCentralIn.Quirks.HTTP.MethodAllowlist = []string{"GET", "POST"}
	addDevice("az-cli-r", "az-core", azCentralIn, "AZ", 29049)

	for i := 0; i < azISPs; i++ {
		asn := uint32(57000 + i)
		as := g.AddAS(asn, fmt.Sprintf("AZ-ISP-%d", i+1), "AZ")
		rid := fmt.Sprintf("az-isp%dr", i)
		r := g.AddRouter(rid, as)
		switch i {
		case azFortinetIx:
			// Multihomed ISP with its own Fortinet filter on the direct
			// Telia uplink; this operator enabled strict delimiter checks.
			g.Link("telia2", rid)
			azFort := middlebox.NewDevice("az-fortinet", middlebox.VendorFortinet, azRules, r.Addr)
			azFort.Quirks.HTTP.RequireCanonicalDelimiters = true
			addDevice("telia2", rid, azFort, "AZ", asn)
		case azPaloAltoIx:
			// This operator's TLS inspection also covers TLS 1.0 hellos.
			g.Link("cogent2", rid)
			azPA := middlebox.NewDevice("az-paloalto", middlebox.VendorPaloAlto, azRules, r.Addr)
			azPA.Quirks.TLS.ParseVersionMin = 0
			addDevice("cogent2", rid, azPA, "AZ", asn)
		default:
			g.Link("az-core", rid)
		}
		for j := 0; j < perISPHosts; j++ {
			hid := fmt.Sprintf("az-ep-%d-%d", i, j)
			h := g.AddHost(hid, as, r)
			s.Endpoints = append(s.Endpoints, EndpointInfo{Host: h, Country: "AZ", ASN: asn})
		}
	}

	// =================== Belarus ===================
	asBeltelecom := g.AddAS(6697, "Beltelecom", "BY")
	g.AddRouter("by-bdr", asBeltelecom)
	g.AddRouter("by-core", asBeltelecom)
	g.Link("cogent2", "by-bdr")
	g.Link("by-bdr", "by-core")
	// Cogent drops the Tor bridges domain before traffic enters BY (§4.3).
	addDevice("cogent1", "cogent2",
		middlebox.NewDevice("cogent-tor-drop", middlebox.VendorUnknownDrop, []string{TorBridges}, netip.Addr{}), "US", 174)

	byRules := []string{GlobalBlocked, BYBlocked}
	for i := 0; i < byISPs; i++ {
		var as *topology.AS
		asn := uint32(25000 + i)
		if i == 0 {
			// The first "ISP" is Beltelecom itself: devices in AS6697.
			as = asBeltelecom
			asn = 6697
		} else {
			as = g.AddAS(asn, fmt.Sprintf("BY-ISP-%d", i+1), "BY")
		}
		rid := fmt.Sprintf("by-isp%dr", i)
		g.AddRouter(rid, as)
		g.Link("by-core", rid)
		if i != byISPs-1 {
			// On-path RST injector inside the endpoint AS; the last ISP is
			// unfiltered (§4.3: 91.80% of BY endpoints fail in the
			// endpoint AS).
			addDevice("by-core", rid,
				middlebox.NewDevice(fmt.Sprintf("by-rst-%d", i), middlebox.VendorUnknownRST, byRules, netip.Addr{}), "BY", asn)
		}
		for j := 0; j < perISPHosts; j++ {
			hid := fmt.Sprintf("by-ep-%d-%d", i, j)
			h := g.AddHost(hid, as, g.Router(rid))
			s.Endpoints = append(s.Endpoints, EndpointInfo{Host: h, Country: "BY", ASN: asn})
		}
	}

	// =================== Kazakhstan ===================
	asKT := g.AddAS(9198, "JSC-Kazakhtelecom", "KZ")
	g.AddRouter("kz-border", asKT)
	kzCore := g.AddRouter("kz-core", asKT)
	g.Link("telia2", "kz-border")
	g.Link("kz-border", "kz-core")

	asHosting := g.AddAS(203087, "KZ-Hosting", "KZ")
	kzCliR := g.AddRouter("kz-cli-r", asHosting)
	g.AddRouter("kz-agg", asHosting)
	g.Link("kz-cli-r", "kz-agg")
	g.Link("kz-agg", "kz-core")
	s.InCountryClients["KZ"] = g.AddHost("kz-client", asHosting, kzCliR)

	kzRules := []string{GlobalBlocked, KZPoker, KZDailymotion}
	// Kazakhtelecom's central filter: remote path (inside AS9198) and the
	// in-country path (3 hops from the AS203087 client), §4.3 / Figure 1.
	// This operator's configuration blocks every path, not only "/".
	kzCentralRemote := middlebox.NewDevice("kz-central-remote", middlebox.VendorCisco, kzRules, kzCore.Addr)
	kzCentralRemote.Quirks.PathSensitive = false
	addDevice("kz-border", "kz-core", kzCentralRemote, "KZ", 9198)
	kzCentralIn := middlebox.NewDevice("kz-central-in", middlebox.VendorCisco, kzRules, kzCore.Addr)
	kzCentralIn.Quirks.PathSensitive = false
	addDevice("kz-agg", "kz-core", kzCentralIn, "KZ", 9198)

	// ISPs behind Kazakhtelecom.
	for i := 0; i < kzCoreISPs; i++ {
		asn := uint32(48000 + i)
		as := g.AddAS(asn, fmt.Sprintf("KZ-ISP-%d", i+1), "KZ")
		rid := fmt.Sprintf("kz-isp%dr", i)
		g.AddRouter(rid, as)
		g.Link("kz-core", rid)
		for j := 0; j < perISPHosts; j++ {
			hid := fmt.Sprintf("kz-ep-%d-%d", i, j)
			h := g.AddHost(hid, as, g.Router(rid))
			s.Endpoints = append(s.Endpoints, EndpointInfo{Host: h, Country: "KZ", ASN: asn})
		}
	}

	// Russian transit into KZ: Megafon and Kvant-telekom carry a share of
	// KZ endpoints, and Russian devices there drop first (§4.3: "remote
	// censorship measurements to a certain country may be affected by
	// censorship policies in a different country").
	asMegafon := g.AddAS(31133, "PJSC Megafon", "RU")
	asKvant := g.AddAS(43727, "JSC Kvant-telekom", "RU")
	g.AddRouter("megafon1", asMegafon)
	mega2 := g.AddRouter("megafon2", asMegafon)
	g.AddRouter("kvant1", asKvant)
	kvant2 := g.AddRouter("kvant2", asKvant)
	g.Link("telia2", "megafon1")
	g.Link("megafon1", "megafon2")
	g.Link("cogent2", "kvant1")
	g.Link("kvant1", "kvant2")
	ruTransitRules := []string{GlobalBlocked, KZPoker, RUBlocked}
	addDevice("megafon1", "megafon2",
		middlebox.NewDevice("ru-megafon-drop", middlebox.VendorUnknownDrop, ruTransitRules, mega2.Addr), "RU", 31133)
	addDevice("kvant1", "kvant2",
		middlebox.NewDevice("ru-kvant-drop", middlebox.VendorUnknownDrop, ruTransitRules, kvant2.Addr), "RU", 43727)

	for i := 0; i < kzViaRussia; i++ {
		asn := uint32(48100 + i)
		as := g.AddAS(asn, fmt.Sprintf("KZ-RUISP-%d", i+1), "KZ")
		rid := fmt.Sprintf("kz-ruisp%dr", i)
		g.AddRouter(rid, as)
		if i%2 == 0 {
			g.Link("megafon2", rid)
		} else {
			g.Link("kvant2", rid)
		}
		for j := 0; j < perISPHosts; j++ {
			hid := fmt.Sprintf("kz-ruep-%d-%d", i, j)
			h := g.AddHost(hid, as, g.Router(rid))
			s.Endpoints = append(s.Endpoints, EndpointInfo{Host: h, Country: "KZ", ASN: asn, ViaRussia: true})
		}
	}

	// Multihomed KZ ISPs with their own commercial filters (§5.3: Kerio
	// Control ×2, Mikrotik, Fortinet in KZ).
	kzMulti := []struct {
		name   string
		vendor middlebox.Vendor
	}{
		{"kz-kerio-1", middlebox.VendorKerio},
		{"kz-kerio-2", middlebox.VendorKerio},
		{"kz-mikrotik", middlebox.VendorMikrotik},
		{"kz-fortinet", middlebox.VendorFortinet},
	}
	for i, m := range kzMulti {
		asn := uint32(48200 + i)
		as := g.AddAS(asn, fmt.Sprintf("KZ-MH-%d", i+1), "KZ")
		rid := fmt.Sprintf("kz-mh%dr", i)
		r := g.AddRouter(rid, as)
		g.Link("telia2", rid)
		dev := middlebox.NewDevice(m.name, m.vendor, kzRules, r.Addr)
		if m.vendor == middlebox.VendorFortinet {
			// The KZ Fortinet operator additionally blocks PUT requests.
			dev.Quirks.HTTP.MethodAllowlist = []string{"GET", "POST", "PUT"}
		}
		addDevice("telia2", rid, dev, "KZ", asn)
		for j := 0; j < perISPHosts; j++ {
			hid := fmt.Sprintf("kz-mhep-%d-%d", i, j)
			h := g.AddHost(hid, as, r)
			s.Endpoints = append(s.Endpoints, EndpointInfo{Host: h, Country: "KZ", ASN: asn})
		}
	}

	// =================== Russia ===================
	asRostelecom := g.AddAS(12389, "Rostelecom", "RU")
	g.AddRouter("ru-bdr", asRostelecom)
	g.AddRouter("ru-core", asRostelecom)
	g.Link("telia2", "ru-bdr")
	g.Link("cogent2", "ru-bdr")
	g.Link("ru-bdr", "ru-core")

	ruCliR := g.AddRouter("ru-cli-r", asRostelecom)
	g.Link("ru-cli-r", "ru-core")
	s.InCountryClients["RU"] = g.AddHost("ru-client", asRostelecom, ruCliR)

	// Vendor mix for the filtered regions (§5.3's RU labels plus the
	// unlabeled TTL-copying class of §4.3).
	ruVendors := []middlebox.Vendor{
		middlebox.VendorCisco, middlebox.VendorCisco, middlebox.VendorCisco,
		middlebox.VendorFortinet, middlebox.VendorFortinet, middlebox.VendorFortinet,
		middlebox.VendorPaloAlto, middlebox.VendorDDoSGuard, middlebox.VendorKaspersky,
		middlebox.VendorUnknownCopyTTL, middlebox.VendorUnknownCopyTTL,
		middlebox.VendorUnknownDrop,
		// Region 12's routers stay silent, producing the paper's single
		// "No ICMP" ambiguity (§4.3 found exactly one such traceroute).
		middlebox.VendorUnknownRST,
		// Sandvine PacketLogic (the paper's [1]: "Sandvine fosters Russian
		// censorship infrastructure") stays unlabeled in banner scans;
		// Netsweeper is identifiable from its deny page alone.
		middlebox.VendorSandvine,
		middlebox.VendorNetsweeper,
	}
	ruRules := []string{RUBlocked}
	const (
		ruSilentRegion = 12
		ruDNSRegion    = 20 // unfiltered for TCP; hosts the DNS injector + resolver
	)
	for i := 0; i < ruRegions; i++ {
		asn := uint32(42000 + i)
		as := g.AddAS(asn, fmt.Sprintf("RU-REG-%d", i+1), "RU")
		entry := fmt.Sprintf("ru-entry%dr", i)
		reg := fmt.Sprintf("ru-reg%dr", i)
		g.AddRouter(entry, as)
		regR := g.AddRouter(reg, as)
		g.Link("ru-bdr", entry)
		g.Link(entry, reg)
		// Domestic mesh: regions reachable from the in-country client via
		// ru-core without crossing the entry links. The extra ru-dom hop
		// keeps the domestic path longer than the entry path, so remote
		// traffic never ECMPs around the border devices.
		dom := fmt.Sprintf("ru-dom%dr", i)
		g.AddRouter(dom, as)
		g.Link("ru-core", dom)
		g.Link(dom, reg)
		if i < ruFiltered {
			vendor := ruVendors[i]
			dev := middlebox.NewDevice(fmt.Sprintf("ru-dev-%d", i), vendor, ruRules, regR.Addr)
			if vendor == middlebox.VendorUnknownCopyTTL || vendor == middlebox.VendorUnknownRST {
				dev.Addr = netip.Addr{} // injectors without probeable addresses
			}
			addDevice(entry, reg, dev, "RU", asn)
		}
		if i == ruSilentRegion {
			g.Router(entry).SendsICMP = false
			g.Router(reg).SendsICMP = false
		}
		if i == ruDNSRegion {
			// The §8 DNS extension deployment: an on-path injector in
			// front of a public resolver, forging answers for the RU
			// blocklist.
			inj := middlebox.NewDevice("ru-dns-injector", middlebox.VendorDNSInjector,
				[]string{RUBlocked, GlobalBlocked}, netip.Addr{})
			addDevice(entry, reg, inj, "RU", asn)
			s.DNSResolver = g.AddHost("ru-resolver", as, regR)
		}
		for j := 0; j < perISPHosts; j++ {
			hid := fmt.Sprintf("ru-ep-%d-%d", i, j)
			h := g.AddHost(hid, as, regR)
			s.Endpoints = append(s.Endpoints, EndpointInfo{Host: h, Country: "RU", ASN: asn})
		}
	}

	// =================== Router quirks ===================
	// A share of border routers rewrite the IP TOS byte of forwarded
	// packets, and one sets IP flags — visible in downstream ICMP quotes
	// (§4.3: 32.06% of quoted packets differed in TOS; one in IP flags).
	tosRU := uint8(0x28)
	g.Router("ru-bdr").RewriteTOS = &tosRU
	tosKZ := uint8(0x48)
	g.Router("kz-border").RewriteTOS = &tosKZ
	dfFlag := uint8(netem.IPFlagDF)
	g.Router("by-bdr").SetIPFlags = &dfFlag
	// Core and border routers quote generously (RFC 1812); access routers
	// keep the RFC 792 minimum.
	for _, id := range []string{"ru-bdr", "ru-core", "kz-border", "kz-core", "by-bdr", "by-core", "az-border", "az-core", "megafon1", "kvant1"} {
		g.Router(id).QuoteLen = 128
	}

	// =================== Wire it up ===================
	n := simnet.New(g)
	s.Net = n
	for _, a := range attaches {
		n.AttachDevice(a.from, a.to, a.dev)
		s.Devices = append(s.Devices, DeviceDeployment{Device: a.dev, Country: a.country, ASN: a.asn})
	}
	// Every endpoint serves the control domain (infrastructural servers).
	for _, e := range s.Endpoints {
		n.RegisterServer(e.Host.ID, endpoint.NewServer(ControlDomain))
	}
	// A handful of endpoint-side guards produce the "At E" class (§4.3:
	// 16.19% of traceroutes terminate at the endpoint IP itself).
	guardEvery := 7
	s.Guarded = map[string]bool{}
	for i, e := range s.Endpoints {
		if i%guardEvery == 3 {
			var guardRules []string
			for _, d := range TestDomainsFor(e.Country) {
				if d != OpenNews {
					guardRules = append(guardRules, d)
				}
			}
			guard := middlebox.NewDevice("guard-"+e.Host.ID, middlebox.VendorUnknownDrop,
				guardRules, netip.Addr{})
			n.AttachGuard(e.Host.ID, guard)
			s.Devices = append(s.Devices, DeviceDeployment{Device: guard, Country: e.Country, ASN: e.ASN})
			s.Guarded[e.Host.ID] = true
		}
	}
	return n
}
