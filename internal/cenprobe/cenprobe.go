// Package cenprobe implements CenProbe, the device banner-grab pipeline
// (§5 of the paper): a port scan over commonly open ports on potential
// censorship-device IPs discovered by CenTrace, application-layer banner
// grabs on HTTP(S), SSH, Telnet, FTP, SMTP, and SNMP, and a Recog-style
// fingerprint database that labels device vendors from the banners.
package cenprobe

import (
	"net/netip"
	"regexp"
	"sort"
	"strconv"

	"cendev/internal/middlebox"
	"cendev/internal/obs"
	"cendev/internal/parallel"
	"cendev/internal/simnet"
)

// TopPorts is the representative slice of the Nmap top-1000 ports the
// scanner probes, covering the banner protocols of §5.1 plus common
// management ports of the modeled vendors.
var TopPorts = []int{
	21,   // FTP
	22,   // SSH
	23,   // Telnet
	25,   // SMTP
	53,   // DNS
	80,   // HTTP
	110,  // POP3
	143,  // IMAP
	161,  // SNMP
	443,  // HTTPS
	445,  // SMB
	587,  // submission
	993,  // IMAPS
	995,  // POP3S
	3389, // RDP
	4081, // Kerio Control admin
	8080, // HTTP alt
	8291, // MikroTik Winbox
	8443, // HTTPS alt
}

// ProtocolForPort names the application protocol scanned on a port.
func ProtocolForPort(port int) string {
	switch port {
	case 21:
		return "ftp"
	case 22:
		return "ssh"
	case 23:
		return "telnet"
	case 25, 587:
		return "smtp"
	case 161:
		return "snmp"
	case 80, 8080, 4081, 8291:
		return "http"
	case 443, 8443:
		return "https"
	default:
		return "tcp"
	}
}

// Fingerprint is one Recog-style banner fingerprint.
type Fingerprint struct {
	ID      string
	Vendor  string
	Pattern *regexp.Regexp
}

// Fingerprints is the vendor fingerprint database, built from public
// signatures of the firewall products §5.3 identified.
var Fingerprints = []Fingerprint{
	{ID: "fortinet-ssh", Vendor: "Fortinet", Pattern: regexp.MustCompile(`(?i)fortissh|fortigate|fortinet`)},
	{ID: "cisco-ssh", Vendor: "Cisco", Pattern: regexp.MustCompile(`(?i)SSH-2\.0-Cisco|User Access Verification`)},
	{ID: "kerio-control", Vendor: "Kerio Control", Pattern: regexp.MustCompile(`(?i)kerio`)},
	{ID: "paloalto-panos", Vendor: "Palo Alto", Pattern: regexp.MustCompile(`(?i)PAN-OS|PanWeb`)},
	{ID: "ddosguard-http", Vendor: "DDoSGuard", Pattern: regexp.MustCompile(`(?i)ddos-?guard`)},
	{ID: "mikrotik-ros", Vendor: "Mikrotik", Pattern: regexp.MustCompile(`(?i)ROSSSH|MikroTik|RouterOS`)},
	{ID: "kaspersky-swg", Vendor: "Kaspersky", Pattern: regexp.MustCompile(`(?i)kaspersky`)},
}

// ServiceBanner is one grabbed banner.
type ServiceBanner struct {
	Port     int
	Protocol string
	Banner   string
}

// Result is the outcome of probing one potential device IP.
type Result struct {
	Addr      netip.Addr
	OpenPorts []int
	Banners   []ServiceBanner
	// Vendor is the fingerprinted vendor label, "" when no banner matched.
	Vendor string
	// FingerprintID identifies which fingerprint matched.
	FingerprintID string
	// Personality is the Nmap-style TCP stack fingerprint, when any port
	// answered (§5.1: Nmap's crafted probes "invoke a unique and
	// potentially fingerprintable response").
	Personality    middlebox.TCPPersonality
	HasPersonality bool
}

// HasBannerProtocol reports whether any of the paper's six banner
// protocols (§5.1) was open.
func (r *Result) HasBannerProtocol() bool {
	for _, b := range r.Banners {
		switch b.Protocol {
		case "ssh", "telnet", "ftp", "smtp", "snmp", "http", "https":
			return true
		}
	}
	return false
}

// Probe scans one address: port scan over TopPorts, banner grab on each
// open port, fingerprint matching over the collected banners.
func Probe(n *simnet.Network, addr netip.Addr) *Result {
	res := &Result{Addr: addr}
	res.OpenPorts = n.OpenPorts(addr, TopPorts)
	for _, port := range res.OpenPorts {
		banner, ok := n.ProbeService(addr, port)
		if !ok {
			continue
		}
		res.Banners = append(res.Banners, ServiceBanner{
			Port:     port,
			Protocol: ProtocolForPort(port),
			Banner:   banner,
		})
	}
	res.Vendor, res.FingerprintID = matchVendor(res.Banners)
	res.Personality, res.HasPersonality = n.ProbeTCPPersonality(addr)
	if r := n.Obs(); r != nil {
		r.Counter("cenprobe_probes_total").Inc()
		r.Counter("cenprobe_open_ports_total").Add(int64(len(res.OpenPorts)))
		r.Counter("cenprobe_banners_total").Add(int64(len(res.Banners)))
		if res.Vendor != "" {
			r.Counter("cenprobe_vendor_matches_total", obs.L("vendor", res.Vendor)).Inc()
		}
	}
	return res
}

// matchVendor runs the fingerprint DB over banners, first match wins (the
// DB is ordered by specificity).
func matchVendor(banners []ServiceBanner) (vendor, id string) {
	for _, fp := range Fingerprints {
		for _, b := range banners {
			if fp.Pattern.MatchString(b.Banner) {
				return fp.Vendor, fp.ID
			}
		}
	}
	return "", ""
}

// Opts parameterizes ProbeAllOpt.
type Opts struct {
	// Workers is the parallel probe worker count; values below 1 mean one.
	Workers int
	// Tracer, when non-nil, records a scan span with one child per address,
	// stamped with the network's virtual clock.
	Tracer *obs.Tracer
	// Parent, when non-nil, is the span the scan nests under (ignored
	// without a Tracer).
	Parent *obs.Span
}

// ProbeAllOpt probes a set of addresses across a pool of workers and
// returns results in address order. Banner grabs resolve against the
// device and server registries without walking packets (see the package
// fidelity notes), so every probe is a pure read — workers share the
// network directly, no clones needed, and results are identical at every
// worker count. Metric counters come from the network's installed
// registry (simnet.Network.SetObs); spans follow o.
func ProbeAllOpt(n *simnet.Network, addrs []netip.Addr, o Opts) []*Result {
	sorted := append([]netip.Addr(nil), addrs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	var root *obs.Span
	if o.Parent != nil {
		root = o.Parent.StartChild("cenprobe.scan", n.Now(), obs.L("addrs", strconv.Itoa(len(sorted))))
	} else {
		root = o.Tracer.Start("cenprobe.scan", n.Now(), obs.L("addrs", strconv.Itoa(len(sorted))))
	}
	out := make([]*Result, len(sorted))
	parallel.ForEachOpt(len(sorted), o.Workers, parallel.Options{Pool: "cenprobe.probes", Obs: n.Obs()}, func(_, i int) {
		span := root.StartChild("cenprobe.probe", n.Now(), obs.L("addr", sorted[i].String()))
		out[i] = Probe(n, sorted[i])
		if v := out[i].Vendor; v != "" {
			span.SetAttr("vendor", v)
		}
		span.End(n.Now())
	})
	root.End(n.Now())
	return out
}

// Summary aggregates probe results the way §5.3 reports them.
type Summary struct {
	Probed        int
	WithOpenPorts int
	Labeled       int
	VendorCounts  map[string]int
}

// Summarize builds a Summary from probe results.
func Summarize(results []*Result) Summary {
	s := Summary{VendorCounts: make(map[string]int)}
	for _, r := range results {
		s.Probed++
		if len(r.OpenPorts) > 0 {
			s.WithOpenPorts++
		}
		if r.Vendor != "" {
			s.Labeled++
			s.VendorCounts[r.Vendor]++
		}
	}
	return s
}
