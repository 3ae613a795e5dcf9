// Command centrace runs a single CenTrace measurement in the simulated
// world and prints the traceroute and blocking inference — the CLI analog
// of the paper's CenTrace tool.
//
// Usage:
//
//	centrace -client us -endpoint kz-ep-0-0 -domain www.pokerstars.com -proto https
//	centrace -all -workers 4   # campaign over every endpoint × domain × protocol
//	centrace -list             # list clients and endpoints
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cendev/internal/centrace"
	"cendev/internal/experiments"
	"cendev/internal/faults"
	"cendev/internal/obs"
	"cendev/internal/routedyn"
	"cendev/internal/topology"
)

func main() {
	clientID := flag.String("client", "us", "vantage point: us, AZ, KZ, or RU")
	endpointID := flag.String("endpoint", "", "endpoint host ID (see -list)")
	domain := flag.String("domain", experiments.GlobalBlocked, "test domain")
	control := flag.String("control", experiments.ControlDomain, "control domain")
	proto := flag.String("proto", "http", "probe protocol (http|https)")
	reps := flag.Int("reps", 5, "traceroute repetitions")
	list := flag.Bool("list", false, "list vantage points and endpoints, then exit")
	all := flag.Bool("all", false, "run a campaign over every endpoint × domain × protocol")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel measurement workers for -all")
	retries := flag.Int("retries", 1, "extra retry passes for failed targets in -all")
	journalPath := flag.String("journal", "", "campaign journal file for -all: checkpoint every target, resume on restart")
	jsonOut := flag.Bool("json", false, "emit the result as JSON")
	// Impairment profiles (see internal/faults); any of these installs a
	// deterministic fault engine in front of the measurement. -flap
	// installs a route-dynamics engine (internal/routedyn) instead, seeded
	// with the same -fault-seed.
	faultSeed := flag.Int64("fault-seed", 1, "seed for the impairment engine and -flap")
	loss := flag.Float64("loss", 0, "global uniform packet-loss rate [0,1]")
	burstLoss := flag.String("burst-loss", "", "Gilbert–Elliott bursty loss as pGoodToBad,pBadToGood,lossBad")
	dup := flag.Float64("dup", 0, "response duplication rate [0,1]")
	blackhole := flag.String("blackhole", "", "dead link window as from:to:startSec:endSec (router IDs)")
	icmpSilent := flag.String("icmp-silent", "", "comma-separated router IDs that never send ICMP")
	icmpLimit := flag.String("icmp-limit", "", "ICMP token bucket as router:burst:perSecond")
	flap := flag.String("flap", "", "route flap as router:periodSec")
	obsFlags := obs.RegisterCLIFlags(flag.CommandLine)
	flag.Parse()

	world := experiments.BuildWorld()
	world.Net.SetObs(obsFlags.Registry())
	if eng := buildEngine(*faultSeed, *loss, *burstLoss, *dup, *blackhole, *icmpSilent, *icmpLimit); eng != nil {
		world.Net.SetFaults(eng)
	}
	if *flap != "" {
		world.Net.SetRoutes(buildFlap(*faultSeed, world.Net.Graph, *flap))
	}
	if *list {
		fmt.Println("vantage points: us (remote)")
		for country := range world.InCountryClients {
			fmt.Printf("  %s (in-country)\n", country)
		}
		fmt.Println("endpoints:")
		for _, e := range world.Endpoints {
			via := ""
			if e.ViaRussia {
				via = " (via RU transit)"
			}
			fmt.Printf("  %-16s %s AS%d%s\n", e.Host.ID, e.Country, e.ASN, via)
		}
		return
	}

	client := world.USClient
	if *clientID != "us" {
		client = world.InCountryClients[*clientID]
		if client == nil {
			fmt.Fprintf(os.Stderr, "no in-country client %q (have AZ, KZ, RU)\n", *clientID)
			os.Exit(2)
		}
	}

	if *all {
		err := runCampaign(world, client, *control, *reps, *workers, *retries, *journalPath, obsFlags)
		finishObs(obsFlags)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	obsFlags.FlushOnSignal()

	var endpoint *topology.Host
	for _, e := range world.Endpoints {
		if e.Host.ID == *endpointID {
			endpoint = e.Host
		}
	}
	if endpoint == nil {
		if h := world.Origins[*domain]; *endpointID == "" && h != nil {
			endpoint = h // default: the domain's origin server
		} else {
			fmt.Fprintf(os.Stderr, "unknown endpoint %q (use -list)\n", *endpointID)
			os.Exit(2)
		}
	}

	p := centrace.HTTP
	if *proto == "https" {
		p = centrace.HTTPS
	}
	res := centrace.New(world.Net, client, endpoint, centrace.Config{
		ControlDomain: *control,
		TestDomain:    *domain,
		Protocol:      p,
		Repetitions:   *reps,
		Obs:           obsFlags.Registry(),
		Tracer:        obsFlags.Tracer(),
	}).Run()
	defer finishObs(obsFlags)

	if *jsonOut {
		emitJSON(world, client, endpoint, res)
		return
	}

	fmt.Printf("CenTrace %s → %s (%s, test=%s)\n", client.ID, endpoint.ID, p, *domain)
	fmt.Printf("control path (%d hops to endpoint):\n", res.EndpointTTL)
	for ttl := 1; ttl <= res.EndpointTTL; ttl++ {
		if addr, ok := res.Control.MostLikelyHop(ttl); ok {
			info, _ := world.Net.Geo.Lookup(addr)
			fmt.Printf("  %2d  %-12s AS%-6d %s (%s)\n", ttl, addr, info.ASN, info.Name, info.Country)
		} else if ttl == res.EndpointTTL {
			fmt.Printf("  %2d  %-12s endpoint\n", ttl, endpoint.Addr)
		} else {
			fmt.Printf("  %2d  *\n", ttl)
		}
	}
	if !res.Blocked {
		fmt.Println("verdict: NOT BLOCKED")
		fmt.Printf("  confidence: %.2f\n", res.Confidence.Score)
		return
	}
	if res.Degraded {
		fmt.Printf("verdict: BLOCKED (%s) — DEGRADED: hop not localizable\n", res.TermKind)
	} else {
		fmt.Printf("verdict: BLOCKED (%s)\n", res.TermKind)
	}
	fmt.Printf("  confidence: %.2f (term agreement %.2f, hop support %.2f, retry rate %.2f, dial failures %.2f)\n",
		res.Confidence.Score, res.Confidence.TermAgreement, res.Confidence.HopSupport,
		res.Confidence.RetryRate, res.Confidence.DialFailRate)
	fmt.Printf("  terminating TTL: %d   location: %s   placement: %s\n",
		res.TermTTL, res.Location, res.Placement)
	if res.TTLCopyCorrected {
		fmt.Printf("  TTL-copying injector detected; corrected device hop: %d\n", res.DeviceTTL)
	}
	fmt.Printf("  blocking hop: %s\n", res.BlockingHop)
	if res.BlockpageVendor != "" {
		fmt.Printf("  blockpage vendor: %s (%s)\n", res.BlockpageVendor, res.BlockpageID)
	}
	if res.Injected != nil {
		fmt.Printf("  injected packet: ttl=%d ipid=%#x window=%d flags=%s\n",
			res.Injected.TTL, res.Injected.IPID, res.Injected.TCPWindow, res.Injected.TCPFlags)
	}
	if res.QuoteDelta != nil && res.QuoteDelta.Any() {
		fmt.Printf("  quote delta at blocking hop: %s\n", res.QuoteDelta)
	}
}

// finishObs writes the requested observability artifacts, dying loudly on
// I/O failure so a broken -metrics-out path is not silently ignored.
func finishObs(f *obs.CLIFlags) {
	if err := f.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runCampaign measures every endpoint × test domain × protocol from the
// chosen vantage point across the worker pool and prints a per-country
// summary — the §4.2 collection pattern at CLI scale. It returns the
// journal's first write error: the measurements stand, but a resume
// would re-measure what the journal lost.
func runCampaign(world *experiments.Scenario, client *topology.Host, control string, reps, workers, retries int, journalPath string, obsFlags *obs.CLIFlags) error {
	var journal *centrace.Journal
	if journalPath != "" {
		j, f, err := centrace.OpenJournalFile(journalPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		journal = j
		for _, w := range journal.Warnings() {
			fmt.Fprintln(os.Stderr, "warning:", w)
		}
		if n := journal.Len(); n > 0 {
			fmt.Fprintf(os.Stderr, "resuming campaign: %d targets restored from %s\n", n, journalPath)
		}
		// An interrupt must leave the journal durable so the next run
		// resumes instead of remeasuring.
		obsFlags.FlushOnSignal(f.Sync)
	} else {
		obsFlags.FlushOnSignal()
	}

	targets := world.CampaignTargets()
	camp := &centrace.Campaign{
		Net:    world.Net,
		Client: client,
		Base: centrace.Config{
			ControlDomain: control,
			Repetitions:   reps,
			Obs:           obsFlags.Registry(),
			Tracer:        obsFlags.Tracer(),
		},
		Workers:           workers,
		RetryFailedPasses: retries,
		Journal:           journal,
	}
	blockedByCountry := map[string]int{}
	totalByCountry := map[string]int{}
	failed := 0
	camp.Each(targets, func(_ int, r centrace.CampaignResult) {
		totalByCountry[r.Target.Label]++
		switch {
		case r.Failed():
			failed++
		case r.Result.Blocked:
			blockedByCountry[r.Target.Label]++
		}
	})
	fmt.Printf("campaign: %d targets, %d workers\n", len(targets), workers)
	for _, country := range experiments.Countries {
		if totalByCountry[country] == 0 {
			continue
		}
		fmt.Printf("  %s: %d/%d blocked\n", country, blockedByCountry[country], totalByCountry[country])
	}
	if failed > 0 {
		fmt.Printf("  failed targets: %d\n", failed)
	}
	if journal == nil {
		return nil
	}
	return journal.Err()
}

// buildEngine assembles the impairment engine from the fault flags, or
// returns nil when none were given.
func buildEngine(seed int64, loss float64, burstLoss string, dup float64, blackhole, icmpSilent, icmpLimit string) *faults.Engine {
	eng := faults.NewEngine(seed)
	active := false
	nums := func(flagName, spec, format string, want int) []float64 {
		parts := strings.Split(spec, ",")
		if len(parts) != want {
			die(flagName, spec, format)
		}
		out := make([]float64, want)
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				die(flagName, spec, format)
			}
			out[i] = v
		}
		return out
	}
	if loss > 0 {
		eng.AddGlobal(faults.UniformLoss(loss))
		active = true
	}
	if burstLoss != "" {
		v := nums("burst-loss", burstLoss, "pGoodToBad,pBadToGood,lossBad", 3)
		eng.AddGlobal(faults.GilbertElliott(v[0], v[1], 0, v[2]))
		active = true
	}
	if dup > 0 {
		eng.AddGlobal(faults.Duplication(dup))
		active = true
	}
	if blackhole != "" {
		parts := strings.Split(blackhole, ":")
		if len(parts) != 4 {
			die("blackhole", blackhole, "from:to:startSec:endSec")
		}
		start, err1 := strconv.ParseFloat(parts[2], 64)
		end, err2 := strconv.ParseFloat(parts[3], 64)
		if err1 != nil || err2 != nil {
			die("blackhole", blackhole, "from:to:startSec:endSec")
		}
		eng.AddLink(parts[0], parts[1], faults.Blackhole(
			time.Duration(start*float64(time.Second)), time.Duration(end*float64(time.Second))))
		active = true
	}
	if icmpSilent != "" {
		for _, id := range strings.Split(icmpSilent, ",") {
			eng.SilenceICMP(strings.TrimSpace(id))
		}
		active = true
	}
	if icmpLimit != "" {
		parts := strings.Split(icmpLimit, ":")
		if len(parts) != 3 {
			die("icmp-limit", icmpLimit, "router:burst:perSecond")
		}
		burst, err1 := strconv.Atoi(parts[1])
		perSec, err2 := strconv.ParseFloat(parts[2], 64)
		if err1 != nil || err2 != nil {
			die("icmp-limit", icmpLimit, "router:burst:perSecond")
		}
		eng.LimitICMP(parts[0], burst, perSec)
		active = true
	}
	if !active {
		return nil
	}
	return eng
}

// buildFlap assembles the route-dynamics engine the -flap spec names.
func buildFlap(seed int64, g *topology.Graph, flap string) *routedyn.Engine {
	eng := routedyn.NewEngine(seed, g)
	parts := strings.Split(flap, ":")
	if len(parts) != 2 {
		die("flap", flap, "router:periodSec")
	}
	period, err := strconv.ParseFloat(parts[1], 64)
	if err != nil || eng.Flap(parts[0], time.Duration(period*float64(time.Second))) != nil {
		die("flap", flap, "router:periodSec")
	}
	return eng
}

// die reports a malformed fault-flag spec and exits 2.
func die(flagName, spec, format string) {
	fmt.Fprintf(os.Stderr, "bad -%s %q: want %s\n", flagName, spec, format)
	os.Exit(2)
}

// jsonResult is the machine-readable measurement record, modeled on the
// JSON the real CenTrace tool emits.
type jsonResult struct {
	Client       string    `json:"client"`
	Endpoint     string    `json:"endpoint"`
	Protocol     string    `json:"protocol"`
	TestDomain   string    `json:"test_domain"`
	Valid        bool      `json:"valid"`
	Blocked      bool      `json:"blocked"`
	TermKind     string    `json:"terminating_response"`
	TermTTL      int       `json:"terminating_ttl"`
	EndpointTTL  int       `json:"endpoint_ttl"`
	Location     string    `json:"location"`
	Placement    string    `json:"placement"`
	DeviceTTL    int       `json:"device_ttl"`
	TTLCorrected bool      `json:"ttl_copy_corrected"`
	Degraded     bool      `json:"degraded"`
	Confidence   float64   `json:"confidence"`
	BlockingHop  *jsonHop  `json:"blocking_hop,omitempty"`
	Blockpage    string    `json:"blockpage_vendor,omitempty"`
	ControlPath  []jsonHop `json:"control_path"`
}

type jsonHop struct {
	TTL     int    `json:"ttl"`
	Addr    string `json:"addr,omitempty"`
	ASN     uint32 `json:"asn,omitempty"`
	Org     string `json:"org,omitempty"`
	Country string `json:"country,omitempty"`
}

func emitJSON(world *experiments.Scenario, client, ep *topology.Host, res *centrace.Result) {
	out := jsonResult{
		Client:       client.ID,
		Endpoint:     ep.ID,
		Protocol:     res.Config.Protocol.String(),
		TestDomain:   res.Config.TestDomain,
		Valid:        res.Valid,
		Blocked:      res.Blocked,
		TermKind:     res.TermKind.String(),
		TermTTL:      res.TermTTL,
		EndpointTTL:  res.EndpointTTL,
		Location:     res.Location.String(),
		Placement:    res.Placement.String(),
		DeviceTTL:    res.DeviceTTL,
		TTLCorrected: res.TTLCopyCorrected,
		Degraded:     res.Degraded,
		Confidence:   res.Confidence.Score,
		Blockpage:    res.BlockpageVendor,
	}
	if res.Blocked && res.BlockingHop.Addr.IsValid() {
		out.BlockingHop = &jsonHop{
			TTL: res.BlockingHop.TTL, Addr: res.BlockingHop.Addr.String(),
			ASN: res.BlockingHop.ASN, Org: res.BlockingHop.Org, Country: res.BlockingHop.Country,
		}
	}
	for ttl := 1; ttl <= res.EndpointTTL; ttl++ {
		h := jsonHop{TTL: ttl}
		if addr, ok := res.Control.MostLikelyHop(ttl); ok {
			info, _ := world.Net.Geo.Lookup(addr)
			h.Addr = addr.String()
			h.ASN = info.ASN
			h.Org = info.Name
			h.Country = info.Country
		}
		out.ControlPath = append(out.ControlPath, h)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}
