package experiments

import (
	"strings"
	"sync"
	"testing"

	"cendev/internal/centrace"
)

var (
	corpusOnce sync.Once
	corpus     *Corpus
)

// sharedCorpus builds the full study once for every corpus-level test.
func sharedCorpus(t *testing.T) *Corpus {
	t.Helper()
	corpusOnce.Do(func() {
		corpus = BuildCorpus(CorpusConfig{Repetitions: 3})
	})
	return corpus
}

func TestTable1Shape(t *testing.T) {
	c := sharedCorpus(t)
	rows := Table1(c)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byCountry := map[string]Table1Row{}
	for _, r := range rows {
		byCountry[r.Country] = r
	}
	// Paper shapes: AZ/KZ/RU have one in-country client, BY none.
	if byCountry["BY"].InCountryClients != 0 || byCountry["AZ"].InCountryClients != 1 {
		t.Errorf("client counts wrong: %+v", rows)
	}
	// RU in-country observes no blocking.
	if byCountry["RU"].InCountryBlocked != 0 {
		t.Errorf("RU in-country blocked = %d, want 0", byCountry["RU"].InCountryBlocked)
	}
	// AZ and KZ in-country observe blocking.
	if byCountry["AZ"].InCountryBlocked == 0 || byCountry["KZ"].InCountryBlocked == 0 {
		t.Error("AZ/KZ in-country should observe blocking")
	}
	// KZ has a high remote blocked share; RU a low one (§4.3 shapes).
	kz := byCountry["KZ"]
	ru := byCountry["RU"]
	kzShare := float64(kz.RemoteBlocked) / float64(kz.RemoteCTs)
	ruShare := float64(ru.RemoteBlocked) / float64(ru.RemoteCTs)
	if kzShare < 0.5 {
		t.Errorf("KZ remote blocked share = %.2f, want high (paper: 86%%)", kzShare)
	}
	if ruShare > 0.3 {
		t.Errorf("RU remote blocked share = %.2f, want low (paper: 4%%)", ruShare)
	}
	if out := RenderTable1(rows); !strings.Contains(out, "KZ") {
		t.Error("render missing KZ row")
	}
}

func TestFig3Shape(t *testing.T) {
	c := sharedCorpus(t)
	cells := Fig3(c)
	if len(cells) == 0 {
		t.Fatal("no Figure 3 cells")
	}
	s := Fig3Summary(cells)
	// Most blocking is drops + resets (paper: 94.75%).
	if s.DropOrRSTPercent < 80 {
		t.Errorf("drops+resets = %.1f%%, want dominant", s.DropOrRSTPercent)
	}
	// The Past E class exists (RU TTL-copy devices).
	if s.PastE == 0 {
		t.Error("no Past E observations")
	}
	// The At E class exists (guard devices).
	if s.AtE == 0 {
		t.Error("no At E observations")
	}
	// Path blocking dominates locations (paper: 73.97%).
	if s.PathCE <= s.AtE {
		t.Errorf("Path %d vs At E %d, want Path dominant", s.PathCE, s.AtE)
	}
	if out := RenderFig3(cells); !strings.Contains(out, "Summary") {
		t.Error("render missing summary")
	}
}

func TestFig4Shape(t *testing.T) {
	c := sharedCorpus(t)
	rows := Fig4(c)
	byCountry := map[string]Fig4Row{}
	for _, r := range rows {
		byCountry[r.Country] = r
	}
	// AZ and KZ devices are exclusively in-path (§4.3).
	if byCountry["AZ"].OnPath != 0 || byCountry["KZ"].OnPath != 0 {
		t.Errorf("AZ/KZ on-path counts = %d/%d, want 0", byCountry["AZ"].OnPath, byCountry["KZ"].OnPath)
	}
	// Most BY devices are on-path (§4.3).
	by := byCountry["BY"]
	if by.OnPath <= by.InPath {
		t.Errorf("BY in=%d on=%d, want on-path dominant", by.InPath, by.OnPath)
	}
	// RU is mostly in-path.
	ru := byCountry["RU"]
	if ru.InPath <= ru.OnPath {
		t.Errorf("RU in=%d on=%d, want in-path dominant", ru.InPath, ru.OnPath)
	}
	RenderFig4(rows)
}

func TestFig5Shape(t *testing.T) {
	c := sharedCorpus(t)
	rows := Fig5(c)
	if len(rows) == 0 {
		t.Fatal("no Figure 5 rows")
	}
	totals := Fig5StrategyTotals(rows)
	// §6.3 orderings: PATCH ≫ POST; host-word removal evades broadly;
	// capitalize-method evades rarely; TLD alternation > subdomain
	// alternation.
	hostRem := totals["Host Word Rem."]
	if hostRem.Rate() < 70 {
		t.Errorf("Host Word Rem. = %.1f%%, want high (paper: 91.3%%)", hostRem.Rate())
	}
	getCap := totals["Get Word Cap."]
	if getCap.Rate() > 20 {
		t.Errorf("Get Word Cap. = %.1f%%, want low (paper: <1%%)", getCap.Rate())
	}
	tld := totals["Hostname TLD Alt."]
	sub := totals["Host. Subdomain Alt."]
	if tld.Rate() <= sub.Rate() {
		t.Errorf("TLD %.1f%% <= subdomain %.1f%%, want TLD higher (paper: 88%% vs 61.5%%)", tld.Rate(), sub.Rate())
	}
	normal := totals["Normal"]
	if normal.Rate() != 0 {
		t.Errorf("Normal rate = %.1f%%, want 0", normal.Rate())
	}
	if out := RenderFig5(rows); !strings.Contains(out, "Strategy") {
		t.Error("render broken")
	}
}

func TestCircumventionFindings(t *testing.T) {
	c := sharedCorpus(t)
	reps := Circumvention(c)
	if len(reps) == 0 {
		t.Fatal("no circumvention reports")
	}
	// KZ: padding pokerstars circumvents (tolerant origin, §6.3).
	foundPad := false
	for _, r := range reps {
		if r.Country == "KZ" && r.Strategy == "Hostname Pad." && r.Circumvented > 0 {
			foundPad = true
		}
	}
	if !foundPad {
		t.Error("KZ hostname padding should circumvent against the tolerant pokerstars origin")
	}
}

func TestBannerStatsShape(t *testing.T) {
	c := sharedCorpus(t)
	s := BannerStatistics(c)
	if s.Summary.Probed < 10 {
		t.Fatalf("probed = %d, want 10+ potential device IPs", s.Summary.Probed)
	}
	if s.Summary.Labeled == 0 {
		t.Fatal("no vendor labels from banners")
	}
	// Cisco is the most common banner label (paper: 7 of 19).
	if s.Summary.VendorCounts["Cisco"] == 0 {
		t.Errorf("vendor counts = %v, want Cisco present", s.Summary.VendorCounts)
	}
	// Labeled devices are a minority of probed IPs (§5.3).
	if s.Summary.Labeled >= s.Summary.Probed {
		t.Errorf("labeled %d of %d, want minority", s.Summary.Labeled, s.Summary.Probed)
	}
	RenderBannerStats(s)
}

func TestQuoteStatisticsShape(t *testing.T) {
	c := sharedCorpus(t)
	s := QuoteStatistics(c)
	if s.TotalQuotes == 0 {
		t.Fatal("no quotes observed")
	}
	// Both RFC 792-minimal and fuller quotes appear (§4.3: 57.6% minimal).
	if s.RFC792Only == 0 || s.RFC792Only == s.TotalQuotes {
		t.Errorf("RFC792-only = %d of %d, want a mix", s.RFC792Only, s.TotalQuotes)
	}
}

func TestExtraterritorialKZ(t *testing.T) {
	c := sharedCorpus(t)
	s := Extraterritorial(c, "KZ")
	if s.BlockedAbroad == 0 {
		t.Fatal("no KZ endpoints blocked abroad")
	}
	if s.Share < 0.1 || s.Share > 0.6 {
		t.Errorf("KZ blocked-abroad share = %.2f, want ≈0.3 (paper: 34%%)", s.Share)
	}
	if s.ForeignASNs[31133] == 0 && s.ForeignASNs[43727] == 0 {
		t.Errorf("foreign ASNs = %v, want Megafon/Kvant", s.ForeignASNs)
	}
}

func TestFig9Importance(t *testing.T) {
	c := sharedCorpus(t)
	accs, imp := Fig9(c)
	if len(accs) != 15 {
		t.Fatalf("CV folds = %d, want 15 (3×5)", len(accs))
	}
	mean := 0.0
	for _, a := range accs {
		mean += a
	}
	mean /= float64(len(accs))
	if mean < 0.5 {
		t.Errorf("CV accuracy = %.2f, want vendors separable", mean)
	}
	ranked := Fig9Ranked(c)
	if ranked[0].Importance <= 0 {
		t.Fatal("no informative features")
	}
	_ = imp
	if out := RenderFig9(c); !strings.Contains(out, "CV accuracy") {
		t.Error("render broken")
	}
}

func TestFig6Clustering(t *testing.T) {
	c := sharedCorpus(t)
	res := Fig6(c, Fig6Config{})
	if len(res.Clusters) < 2 {
		t.Fatalf("clusters = %d, want several", len(res.Clusters))
	}
	if res.SameCountryShare < 0.4 {
		t.Errorf("same-country share = %.2f, want majority (paper: 69%%)", res.SameCountryShare)
	}
	if len(res.TopFeatures) != 10 {
		t.Errorf("top features = %d, want 10", len(res.TopFeatures))
	}
	if out := RenderFig6(res); !strings.Contains(out, "cluster") {
		t.Error("render broken")
	}
}

// TestFig6Deterministic reruns the clustering study on one corpus and
// requires byte-identical output every time. The random-forest split
// search compares Gini gains that can tie to the last bit, so an impurity
// summed in map order used to reorder the top features from run to run
// (and a replicated cencluster job could land in conflict).
func TestFig6Deterministic(t *testing.T) {
	c := sharedCorpus(t)
	want := RenderFig6(Fig6(c, Fig6Config{}))
	for i := 1; i < 8; i++ {
		if got := RenderFig6(Fig6(c, Fig6Config{})); got != want {
			t.Fatalf("run %d rendered differently from run 0:\n%s\nvs\n%s", i, got, want)
		}
	}
}

func TestVendorCorrelationShape(t *testing.T) {
	c := sharedCorpus(t)
	cors := VendorCorrelations(c)
	if len(cors) == 0 {
		t.Fatal("no correlations computed")
	}
	var sameSum, crossSum float64
	var sameN, crossN int
	for _, vc := range cors {
		if vc.VendorA == vc.VendorB {
			sameSum += vc.MeanRho
			sameN++
		} else {
			crossSum += vc.MeanRho
			crossN++
		}
	}
	if sameN == 0 || crossN == 0 {
		t.Skipf("need both same- and cross-vendor pairs (same=%d cross=%d)", sameN, crossN)
	}
	same := sameSum / float64(sameN)
	cross := crossSum / float64(crossN)
	if same <= cross {
		t.Errorf("same-vendor rho %.2f <= cross-vendor %.2f, want same higher (§7.4)", same, cross)
	}
	RenderCorrelations(cors)
}

func TestPathGraphs(t *testing.T) {
	c := sharedCorpus(t)
	fig10 := Fig10(c)
	if len(fig10.Nodes) == 0 || len(fig10.Edges) == 0 {
		t.Fatal("empty AZ path graph")
	}
	blocked := fig10.BlockedEdges()
	if len(blocked) == 0 {
		t.Fatal("no blocked edges in AZ graph")
	}
	// The dominant blocked edge head is in Delta Telecom.
	foundDelta := false
	for _, e := range blocked {
		if fig10.Nodes[e[1]].ASN == 29049 {
			foundDelta = true
		}
	}
	if !foundDelta {
		t.Error("AZ blocking edge not in Delta Telecom")
	}
	dot := fig10.RenderDOT()
	if !strings.Contains(dot, "color=red") {
		t.Error("DOT output missing red blocked links")
	}
	if txt := fig10.RenderASCII(); !strings.Contains(txt, "blocking at") {
		t.Error("ASCII output missing blocking lines")
	}
	// Figure 1: KZ in-country graph shows AS9198 blocking.
	fig1 := Fig1(c)
	if txt := fig1.RenderASCII(); !strings.Contains(txt, "9198") {
		t.Errorf("KZ in-country graph missing AS9198: %s", txt)
	}
}

func TestTable2And3Render(t *testing.T) {
	rows := Table2()
	if len(rows) != 24 {
		t.Fatalf("Table 2 rows = %d, want 24", len(rows))
	}
	total := 0
	for _, r := range rows {
		total += r.NP
	}
	if total != 479 {
		t.Errorf("total permutations = %d, want 479 (sum of Table 2 NP)", total)
	}
	if out := RenderTable2(); !strings.Contains(out, "CipherSuite Alt.") {
		t.Error("Table 2 render broken")
	}
	if out := RenderTable3(); !strings.Contains(out, "CenFuzz") || !strings.Contains(out, "Banners") {
		t.Error("Table 3 render broken")
	}
}

func TestCorpusBookkeeping(t *testing.T) {
	c := sharedCorpus(t)
	if len(c.PotentialDeviceIPs) == 0 {
		t.Fatal("no potential device IPs")
	}
	if len(c.Fuzz) == 0 {
		t.Fatal("no fuzz results")
	}
	obs := c.Observations()
	if len(obs) != len(c.Fuzz) {
		t.Errorf("observations = %d, fuzzed endpoints = %d", len(obs), len(c.Fuzz))
	}
	labeled := 0
	for _, o := range obs {
		if o.Label() != "" {
			labeled++
		}
	}
	if labeled == 0 {
		t.Error("no labeled observations")
	}
	// Record keys are unique.
	seen := map[string]bool{}
	for i := range c.Traces {
		k := c.Traces[i].Key()
		if !c.Traces[i].InCountry && seen[k] {
			t.Fatalf("duplicate trace key %s", k)
		}
		if !c.Traces[i].InCountry {
			seen[k] = true
		}
	}
	_ = centrace.HTTP
}

func TestMethodEvasionOrdering(t *testing.T) {
	c := sharedCorpus(t)
	m := MethodEvasionRates(c)
	// §6.3 ordering: POST evades least (1.76%), PUT more (21.63%), PATCH
	// much more (82.15%), the empty method most (92.01%).
	if !(m.POST <= m.PUT && m.PUT < m.PATCH && m.PATCH <= m.Empty) {
		t.Errorf("method rates POST=%.1f PUT=%.1f PATCH=%.1f empty=%.1f, want increasing", m.POST, m.PUT, m.PATCH, m.Empty)
	}
	if m.POST > 30 {
		t.Errorf("POST rate = %.1f%%, want low (paper: 1.76%%)", m.POST)
	}
	if m.PATCH < 50 {
		t.Errorf("PATCH rate = %.1f%%, want high (paper: 82.15%%)", m.PATCH)
	}
	if out := RenderMethodRates(c); !strings.Contains(out, "PATCH") {
		t.Error("render broken")
	}
}

func TestPermutationRatesShape(t *testing.T) {
	c := sharedCorpus(t)
	rates := PermutationRates(c, "Get Word Alt.")
	if len(rates) != 6 {
		t.Fatalf("permutations = %d, want 6", len(rates))
	}
	for _, r := range rates {
		if r.Valid == 0 {
			t.Errorf("%s: no valid measurements", r.Desc)
		}
	}
	if got := PermutationRates(c, "no-such-strategy"); len(got) != 0 {
		t.Error("unknown strategy should yield no rates")
	}
}

func TestCalibration(t *testing.T) {
	res := Calibrate(5, 200)
	if res.Endpoints != 5 || len(res.UniquePaths) != 5 {
		t.Fatalf("result shape: %+v", res)
	}
	for i, u := range res.UniquePaths {
		// The calibration world has 9 equal-cost paths per endpoint; with
		// 200 traceroutes we expect most to be discovered.
		if u < 4 || u > 9 {
			t.Errorf("endpoint %d: unique paths = %d, want 4..9", i, u)
		}
		if res.RepsFor90[i] <= 0 || res.RepsFor90[i] > 200 {
			t.Errorf("endpoint %d: repsFor90 = %d", i, res.RepsFor90[i])
		}
	}
	// The paper's operating point: on the order of ~11 repetitions for 90%
	// coverage; our synthetic world should land in the same regime.
	if res.MeanRepsFor90 < 2 || res.MeanRepsFor90 > 60 {
		t.Errorf("mean reps for 90%% = %.1f, want single-to-low-double digits", res.MeanRepsFor90)
	}
	if out := RenderCalibration(res); !strings.Contains(out, "90%") {
		t.Error("render broken")
	}
}

func TestClassifyUnlabeled(t *testing.T) {
	c := sharedCorpus(t)
	preds := ClassifyUnlabeled(c)
	if len(preds) == 0 {
		t.Fatal("no predictions for unlabeled devices")
	}
	known := map[string]bool{}
	for _, o := range c.Observations() {
		if l := o.Label(); l != "" {
			known[l] = true
		}
	}
	for _, p := range preds {
		if p.Vendor == "" || !known[p.Vendor] {
			t.Errorf("%s: predicted vendor %q not among training classes", p.EndpointID, p.Vendor)
		}
		if p.Confidence <= 0 || p.Confidence > 1 {
			t.Errorf("%s: confidence = %f", p.EndpointID, p.Confidence)
		}
	}
	if out := RenderPredictions(preds); !strings.Contains(out, "→") {
		t.Error("render broken")
	}
}

func TestDirectionality(t *testing.T) {
	d := DirectionalityDemo()
	if d.RemoteBlocked {
		t.Error("outbound-only filter should be invisible to remote measurements (§4.2)")
	}
	if !d.InCountryBlocked {
		t.Error("in-country measurement should catch the outbound filter")
	}
	if d.InCountryHop.ASN != 2 {
		t.Errorf("in-country blocking hop = %s, want CountryNet AS2", d.InCountryHop)
	}
	if out := RenderDirectionality(d); !strings.Contains(out, "invisible") {
		t.Error("render broken")
	}
}

func TestFig9Confusion(t *testing.T) {
	c := sharedCorpus(t)
	cm := Fig9Confusion(c)
	if len(cm.Classes) < 3 {
		t.Fatalf("classes = %v, want several vendors", cm.Classes)
	}
	if cm.Accuracy() < 0.5 {
		t.Errorf("held-out accuracy = %.2f", cm.Accuracy())
	}
	if cm.MacroF1() <= 0 {
		t.Error("macro-F1 = 0")
	}
}

func TestThrottlingDemo(t *testing.T) {
	d := ThrottlingDemo()
	if d.CenTraceBlocked {
		t.Error("CenTrace's conservative definition should not flag throttling as blocking (§4.1)")
	}
	if !d.Detected {
		t.Errorf("timing detector missed the throttle: control=%v throttled=%v", d.ControlRTT, d.ThrottledRTT)
	}
	if d.ThrottledRTT <= d.ControlRTT {
		t.Errorf("throttled fetch not slower: %v vs %v", d.ThrottledRTT, d.ControlRTT)
	}
	if out := RenderThrottling(d); !strings.Contains(out, "timing detector") {
		t.Error("render broken")
	}
}

func TestWorldDNSInjection(t *testing.T) {
	s := BuildWorld()
	if s.DNSResolver == nil {
		t.Fatal("DNS resolver missing from world")
	}
	run := func(domain string) *centrace.Result {
		p := centrace.New(s.Net, s.USClient, s.DNSResolver, centrace.Config{
			ControlDomain: ControlDomain,
			TestDomain:    domain,
			Protocol:      centrace.DNS,
			Repetitions:   3,
		})
		return p.Run()
	}
	res := run(RUBlocked)
	if !res.Blocked || res.BlockpageID != "dns-injection" {
		t.Fatalf("blocked=%v id=%q, want DNS injection detected", res.Blocked, res.BlockpageID)
	}
	if res.Placement != centrace.PlacementOnPath {
		t.Errorf("placement = %s, want on-path", res.Placement)
	}
	if res.BlockingHop.Country != "RU" {
		t.Errorf("blocking hop = %s, want Russian region", res.BlockingHop)
	}
	// An unlisted domain resolves honestly end to end.
	open := run(OpenNews)
	if open.Blocked {
		t.Errorf("open domain DNS trace blocked: %s", open.BlockpageID)
	}
	if !open.Valid {
		t.Error("control DNS trace should reach the resolver")
	}
}

func TestDNSExtensionReport(t *testing.T) {
	c := sharedCorpus(t)
	rep := DNSExtension(c.Scenario)
	if rep.Resolver == "" || len(rep.Rows) != 5 {
		t.Fatalf("report = %+v", rep)
	}
	byDomain := map[string]DNSRow{}
	for _, r := range rep.Rows {
		byDomain[r.Domain] = r
	}
	if !byDomain[RUBlocked].Injected || !byDomain[GlobalBlocked].Injected {
		t.Error("blocklisted domains should see forged answers")
	}
	if byDomain[OpenNews].Blocked || byDomain[RUNews].Blocked {
		t.Error("unlisted domains should resolve honestly")
	}
	if out := RenderDNSReport(rep); !strings.Contains(out, "forged answer") {
		t.Error("render broken")
	}
}

func TestWriteReport(t *testing.T) {
	c := sharedCorpus(t)
	var buf strings.Builder
	if err := WriteReport(&buf, c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# Measurement study report",
		"Table 1", "Figure 3", "Figure 5", "Figure 6", "Figure 9",
		"§5.3 device banners", "§8 DNS extension", "Throttling",
		"JSC-Kazakhtelecom",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if len(out) < 4000 {
		t.Errorf("report suspiciously short: %d bytes", len(out))
	}
}

func TestDeviceInventory(t *testing.T) {
	c := sharedCorpus(t)
	rows := DeviceInventory(c.Scenario)
	if len(rows) < 30 {
		t.Fatalf("inventory rows = %d", len(rows))
	}
	byVendor := map[string]int{}
	for _, r := range rows {
		byVendor[r.Vendor]++
	}
	// §5.3 vendor multiset shape: Cisco most common among labeled products.
	if byVendor["Cisco"] < 5 {
		t.Errorf("Cisco deployments = %d, want 5+ (paper: 7)", byVendor["Cisco"])
	}
	out := RenderDeviceInventory(rows)
	if !strings.Contains(out, "endpoint-side guards") || !strings.Contains(out, "Sandvine") {
		t.Error("render broken")
	}
}
