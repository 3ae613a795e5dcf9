package cendev

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation benches called out in DESIGN.md §5. The expensive measurement
// corpus is built once and shared; each table/figure bench measures the
// regeneration of its artifact and reports the headline scientific number
// via b.ReportMetric so `go test -bench .` doubles as a results table.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"time"

	"cendev/internal/cenfuzz"
	"cendev/internal/cenprobe"
	"cendev/internal/centrace"
	"cendev/internal/endpoint"
	"cendev/internal/evolve"
	"cendev/internal/experiments"
	"cendev/internal/faults"
	"cendev/internal/features"
	"cendev/internal/middlebox"
	"cendev/internal/ml"
	"cendev/internal/netem"
	"cendev/internal/obs"
	"cendev/internal/routedyn"
	"cendev/internal/serve"
	"cendev/internal/simnet"
	"cendev/internal/tomography"
	"cendev/internal/topology"
)

var (
	benchOnce   sync.Once
	benchCorpus *experiments.Corpus
)

func corpus(b *testing.B) *experiments.Corpus {
	b.Helper()
	benchOnce.Do(func() {
		benchCorpus = experiments.BuildCorpus(experiments.CorpusConfig{Repetitions: 3})
	})
	return benchCorpus
}

// --- Measurement primitives -------------------------------------------

// BenchmarkCenTraceRun measures one full CenTrace measurement (control +
// test aggregates, 5 repetitions) on the four-country world.
func BenchmarkCenTraceRun(b *testing.B) {
	world := experiments.BuildWorld()
	ep := world.EndpointsIn("KZ")[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		centrace.New(world.Net, world.USClient, ep.Host, centrace.Config{
			ControlDomain: experiments.ControlDomain,
			TestDomain:    experiments.KZPoker,
			Protocol:      centrace.HTTP,
			Repetitions:   5,
		}).Run()
	}
}

// BenchmarkCenFuzzEndpoint measures one full 24-strategy CenFuzz run
// (≈960 request/response measurements).
func BenchmarkCenFuzzEndpoint(b *testing.B) {
	world := experiments.BuildWorld()
	ep := world.EndpointsIn("KZ")[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cenfuzz.New(world.Net, world.USClient, ep.Host, cenfuzz.Config{
			TestDomain:    experiments.KZPoker,
			ControlDomain: experiments.ControlDomain,
		}).Run(nil)
	}
}

// BenchmarkCenProbeDevice measures one port scan + banner grab +
// fingerprint match.
func BenchmarkCenProbeDevice(b *testing.B) {
	world := experiments.BuildWorld()
	addr := world.Graph.Router("kz-mh0r").Addr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cenprobe.Probe(world.Net, addr)
	}
}

// BenchmarkCampaignParallel measures the clone-isolated campaign worker
// pool at several worker counts over the same target list — the §4.2
// "multiple endpoints concurrently" collection pattern. Results are
// byte-identical at every worker count (see TestCampaignWorkerDeterminism);
// on a multi-core machine the wall-clock time at workers=4 should be a
// fraction of workers=1. ci.sh records this family to BENCH_parallel.json.
func BenchmarkCampaignParallel(b *testing.B) {
	world := experiments.BuildWorld()
	var targets []centrace.Target
	for _, e := range world.EndpointsIn("KZ") {
		for _, domain := range experiments.TestDomainsFor("KZ") {
			targets = append(targets, centrace.Target{
				Endpoint: e.Host, Domain: domain, Protocol: centrace.HTTP, Label: "KZ",
			})
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			blocked := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results := (&centrace.Campaign{
					Net:    world.Net,
					Client: world.USClient,
					Base: centrace.Config{
						ControlDomain: experiments.ControlDomain,
						Repetitions:   3,
					},
					Workers: workers,
				}).Run(targets)
				blocked = len(centrace.Blocked(results))
			}
			b.StopTimer()
			b.ReportMetric(float64(len(targets)), "targets")
			b.ReportMetric(float64(blocked), "blocked")
		})
	}
}

// BenchmarkCampaignObs measures the cost of the observability layer on the
// hottest path: the same campaign as BenchmarkCampaignParallel at a fixed
// worker count, with metrics+tracing off versus fully on (registry wired
// into the network, fault engine, pool, prober, and campaign, plus a span
// per target/pass/probe). ci.sh records this family to BENCH_obs.json. The
// hot path counts into goroutine-private tallies flushed once per
// measurement, so timed alone the enabled run is within noise of the
// disabled one (DESIGN.md §9).
func BenchmarkCampaignObs(b *testing.B) {
	world := experiments.BuildWorld()
	var targets []centrace.Target
	for _, e := range world.EndpointsIn("KZ") {
		for _, domain := range experiments.TestDomainsFor("KZ") {
			targets = append(targets, centrace.Target{
				Endpoint: e.Host, Domain: domain, Protocol: centrace.HTTP, Label: "KZ",
			})
		}
	}
	const workers = 4
	for _, enabled := range []bool{false, true} {
		name := map[bool]string{false: "obs=off", true: "obs=on"}[enabled]
		b.Run(name, func(b *testing.B) {
			spans := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var reg *obs.Registry
				var tr *obs.Tracer
				if enabled {
					reg = obs.NewRegistry()
					tr = obs.NewTracer()
				}
				world.Net.SetObs(reg)
				(&centrace.Campaign{
					Net:    world.Net,
					Client: world.USClient,
					Base: centrace.Config{
						ControlDomain: experiments.ControlDomain,
						Repetitions:   3,
						Obs:           reg,
						Tracer:        tr,
					},
					Workers: workers,
				}).Run(targets)
				spans = tr.SpanCount()
			}
			b.StopTimer()
			world.Net.SetObs(nil)
			b.ReportMetric(float64(len(targets)), "targets")
			b.ReportMetric(float64(spans), "spans")
		})
	}
}

// --- Tables ------------------------------------------------------------

// BenchmarkTable1_CenTraceCollection regenerates Table 1 and reports the
// total remote CTs and blocked CTs.
func BenchmarkTable1_CenTraceCollection(b *testing.B) {
	c := corpus(b)
	var rows []experiments.Table1Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = experiments.Table1(c)
	}
	b.StopTimer()
	cts, blocked := 0, 0
	for _, r := range rows {
		cts += r.RemoteCTs
		blocked += r.RemoteBlocked
	}
	b.ReportMetric(float64(cts), "remoteCTs")
	b.ReportMetric(float64(blocked), "blockedCTs")
}

// BenchmarkTable2_StrategyCatalog regenerates the Table 2 catalog and
// reports the total permutation count (479 in the paper's notation).
func BenchmarkTable2_StrategyCatalog(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table2()
	}
	total := 0
	for _, r := range rows {
		total += r.NP
	}
	b.ReportMetric(float64(total), "permutations")
}

// BenchmarkTable3_FeatureInventory regenerates the feature inventory.
func BenchmarkTable3_FeatureInventory(b *testing.B) {
	n := 0
	for i := 0; i < b.N; i++ {
		n = len(features.FeatureNames())
	}
	b.ReportMetric(float64(n), "features")
}

// --- Figures -----------------------------------------------------------

// BenchmarkFig1_KZInCountryGraph regenerates the Figure 1 path graph.
func BenchmarkFig1_KZInCountryGraph(b *testing.B) {
	c := corpus(b)
	var g *experiments.PathGraph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g = experiments.Fig1(c)
	}
	b.ReportMetric(float64(len(g.BlockedEdges())), "blockedEdges")
}

// BenchmarkFig3_BlockingTypeLocation regenerates Figure 3 and reports the
// drops+resets share (paper: 94.75%).
func BenchmarkFig3_BlockingTypeLocation(b *testing.B) {
	c := corpus(b)
	var cells []experiments.Fig3Cell
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells = experiments.Fig3(c)
	}
	b.StopTimer()
	s := experiments.Fig3Summary(cells)
	b.ReportMetric(s.DropOrRSTPercent, "dropRST%")
	b.ReportMetric(s.PathCEPercent, "pathCE%")
	b.ReportMetric(s.AtEPercent, "atE%")
}

// BenchmarkFig4_InPathOnPath regenerates Figure 4 and reports the share of
// blocking within 1–2 hops of the endpoint (paper: >35%).
func BenchmarkFig4_InPathOnPath(b *testing.B) {
	c := corpus(b)
	var rows []experiments.Fig4Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig4(c)
	}
	b.StopTimer()
	b.ReportMetric(100*experiments.NearEndpointShare(rows), "nearE%")
}

// BenchmarkFig5_FuzzSuccess regenerates Figure 5 and reports two headline
// strategy rates (paper: PATCH 82.15%, host-word removal 91.3%).
func BenchmarkFig5_FuzzSuccess(b *testing.B) {
	c := corpus(b)
	var rows []experiments.Fig5Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig5(c)
	}
	b.StopTimer()
	totals := experiments.Fig5StrategyTotals(rows)
	b.ReportMetric(totals["Host Word Rem."].Rate(), "hostWordRem%")
	b.ReportMetric(totals["Hostname TLD Alt."].Rate(), "tldAlt%")
}

// BenchmarkFig6_Clustering regenerates the DBSCAN clustering and reports
// the same-country share (paper: 69%).
func BenchmarkFig6_Clustering(b *testing.B) {
	c := corpus(b)
	var res *experiments.Fig6Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = experiments.Fig6(c, experiments.Fig6Config{})
	}
	b.StopTimer()
	b.ReportMetric(100*res.SameCountryShare, "sameCountry%")
	b.ReportMetric(float64(len(res.Clusters)), "clusters")
}

// BenchmarkFig9_FeatureImportance regenerates the RF feature-importance
// analysis (3×5-fold CV) and reports the mean accuracy.
func BenchmarkFig9_FeatureImportance(b *testing.B) {
	c := corpus(b)
	var accs []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		accs, _ = experiments.Fig9(c)
	}
	b.StopTimer()
	mean := 0.0
	for _, a := range accs {
		mean += a
	}
	if len(accs) > 0 {
		mean /= float64(len(accs))
	}
	b.ReportMetric(100*mean, "cvAcc%")
}

// BenchmarkFig10to12_RemoteGraphs regenerates the remote path graphs.
func BenchmarkFig10to12_RemoteGraphs(b *testing.B) {
	c := corpus(b)
	blocked := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blocked = len(experiments.Fig10(c).BlockedEdges()) +
			len(experiments.Fig11(c).BlockedEdges()) +
			len(experiments.Fig12(c).BlockedEdges())
	}
	b.ReportMetric(float64(blocked), "blockedEdges")
}

// BenchmarkSec43_QuoteStats regenerates the §4.3 quoted-packet statistics
// (paper: 57.6% RFC 792-minimal, 32.06% TOS-changed).
func BenchmarkSec43_QuoteStats(b *testing.B) {
	c := corpus(b)
	var s experiments.QuoteStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = experiments.QuoteStatistics(c)
	}
	b.StopTimer()
	if s.TotalQuotes > 0 {
		b.ReportMetric(100*float64(s.RFC792Only)/float64(s.TotalQuotes), "rfc792%")
		b.ReportMetric(100*float64(s.TOSChanged)/float64(s.TotalQuotes), "tosChanged%")
	}
}

// BenchmarkSec43_Extraterritorial reports the KZ-blocked-in-Russia share
// (paper: 34.07%).
func BenchmarkSec43_Extraterritorial(b *testing.B) {
	c := corpus(b)
	var s experiments.ExtraterritorialStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = experiments.Extraterritorial(c, "KZ")
	}
	b.ReportMetric(100*s.Share, "blockedAbroad%")
}

// BenchmarkSec53_BannerGrabs regenerates the §5.3 banner statistics
// (paper: 163 potential IPs, 68 with open ports, 19 labeled).
func BenchmarkSec53_BannerGrabs(b *testing.B) {
	c := corpus(b)
	var s experiments.BannerStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = experiments.BannerStatistics(c)
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Summary.Probed), "probedIPs")
	b.ReportMetric(float64(s.Summary.WithOpenPorts), "withPorts")
	b.ReportMetric(float64(s.Summary.Labeled), "labeled")
}

// BenchmarkSec74_Correlation regenerates the §7.4 Spearman correlations
// and reports the same-vendor vs cross-vendor means (paper: ≈1.0 vs 0.56).
func BenchmarkSec74_Correlation(b *testing.B) {
	c := corpus(b)
	var cors []experiments.VendorCorrelation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cors = experiments.VendorCorrelations(c)
	}
	b.StopTimer()
	var same, cross float64
	var sameN, crossN int
	for _, vc := range cors {
		if vc.VendorA == vc.VendorB {
			same += vc.MeanRho
			sameN++
		} else {
			cross += vc.MeanRho
			crossN++
		}
	}
	if sameN > 0 {
		b.ReportMetric(same/float64(sameN), "sameVendorRho")
	}
	if crossN > 0 {
		b.ReportMetric(cross/float64(crossN), "crossVendorRho")
	}
}

// --- Ablations (DESIGN.md §5) -------------------------------------------

// varianceWorld builds a diamond-heavy topology with a device on only some
// ECMP branches, where single-repetition CenTrace mislocalizes.
func varianceWorld() (*simnet.Network, *topology.Host, *topology.Host) {
	g := topology.NewGraph()
	asC := g.AddAS(1, "C", "US")
	asT := g.AddAS(2, "T", "DE")
	asE := g.AddAS(3, "E", "KZ")
	r1 := g.AddRouter("r1", asC)
	for _, id := range []string{"m1", "m2", "m3", "m4"} {
		g.AddRouter(id, asT)
		g.Link("r1", id)
	}
	r3 := g.AddRouter("r3", asE)
	for _, id := range []string{"m1", "m2", "m3", "m4"} {
		g.Link(id, "r3")
	}
	client := g.AddHost("client", asC, r1)
	server := g.AddHost("server", asE, r3)
	n := simnet.New(g)
	n.RegisterServer("server", endpoint.NewServer("www.blocked.example", "www.control.example"))
	for _, id := range []string{"m1", "m2", "m3", "m4"} {
		dev := middlebox.NewDevice("d-"+id, middlebox.VendorCisco,
			[]string{"www.blocked.example"}, g.Router(id).Addr)
		n.AttachDevice(id, "r3", dev)
	}
	return n, client, server
}

// BenchmarkAblation_Repetitions compares 1 vs 11 traceroute repetitions
// under ECMP variance, reporting how often the hop distribution at the
// variable hop is fully covered.
func BenchmarkAblation_Repetitions(b *testing.B) {
	for _, reps := range []int{1, 11} {
		name := map[int]string{1: "reps=1", 11: "reps=11"}[reps]
		b.Run(name, func(b *testing.B) {
			n, client, server := varianceWorld()
			covered := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := centrace.New(n, client, server, centrace.Config{
					ControlDomain: "www.control.example",
					TestDomain:    "www.blocked.example",
					Repetitions:   reps,
				}).Run()
				// 4 ECMP middle hops exist; count how many the control
				// distribution observed.
				covered = len(res.Control.HopDist[2])
			}
			b.ReportMetric(float64(covered), "hopsCovered")
		})
	}
}

// BenchmarkAblation_TTLCopyCorrection reports device-localization error
// with and without the Past-E TTL-copy correction.
func BenchmarkAblation_TTLCopyCorrection(b *testing.B) {
	world := experiments.BuildWorld()
	var ep experiments.EndpointInfo
	for _, e := range world.EndpointsIn("RU") {
		if e.ASN == 42009 { // TTL-copying injector region
			ep = e
			break
		}
	}
	for _, corrected := range []bool{false, true} {
		name := map[bool]string{false: "off", true: "on"}[corrected]
		b.Run(name, func(b *testing.B) {
			errHops := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := centrace.New(world.Net, world.USClient, ep.Host, centrace.Config{
					ControlDomain: experiments.ControlDomain,
					TestDomain:    experiments.RUBlocked,
					Repetitions:   3,
				}).Run()
				const trueHop = 6 // ru-reg9r: us-cli-r,telia1,telia2,ru-bdr,entry,reg
				got := res.TermTTL
				if corrected {
					got = res.DeviceTTL
				}
				errHops = got - trueHop
				if errHops < 0 {
					errHops = -errHops
				}
			}
			b.ReportMetric(float64(errHops), "locErrHops")
		})
	}
}

// BenchmarkAblation_Epsilon compares k-distance ε estimation against fixed
// values, reporting cluster purity (fraction of clustered labeled points
// whose cluster is vendor-pure).
func BenchmarkAblation_Epsilon(b *testing.B) {
	c := corpus(b)
	for _, cfg := range []struct {
		name string
		eps  float64
	}{
		{"kdistance", 0},
		{"fixed-0.5", 0.5},
		{"fixed-5.0", 5.0},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var res *experiments.Fig6Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = experiments.Fig6(c, experiments.Fig6Config{EpsilonOverride: cfg.eps})
			}
			b.StopTimer()
			b.ReportMetric(clusterPurity(res), "purity")
			b.ReportMetric(float64(len(res.Clusters)), "clusters")
		})
	}
}

// clusterPurity computes the share of clustered labeled observations whose
// cluster contains only their vendor.
func clusterPurity(res *experiments.Fig6Result) float64 {
	clusterVendors := map[int]map[string]int{}
	for i, label := range res.Assignment.Labels {
		if label == ml.Noise {
			continue
		}
		v := res.Observations[i].Label()
		if v == "" {
			continue
		}
		if clusterVendors[label] == nil {
			clusterVendors[label] = map[string]int{}
		}
		clusterVendors[label][v]++
	}
	pure, total := 0, 0
	for _, vendors := range clusterVendors {
		n := 0
		for _, c := range vendors {
			n += c
		}
		total += n
		if len(vendors) == 1 {
			pure += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(pure) / float64(total)
}

// BenchmarkAblation_FeatureSets compares random-forest vendor-classifier
// accuracy on CenTrace features alone, +CenFuzz, and +banners.
func BenchmarkAblation_FeatureSets(b *testing.B) {
	c := corpus(b)
	obs := c.Observations()
	full := features.Extract(obs).Imputed()
	names := features.FeatureNames()
	sets := []struct {
		name   string
		filter func(string) bool
	}{
		{"trace-only", func(n string) bool { return !isFuzz(n) && !isBanner(n) }},
		{"trace+fuzz", func(n string) bool { return !isBanner(n) }},
		{"all", func(string) bool { return true }},
	}
	for _, set := range sets {
		b.Run(set.name, func(b *testing.B) {
			var cols []int
			for i, n := range names {
				if set.filter(n) {
					cols = append(cols, i)
				}
			}
			sub := full.SelectColumns(cols)
			d, _, classes := sub.LabeledDataset()
			if len(classes) < 2 {
				b.Skip("not enough labeled classes")
			}
			var accs []float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				accs, _ = ml.CrossValidate(d, ml.ForestConfig{NumTrees: 40, Seed: 2}, 5, 1)
			}
			b.StopTimer()
			mean := 0.0
			for _, a := range accs {
				mean += a
			}
			if len(accs) > 0 {
				mean /= float64(len(accs))
			}
			b.ReportMetric(100*mean, "cvAcc%")
		})
	}
}

func isFuzz(n string) bool   { return len(n) > 5 && n[:5] == "Fuzz:" }
func isBanner(n string) bool { return n == "NumOpenPorts" || (len(n) > 9 && n[:9] == "PortOpen:") }

// BenchmarkSimnetTransmit measures the raw forwarding engine: one payload
// packet crossing the full four-country world. allocs/op is the headline
// number — the pooled packet plane targets zero steady-state allocations
// (ci.sh gates on it).
func BenchmarkSimnetTransmit(b *testing.B) {
	world := experiments.BuildWorld()
	ep := world.EndpointsIn("RU")[0]
	conn, err := world.Net.Dial(world.USClient, ep.Host, 80)
	if err != nil {
		b.Fatal(err)
	}
	payload := []byte("GET / HTTP/1.1\r\nHost: www.control.example\r\n\r\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn.SendPayload(payload, 64)
	}
}

// BenchmarkSimnetProbe measures one CenTrace-style probe: a fresh Dial, a
// TTL-limited SendPayload and a Close, four packets on a new 5-tuple.
// Operations alternate between ru-ep-0-0, which USClient reaches over
// equal-cost paths, and az-ep-0-0, which it reaches over one path.
// BenchmarkSimnetTransmit reuses one connection, so it times a memoized
// flow only; this one pays the per-flow resolution. allocs/op is gated in
// ci.sh.
func BenchmarkSimnetProbe(b *testing.B) {
	world := experiments.BuildWorld()
	eps := [2]*topology.Host{world.Net.Graph.Host("ru-ep-0-0"), world.Net.Graph.Host("az-ep-0-0")}
	if eps[0] == nil || eps[1] == nil {
		b.Fatal("world lacks ru-ep-0-0 or az-ep-0-0")
	}
	payload := []byte("GET / HTTP/1.1\r\nHost: www.control.example\r\n\r\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := world.Net.Dial(world.USClient, eps[i%2], 80)
		if err != nil {
			b.Fatal(err)
		}
		conn.SendPayload(payload, 4)
		conn.Close()
	}
}

// BenchmarkWorldClone measures one Network.Clone of the four-country world
// — the private copy every censerved job and every campaign worker takes
// before it measures. allocs/op is the headline number (ci.sh gates on
// it): a clone should cost in proportion to what a measurement can
// change (the device flow state it left behind), not to the size of the
// world.
// One clone is taken before the timer starts, as the scheduler's first
// job does, so the source's route caches are warm.
func BenchmarkWorldClone(b *testing.B) {
	world := experiments.BuildWorld()
	world.Net.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		world.Net.Clone()
	}
}

// BenchmarkStoreAppend measures one durable store append — binary record
// encode, frame, write, fsync — through the public API (ns/op is
// fsync-dominated; allocs/op is the number that must stay flat).
func BenchmarkStoreAppend(b *testing.B) {
	st, err := serve.OpenStore(b.TempDir(), 1)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	spec := serve.JobSpec{Kind: serve.KindCenTrace, Domain: "bench.example", Seed: 7}
	spec.Normalize()
	e, err := st.AppendQueued(spec)
	if err != nil {
		b.Fatal(err)
	}
	payload := json.RawMessage(`{"blocked":true,"ttl":7,"vendor":"bench"}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.UpdateState(e.ID, serve.StateRunning, i+1, "", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalAppend measures one campaign checkpoint: the full
// Result tree hand-encoded into a reused scratch buffer and framed —
// no reflection, no fsync (the campaign syncs at its own cadence).
func BenchmarkJournalAppend(b *testing.B) {
	j := centrace.NewJournal(io.Discard)
	cr := centrace.CampaignResult{
		Target: centrace.Target{Domain: "bench.example", Protocol: centrace.HTTP, Label: "bench"},
		Result: benchResult(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Record(cr)
	}
	if err := j.Err(); err != nil {
		b.Fatal(err)
	}
}

// benchResult builds a representative measurement result: two aggregates
// of three traces with quotes, deltas, and hop distributions — the shape
// a blocked HTTP measurement actually journals.
func benchResult() *centrace.Result {
	mkTrace := func() centrace.Trace {
		return centrace.Trace{
			Domain: "bench.example",
			Obs: []centrace.ProbeObs{
				{TTL: 1, Kind: centrace.KindICMP, From: netip.MustParseAddr("10.0.0.1"),
					Quote: &netem.QuotedPacket{IP: netem.IPv4{TTL: 1, Protocol: netem.ProtoTCP,
						Src: netip.MustParseAddr("10.0.0.100"), Dst: netip.MustParseAddr("192.0.2.9")}},
					QuoteDelta: &netem.QuoteDelta{TTLAtQuote: 1, QuotedPayloadLen: 8}},
				{TTL: 2, Kind: centrace.KindICMP, From: netip.MustParseAddr("10.0.0.2")},
				{TTL: 3, Kind: centrace.KindRST, From: netip.MustParseAddr("192.0.2.9"),
					Injected: &centrace.InjectedFeatures{TTL: 64, TCPFlags: netem.TCPRst}},
			},
			TermIdx: 2, Attempts: 4, Retries: 1,
		}
	}
	agg := &centrace.Aggregate{
		Domain: "bench.example",
		Traces: []centrace.Trace{mkTrace(), mkTrace(), mkTrace()},
		HopDist: map[int]map[netip.Addr]int{
			1: {netip.MustParseAddr("10.0.0.1"): 3},
			2: {netip.MustParseAddr("10.0.0.2"): 3},
			3: {netip.MustParseAddr("192.0.2.9"): 3},
		},
		TermTTL: 3, TermKind: centrace.KindRST, EndpointTTL: 3,
	}
	return &centrace.Result{
		Config:   centrace.Config{ControlDomain: "control.example", TestDomain: "bench.example", MaxTTL: 30},
		Client:   netip.MustParseAddr("10.0.0.100"),
		Endpoint: netip.MustParseAddr("192.0.2.9"),
		Valid:    true, Blocked: true,
		TermKind: centrace.KindRST, TermTTL: 3, EndpointTTL: 3, DeviceTTL: 3,
		BlockingHop: centrace.HopInfo{TTL: 3, Addr: netip.MustParseAddr("10.0.0.2"), ASN: 64500},
		Control:     agg, Test: agg,
	}
}

// BenchmarkDBSCAN measures the clustering primitive on synthetic data.
func BenchmarkDBSCAN(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	pts := make([][]float64, 200)
	for i := range pts {
		base := float64(i % 4)
		pts[i] = []float64{base*10 + rng.Float64(), base*10 + rng.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ml.DBSCAN(pts, 2, 3)
	}
}

// BenchmarkRandomForest measures forest training on a small labeled set.
func BenchmarkRandomForest(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	d := &ml.Dataset{}
	for i := 0; i < 100; i++ {
		y := i % 3
		d.X = append(d.X, []float64{float64(y) + rng.Float64()*0.3, rng.Float64(), rng.Float64()})
		d.Y = append(d.Y, y)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ml.FitForest(d, ml.ForestConfig{NumTrees: 30, Seed: int64(i)})
	}
}

// BenchmarkCenTraceDNS measures the DNS-extension probe: one full DNS
// CenTrace (control + test) against an injector.
func BenchmarkCenTraceDNS(b *testing.B) {
	g := topology.NewGraph()
	asC := g.AddAS(1, "C", "US")
	asR := g.AddAS(2, "R", "IR")
	r1 := g.AddRouter("r1", asC)
	r2 := g.AddRouter("r2", asR)
	g.Link("r1", "r2")
	client := g.AddHost("client", asC, r1)
	resolver := g.AddHost("resolver", asR, r2)
	n := simnet.New(g)
	n.RegisterResolver("resolver", endpoint.NewResolver(map[string]netip.Addr{
		"www.blocked.example": netip.MustParseAddr("192.0.2.80"),
		"www.control.example": netip.MustParseAddr("192.0.2.81"),
	}))
	n.AttachDevice("r1", "r2", middlebox.NewDevice("inj", middlebox.VendorDNSInjector,
		[]string{"www.blocked.example"}, netip.Addr{}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		centrace.New(n, client, resolver, centrace.Config{
			ControlDomain: "www.control.example",
			TestDomain:    "www.blocked.example",
			Protocol:      centrace.DNS,
			Repetitions:   5,
		}).Run()
	}
}

// BenchmarkAblation_Retries compares CenTrace observation quality under
// 20% transient loss with and without the paper's 3-retry rule, reporting
// the rate of spurious timeout observations on an unfiltered path (the
// modal-repetition logic keeps the final verdict correct either way —
// itself a robustness result).
func BenchmarkAblation_Retries(b *testing.B) {
	for _, retries := range []int{-1, 3} {
		name := map[int]string{-1: "retries=0", 3: "retries=3"}[retries]
		b.Run(name, func(b *testing.B) {
			timeouts, probes := 0, 0
			falseBlocked, runs := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := topology.NewGraph()
				asC := g.AddAS(1, "C", "US")
				asE := g.AddAS(2, "E", "KZ")
				r1 := g.AddRouter("r1", asC)
				r2 := g.AddRouter("r2", asE)
				g.Link("r1", "r2")
				client := g.AddHost("client", asC, r1)
				server := g.AddHost("server", asE, r2)
				n := simnet.New(g)
				n.RegisterServer("server", endpoint.NewServer("www.t.example", "www.c.example"))
				for trial := 0; trial < 20; trial++ {
					n.SetFaults(faults.NewEngine(int64(trial)).AddGlobal(faults.UniformLoss(0.2)))
					res := centrace.New(n, client, server, centrace.Config{
						ControlDomain: "www.c.example",
						TestDomain:    "www.t.example",
						Repetitions:   3,
						Retries:       retries,
					}).Run()
					runs++
					if res.Blocked {
						falseBlocked++
					}
					for _, tr := range append(res.Control.Traces, res.Test.Traces...) {
						for _, obs := range tr.Obs {
							probes++
							if obs.Kind == centrace.KindTimeout {
								timeouts++
							}
						}
					}
				}
			}
			b.ReportMetric(100*float64(falseBlocked)/float64(runs), "falseBlocked%")
			b.ReportMetric(100*float64(timeouts)/float64(probes), "spuriousTimeout%")
		})
	}
}

// BenchmarkSec41_Calibration reproduces the §4.1 path-variance calibration
// (200 traceroutes × 20 endpoints), reporting the mean repetitions needed
// for 90% path coverage (paper: 11).
func BenchmarkSec41_Calibration(b *testing.B) {
	var res experiments.CalibrationResult
	for i := 0; i < b.N; i++ {
		res = experiments.Calibrate(20, 200)
	}
	b.ReportMetric(res.MeanRepsFor90, "repsFor90")
}

// BenchmarkSec71_ClassifyUnlabeled reproduces the §7.1 vendor prediction
// for unlabeled devices, reporting the prediction count and the mean
// confidence.
func BenchmarkSec71_ClassifyUnlabeled(b *testing.B) {
	c := corpus(b)
	var preds []experiments.Prediction
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preds = experiments.ClassifyUnlabeled(c)
	}
	b.StopTimer()
	conf := 0.0
	for _, p := range preds {
		conf += p.Confidence
	}
	if len(preds) > 0 {
		conf /= float64(len(preds))
	}
	b.ReportMetric(float64(len(preds)), "predictions")
	b.ReportMetric(100*conf, "meanConf%")
}

// BenchmarkBaseline_GenevaVsCenFuzz contrasts the Geneva-style genetic
// search (the paper's §3.4 baseline, internal/evolve) with deterministic
// CenFuzz on the same device: the search finds one evading strategy in far
// fewer measurements, but different seeds converge to different genomes —
// no stable fingerprint — which is the paper's argument for determinism.
func BenchmarkBaseline_GenevaVsCenFuzz(b *testing.B) {
	build := func() (*simnet.Network, *topology.Host, *topology.Host) {
		g := topology.NewGraph()
		asC := g.AddAS(1, "C", "US")
		asE := g.AddAS(2, "E", "US")
		r1 := g.AddRouter("r1", asC)
		r2 := g.AddRouter("r2", asE)
		g.Link("r1", "r2")
		client := g.AddHost("client", asC, r1)
		origin := g.AddHost("origin", asE, r2)
		n := simnet.New(g)
		srv := endpoint.NewServer("www.blocked.example")
		srv.TolerantPadding = true
		n.RegisterServer("origin", srv)
		n.AttachDevice("r1", "r2", middlebox.NewDevice("d", middlebox.VendorCisco,
			[]string{"www.blocked.example"}, netip.Addr{}))
		return n, client, origin
	}

	b.Run("geneva-search", func(b *testing.B) {
		evals := 0
		distinct := map[string]bool{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n, client, origin := build()
			for seed := int64(0); seed < 5; seed++ {
				res := evolve.Search(evolve.NetworkEvaluator(n, client, origin, "www.blocked.example"),
					evolve.Config{Seed: seed})
				evals += res.Evaluations
				distinct[res.Best.String()] = true
			}
		}
		b.ReportMetric(float64(evals)/float64(b.N)/5, "evalsPerRun")
		b.ReportMetric(float64(len(distinct)), "distinctStrategies")
	})
	b.Run("cenfuzz-exhaustive", func(b *testing.B) {
		var res *cenfuzz.Result
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n, client, origin := build()
			fz := cenfuzz.New(n, client, origin, cenfuzz.Config{
				TestDomain:    "www.blocked.example",
				ControlDomain: "www.blocked.example",
			})
			res = fz.Run(nil)
		}
		b.ReportMetric(float64(res.TotalMeasurements), "evalsPerRun")
		b.ReportMetric(1, "distinctStrategies") // deterministic by construction
	})
}

// BenchmarkExtension_Segmentation measures the TCP-segmentation extension
// class against a per-packet engine (fully evaded) and a reassembling
// engine (fully caught) — the evasion boundary the Geneva/SymTCP line of
// work documents.
func BenchmarkExtension_Segmentation(b *testing.B) {
	for _, tc := range []struct {
		name   string
		vendor middlebox.Vendor
	}{
		{"per-packet-engine", middlebox.VendorCisco},
		{"reassembling-engine", middlebox.VendorFortinet},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var rate float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := topology.NewGraph()
				asC := g.AddAS(1, "C", "US")
				asE := g.AddAS(2, "E", "KZ")
				r1 := g.AddRouter("r1", asC)
				r2 := g.AddRouter("r2", asE)
				g.Link("r1", "r2")
				client := g.AddHost("client", asC, r1)
				server := g.AddHost("server", asE, r2)
				n := simnet.New(g)
				n.RegisterServer("server", endpoint.NewServer("www.blocked.example", "www.control.example"))
				n.AttachDevice("r1", "r2", middlebox.NewDevice("d", tc.vendor,
					[]string{"www.blocked.example"}, netip.Addr{}))
				fz := cenfuzz.New(n, client, server, cenfuzz.Config{
					TestDomain:    "www.blocked.example",
					ControlDomain: "www.control.example",
				})
				res := fz.Run(cenfuzz.ExtensionStrategies())
				rate = res.Strategy("Segmentation").SuccessRate()
			}
			b.ReportMetric(100*rate, "evasion%")
		})
	}
}

// benchLadder builds a W-wide, D-layer ECMP ladder: every router in a
// layer links to every router in the next, giving W^(D-1) equal-cost
// paths — a worst-ish case for per-epoch route recomputation.
func benchLadder(w, d int) *topology.Graph {
	g := topology.NewGraph()
	as := g.AddAS(64999, "Ladder", "XX")
	for layer := 0; layer < d; layer++ {
		for col := 0; col < w; col++ {
			g.AddRouter(fmt.Sprintf("r%d_%d", layer, col), as)
		}
	}
	for layer := 0; layer+1 < d; layer++ {
		for a := 0; a < w; a++ {
			for b := 0; b < w; b++ {
				g.Link(fmt.Sprintf("r%d_%d", layer, a), fmt.Sprintf("r%d_%d", layer+1, b))
			}
		}
	}
	g.AddHost("src", as, g.Router("r0_0"))
	g.AddHost("dst", as, g.Router(fmt.Sprintf("r%d_0", d-1)))
	return g
}

// BenchmarkEpochRecompute measures the route-dynamics hot path: rebuilding
// every epoch snapshot (graph clone + link-state replay + BFS route
// tables) and resolving one flow path per epoch.
func BenchmarkEpochRecompute(b *testing.B) {
	g := benchLadder(4, 8)
	eng := routedyn.NewEngine(7, g)
	for i := 0; i < 4; i++ {
		from := fmt.Sprintf("r%d_%d", i+1, i%4)
		to := fmt.Sprintf("r%d_%d", i+2, (i+1)%4)
		if err := eng.FlapLink(from, to, time.Duration(10+i)*time.Second, time.Minute, 2); err != nil {
			b.Fatal(err)
		}
	}
	hash := topology.FlowHash(g.Host("src").Addr, g.Host("dst").Addr, 40000, 80, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Clone drops every cached snapshot, so each iteration recomputes
		// the full epoch history from the schedule.
		e := eng.Clone(g)
		for k := 0; k < e.Epochs(); k++ {
			ep := e.Epoch(k)
			eg := ep.Graph()
			if p := eg.PathForFlowSalted(eg.Host("src"), eg.Host("dst"), hash, ep.SaltFunc()); len(p) == 0 {
				b.Fatalf("epoch %d: no path", k)
			}
		}
	}
	b.ReportMetric(float64(eng.Epochs()), "epochs")
}

// BenchmarkTomographySolve measures the boolean-tomography solver on a
// synthetic campaign: 48 vantages × 16 epochs over the ladder, ~10-link
// paths, one censored link planted.
func BenchmarkTomographySolve(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	censored := tomography.MakeLink("r3_1", "r4_2")
	var observations []tomography.Observation
	for v := 0; v < 48; v++ {
		for e := 0; e < 16; e++ {
			// Random layer-by-layer walk through the ladder.
			links := []tomography.Link{tomography.MakeLink("@v"+fmt.Sprint(v), "r0_0")}
			prev := "r0_0"
			blocked := false
			for layer := 1; layer < 8; layer++ {
				next := fmt.Sprintf("r%d_%d", layer, rng.Intn(4))
				l := tomography.MakeLink(prev, next)
				links = append(links, l)
				if l == censored {
					blocked = true
				}
				prev = next
			}
			observations = append(observations, tomography.Observation{
				Vantage: fmt.Sprintf("v%d", v), Endpoint: "dst",
				Epoch: e, Blocked: blocked, Links: links,
			})
		}
	}
	var res tomography.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = tomography.Solve(observations)
	}
	b.StopTimer()
	if res.Verdict == tomography.Unlocalizable || !res.Contains(censored) {
		b.Fatalf("solver lost the planted link: %s", tomography.Render(res))
	}
	b.ReportMetric(float64(len(observations)), "obs")
	b.ReportMetric(float64(len(res.Candidates)), "candidates")
}
