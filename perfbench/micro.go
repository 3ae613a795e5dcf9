package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"path/filepath"
	"runtime"
	"time"

	"cendev/internal/centrace"
	"cendev/internal/experiments"
	"cendev/internal/netem"
	"cendev/internal/obs"
	"cendev/internal/routedyn"
	"cendev/internal/serve"
	"cendev/internal/tomography"
	"cendev/internal/topology"
)

// micro is one of the repository's go test microbenchmarks, re-run here as a
// per-layer metric: several samples, reported as their median.
type micro struct {
	name, unit string
	samples    []float64
}

const microSamples = 7

// perOp runs fn iters times and returns nanoseconds and heap allocations
// per call. It collects garbage first, so a sample does not pay for the
// garbage of the one before.
func perOp(iters int, fn func()) (ns, allocs float64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed.Nanoseconds()) / float64(iters), float64(m1.Mallocs-m0.Mallocs) / float64(iters)
}

// runMicros runs every folded-in microbenchmark; dir is where they may
// write files.
func runMicros(dir string) ([]micro, error) {
	var out []micro
	for _, run := range []func(string) ([]micro, error){
		microTransmit, microCampaign, microEpochs, microSolve, microStoreAppend, microJournalAppend,
	} {
		ms, err := run(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// microTransmit is BenchmarkSimnetTransmit: one payload packet crossing the
// four-country world.
func microTransmit(string) ([]micro, error) {
	w := experiments.BuildWorld()
	conn, err := w.Net.Dial(w.USClient, w.EndpointsIn("RU")[0].Host, 80)
	if err != nil {
		return nil, fmt.Errorf("simnet transmit: %w", err)
	}
	payload := []byte("GET / HTTP/1.1\r\nHost: www.control.example\r\n\r\n")
	ns := micro{name: "simnet.transmit_ns", unit: "ns"}
	allocs := micro{name: "simnet.transmit_allocs", unit: "count"}
	for i := 0; i < microSamples; i++ {
		t, a := perOp(150000, func() { conn.SendPayload(payload, 64) })
		ns.samples = append(ns.samples, t)
		allocs.samples = append(allocs.samples, a)
	}
	return []micro{ns, allocs}, nil
}

// microCampaign is BenchmarkCampaignParallel/workers=1 and the
// BenchmarkCampaignObs off/on pair (four workers), the pair alternating
// within each sample.
func microCampaign(string) ([]micro, error) {
	w := experiments.BuildWorld()
	var targets []centrace.Target
	for _, e := range w.EndpointsIn("KZ") {
		for _, domain := range experiments.TestDomainsFor("KZ") {
			targets = append(targets, centrace.Target{Endpoint: e.Host, Domain: domain, Protocol: centrace.HTTP, Label: "KZ"})
		}
	}
	run := func(workers int, withObs bool) float64 {
		var reg *obs.Registry
		var tr *obs.Tracer
		if withObs {
			reg, tr = obs.NewRegistry(), obs.NewTracer()
		}
		w.Net.SetObs(reg)
		defer w.Net.SetObs(nil)
		runtime.GC()
		start := time.Now()
		(&centrace.Campaign{
			Net:     w.Net,
			Client:  w.USClient,
			Base:    centrace.Config{ControlDomain: experiments.ControlDomain, Repetitions: 3, Obs: reg, Tracer: tr},
			Workers: workers,
		}).Run(targets)
		return float64(time.Since(start).Nanoseconds()) / 1e6
	}
	campaign := micro{name: "centrace.campaign_ms", unit: "ms"}
	overhead := micro{name: "obs.campaign_overhead_ratio", unit: "ratio"}
	for i := 0; i < microSamples; i++ {
		campaign.samples = append(campaign.samples, run(1, false))
		off := run(4, false)
		overhead.samples = append(overhead.samples, run(4, true)/off)
	}
	return []micro{campaign, overhead}, nil
}

// ladder is a w-wide, d-layer ECMP ladder (every router linked to every
// router of the next layer) with a host at each end.
func ladder(w, d int) *topology.Graph {
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

// microEpochs is BenchmarkEpochRecompute: rebuild every epoch snapshot of
// a flapping ladder and resolve one flow path per epoch.
func microEpochs(string) ([]micro, error) {
	g := ladder(4, 8)
	eng := routedyn.NewEngine(7, g)
	for i := 0; i < 4; i++ {
		from, to := fmt.Sprintf("r%d_%d", i+1, i%4), fmt.Sprintf("r%d_%d", i+2, (i+1)%4)
		if err := eng.FlapLink(from, to, time.Duration(10+i)*time.Second, time.Minute, 2); err != nil {
			return nil, fmt.Errorf("routedyn: %w", err)
		}
	}
	hash := topology.FlowHash(g.Host("src").Addr, g.Host("dst").Addr, 40000, 80, 6)
	m := micro{name: "routedyn.epoch_recompute_ms", unit: "ms"}
	var lost error
	for i := 0; i < microSamples; i++ {
		ns, _ := perOp(80, func() {
			e := eng.Clone(g)
			for k := 0; k < e.Epochs(); k++ {
				ep := e.Epoch(k)
				eg := ep.Graph()
				if len(eg.PathForFlowSalted(eg.Host("src"), eg.Host("dst"), hash, ep.SaltFunc())) == 0 {
					lost = fmt.Errorf("routedyn: epoch %d has no path", k)
				}
			}
		})
		m.samples = append(m.samples, ns/1e6)
	}
	return []micro{m}, lost
}

// microSolve is BenchmarkTomographySolve: 48 vantages × 16 epochs of random
// ladder walks with one censored link planted.
func microSolve(string) ([]micro, error) {
	rng := rand.New(rand.NewSource(11))
	censored := tomography.MakeLink("r3_1", "r4_2")
	var observations []tomography.Observation
	for v := 0; v < 48; v++ {
		for e := 0; e < 16; e++ {
			links := []tomography.Link{tomography.MakeLink(fmt.Sprintf("@v%d", v), "r0_0")}
			prev, blocked := "r0_0", false
			for layer := 1; layer < 8; layer++ {
				next := fmt.Sprintf("r%d_%d", layer, rng.Intn(4))
				l := tomography.MakeLink(prev, next)
				links = append(links, l)
				blocked = blocked || l == censored
				prev = next
			}
			observations = append(observations, tomography.Observation{
				Vantage: fmt.Sprintf("v%d", v), Endpoint: "dst", Epoch: e, Blocked: blocked, Links: links,
			})
		}
	}
	m := micro{name: "tomography.solve_ms", unit: "ms"}
	var res tomography.Result
	for i := 0; i < microSamples; i++ {
		ns, _ := perOp(120, func() { res = tomography.Solve(observations) })
		m.samples = append(m.samples, ns/1e6)
	}
	if res.Verdict == tomography.Unlocalizable || !res.Contains(censored) {
		return nil, fmt.Errorf("tomography: solver lost the planted link: %s", tomography.Render(res))
	}
	return []micro{m}, nil
}

// microStoreAppend is BenchmarkStoreAppend: one durable store transition,
// encode plus write plus fsync.
func microStoreAppend(dir string) ([]micro, error) {
	st, err := serve.OpenStore(filepath.Join(dir, "micro-store"), 1)
	if err != nil {
		return nil, err
	}
	spec := serve.JobSpec{Kind: serve.KindCenTrace, Domain: "bench.example", Seed: 7}
	spec.Normalize()
	e, err := st.AppendQueued(spec)
	if err != nil {
		st.Close()
		return nil, err
	}
	payload := json.RawMessage(`{"blocked":true,"ttl":7,"vendor":"bench"}`)
	m := micro{name: "store.append_us", unit: "us"}
	attempt := 0
	var failed error
	for i := 0; i < microSamples; i++ {
		ns, _ := perOp(500, func() {
			attempt++
			if err := st.UpdateState(e.ID, serve.StateRunning, attempt, "", payload); err != nil {
				failed = err
			}
		})
		m.samples = append(m.samples, ns/1e3)
	}
	if err := st.Close(); err != nil && failed == nil {
		failed = err
	}
	return []micro{m}, failed
}

// microJournalAppend is BenchmarkJournalAppend: one campaign checkpoint
// encoded and framed, without fsync.
func microJournalAppend(string) ([]micro, error) {
	j := centrace.NewJournal(io.Discard)
	cr := centrace.CampaignResult{
		Target: centrace.Target{Domain: "bench.example", Protocol: centrace.HTTP, Label: "bench"},
		Result: journalResult(),
	}
	m := micro{name: "wire.journal_append_ns", unit: "ns"}
	for i := 0; i < microSamples; i++ {
		ns, _ := perOp(25000, func() { j.Record(cr) })
		m.samples = append(m.samples, ns)
	}
	return []micro{m}, j.Err()
}

// journalResult is a blocked HTTP measurement of the shape a campaign
// journals: two aggregates of three traces with quotes and hop
// distributions.
func journalResult() *centrace.Result {
	addr := netip.MustParseAddr
	trace := func() centrace.Trace {
		return centrace.Trace{
			Domain: "bench.example",
			Obs: []centrace.ProbeObs{
				{TTL: 1, Kind: centrace.KindICMP, From: addr("10.0.0.1"),
					Quote: &netem.QuotedPacket{IP: netem.IPv4{TTL: 1, Protocol: netem.ProtoTCP,
						Src: addr("10.0.0.100"), Dst: addr("192.0.2.9")}},
					QuoteDelta: &netem.QuoteDelta{TTLAtQuote: 1, QuotedPayloadLen: 8}},
				{TTL: 2, Kind: centrace.KindICMP, From: addr("10.0.0.2")},
				{TTL: 3, Kind: centrace.KindRST, From: addr("192.0.2.9"),
					Injected: &centrace.InjectedFeatures{TTL: 64, TCPFlags: netem.TCPRst}},
			},
			TermIdx: 2, Attempts: 4, Retries: 1,
		}
	}
	agg := &centrace.Aggregate{
		Domain: "bench.example",
		Traces: []centrace.Trace{trace(), trace(), trace()},
		HopDist: map[int]map[netip.Addr]int{
			1: {addr("10.0.0.1"): 3}, 2: {addr("10.0.0.2"): 3}, 3: {addr("192.0.2.9"): 3},
		},
		TermTTL: 3, TermKind: centrace.KindRST, EndpointTTL: 3,
	}
	return &centrace.Result{
		Config:   centrace.Config{ControlDomain: "control.example", TestDomain: "bench.example", MaxTTL: 30},
		Client:   addr("10.0.0.100"),
		Endpoint: addr("192.0.2.9"),
		Valid:    true, Blocked: true,
		TermKind: centrace.KindRST, TermTTL: 3, EndpointTTL: 3, DeviceTTL: 3,
		BlockingHop: centrace.HopInfo{TTL: 3, Addr: addr("10.0.0.2"), ASN: 64500},
		Control:     agg, Test: agg,
	}
}
