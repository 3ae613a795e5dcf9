package main

import (
	"fmt"
	"math/rand"

	"cendev/internal/cenfuzz"
	"cendev/internal/experiments"
	"cendev/internal/serve"
)

// workload is one seeded job mix and the deployment it is sent to.
type workload struct {
	name string
	// window is how many jobs each client keeps outstanding.
	window int
	// warm is how many specs run before timing starts. It covers the first
	// spec of every sample kind the mix produces, so the correctness gate
	// sees each kind in every deployment.
	warm int
	// rssJobs is how many of the window's jobs max_rss_mb covers. The
	// resident set grows with the jobs the store holds, so a fixed count of
	// jobs, not a fixed time, keeps it from following the host's speed.
	rssJobs int
	// byService scales the workload's timings by the service probe as well
	// as the compute probe (probe.go): the light mixes spend their time in
	// HTTP, wake-ups and fsync as much as in computing, heavy-mix in
	// computing alone.
	byService bool
	cluster   bool
	block     func(*generator) []serve.JobSpec
}

// workloads are the benchmark's job mixes. light-mix stresses admission,
// queue, store and HTTP with jobs that execute in milliseconds; heavy-mix
// is dominated by execution; cluster-light sends light-mix's exact specs
// through a coordinator and three workers, so the two compare directly.
var workloads = []workload{
	{name: "light-mix", window: 8, warm: 40, rssJobs: 6000, byService: true, block: lightBlock},
	{name: "heavy-mix", window: 2, warm: 20, rssJobs: 1000, block: heavyBlock},
	{name: "cluster-light", window: 8, warm: 40, rssJobs: 4000, byService: true, cluster: true, block: lightBlock},
}

func workloadNamed(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have light-mix, heavy-mix, cluster-light)", name)
}

// catalog is what the generators draw from: the simulated world's remote
// endpoints with the test domains of their country, the management
// addresses of its censorship devices, the Table 2 strategy names, and the
// tomography scenario names.
type catalog struct {
	endpoints  []target
	devices    []string
	strategies []string
	scenarios  []string
}

type target struct {
	id      string
	domains []string
}

// worldCatalog reads the catalog from the world every scheduler builds, so
// generated specs name hosts the service knows.
func worldCatalog() *catalog {
	w := experiments.BuildWorld()
	c := &catalog{scenarios: experiments.CrossValScenarioNames()}
	for _, e := range w.Endpoints {
		if ds := experiments.TestDomainsFor(e.Country); len(ds) > 0 {
			c.endpoints = append(c.endpoints, target{id: e.Host.ID, domains: ds})
		}
	}
	for _, d := range w.Devices {
		if d.Device.Addr.IsValid() {
			c.devices = append(c.devices, d.Device.Addr.String())
		}
	}
	for _, st := range cenfuzz.Strategies() {
		c.strategies = append(c.strategies, st.Name)
	}
	return c
}

// generator yields a workload's job specs in order. The sequence is a pure
// function of the catalog and the workload seed. Every spec carries its own
// Seed, so the service's spec+seed result cache never hits.
type generator struct {
	cat    *catalog
	rng    *rand.Rand
	block  func(*generator) []serve.JobSpec
	base   int64
	queue  []serve.JobSpec
	n      int64 // specs emitted so far
	traces int   // CenTrace specs emitted so far
}

func newGenerator(cat *catalog, wl workload, seed int64) *generator {
	return &generator{
		cat:   cat,
		rng:   rand.New(rand.NewSource(seed)),
		block: wl.block,
		base:  int64(uint64(seed)&0x7fff) << 32,
	}
}

// next returns the next spec. Each block of the mix is shuffled, so the
// kinds interleave differently per seed while the proportions stay exact.
func (g *generator) next() serve.JobSpec {
	if len(g.queue) == 0 {
		g.queue = g.block(g)
		g.rng.Shuffle(len(g.queue), func(i, j int) { g.queue[i], g.queue[j] = g.queue[j], g.queue[i] })
	}
	spec := g.queue[0]
	g.queue = g.queue[1:]
	g.n++
	spec.Seed = g.base + g.n
	if spec.Kind == serve.KindCenTrace {
		g.traces++
		if g.traces%10 == 0 {
			spec.Loss = 0.05
		}
	}
	return spec
}

// lightBlock is ten light-mix specs: 40% CenTrace, 20% each of CenProbe,
// single-scenario tomography and single-strategy CenFuzz.
func lightBlock(g *generator) []serve.JobSpec {
	specs := make([]serve.JobSpec, 0, 10)
	for i := 0; i < 4; i++ {
		specs = append(specs, g.cenTrace())
	}
	for i := 0; i < 2; i++ {
		specs = append(specs, g.cenProbe())
		specs = append(specs, serve.JobSpec{Kind: serve.KindTomography, Scenario: g.pick(g.cat.scenarios)})
		specs = append(specs, g.cenFuzz(g.pick(g.cat.strategies)))
	}
	return specs
}

// heavyBlock is twenty heavy-mix specs: one full campaign on two in-job
// workers, ten full-catalog CenFuzz runs and nine full six-scenario
// tomography studies.
func heavyBlock(g *generator) []serve.JobSpec {
	specs := []serve.JobSpec{{Kind: serve.KindCenTraceCampaign, Workers: 2}}
	for i := 0; i < 10; i++ {
		specs = append(specs, g.cenFuzz(""))
	}
	for i := 0; i < 9; i++ {
		specs = append(specs, serve.JobSpec{Kind: serve.KindTomography})
	}
	return specs
}

func (g *generator) pick(xs []string) string { return xs[g.rng.Intn(len(xs))] }

func (g *generator) target() target { return g.cat.endpoints[g.rng.Intn(len(g.cat.endpoints))] }

func (g *generator) cenTrace() serve.JobSpec {
	t := g.target()
	proto := "http"
	if g.rng.Intn(2) == 1 {
		proto = "https"
	}
	return serve.JobSpec{Kind: serve.KindCenTrace, Endpoint: t.id, Domain: g.pick(t.domains), Protocol: proto}
}

// cenFuzz runs one named strategy, or the full catalog when strategy is
// empty.
func (g *generator) cenFuzz(strategy string) serve.JobSpec {
	t := g.target()
	return serve.JobSpec{Kind: serve.KindCenFuzz, Endpoint: t.id, Domain: g.pick(t.domains), Strategy: strategy}
}

// cenProbe banner-grabs one to three distinct devices.
func (g *generator) cenProbe() serve.JobSpec {
	perm := g.rng.Perm(len(g.cat.devices))[:1+g.rng.Intn(3)]
	addrs := make([]string, len(perm))
	for i, k := range perm {
		addrs[i] = g.cat.devices[k]
	}
	return serve.JobSpec{Kind: serve.KindCenProbe, Addrs: addrs}
}

// sampleKind names the correctness gate's sample classes: the job kind,
// with lossy CenTrace apart because its payload runs through a seeded
// fault engine.
func sampleKind(s serve.JobSpec) string {
	if s.Kind == serve.KindCenTrace && s.Loss > 0 {
		return "centrace+loss"
	}
	return s.Kind
}

// samples returns, by spec index, the first spec of each sample kind among
// the workload's warm-up specs.
func samples(cat *catalog, wl workload, seed int64) map[int]serve.JobSpec {
	g := newGenerator(cat, wl, seed)
	seen := make(map[string]bool)
	out := make(map[int]serve.JobSpec)
	for i := 0; i < wl.warm; i++ {
		spec := g.next()
		if k := sampleKind(spec); !seen[k] {
			seen[k] = true
			out[i] = spec
		}
	}
	return out
}
