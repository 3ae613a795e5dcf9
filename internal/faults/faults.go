// Package faults is a deterministic, seeded, composable network-impairment
// engine. The simulator consults it on every hop traversal, on every
// response delivery, and at every ICMP emission point, which lets tests
// subject the measurement tools to the structured failures that real
// Internet paths exhibit — bursty loss, dead links, ICMP-silent and
// rate-limited routers, and duplicated packets — instead of only uniform
// i.i.d. loss. Route churn belongs to the route-dynamics engine
// (internal/routedyn): this engine decides only what happens to packets,
// never where they go.
//
// Everything is deterministic given the engine seed: each registered
// impairment draws from its own generator seeded from (engine seed,
// registration index), and time-dependent impairments key off the virtual
// clock, so the same seed and the same sequence of simulator events
// reproduce byte-identical measurement results.
//
// Impairments come in two scopes:
//
//   - Global impairments (AddGlobal) are consulted once per forward packet
//     traversal and once per response delivery; a global UniformLoss is
//     the plain i.i.d. loss model.
//   - Link impairments (AddLink) are consulted on every crossing of that
//     link, in either direction, on both the forward and the return path.
//
// Router-level behaviours — ICMP silence and ICMP rate limiting — are
// registered per router ID.
//
// Each Impairment value carries its own state (e.g. the Gilbert–Elliott
// burst state); register a fresh value per attachment.
package faults

import (
	"fmt"
	"math/rand"
	"time"

	"cendev/internal/obs"
)

// Outcome is an impairment's decision about one packet event.
type Outcome struct {
	// Drop removes the packet.
	Drop bool
	// Duplicate delivers the packet twice. It only has an effect on
	// response deliveries: the client receives two copies.
	Duplicate bool
}

// Merge folds another outcome in: any drop drops, any duplicate duplicates.
func (o *Outcome) Merge(other Outcome) {
	o.Drop = o.Drop || other.Drop
	o.Duplicate = o.Duplicate || other.Duplicate
}

// Impairment decides the fate of packets at one attachment point. Apply is
// called once per consulted event with the virtual time and the
// impairment's private seeded generator; implementations may keep state
// across calls (burst models do). Clone returns an independent copy with
// pristine state (a burst chain back in Good, counters zeroed) — engines
// clone their impairments so parallel measurement workers never share the
// mutable state.
type Impairment interface {
	Apply(now time.Duration, rng *rand.Rand) Outcome
	Clone() Impairment
	fmt.Stringer
}

// bound is an impairment registered with the engine, paired with its
// private deterministic generator. The registration id is retained so a
// cloned engine can re-derive byte-identical generator streams. The
// decision counters are nil until the engine is instrumented; nDrops and
// nDups count decisions since the last FlushObs.
type bound struct {
	imp    Impairment
	rng    *rand.Rand
	id     uint64
	scope  string // "global" or "link:a-b", for metric labels
	drops  *obs.Counter
	dups   *obs.Counter
	nDrops int64
	nDups  int64
}

func (b *bound) apply(now time.Duration) Outcome {
	o := b.imp.Apply(now, b.rng)
	if o.Drop {
		b.nDrops++
	}
	if o.Duplicate {
		b.nDups++
	}
	return o
}

// flush adds the bound's decision tallies into its counters.
func (b *bound) flush() {
	b.drops.Flush(&b.nDrops)
	b.dups.Flush(&b.nDups)
}

// cloneSeeded returns the bound with pristine impairment state, the
// generator its registration id derives under seed, the same counter
// handles, and empty tallies.
func (b *bound) cloneSeeded(seed int64) *bound {
	return &bound{
		imp: b.imp.Clone(), rng: rngFor(seed, b.id), id: b.id, scope: b.scope,
		drops: b.drops, dups: b.dups,
	}
}

// linkKey identifies an undirected link between two attachment points
// (router IDs, or simnet's "@host" client-access pseudo-routers).
type linkKey struct{ a, b string }

func normLink(a, b string) linkKey {
	if b < a {
		a, b = b, a
	}
	return linkKey{a, b}
}

// icmpPolicy is the per-router ICMP emission behaviour.
type icmpPolicy struct {
	silent bool
	// Token bucket (real routers rate-limit ICMP generation in exactly
	// this shape). Zero burst means unlimited.
	limited   bool
	tokens    float64
	burst     float64
	perSecond float64
	last      time.Duration
}

// Engine is the composable impairment engine. The zero value is unusable;
// create one with NewEngine. Engines are not safe for concurrent use —
// the simulator is single-threaded and deterministic by design.
type Engine struct {
	seed   int64
	nextID uint64
	global []*bound
	links  map[linkKey][]*bound
	icmp   map[string]*icmpPolicy
	reg    *obs.Registry
	// suppressed counts silenced or rate-limited ICMP emissions per
	// router since the last FlushObs.
	suppressed map[string]int64
}

// NewEngine creates an empty engine. All randomness derives from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		seed:  seed,
		links: make(map[linkKey][]*bound),
		icmp:  make(map[string]*icmpPolicy),
	}
}

// bind wraps an impairment with a generator derived from the engine seed
// and the registration order, so adding impairments never perturbs the
// streams of previously registered ones.
func (e *Engine) bind(imp Impairment) *bound {
	e.nextID++
	return &bound{imp: imp, rng: rngFor(e.seed, e.nextID), id: e.nextID}
}

// rngFor derives the private generator for a registration id under a seed.
func rngFor(seed int64, id uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix(uint64(seed) ^ id*0x9e3779b97f4a7c15))))
}

// AddGlobal registers an impairment consulted once per forward traversal
// and once per response delivery. Returns the engine for chaining.
func (e *Engine) AddGlobal(imp Impairment) *Engine {
	b := e.bind(imp)
	b.scope = "global"
	e.instrumentBound(b)
	e.global = append(e.global, b)
	return e
}

// AddLink registers an impairment on the undirected link between two
// attachment points, consulted on every crossing in either direction.
func (e *Engine) AddLink(a, b string, imp Impairment) *Engine {
	k := normLink(a, b)
	bd := e.bind(imp)
	bd.scope = "link:" + k.a + "-" + k.b
	e.instrumentBound(bd)
	e.links[k] = append(e.links[k], bd)
	return e
}

// Instrument binds the engine's decision counters to a metrics registry:
// every impairment's drops and duplicates count per (scope, profile), and
// suppressed ICMP emissions count per router. Decisions are tallied in
// plain integers (an engine belongs to one goroutine) and reach the
// registry at FlushObs. Instrumentation survives Clone and CloneSeeded,
// so a campaign's per-target derived engines all aggregate into the same
// series. Safe on a nil engine; pass nil to uninstrument. Rebinding to
// another registry flushes what was counted for the old one. Returns the
// engine for chaining.
func (e *Engine) Instrument(r *obs.Registry) *Engine {
	if e == nil || e.reg == r {
		return e
	}
	e.FlushObs()
	e.reg = r
	for _, b := range e.global {
		e.instrumentBound(b)
	}
	for _, bs := range e.links {
		for _, b := range bs {
			e.instrumentBound(b)
		}
	}
	return e
}

// instrumentBound resolves a bound impairment's counters against the
// engine's registry, or clears them when uninstrumented.
func (e *Engine) instrumentBound(b *bound) {
	if e.reg == nil {
		b.drops, b.dups = nil, nil
		return
	}
	scope := obs.L("scope", b.scope)
	profile := obs.L("profile", b.imp.String())
	b.drops = e.reg.Counter("faults_drops_total", scope, profile)
	b.dups = e.reg.Counter("faults_duplicates_total", scope, profile)
}

// SilenceICMP makes a router forward packets but never emit ICMP Time
// Exceeded — the traceroute-invisible hop (§4.3 saw exactly one).
func (e *Engine) SilenceICMP(routerID string) *Engine {
	p := e.icmpPolicy(routerID)
	p.silent = true
	return e
}

// LimitICMP installs a token bucket on a router's ICMP generation: burst
// tokens capacity, refilling at perSecond tokens per virtual second. Each
// emitted ICMP costs one token.
func (e *Engine) LimitICMP(routerID string, burst int, perSecond float64) *Engine {
	p := e.icmpPolicy(routerID)
	p.limited = true
	p.burst = float64(burst)
	p.tokens = float64(burst)
	p.perSecond = perSecond
	return e
}

func (e *Engine) icmpPolicy(routerID string) *icmpPolicy {
	p := e.icmp[routerID]
	if p == nil {
		p = &icmpPolicy{}
		e.icmp[routerID] = p
	}
	return p
}

// Global consults every global impairment for one traversal event.
func (e *Engine) Global(now time.Duration) Outcome {
	var o Outcome
	for _, b := range e.global {
		o.Merge(b.apply(now))
	}
	return o
}

// Cross consults the impairments on the link between a and b (either
// direction) for one crossing.
func (e *Engine) Cross(a, b string, now time.Duration) Outcome {
	var o Outcome
	for _, imp := range e.links[normLink(a, b)] {
		o.Merge(imp.apply(now))
	}
	return o
}

// AllowICMP reports whether the router may emit an ICMP error now, and
// consumes a rate-limit token when it does.
func (e *Engine) AllowICMP(routerID string, now time.Duration) bool {
	p := e.icmp[routerID]
	if p == nil {
		return true
	}
	if p.silent {
		e.countICMPSuppressed(routerID)
		return false
	}
	if !p.limited {
		return true
	}
	elapsed := now - p.last
	p.last = now
	p.tokens += p.perSecond * elapsed.Seconds()
	if p.tokens > p.burst {
		p.tokens = p.burst
	}
	if p.tokens >= 1 {
		p.tokens--
		return true
	}
	e.countICMPSuppressed(routerID)
	return false
}

// countICMPSuppressed records a silenced or rate-limited ICMP emission.
// Suppressions are rare (they only fire at TTL expiry on an impaired
// router), so the per-router counters are resolved through the registry
// at flush rather than pre-bound per router.
func (e *Engine) countICMPSuppressed(routerID string) {
	if e.reg == nil {
		return
	}
	if e.suppressed == nil {
		e.suppressed = make(map[string]int64)
	}
	e.suppressed[routerID]++
}

// FlushObs adds the decisions counted since the last flush into the
// registry and zeroes the tallies. simnet.Network.FlushObs calls it for
// the network's engine. Safe on a nil engine.
func (e *Engine) FlushObs() {
	if e == nil {
		return
	}
	for _, b := range e.global {
		b.flush()
	}
	for _, bs := range e.links {
		for _, b := range bs {
			b.flush()
		}
	}
	for routerID, n := range e.suppressed {
		e.reg.Counter("faults_icmp_suppressed_total", obs.L("router", routerID)).Add(n)
	}
	clear(e.suppressed)
}

// Seed returns the seed the engine's randomness derives from.
func (e *Engine) Seed() int64 { return e.seed }

// Clone returns an independent engine with the same seed, the same
// registered impairments (each with pristine state), and byte-identical
// generator streams: every bound impairment keeps its registration id, so
// the clone's draws match what a freshly built identical engine would
// produce. ICMP token buckets refill to their burst. The clone shares no
// mutable state with the original.
func (e *Engine) Clone() *Engine {
	if e == nil {
		return nil
	}
	return e.CloneSeeded(e.seed)
}

// CloneSeeded is Clone under a different seed: the same impairment
// structure, pristine state, but generator streams derived from seed
// instead of the original's. Campaign workers use this with
// per-target derived seeds so every target sees an independent — yet
// reproducible — realization of the same fault profile.
func (e *Engine) CloneSeeded(seed int64) *Engine {
	if e == nil {
		return nil
	}
	c := NewEngine(seed)
	c.nextID = e.nextID
	c.reg = e.reg
	for _, b := range e.global {
		c.global = append(c.global, b.cloneSeeded(seed))
	}
	for k, bs := range e.links {
		cp := make([]*bound, 0, len(bs))
		for _, b := range bs {
			cp = append(cp, b.cloneSeeded(seed))
		}
		c.links[k] = cp
	}
	for id, p := range e.icmp {
		c.icmp[id] = &icmpPolicy{
			silent:    p.silent,
			limited:   p.limited,
			tokens:    p.burst,
			burst:     p.burst,
			perSecond: p.perSecond,
		}
	}
	return c
}

// DeriveSeed deterministically derives a sub-seed from a base seed and a
// label (e.g. a campaign target key plus pass number), so parallel workers
// can give every unit of work its own independent randomness stream while
// the whole run stays reproducible.
func DeriveSeed(seed int64, label string) int64 {
	return int64(splitmix(uint64(seed) ^ hashString(label)))
}

// ---- Impairment profiles ----

// uniformLoss drops packets i.i.d. at a fixed rate.
type uniformLoss struct{ rate float64 }

// UniformLoss returns an impairment dropping packets independently at the
// given per-packet rate — the transient-failure model CenTrace's retries
// exist for (§4.1).
func UniformLoss(rate float64) Impairment { return &uniformLoss{rate: rate} }

func (u *uniformLoss) Apply(_ time.Duration, rng *rand.Rand) Outcome {
	return Outcome{Drop: u.rate > 0 && rng.Float64() < u.rate}
}

func (u *uniformLoss) Clone() Impairment { cp := *u; return &cp }

func (u *uniformLoss) String() string { return fmt.Sprintf("uniform-loss(%.3f)", u.rate) }

// gilbertElliott is the classic two-state burst-loss channel: a Good and a
// Bad state with different loss rates and geometric sojourn times.
type gilbertElliott struct {
	pGoodToBad, pBadToGood float64
	lossGood, lossBad      float64
	bad                    bool
}

// GilbertElliott returns a two-state burst-loss impairment. The chain
// starts Good; on each consulted packet it first transitions (Good→Bad
// with pGoodToBad, Bad→Good with pBadToGood), then drops the packet with
// the state's loss rate. Mean burst length is 1/pBadToGood packets.
func GilbertElliott(pGoodToBad, pBadToGood, lossGood, lossBad float64) Impairment {
	return &gilbertElliott{
		pGoodToBad: pGoodToBad, pBadToGood: pBadToGood,
		lossGood: lossGood, lossBad: lossBad,
	}
}

func (g *gilbertElliott) Apply(_ time.Duration, rng *rand.Rand) Outcome {
	if g.bad {
		if rng.Float64() < g.pBadToGood {
			g.bad = false
		}
	} else {
		if rng.Float64() < g.pGoodToBad {
			g.bad = true
		}
	}
	rate := g.lossGood
	if g.bad {
		rate = g.lossBad
	}
	return Outcome{Drop: rate > 0 && rng.Float64() < rate}
}

func (g *gilbertElliott) Clone() Impairment {
	cp := *g
	cp.bad = false // pristine: the chain starts Good
	return &cp
}

func (g *gilbertElliott) String() string {
	return fmt.Sprintf("gilbert-elliott(p_gb=%.3f p_bg=%.3f loss=%.3f/%.3f)",
		g.pGoodToBad, g.pBadToGood, g.lossGood, g.lossBad)
}

// blackhole kills every packet during a virtual-time window.
type blackhole struct{ from, to time.Duration }

// Blackhole returns an impairment under which the attachment point is
// completely dead during [from, to) of virtual time — a link or maintenance
// outage in the middle of a measurement.
func Blackhole(from, to time.Duration) Impairment { return &blackhole{from: from, to: to} }

func (b *blackhole) Apply(now time.Duration, _ *rand.Rand) Outcome {
	return Outcome{Drop: now >= b.from && now < b.to}
}

func (b *blackhole) Clone() Impairment { cp := *b; return &cp }

func (b *blackhole) String() string { return fmt.Sprintf("blackhole[%s,%s)", b.from, b.to) }

// duplication duplicates packets i.i.d. at a fixed rate.
type duplication struct{ rate float64 }

// Duplication returns an impairment that duplicates response deliveries at
// the given rate: the client receives two copies of the same packet, the
// way routing loops and L2 retransmissions duplicate real traffic.
func Duplication(rate float64) Impairment { return &duplication{rate: rate} }

func (d *duplication) Apply(_ time.Duration, rng *rand.Rand) Outcome {
	return Outcome{Duplicate: d.rate > 0 && rng.Float64() < d.rate}
}

func (d *duplication) Clone() Impairment { cp := *d; return &cp }

func (d *duplication) String() string { return fmt.Sprintf("duplication(%.3f)", d.rate) }

// ---- deterministic mixing helpers ----

// splitmix is the SplitMix64 finalizer: a fast, well-distributed 64-bit
// mixer used to derive independent seeds.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashString is FNV-1a over a string.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
