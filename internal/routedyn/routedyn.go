// Package routedyn is the seeded route-dynamics engine: BGP-style
// announcements and withdrawals scheduled in virtual time over an
// internal/topology graph, with epoched path recomputation and per-epoch
// ECMP re-hash salts. The paper localizes devices over a static topology;
// real censorship moves with routing — "A Churn for the Better" localizes
// devices *from* path churn, and "Routing-Induced Censorship Changes"
// shows BGP shifts moving clients in and out of censorship entirely. This
// engine generates that churn deterministically: the event schedule
// partitions virtual time into epochs, each epoch lazily snapshots a
// private graph clone with the scheduled link state applied, and every
// epoch past the first perturbs ECMP choices with a salt derived from
// (seed, epoch) alone. A flapping router (Flap) re-rolls its own ECMP
// choice every period instead, through the same salt derivation. The same
// schedule, flaps and seed therefore produce byte-identical path
// histories at any worker count.
//
// Concurrency: an Engine is not safe for concurrent use, by design — the
// simulator gives every measurement worker a private network clone, and
// Clone rebinds the engine to the clone's graph. Epoch snapshots taken
// from a base graph are safe against concurrent path computation on that
// base (topology.Graph.Clone locks the graph's cache mutex).
package routedyn

import (
	"fmt"
	"maps"
	"sort"
	"time"

	"cendev/internal/topology"
)

// EventKind classifies a scheduled route event.
type EventKind uint8

const (
	// Withdraw takes the link down: routing computes as if it were absent.
	Withdraw EventKind = iota
	// Announce brings a previously withdrawn link back up.
	Announce
	// Rehash changes no link state but still opens a new epoch, re-rolling
	// every ECMP choice — the pure tie-break churn of a BGP best-path
	// change that does not alter the available links.
	Rehash
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case Withdraw:
		return "withdraw"
	case Announce:
		return "announce"
	case Rehash:
		return "rehash"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one scheduled route change. From/To name the undirected link
// (empty for Rehash). Events at the same virtual time apply in schedule
// order within one epoch.
type Event struct {
	At   time.Duration
	Kind EventKind
	From string
	To   string
}

// Engine holds a route-event schedule and per-router flap periods bound
// to a base graph. Epochs are the half-open intervals between distinct
// event times; epoch 0 is the canonical pre-churn routing (salt 0, the
// base graph itself), so a network with an empty schedule and no flaps
// behaves exactly as one with no engine.
type Engine struct {
	seed   int64
	base   *topology.Graph
	events []Event // sorted by At, stable in schedule order
	// starts[i] is epoch i's first instant; starts[0] is always 0.
	starts []time.Duration
	epochs []*Epoch // lazily built snapshots, parallel to starts
	// flaps maps a flapping router's ID to its flap period.
	flaps map[string]time.Duration
	// flapSalt is the salt Routing returns while a router flaps: the
	// saltUnderFlaps method value, bound once so that Routing allocates
	// nothing per packet. It reads flapNow and flapEpoch, the instant and
	// epoch index of the latest Routing call.
	flapSalt  func(routerID string) uint64
	flapNow   time.Duration
	flapEpoch uint64
}

// NewEngine binds an empty schedule to a base graph. The seed roots every
// ECMP salt, per epoch and per flap period.
func NewEngine(seed int64, base *topology.Graph) *Engine {
	return &Engine{seed: seed, base: base, starts: []time.Duration{0}}
}

// Seed returns the engine's salt seed.
func (e *Engine) Seed() int64 { return e.seed }

// Schedule adds one event and rebuilds the epoch boundaries. Events at or
// before virtual time zero are rejected: epoch 0 is by definition the
// canonical pre-churn state. Link events must name two distinct routers
// present in the base graph.
func (e *Engine) Schedule(ev Event) error {
	if ev.At <= 0 {
		return fmt.Errorf("routedyn: event at %v: epoch 0 is canonical, events must be after time zero", ev.At)
	}
	switch ev.Kind {
	case Withdraw, Announce:
		if ev.From == "" || ev.To == "" || ev.From == ev.To {
			return fmt.Errorf("routedyn: %s event needs two distinct routers, got %q <-> %q", ev.Kind, ev.From, ev.To)
		}
		if e.base.Router(ev.From) == nil {
			return fmt.Errorf("routedyn: %s event: unknown router %q", ev.Kind, ev.From)
		}
		if e.base.Router(ev.To) == nil {
			return fmt.Errorf("routedyn: %s event: unknown router %q", ev.Kind, ev.To)
		}
		if !e.base.Linked(ev.From, ev.To) {
			return fmt.Errorf("routedyn: %s event: no link %q <-> %q", ev.Kind, ev.From, ev.To)
		}
	case Rehash:
		if ev.From != "" || ev.To != "" {
			return fmt.Errorf("routedyn: rehash event carries no link, got %q <-> %q", ev.From, ev.To)
		}
	default:
		return fmt.Errorf("routedyn: unknown event kind %d", ev.Kind)
	}
	e.events = append(e.events, ev)
	sort.SliceStable(e.events, func(i, j int) bool { return e.events[i].At < e.events[j].At })
	e.rebuildStarts()
	return nil
}

// MustSchedule is Schedule for statically correct schedules (scenario
// builders); it panics on error.
func (e *Engine) MustSchedule(ev Event) *Engine {
	if err := e.Schedule(ev); err != nil {
		panic(err)
	}
	return e
}

// FlapLink schedules `cycles` withdraw/announce pairs for one link: down
// at firstDown, up again half a period later, repeating every period.
func (e *Engine) FlapLink(from, to string, firstDown, period time.Duration, cycles int) error {
	for c := 0; c < cycles; c++ {
		at := firstDown + time.Duration(c)*period
		if err := e.Schedule(Event{At: at, Kind: Withdraw, From: from, To: to}); err != nil {
			return err
		}
		if err := e.Schedule(Event{At: at + period/2, Kind: Announce, From: from, To: to}); err != nil {
			return err
		}
	}
	return nil
}

// Flap makes a router re-roll its ECMP choice every period of virtual
// time — deterministic path churn ("A Churn for the Better"): the same
// flow takes a different downstream path in different flap periods, but
// the same seed and period index always pick the same path. The first
// period keeps the canonical path. A flapping router follows its own
// period whatever epoch the schedule is in; the schedule's link state
// still applies. Flap rejects a router absent from the base graph and a
// period that is not positive.
func (e *Engine) Flap(routerID string, period time.Duration) error {
	if period <= 0 {
		return fmt.Errorf("routedyn: flap of %q: period %v is not positive", routerID, period)
	}
	if e.base.Router(routerID) == nil {
		return fmt.Errorf("routedyn: flap: unknown router %q", routerID)
	}
	if e.flaps == nil {
		e.flaps = make(map[string]time.Duration)
	}
	e.flaps[routerID] = period
	return nil
}

// rebuildStarts recomputes epoch boundaries (distinct event times) and
// drops stale snapshots.
func (e *Engine) rebuildStarts() {
	e.starts = e.starts[:0]
	e.starts = append(e.starts, 0)
	for _, ev := range e.events {
		if ev.At != e.starts[len(e.starts)-1] {
			e.starts = append(e.starts, ev.At)
		}
	}
	e.epochs = nil
}

// Epochs returns the number of epochs the schedule defines (≥ 1).
func (e *Engine) Epochs() int { return len(e.starts) }

// EpochStart returns the first instant of epoch i.
func (e *Engine) EpochStart(i int) time.Duration { return e.starts[i] }

// EpochAt resolves the active epoch for a virtual-time instant. Negative
// times resolve to epoch 0.
func (e *Engine) EpochAt(now time.Duration) *Epoch {
	// sort.Search finds the first start > now; the active epoch is the one
	// before it.
	i := sort.Search(len(e.starts), func(k int) bool { return e.starts[k] > now }) - 1
	if i < 0 {
		i = 0
	}
	return e.epoch(i)
}

// Routing resolves what forwarding uses at a virtual-time instant: the
// active epoch's snapshot graph and the per-router ECMP salt. A flapping
// router's salt is indexed by its flap period (now/period), every other
// router's by the epoch index. The salt is nil in epoch 0 when nothing
// flaps, where every salt is zero, so forwarding keeps its unsalted fast
// path. Routing runs once per forwarded packet and allocates nothing: the
// salt under flaps answers for the latest Routing call on this engine, so
// use it before calling Routing again, as forwarding does.
func (e *Engine) Routing(now time.Duration) (*topology.Graph, func(routerID string) uint64) {
	ep := e.EpochAt(now)
	if len(e.flaps) == 0 {
		return ep.graph, ep.SaltFunc()
	}
	if e.flapSalt == nil {
		e.flapSalt = e.saltUnderFlaps
	}
	e.flapNow, e.flapEpoch = now, uint64(ep.Index)
	return ep.graph, e.flapSalt
}

// saltUnderFlaps is the per-router salt at the latest Routing instant
// while a router flaps.
func (e *Engine) saltUnderFlaps(routerID string) uint64 {
	index := e.flapEpoch
	if period, ok := e.flaps[routerID]; ok {
		index = uint64(e.flapNow / period)
	}
	return flapEpochSalt(flapBaseSalt(e.seed, routerID), index)
}

// Epoch returns epoch i's snapshot, building it on first use.
func (e *Engine) Epoch(i int) *Epoch { return e.epoch(i) }

// epoch lazily builds the snapshot for epoch index i.
func (e *Engine) epoch(i int) *Epoch {
	if e.epochs == nil {
		e.epochs = make([]*Epoch, len(e.starts))
	}
	if ep := e.epochs[i]; ep != nil {
		return ep
	}
	ep := &Epoch{Index: i, Start: e.starts[i], seed: e.seed}
	if i+1 < len(e.starts) {
		ep.End = e.starts[i+1]
	} else {
		ep.End = -1
	}
	if i == 0 {
		// Epoch 0 is the canonical state: the base graph itself, unsalted.
		// Sharing it (rather than cloning) keeps a schedule-free engine
		// free, and the canonical path identical to the no-engine network.
		ep.graph = e.base
	} else {
		ep.salt = ep.Salt
		g := e.base.Clone()
		for _, ev := range e.events {
			if ev.At > e.starts[i] {
				break
			}
			switch ev.Kind {
			case Withdraw:
				g.SetLinkUp(ev.From, ev.To, false)
			case Announce:
				g.SetLinkUp(ev.From, ev.To, true)
			}
		}
		ep.graph = g
	}
	e.epochs[i] = ep
	return ep
}

// Clone rebinds the schedule and flaps to another graph — the per-worker
// network clone. Epoch snapshots are rebuilt lazily against the new base,
// so the clone is cheap and the result deterministic (snapshots are a
// pure function of base + schedule + seed).
func (e *Engine) Clone(base *topology.Graph) *Engine { return e.CloneSeeded(base, e.seed) }

// CloneSeeded is Clone under a different seed: the same schedule and
// flaps, with every epoch and flap salt derived from seed instead of the
// original's. simnet.ForEachClone uses it with per-item derived seeds, so
// every item sees an independent — yet reproducible — realization of the
// same route churn.
func (e *Engine) CloneSeeded(base *topology.Graph, seed int64) *Engine {
	return &Engine{
		seed:   seed,
		base:   base,
		events: append([]Event(nil), e.events...),
		starts: append([]time.Duration(nil), e.starts...),
		flaps:  maps.Clone(e.flaps),
	}
}

// Epoch is one interval of stable routing: a snapshot graph with the
// schedule's link state applied, and a per-epoch ECMP salt.
type Epoch struct {
	Index int
	Start time.Duration
	// End is the first instant of the next epoch, or -1 for the last.
	End   time.Duration
	graph *topology.Graph
	seed  int64
	// salt is the Salt method value, bound once when the epoch is built
	// (nil in epoch 0), so SaltFunc and Routing allocate nothing per call.
	salt func(routerID string) uint64
}

// Graph returns the epoch's routing snapshot. Epoch 0 returns the base
// graph itself; later epochs return a private clone with the scheduled
// link state applied.
func (ep *Epoch) Graph() *topology.Graph { return ep.graph }

// Salt returns the ECMP perturbation for a router in this epoch: 0 in
// epoch 0 (canonical paths), and a (seed, router, epoch)-derived value
// afterwards — the derivation flap periods use too. It ignores flaps;
// Engine.Routing applies them.
func (ep *Epoch) Salt(routerID string) uint64 {
	return flapEpochSalt(flapBaseSalt(ep.seed, routerID), uint64(ep.Index))
}

// SaltFunc returns Salt as a closure, or nil for epoch 0 where every salt
// is zero (letting forwarding keep its unsalted fast path).
func (ep *Epoch) SaltFunc() func(routerID string) uint64 { return ep.salt }

// flapBaseSalt derives the per-router base salt for ECMP perturbation,
// the single source of route-churn randomness in the tree.
func flapBaseSalt(seed int64, routerID string) uint64 {
	return splitmix(uint64(seed) ^ hashString(routerID))
}

// flapEpochSalt derives the effective ECMP salt for one epoch or flap
// period from a router's base salt. Index 0 is canonical: salt 0
// reproduces the unperturbed path exactly.
func flapEpochSalt(base, epoch uint64) uint64 {
	if epoch == 0 {
		return 0
	}
	return splitmix(base ^ (epoch+1)*0xbf58476d1ce4e5b9)
}

// splitmix is the SplitMix64 finalizer: a cheap, well-mixed seed stepper.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashString is FNV-1a, used to fold identifiers into seeds.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
