package routedyn

import (
	"testing"
	"time"

	"cendev/internal/topology"
)

// buildDiamond creates src-r1-{r2a|r2b}-r3-dst with two equal-cost paths.
func buildDiamond(t testing.TB) (*topology.Graph, *topology.Host, *topology.Host) {
	t.Helper()
	g := topology.NewGraph()
	asA := g.AddAS(100, "SourceNet", "US")
	asB := g.AddAS(200, "TransitNet", "DE")
	asC := g.AddAS(300, "DestNet", "KZ")
	r1 := g.AddRouter("r1", asA)
	g.AddRouter("r2a", asB)
	g.AddRouter("r2b", asB)
	r3 := g.AddRouter("r3", asC)
	g.Link("r1", "r2a")
	g.Link("r1", "r2b")
	g.Link("r2a", "r3")
	g.Link("r2b", "r3")
	src := g.AddHost("client", asA, r1)
	dst := g.AddHost("server", asC, r3)
	return g, src, dst
}

func TestEpochBoundaries(t *testing.T) {
	g, _, _ := buildDiamond(t)
	e := NewEngine(7, g)
	if e.Epochs() != 1 {
		t.Fatalf("empty schedule has %d epochs, want 1", e.Epochs())
	}
	e.MustSchedule(Event{At: 10 * time.Second, Kind: Withdraw, From: "r1", To: "r2a"})
	e.MustSchedule(Event{At: 20 * time.Second, Kind: Announce, From: "r1", To: "r2a"})
	e.MustSchedule(Event{At: 20 * time.Second, Kind: Rehash}) // same instant: same epoch
	if e.Epochs() != 3 {
		t.Fatalf("schedule has %d epochs, want 3", e.Epochs())
	}
	cases := []struct {
		now  time.Duration
		want int
	}{
		{0, 0}, {9 * time.Second, 0},
		{10 * time.Second, 1}, {19 * time.Second, 1},
		{20 * time.Second, 2}, {time.Hour, 2},
		{-time.Second, 0},
	}
	for _, c := range cases {
		if got := e.EpochAt(c.now).Index; got != c.want {
			t.Errorf("EpochAt(%v) = epoch %d, want %d", c.now, got, c.want)
		}
	}
}

func TestEpochGraphAppliesLinkState(t *testing.T) {
	g, src, dst := buildDiamond(t)
	e := NewEngine(7, g)
	e.MustSchedule(Event{At: 10 * time.Second, Kind: Withdraw, From: "r1", To: "r2a"})
	e.MustSchedule(Event{At: 20 * time.Second, Kind: Announce, From: "r1", To: "r2a"})

	ep0 := e.EpochAt(0)
	if ep0.Graph() != g {
		t.Fatal("epoch 0 must share the base graph")
	}
	if ep0.SaltFunc() != nil {
		t.Fatal("epoch 0 must be unsalted")
	}

	ep1 := e.EpochAt(15 * time.Second)
	if ep1.Graph() == g {
		t.Fatal("epoch 1 must snapshot a private clone")
	}
	if ep1.Graph().LinkUp("r1", "r2a") {
		t.Fatal("epoch 1 snapshot did not apply the withdrawal")
	}
	if g.LinkUp("r1", "r2a") == false {
		t.Fatal("epoch snapshot mutated the base graph")
	}
	s1, d1 := ep1.Graph().Host(src.ID), ep1.Graph().Host(dst.ID)
	if paths := ep1.Graph().AllPaths(s1, d1, 0); len(paths) != 1 {
		t.Fatalf("epoch 1 has %d paths, want 1", len(paths))
	}

	ep2 := e.EpochAt(25 * time.Second)
	if !ep2.Graph().LinkUp("r1", "r2a") {
		t.Fatal("epoch 2 snapshot did not apply the announcement")
	}
	if ep2.Salt("r1") == 0 || ep2.Salt("r1") == ep1.Salt("r1") {
		t.Fatal("epoch salts must be nonzero and differ per epoch")
	}
}

func TestScheduleValidation(t *testing.T) {
	g, _, _ := buildDiamond(t)
	e := NewEngine(1, g)
	bad := []Event{
		{At: 0, Kind: Withdraw, From: "r1", To: "r2a"},            // epoch 0 is canonical
		{At: time.Second, Kind: Withdraw, From: "r1"},             // missing To
		{At: time.Second, Kind: Withdraw, From: "x", To: "y"},     // unknown routers
		{At: time.Second, Kind: Withdraw, From: "r2a", To: "r2b"}, // not linked
		{At: time.Second, Kind: Rehash, From: "r1", To: "r2a"},    // rehash carries no link
		{At: time.Second, Kind: EventKind(9)},                     // unknown kind
	}
	for _, ev := range bad {
		if err := e.Schedule(ev); err == nil {
			t.Errorf("Schedule(%+v) accepted an invalid event", ev)
		}
	}
	if e.Epochs() != 1 {
		t.Fatalf("rejected events changed the schedule: %d epochs", e.Epochs())
	}
}

func TestCloneRebindsAndMatches(t *testing.T) {
	g, src, dst := buildDiamond(t)
	e := NewEngine(42, g)
	if err := e.FlapLink("r1", "r2a", 10*time.Second, 20*time.Second, 2); err != nil {
		t.Fatal(err)
	}
	cg := g.Clone()
	ce := e.Clone(cg)
	if ce.Epochs() != e.Epochs() {
		t.Fatalf("clone has %d epochs, want %d", ce.Epochs(), e.Epochs())
	}
	for i := 0; i < e.Epochs(); i++ {
		ep, cep := e.Epoch(i), ce.Epoch(i)
		if ep.Salt("r1") != cep.Salt("r1") {
			t.Fatalf("epoch %d salts diverge between engine and clone", i)
		}
		for flow := uint64(0); flow < 32; flow++ {
			p := ep.Graph().PathForFlowSalted(ep.Graph().Host(src.ID), ep.Graph().Host(dst.ID), flow, ep.SaltFunc())
			cp := cep.Graph().PathForFlowSalted(cep.Graph().Host(src.ID), cep.Graph().Host(dst.ID), flow, cep.SaltFunc())
			if len(p) != len(cp) {
				t.Fatalf("epoch %d flow %d: path lengths diverge", i, flow)
			}
			for k := range p {
				if p[k].ID != cp[k].ID {
					t.Fatalf("epoch %d flow %d hop %d: %s vs %s", i, flow, k, p[k].ID, cp[k].ID)
				}
			}
		}
	}
}

func TestFlapSaltsMatchFaultsFormula(t *testing.T) {
	// The historical faults.Engine derivation, inlined: regression that
	// routedyn's salt primitives reproduce it bit-for-bit, so flap
	// realizations never drift.
	oldHash := func(s string) uint64 {
		h := uint64(14695981039346656037)
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		return h
	}
	oldMix := func(x uint64) uint64 {
		x += 0x9e3779b97f4a7c15
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return x
	}
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		for _, router := range []string{"r1", "r5", "bb-az-1", ""} {
			base := oldMix(uint64(seed) ^ oldHash(router))
			if got := flapBaseSalt(seed, router); got != base {
				t.Fatalf("flapBaseSalt(%d, %q) = %#x, want %#x", seed, router, got, base)
			}
			for epoch := uint64(0); epoch < 8; epoch++ {
				want := uint64(0)
				if epoch > 0 {
					want = oldMix(base ^ (epoch+1)*0xbf58476d1ce4e5b9)
				}
				if got := flapEpochSalt(base, epoch); got != want {
					t.Fatalf("flapEpochSalt(%#x, %d) = %#x, want %#x", base, epoch, got, want)
				}
			}
		}
	}
}

// flapSalt is the salt a router flapping under seed carries at now.
func flapSalt(seed int64, routerID string, period, now time.Duration) uint64 {
	return flapEpochSalt(flapBaseSalt(seed, routerID), uint64(now/period))
}

func TestRouteSaltEpochs(t *testing.T) {
	g, _, _ := buildDiamond(t)
	e := NewEngine(42, g)
	if err := e.Flap("r1", 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	salt := func(routerID string, now time.Duration) uint64 {
		_, s := e.Routing(now)
		if s == nil {
			t.Fatalf("Routing(%v) returned no salt for an engine with a flap", now)
		}
		return s(routerID)
	}
	if got := salt("r1", 0); got != 0 {
		t.Errorf("first flap period salt = %d, want 0 (canonical route first)", got)
	}
	s1 := salt("r1", 5*time.Minute)
	s2 := salt("r1", 10*time.Minute)
	if s1 == 0 || s2 == 0 || s1 == s2 {
		t.Errorf("flap period salts not distinct/nonzero: %d %d", s1, s2)
	}
	if salt("r1", 5*time.Minute+30*time.Second) != s1 {
		t.Error("salt changed within a flap period")
	}
	for _, now := range []time.Duration{0, 5 * time.Minute, 10 * time.Minute, time.Hour} {
		if got, want := salt("r1", now), flapSalt(42, "r1", 5*time.Minute, now); got != want {
			t.Errorf("salt at %v = %#x, want %#x", now, got, want)
		}
		if salt("r2a", now) != 0 {
			t.Errorf("flap leaked onto unflapped router at %v", now)
		}
	}
}

func TestFlapValidation(t *testing.T) {
	g, _, _ := buildDiamond(t)
	e := NewEngine(1, g)
	for _, bad := range []struct {
		router string
		period time.Duration
	}{
		{"nosuch", time.Minute},
		{"r1", 0},
		{"r1", -time.Second},
	} {
		if err := e.Flap(bad.router, bad.period); err == nil {
			t.Errorf("Flap(%q, %v) accepted an invalid flap", bad.router, bad.period)
		}
	}
	if _, salt := e.Routing(time.Hour); salt != nil {
		t.Fatal("rejected flaps salted routing")
	}
}

func TestCloneKeepsFlaps(t *testing.T) {
	g, _, _ := buildDiamond(t)
	e := NewEngine(5, g)
	if err := e.Flap("r1", time.Minute); err != nil {
		t.Fatal(err)
	}
	cg := g.Clone()
	same, other := e.Clone(cg), e.CloneSeeded(cg, 77)
	if same.Seed() != 5 || other.Seed() != 77 {
		t.Fatalf("clone seeds = %d, %d, want 5, 77", same.Seed(), other.Seed())
	}
	for _, now := range []time.Duration{0, 3 * time.Minute, 10 * time.Minute} {
		_, es := e.Routing(now)
		_, ss := same.Routing(now)
		_, rs := other.Routing(now)
		if ss == nil || rs == nil {
			t.Fatalf("at %v a clone dropped the flap", now)
		}
		if ss("r1") != es("r1") {
			t.Errorf("at %v the same-seed clone's flap salt differs from the original", now)
		}
		if got, want := rs("r1"), flapSalt(77, "r1", time.Minute, now); got != want {
			t.Errorf("at %v CloneSeeded flap salt = %#x, want %#x", now, got, want)
		}
	}
	if err := same.Flap("r3", time.Second); err != nil {
		t.Fatal(err)
	}
	if _, es := e.Routing(time.Minute); es("r3") != 0 {
		t.Error("a flap added to the clone reached the original")
	}
}

func TestRoutingNilSaltOnlyWhenUnperturbed(t *testing.T) {
	g, _, _ := buildDiamond(t)
	plain := NewEngine(3, g)
	scheduled := NewEngine(3, g).MustSchedule(Event{At: time.Minute, Kind: Rehash})
	flapping := NewEngine(3, g)
	if err := flapping.Flap("r1", time.Hour); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		e       *Engine
		now     time.Duration
		wantNil bool
	}{
		{"no schedule, no flaps", plain, time.Hour, true},
		{"schedule, epoch 0", scheduled, time.Second, true},
		{"schedule, epoch 1", scheduled, time.Minute, false},
		{"flap, first period", flapping, 0, false},
	} {
		graph, salt := c.e.Routing(c.now)
		if (salt == nil) != c.wantNil {
			t.Errorf("%s: nil salt = %v, want %v", c.name, salt == nil, c.wantNil)
		}
		if graph != c.e.EpochAt(c.now).Graph() {
			t.Errorf("%s: Routing graph is not the active epoch's snapshot", c.name)
		}
	}
}

// TestFlapFollowsLinkState: on a trident r1 → {r2a, r2b, r2c} → r3, a
// withdrawal of r1—r2a at 10s leaves r1 two next hops. The flapping r1
// keeps re-rolling between them on its own period, which is not the
// epoch's, and no path crosses the withdrawn link.
func TestFlapFollowsLinkState(t *testing.T) {
	g := topology.NewGraph()
	as := g.AddAS(1, "A", "US")
	r1 := g.AddRouter("r1", as)
	r3 := g.AddRouter("r3", as)
	for _, id := range []string{"r2a", "r2b", "r2c"} {
		g.AddRouter(id, as)
		g.Link("r1", id)
		g.Link(id, "r3")
	}
	src := g.AddHost("client", as, r1)
	dst := g.AddHost("server", as, r3)
	e := NewEngine(9, g)
	e.MustSchedule(Event{At: 10 * time.Second, Kind: Withdraw, From: "r1", To: "r2a"})
	if err := e.Flap("r1", time.Minute); err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	for k := 0; k < 8; k++ {
		now := 10*time.Second + time.Duration(k)*time.Minute
		graph, salt := e.Routing(now)
		if got, want := salt("r1"), flapSalt(9, "r1", time.Minute, now); got != want {
			t.Fatalf("at %v r1 salt = %#x, want its own period's %#x", now, got, want)
		}
		if got, want := salt("r3"), e.EpochAt(now).Salt("r3"); got != want {
			t.Fatalf("at %v r3 salt = %#x, want the epoch's %#x", now, got, want)
		}
		p := graph.PathForFlowSalted(graph.Host(src.ID), graph.Host(dst.ID), 12345, salt)
		if len(p) != 3 {
			t.Fatalf("at %v path %v, want three routers", now, p)
		}
		if p[1].ID == "r2a" {
			t.Fatalf("at %v the path crossed the withdrawn link r1—r2a", now)
		}
		seen[p[1].ID] = true
	}
	if !seen["r2b"] || !seen["r2c"] {
		t.Errorf("one flow crossed %v across flap periods, want both r2b and r2c", seen)
	}
}
