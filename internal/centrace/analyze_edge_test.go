package centrace

import (
	"net/netip"
	"testing"
)

// TestTraceNeverTerminates covers the Trace.TermIdx == -1 path: a TTL
// sweep capped below the endpoint distance sees only ICMP — no terminating
// response at all.
func TestTraceNeverTerminates(t *testing.T) {
	n, client, server := buildNet(t)
	c := cfg()
	c.MaxTTL = 3 // endpoint sits at TTL 5; every probe elicits ICMP
	p := New(n, client, server, c)
	tr := p.trace(controlDomain, nil)
	if tr.TermIdx != -1 {
		t.Fatalf("TermIdx = %d, want -1 (sweep ended on ICMP)", tr.TermIdx)
	}
	if tr.Terminating() != nil {
		t.Error("Terminating() should be nil for a non-terminating sweep")
	}
	if len(tr.Obs) != 3 {
		t.Errorf("observations = %d, want 3", len(tr.Obs))
	}

	// Defensive branch: an out-of-range index also yields nil.
	bad := Trace{TermIdx: 99, Obs: tr.Obs}
	if bad.Terminating() != nil {
		t.Error("out-of-range TermIdx should yield nil")
	}

	// And the full pipeline on such a sweep: no endpoint reach → invalid,
	// modal terminating kind degenerates to timeout → blocking signal with
	// no usable control → Degraded, never high-confidence.
	res := New(n, client, server, c).Run()
	if res.Valid {
		t.Error("capped sweep should not be Valid")
	}
	if res.Blocked {
		if !res.Degraded {
			t.Error("blocked-but-invalid result must be Degraded")
		}
		if res.Confidence.High() {
			t.Error("blocked-but-invalid result must not score high confidence")
		}
	}
	if res.Location != LocUnknown {
		t.Errorf("Location = %s, want Unknown", res.Location)
	}
}

// TestBlockingHopsSkipsUnlocalized: results without a valid blocking-hop
// address (degraded localizations, failed targets) must not appear in the
// CenProbe-style hop grouping.
func TestBlockingHopsSkipsUnlocalized(t *testing.T) {
	addr := netip.MustParseAddr("10.9.9.9")
	results := []CampaignResult{
		{Result: &Result{Blocked: true, BlockingHop: HopInfo{TTL: 3, Addr: addr}}},
		{Result: &Result{Blocked: true, BlockingHop: HopInfo{TTL: 3}}}, // degraded: no address
		{Result: &Result{Blocked: false, BlockingHop: HopInfo{TTL: 3, Addr: addr}}},
		{Result: nil, Err: errFake}, // failed target
	}
	hops := BlockingHops(results)
	if len(hops) != 1 {
		t.Fatalf("groups = %d, want 1", len(hops))
	}
	if got := len(hops[addr.String()]); got != 1 {
		t.Errorf("results at %s = %d, want 1", addr, got)
	}
	if got := len(Blocked(results)); got != 2 {
		t.Errorf("Blocked = %d, want 2 (nil Result skipped, address not required)", got)
	}
}

// TestModalTieBreaks pins the tie rules of the modal picks: the most
// likely hop is the lower address on a tied count, the modal TTL the
// lowest TTL, and the modal kind the first in ResponseKind order. A TTL
// without responders has no hop, and nothing counted picks TTL 0 and
// KindTimeout.
func TestModalTieBreaks(t *testing.T) {
	lo, mid, hi := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2"), netip.MustParseAddr("10.0.0.3")
	a := &Aggregate{HopDist: map[int]map[netip.Addr]int{
		1: {mid: 3},
		2: {hi: 2, lo: 2, mid: 1},
		3: {hi: 2, mid: 2},
		4: {lo: 1, hi: 5},
		5: {},
	}}
	for _, tc := range []struct {
		ttl  int
		want netip.Addr
		ok   bool
	}{
		{1, mid, true},
		{2, lo, true},  // tie: the lower address
		{3, mid, true}, // tie: the lower address
		{4, hi, true},  // the higher count beats the lower address
		{5, netip.Addr{}, false},
		{6, netip.Addr{}, false},
	} {
		// Map iteration order varies from call to call, and the pick
		// must not.
		for rep := 0; rep < 20; rep++ {
			if got, ok := a.MostLikelyHop(tc.ttl); got != tc.want || ok != tc.ok {
				t.Fatalf("MostLikelyHop(%d) = %v, %v; want %v, %v", tc.ttl, got, ok, tc.want, tc.ok)
			}
		}
	}

	for _, tc := range []struct {
		name   string
		counts []int
		want   int
	}{
		{"nothing counted", []int{0, 0, 0, 0}, 0},
		{"no TTLs", nil, 0},
		{"one TTL", []int{0, 0, 0, 4}, 3},
		{"tie", []int{0, 0, 3, 0, 3}, 2},
		{"higher count wins", []int{0, 1, 0, 2}, 3},
	} {
		if got := modalTTL(tc.counts); got != tc.want {
			t.Errorf("modalTTL %s: got %d, want %d", tc.name, got, tc.want)
		}
	}

	for _, tc := range []struct {
		name   string
		counts [KindData + 1]int
		want   ResponseKind
	}{
		{"nothing counted", [KindData + 1]int{}, KindTimeout},
		{"one kind", [KindData + 1]int{KindFIN: 2}, KindFIN},
		{"tie: timeout before ICMP", [KindData + 1]int{KindTimeout: 2, KindICMP: 2}, KindTimeout},
		{"tie: RST before data", [KindData + 1]int{KindRST: 3, KindData: 3, KindFIN: 1}, KindRST},
		{"higher count wins", [KindData + 1]int{KindRST: 1, KindData: 2}, KindData},
	} {
		if got := modalKind(&tc.counts); got != tc.want {
			t.Errorf("modalKind %s: got %s, want %s", tc.name, got, tc.want)
		}
	}
}
