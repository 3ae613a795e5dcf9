package simnet

import (
	"testing"
	"time"

	"cendev/internal/faults"
	"cendev/internal/topology"
)

// icmpProbe sends one TTL-limited UDP probe (no handshake, so it works
// across dead links) and returns its deliveries.
func icmpProbe(t *testing.T, n *Network, client, server *topology.Host, ttl uint8) []Delivery {
	t.Helper()
	return n.SendUDP(client, server, 9, nil, ttl)
}

func TestFaultsICMPSilencedRouter(t *testing.T) {
	n, client, server := testNet(t)
	n.SetFaults(faults.NewEngine(1).SilenceICMP("r2"))
	if ds := icmpProbe(t, n, client, server, 2); len(ds) != 0 {
		t.Errorf("silenced r2 answered: %v", ds)
	}
	// Other routers are unaffected.
	ds := icmpProbe(t, n, client, server, 3)
	if len(ds) != 1 || ds[0].Packet.ICMP == nil {
		t.Fatalf("r3 should still answer: %v", ds)
	}
}

func TestFaultsICMPRateLimitRefills(t *testing.T) {
	n, client, server := testNet(t)
	n.SetFaults(faults.NewEngine(1).LimitICMP("r2", 1, 1.0/60))
	if ds := icmpProbe(t, n, client, server, 2); len(ds) != 1 {
		t.Fatalf("first expiry should spend the token: %v", ds)
	}
	if ds := icmpProbe(t, n, client, server, 2); len(ds) != 0 {
		t.Errorf("bucket empty, yet ICMP arrived: %v", ds)
	}
	n.Sleep(2 * time.Minute) // refill
	if ds := icmpProbe(t, n, client, server, 2); len(ds) != 1 {
		t.Errorf("refilled bucket should answer again: %v", ds)
	}
}

func TestFaultsBlackholeKillsAndRecovers(t *testing.T) {
	n, client, server := testNet(t)
	n.SetFaults(faults.NewEngine(1).AddLink("r2", "r3",
		faults.Blackhole(0, 10*time.Minute)))
	// Inside the window: the link is dead, but hops before it still answer.
	if ds := icmpProbe(t, n, client, server, 2); len(ds) != 1 {
		t.Fatalf("r2 sits before the dead link: %v", ds)
	}
	if ds := icmpProbe(t, n, client, server, 3); len(ds) != 0 {
		t.Errorf("probe crossed a blackholed link: %v", ds)
	}
	if _, err := n.Dial(client, server, 80); err != ErrConnTimeout {
		t.Errorf("dial across blackhole: err = %v, want timeout", err)
	}
	// After the window the path heals.
	n.Sleep(11 * time.Minute)
	if ds := icmpProbe(t, n, client, server, 3); len(ds) != 1 {
		t.Errorf("link should heal after the window: %v", ds)
	}
}

func TestFaultsBlackholeKillsReturnPath(t *testing.T) {
	// A response crossing a dead link on the way back dies too, even though
	// the forward probe passed before the window opened... here we place the
	// window on a link the forward packet never crosses again but the ICMP
	// must: impossible on a symmetric path, so instead assert symmetry — the
	// ICMP born at r4 dies because its return crosses r2—r3.
	n, client, server := testNet(t)
	n.SetFaults(faults.NewEngine(1).AddLink("r3", "r4", faults.Blackhole(0, time.Hour)))
	// TTL 3 expires at r3: forward crossings are @client—r1, r1—r2, r2—r3 —
	// all alive — and the ICMP's return path crosses the same live links.
	if ds := icmpProbe(t, n, client, server, 3); len(ds) != 1 {
		t.Fatalf("r3 reachable without touching the dead link: %v", ds)
	}
	// TTL 4 would expire at r4, but the probe dies crossing r3—r4.
	if ds := icmpProbe(t, n, client, server, 4); len(ds) != 0 {
		t.Errorf("probe crossed the dead r3—r4 link: %v", ds)
	}
}

func TestFaultsDuplicationDeliversTwice(t *testing.T) {
	n, client, server := testNet(t)
	n.SetFaults(faults.NewEngine(3).AddGlobal(faults.Duplication(1.0)))
	ds := icmpProbe(t, n, client, server, 2)
	if len(ds) != 2 {
		t.Fatalf("deliveries = %d, want duplicated pair", len(ds))
	}
	if ds[0].Packet == ds[1].Packet {
		t.Error("duplicate shares the original's packet instead of a clone")
	}
	if ds[0].Packet.IP.Src != ds[1].Packet.IP.Src || ds[0].At != ds[1].At {
		t.Error("duplicate should mirror the original delivery")
	}
}

func TestFaultsRouteFlapChurnsPaths(t *testing.T) {
	// Diamond: r1 fans out to r2a/r2b, both reach r3. With a flapping r1 the
	// same flow's path changes across flap periods.
	n, client, server := diamondNet(t)
	n.SetRoutes(flapR1(t, n, 5))

	seen := map[string]bool{}
	for period := 0; period < 8; period++ {
		seen[branchAt(t, n, client, server)] = true
		n.Sleep(time.Minute)
	}
	if len(seen) != 2 {
		t.Errorf("branch routers seen = %v, want churn across both", seen)
	}
}

func TestSetFaultsNilRestore(t *testing.T) {
	n, client, server := testNet(t)
	n.SetFaults(faults.NewEngine(1).AddGlobal(faults.UniformLoss(1.0)))
	if ds := icmpProbe(t, n, client, server, 2); len(ds) != 0 {
		t.Errorf("total loss, yet a delivery arrived: %v", ds)
	}
	n.SetFaults(nil)
	if ds := icmpProbe(t, n, client, server, 2); len(ds) != 1 {
		t.Errorf("nil engine should restore a perfect network: %v", ds)
	}
}
