package simnet

import (
	"net/netip"
	"time"

	"cendev/internal/middlebox"
	"cendev/internal/topology"
)

// Clone returns an independent copy of the network for a parallel
// measurement worker. What a measurement can change is private to the
// clone: the topology graph's per-graph state (withdrawn links, route
// caches), every attached device's flow state, the device indexes, the
// clock and port sequence, and the fault engine. What it cannot change is
// shared: the graph's shape and records, device configuration, endpoint
// servers, resolvers, and the geo registry, which is frozen first so
// concurrent lookups are pure reads. Those records are immutable once the
// network has been cloned. Clones must be created serially (Clone writes
// to its source: it freezes the shared registry and marks what it shares)
// before goroutines fan out; after that, each clone is free to run without
// synchronization.
func (n *Network) Clone() *Network {
	n.Geo.Freeze()

	c := &Network{
		Graph:         n.Graph.Clone(),
		Geo:           n.Geo,
		clock:         n.clock,
		linkDevices:   make(map[topology.LinkID][]*middlebox.Device, len(n.linkDevices)),
		guards:        make(map[string]*middlebox.Device, len(n.guards)),
		servers:       n.servers,
		resolvers:     n.resolvers,
		devicesByAddr: make(map[netip.Addr]*middlebox.Device, len(n.devicesByAddr)),
		captures:      make(map[string]*Capture),
		nextPort:      n.nextPort,
		// The registry and its pre-resolved counters are shared: metrics
		// are campaign-scoped aggregates with atomic series, so worker
		// clones all account into the same snapshot.
		obs: n.obs,
		m:   n.m,
	}

	// Clone devices once, in registration order, then rebuild every index
	// through the alias map so a device attached at several points stays a
	// single object in the clone too.
	alias := make(map[*middlebox.Device]*middlebox.Device, len(n.devices))
	c.devices = make([]*middlebox.Device, 0, len(n.devices))
	for _, d := range n.devices {
		cp := d.Clone()
		alias[d] = cp
		c.devices = append(c.devices, cp)
	}
	for id, devs := range n.linkDevices {
		cps := make([]*middlebox.Device, 0, len(devs))
		for _, d := range devs {
			cps = append(cps, alias[d])
		}
		c.linkDevices[id] = cps
	}
	for hostID, d := range n.guards {
		c.guards[hostID] = alias[d]
	}
	for addr, d := range n.devicesByAddr {
		c.devicesByAddr[addr] = alias[d]
	}

	// Host records are shared with the source graph, and so is the address
	// index over them: each side copies it before registering another host.
	n.hostsShared = true
	c.hostsByAddr, c.hostsShared = n.hostsByAddr, true

	if len(n.httpStreams) > 0 {
		c.httpStreams = make(map[flowKey][]byte, len(n.httpStreams))
		for k, v := range n.httpStreams {
			c.httpStreams[k] = append([]byte(nil), v...)
		}
	}

	if n.faults != nil {
		c.faults = n.faults.Clone()
	}
	if n.routes != nil {
		// Rebind the route schedule to the cloned graph; epoch snapshots
		// rebuild lazily against it, a pure function of graph + schedule +
		// seed, so every clone sees identical path history.
		c.routes = n.routes.Clone(c.Graph)
	}
	return c
}

// BeginMeasurement rewinds the network to a canonical per-target state:
// device flow tracking cleared, HTTP reassembly buffers dropped, the
// virtual clock set to the pass start, and the ephemeral port sequence
// reset. Workers call this before each target so results are independent
// of which worker — and in which order — measured it.
func (n *Network) BeginMeasurement(clock time.Duration, port uint16) {
	n.ResetDeviceState()
	n.httpStreams = nil
	n.clock = clock
	n.nextPort = port
}

// PortSeq returns the next ephemeral port AllocPort would hand out,
// without consuming it — the canonical port-sequence origin clones reset
// to via BeginMeasurement.
func (n *Network) PortSeq() uint16 { return n.nextPort }
