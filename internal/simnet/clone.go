package simnet

import (
	"time"

	"cendev/internal/faults"
	"cendev/internal/middlebox"
	"cendev/internal/parallel"
)

// Clone returns an independent copy of the network for a parallel
// measurement worker. What a measurement can change is private to the
// clone: the topology graph's per-graph state (withdrawn links, route
// caches, and the subscriber, which is the clone itself, so a change to
// the clone's graph drops only the clone's plans), the flow state of
// every device, the clock and port sequence, and the fault engine; the
// clone copies only the device flow states its source's measurements
// left non-empty. What it cannot change is shared:
// the graph's shape and records, the devices and their indexes, endpoint
// servers, resolvers, and the geo registry, which is frozen first so
// concurrent lookups are pure reads. Those records are immutable once the
// network has been cloned; the device indexes and the registries over
// hosts, servers and resolvers are shared until either side attaches a
// device or registers, which first takes a private copy of all of them.
// Clones must be created serially (Clone writes to its source: it freezes
// the shared registry and marks what it shares) before goroutines fan
// out; after that, each clone is free to run without synchronization.
func (n *Network) Clone() *Network {
	n.Geo.Freeze()
	n.shared = true

	c := &Network{
		Graph:         n.Graph.Clone(),
		Geo:           n.Geo,
		clock:         n.clock,
		devices:       n.devices,
		linkDevices:   n.linkDevices,
		guards:        n.guards,
		devicesByAddr: n.devicesByAddr,
		flows:         make([]*middlebox.FlowState, len(n.flows)),
		servers:       n.servers,
		resolvers:     n.resolvers,
		hostsByAddr:   n.hostsByAddr,
		nextPort:      n.nextPort,
		// The registry and its pre-resolved counters are shared: metrics
		// are campaign-scoped aggregates with atomic series, so worker
		// clones all flush into the same snapshot. The tallies are not
		// copied: a clone starts counting from zero.
		obs:    n.obs,
		m:      n.m,
		shared: true,
	}
	c.Graph.Subscribe(c)
	for k, st := range n.flows {
		if st != nil {
			c.flows[k] = st.Clone()
		}
	}

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
// reset. ForEachClone calls this before each item so results are
// independent of which worker — and in which order — measured it.
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

// ForEachClone runs measure(c, i) for every item i in [0, n) across a pool
// of at most workers goroutines (values below 1 mean one), each owning a
// private clone c of base, so the result of an item never depends on the
// worker count or on which worker ran it (DESIGN.md §8):
//
//   - every item starts from base's clock and port sequence as read on
//     entry, with device flow state and HTTP reassembly cleared
//     (BeginMeasurement);
//   - when base carries a fault engine or a route-dynamics engine, every
//     item gets its own copy of each, seeded from that engine's seed and
//     label(i), which names the item; label is called only then, once per
//     item;
//   - after the last item each clone is flushed (FlushObs) as it is
//     dropped, and base's clock moves to the latest item end, so composed
//     runs keep a monotonic virtual timeline.
//
// base changes in no other way. One worker still runs on a clone, so
// every worker count follows the same protocol. Calls to measure run
// concurrently: state they share beyond their clone and item-indexed
// slots needs its own lock. Pool metrics go to opt, as for
// parallel.ForEachOpt.
func ForEachClone(base *Network, n, workers int, opt parallel.Options, label func(i int) string, measure func(c *Network, i int)) {
	start, port, eng, routes := base.Now(), base.PortSeq(), base.Faults(), base.Routes()
	// Clone writes to its source, so the clones are made here, serially.
	nets := make([]*Network, min(max(workers, 1), n))
	for w := range nets {
		nets[w] = base.Clone()
	}
	ends := make([]time.Duration, len(nets)) // latest item end per worker
	parallel.ForEachOpt(n, workers, opt, func(w, i int) {
		c := nets[w]
		c.BeginMeasurement(start, port)
		if eng != nil || routes != nil {
			l := label(i)
			if eng != nil {
				c.SetFaults(eng.CloneSeeded(faults.DeriveSeed(eng.Seed(), l)))
			}
			if routes != nil {
				c.SetRoutes(routes.CloneSeeded(c.Graph, faults.DeriveSeed(routes.Seed(), l)))
			}
		}
		measure(c, i)
		ends[w] = max(ends[w], c.Now())
	})
	end := start
	for w, c := range nets {
		c.FlushObs()
		end = max(end, ends[w])
	}
	base.Sleep(end - start)
}
