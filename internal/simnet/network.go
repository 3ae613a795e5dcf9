// Package simnet is the deterministic virtual Internet the measurement
// tools run against. It forwards packets hop-by-hop over a topology.Graph,
// decrementing TTLs, generating ICMP Time Exceeded errors with per-router
// quoting behaviour, letting in-path and on-path censorship devices inspect
// and interfere with traffic, and delivering payloads to simulated endpoint
// servers. All timing is virtual: a Clock advances only when the code says
// so, which makes the paper's 120-second stateful-blocking waits free.
//
// Fidelity notes (see DESIGN.md §2 for the substitution table):
//   - Devices inspect client→endpoint traffic; most real censorship devices
//     consider both directions (§4.2), and all of the paper's triggers ride
//     in the forward direction, so reverse inspection is not modeled.
//   - Banner probes (ProbeService) resolve directly against the device or
//     server registry rather than walking packets; CenTrace-style TTL games
//     are irrelevant to banner grabs.
package simnet

import (
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"time"

	"cendev/internal/endpoint"
	"cendev/internal/faults"
	"cendev/internal/geoip"
	"cendev/internal/middlebox"
	"cendev/internal/netem"
	"cendev/internal/obs"
	"cendev/internal/routedyn"
	"cendev/internal/topology"
)

// Network is the virtual Internet.
type Network struct {
	Graph *topology.Graph
	Geo   *geoip.Registry

	clock time.Duration
	// Device configuration: the distinct attached devices, numbered in
	// first-attach order, and the indexes over them. A device's number is
	// its index in devices and in flows; links and guards name devices by
	// number, and plans resolve numbers to devRefs.
	devices       []*middlebox.Device
	linkDevices   map[topology.LinkID][]int
	guards        map[string]int                   // endpoint host ID → At-E device number
	devicesByAddr map[netip.Addr]*middlebox.Device // management address → device
	// flows holds each device's flow state, by device number, and is the
	// network's own: a state is created when a plan first needs it, so a
	// nil entry is a device no packet of this network has been routed
	// through.
	flows       []*middlebox.FlowState
	servers     map[string]*endpoint.Server   // endpoint host ID → server
	resolvers   map[string]*endpoint.Resolver // endpoint host ID → DNS resolver
	hostsByAddr map[netip.Addr]*topology.Host
	httpStreams map[flowKey][]byte // per-flow HTTP request reassembly
	nextPort    uint16
	faults      *faults.Engine
	routes      *routedyn.Engine
	obs         *obs.Registry
	m           netMetrics
	t           netTally
	// shared marks devices, the three device indexes and the host, server
	// and resolver registries as shared between a network and its clones
	// (the devices and host records they hold are shared too). Attaching
	// a device or registering a server or resolver first takes private
	// copies of all seven (unshare).
	shared bool

	// Hot-path scratch and caches. None of this state is observable in
	// results: it only removes redundant allocation and recomputation.
	// Clones start with all of it empty.
	//
	// deliveries is the Network-owned batch buffer Transmit appends into;
	// the returned []Delivery aliases it and is valid only until the next
	// Transmit on this Network. The *Packets delivered by the network's
	// own machinery (endpoint responses, router ICMP) are pooled and
	// likewise valid only until the next Transmit; callers that keep
	// packets across sends must Clone them. Retaining a delivered
	// *payload* is safe: payload bytes live in write-once render caches or
	// fresh per-call buffers, never in pooled packet storage.
	deliveries []Delivery
	// tcpPkts/udpPkts/icmpPkts pool the packets the network itself
	// delivers, reclaimed wholesale at the top of every Transmit. The
	// pools are segregated by layer so each recycled packet keeps reusing
	// its own TCP/UDP/ICMP sub-struct and quote buffer.
	tcpPkts  pktPool
	udpPkts  pktPool
	icmpPkts pktPool
	// workPkt is the scratch the exported Transmit copies its caller's
	// packet into (CloneInto) and forwards; it owns all its buffers.
	workPkt netem.Packet
	// pathBuf backs per-packet path walks under salted routing.
	pathBuf []*topology.Router
	// respBuf backs endpointRespond's transient response list.
	respBuf []*netem.Packet
	// txPkt is the scratch packet Conn's sequential sends (SYN, ACK,
	// payload, FIN) are built in and forwarded in place. Forwarding
	// retains nothing of it, and the next send's fill resets every field
	// forwarding writes (TTL, TOS, IP flags, lengths and checksums).
	txPkt netem.Packet
	// txUDP is the equivalent scratch for SendUDP probes, kept separate so
	// alternating TCP and UDP sends don't churn each other's layer struct.
	txUDP netem.Packet
	// freeConn is a one-deep pool of closed connections: probes open one
	// connection at a time, so Dial/Close recycle a single Conn object.
	freeConn *Conn
	// pairs holds what forwarding resolves once per host pair (pairState),
	// and lastPair the pair of the latest packet, so the next flow of the
	// same pair skips the map. flow is the one-entry per-flow forwarding
	// plan, used only while routing is unsalted (no route flap,
	// route-dynamics epoch 0) because a salt varies with virtual time. The
	// SYN, ACK, payload and FIN of one connection share a 5-tuple, so they
	// resolve their plan once. Attaching a device, registering a server or
	// a structural change of the graph (GraphChanged) drops all three.
	pairs    map[pairKey]*pairState
	lastPair *pairState
	flow     flowPlan
	// httpCache/tlsCache memoize endpoint response rendering per server
	// and raw request. The handlers are pure functions of (server config,
	// request bytes), so replaying the rendered bytes is observationally
	// identical; entries are write-once and never mutated.
	httpCache map[*endpoint.Server]map[string][]byte
	tlsCache  map[*endpoint.Server]map[string][]byte
}

// pktPool recycles delivery packets. All outstanding packets are
// reclaimed at once by resetting idx; a packet stays alive (and untouched)
// until the pool wraps around on a later Transmit.
type pktPool struct {
	pkts []*netem.Packet
	idx  int
}

// get returns the next pooled packet, growing the pool on demand. The
// caller refills it via the netem Fill* helpers, which reuse the packet's
// layer structs and buffers.
func (pp *pktPool) get() *netem.Packet {
	if pp.idx < len(pp.pkts) {
		p := pp.pkts[pp.idx]
		pp.idx++
		return p
	}
	p := &netem.Packet{}
	pp.pkts = append(pp.pkts, p)
	pp.idx++
	return p
}

// flowKey identifies a 5-tuple flow with a comparable struct, replacing
// the fmt.Sprintf string keys that used to dominate map hashing.
type flowKey struct {
	src, dst         netip.Addr
	srcPort, dstPort uint16
	proto            uint8
}

// pairKey names a host pair. The hosts are compared by pointer: callers
// pass the same *Host values for the life of a network.
type pairKey struct{ src, dst *topology.Host }

// pairState is what forwarding resolves once per host pair: the route
// toward dst over the network's own graph, dst's guard and server, and
// the device lists of the router paths the pair's flows have taken,
// salted or not. Paths are compared router by router, so the memo is
// exact whatever the ECMP fan-out; distinct paths per pair are bounded
// by that fan-out, so the list stays short.
type pairState struct {
	key    pairKey
	route  topology.Route
	guard  devRef // dst's guard; dev is nil when it has none
	server *endpoint.Server
	plans  []*pathPlan
}

// pathPlan is one router path and the devices on each of its links. The
// path array belongs to the plan, so walks into the network's scratch
// buffer cannot change it. A plan never changes once built, so it is
// handed around by pointer.
type pathPlan struct {
	path []*topology.Router
	devs [][]devRef
}

// devRef is a device with this network's flow state for it: what a plan
// resolves a device number to, once, so forwarding looks nothing up per
// packet. A plan is the network's own and is dropped on every attach,
// and a reset keeps the state object, so the reference never goes stale.
type devRef struct {
	dev *middlebox.Device
	st  *middlebox.FlowState
}

// planKey identifies a flow for plan caching. The hosts are compared by
// pointer, as in pairKey, and a hash collision between two distinct
// 5-tuples of the same host pair cannot change the plan (the path is a
// function of src, dst, and flow hash only).
type planKey struct {
	src, dst *topology.Host
	hash     uint64
}

// flowPlan is the forwarding plan of the flow key names, with its pair's
// state. A zero key means no plan is held, and a nil plan that dst is
// unreachable.
type flowPlan struct {
	key  planKey
	pair *pairState
	plan *pathPlan
}

// maxPairs bounds the per-pair state and maxPairPlans each pair's path
// memo; either is emptied when full.
const (
	maxPairs     = 4096
	maxPairPlans = 64
)

// maxRenderCache bounds each server's rendered-response memo.
const maxRenderCache = 1024

// netMetrics are the pre-resolved counters the packet-forwarding series
// flush into. The zero value (all nil) is the uninstrumented no-op path.
type netMetrics struct {
	packets    *obs.Counter // simnet_packets_forwarded_total
	deliveries *obs.Counter // simnet_deliveries_total
	icmp       *obs.Counter // simnet_icmp_emitted_total
	injections *obs.Counter // simnet_device_injections_total
	devDrops   *obs.Counter // simnet_device_drops_total
	ttlExpired *obs.Counter // simnet_ttl_expired_total
}

// netTally is what the forwarding hot path counts since the last flush,
// one plain integer per netMetrics series. A network belongs to one
// goroutine (DESIGN.md §8), so counting needs no atomics; FlushObs adds
// the tally into the registry.
type netTally struct {
	packets, deliveries, icmp, injections, devDrops, ttlExpired int64
}

// New creates a network over a topology graph and populates the geo
// registry from its ASes. The network subscribes to g (GraphChanged), so
// a structural change of g drops its forwarding plans. A graph has one
// subscriber: build each network over a graph of its own, as New panics
// on a graph that another network already subscribes to. A clone's graph
// is its own, and Clone subscribes the clone to it.
func New(g *topology.Graph) *Network {
	n := &Network{
		Graph:         g,
		Geo:           geoip.NewRegistry(),
		linkDevices:   make(map[topology.LinkID][]int),
		guards:        make(map[string]int),
		servers:       make(map[string]*endpoint.Server),
		resolvers:     make(map[string]*endpoint.Resolver),
		hostsByAddr:   make(map[netip.Addr]*topology.Host),
		devicesByAddr: make(map[netip.Addr]*middlebox.Device),
		nextPort:      33000,
	}
	for _, as := range g.ASes() {
		n.Geo.Add(as.Prefix, geoip.Info{ASN: as.ASN, Name: as.Name, Country: as.Country})
	}
	for _, h := range g.Hosts() {
		n.hostsByAddr[h.Addr] = h
	}
	g.Subscribe(n)
	return n
}

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.clock }

// SetFaults installs a composable impairment engine. The network consults
// it on every forward traversal, every link crossing, every response
// delivery, and every ICMP emission. Pass nil to restore a perfect
// network. See the faults package for the available profiles. When the
// network is instrumented (SetObs), the engine's per-profile decision
// counters are bound to the same registry. The replaced engine's unflushed
// decision counts are flushed first.
func (n *Network) SetFaults(e *faults.Engine) {
	n.faults.FlushObs()
	n.faults = e
	if n.obs != nil {
		e.Instrument(n.obs)
	}
}

// SetObs installs a metrics registry: the forwarding hot path counts
// packets, deliveries, ICMP emissions, device injections/drops, and TTL
// expiries for it, and any installed (or later-installed) fault engine
// counts its per-profile decisions. Counts reach the registry at FlushObs.
// Clones share the registry, so a campaign's worker pools aggregate into
// one set of series. Pass nil to uninstrument. What was counted under the
// previous registry is flushed there first.
func (n *Network) SetObs(r *obs.Registry) {
	n.FlushObs()
	n.obs = r
	if r == nil {
		n.m = netMetrics{}
		return
	}
	n.m = netMetrics{
		packets:    r.Counter("simnet_packets_forwarded_total"),
		deliveries: r.Counter("simnet_deliveries_total"),
		icmp:       r.Counter("simnet_icmp_emitted_total"),
		injections: r.Counter("simnet_device_injections_total"),
		devDrops:   r.Counter("simnet_device_drops_total"),
		ttlExpired: r.Counter("simnet_ttl_expired_total"),
	}
	if n.faults != nil {
		n.faults.Instrument(r)
	}
}

// Obs returns the installed metrics registry, or nil.
func (n *Network) Obs() *obs.Registry { return n.obs }

// FlushObs adds what the network and its fault engine counted since the
// last flush into the registry, and zeroes those tallies. Prober.Run
// calls it at the end of every measurement; the owner of a clone calls it
// once more when it drops the clone. Until then the counts are invisible
// to registry readers. Like every other method, it must run on the
// goroutine that owns the network.
func (n *Network) FlushObs() {
	m, t := &n.m, &n.t
	m.packets.Flush(&t.packets)
	m.deliveries.Flush(&t.deliveries)
	m.icmp.Flush(&t.icmp)
	m.injections.Flush(&t.injections)
	m.devDrops.Flush(&t.devDrops)
	m.ttlExpired.Flush(&t.ttlExpired)
	n.faults.FlushObs()
}

// Faults returns the installed impairment engine, or nil.
func (n *Network) Faults() *faults.Engine { return n.faults }

// SetRoutes installs a route-dynamics engine: from now on, forwarding
// consults the engine for the routing graph and ECMP salt at every
// transmit — its scheduled epochs and its route flaps. The engine must be
// bound to this network's graph (routedyn.NewEngine(seed, n.Graph));
// Clone rebinds it automatically. Pass nil to restore static routing.
func (n *Network) SetRoutes(e *routedyn.Engine) { n.routes = e }

// Routes returns the installed route-dynamics engine, or nil.
func (n *Network) Routes() *routedyn.Engine { return n.routes }

// activeRouting resolves what forwarding uses at the current virtual
// time: the route-dynamics engine's graph and ECMP salt (routedyn
// Engine.Routing), or the network's own graph and no salt when no engine
// is installed.
func (n *Network) activeRouting() (*topology.Graph, func(string) uint64) {
	if n.routes == nil {
		return n.Graph, nil
	}
	return n.routes.Routing(n.clock)
}

// FlowPath returns the router path a TCP flow with the given ports takes
// from src to dst at the current virtual time — the same resolution
// Transmit performs (active epoch snapshot plus flap salts) — or nil when
// dst is unreachable right now. The tomography collector uses this as the
// simulation's stand-in for traceroute-derived path knowledge: it records
// which links a probe's verdict implicates.
func (n *Network) FlowPath(src, dst *topology.Host, srcPort, dstPort uint16) []*topology.Router {
	g, salt := n.activeRouting()
	flowHash := topology.FlowHash(src.Addr, dst.Addr, srcPort, dstPort, uint8(netem.ProtoTCP))
	return g.PathForFlowSalted(g.Host(src.ID), g.Host(dst.ID), flowHash, salt)
}

// Sleep advances the virtual clock.
func (n *Network) Sleep(d time.Duration) { n.clock += d }

// AttachDevice places a censorship device on the directed link from router
// `from` to router `to`: it inspects every client→endpoint packet crossing
// the link in that direction.
func (n *Network) AttachDevice(from, to string, dev *middlebox.Device) {
	if n.Graph.Router(from) == nil || n.Graph.Router(to) == nil {
		panic(fmt.Sprintf("simnet: AttachDevice on unknown link %s→%s", from, to))
	}
	n.attachAt(topology.LinkID{From: from, To: to}, dev)
}

// attachAt adds a device to a link's list. The list is never appended in
// place: its array may be shared with a clone.
func (n *Network) attachAt(id topology.LinkID, dev *middlebox.Device) {
	k := n.attach(dev)
	n.linkDevices[id] = append(slices.Clip(n.linkDevices[id]), k)
}

// dropPlans invalidates the per-pair state and the per-flow plan after
// anything that could change what a packet meets along its path or at
// its destination.
func (n *Network) dropPlans() {
	n.pairs = nil
	n.lastPair = nil
	n.flow = flowPlan{}
}

// GraphChanged drops the network's forwarding plans. The network's graph
// calls it on every structural change (topology.Subscriber), on the
// goroutine that made the change, which is the network's own (DESIGN.md
// §8).
func (n *Network) GraphChanged() { n.dropPlans() }

// pair returns the forwarding state of a host pair, resolving it on the
// pair's first packet.
func (n *Network) pair(src, dst *topology.Host) *pairState {
	k := pairKey{src, dst}
	if p := n.lastPair; p != nil && p.key == k {
		return p
	}
	p := n.pairs[k]
	if p == nil {
		if n.pairs == nil || len(n.pairs) >= maxPairs {
			n.pairs = make(map[pairKey]*pairState)
		}
		p = &pairState{
			key:    k,
			route:  n.Graph.Route(src, dst),
			server: n.servers[dst.ID],
		}
		if k, ok := n.guards[dst.ID]; ok {
			p.guard = n.ref(k)
		}
		n.pairs[k] = p
	}
	n.lastPair = p
	return p
}

// plan returns the memoized plan of a router path the pair's flows take
// from src, resolving its device lists link by link on the path's first
// walk. path is scratch: the memo keeps its own copy.
func (n *Network) plan(p *pairState, src *topology.Host, path []*topology.Router) *pathPlan {
	for _, pl := range p.plans {
		if slices.Equal(pl.path, path) {
			return pl
		}
	}
	pl := &pathPlan{path: slices.Clone(path), devs: make([][]devRef, len(path))}
	prev := ClientAccessLink(src)
	for i, r := range path {
		for _, k := range n.linkDevices[topology.LinkID{From: prev, To: r.ID}] {
			pl.devs[i] = append(pl.devs[i], n.ref(k))
		}
		prev = r.ID
	}
	if len(p.plans) >= maxPairPlans {
		p.plans = nil
	}
	p.plans = append(p.plans, pl)
	return pl
}

// AttachGuard places a device directly in front of an endpoint host — the
// NAT/firewall configuration behind the paper's "At E" blocking class
// (§4.3: 16.19% of traceroutes terminate at the endpoint IP itself).
func (n *Network) AttachGuard(hostID string, dev *middlebox.Device) {
	if n.Graph.Host(hostID) == nil {
		panic("simnet: AttachGuard on unknown host " + hostID)
	}
	n.guards[hostID] = n.attach(dev)
}

// attach returns a device's number, numbering it on its first attach:
// the device joins the flat list with an empty flow state and, when it
// exposes a valid management address, the address index DeviceByAddr
// serves from. The first device registered at an address wins, matching
// the behaviour of the linear scan this index replaced. A device attached
// at several points is one device with one flow state.
func (n *Network) attach(dev *middlebox.Device) int {
	n.unshare()
	n.dropPlans()
	if k := slices.Index(n.devices, dev); k >= 0 {
		return k
	}
	n.devices = append(n.devices, dev)
	n.flows = append(n.flows, nil)
	if dev.Addr.IsValid() {
		if _, taken := n.devicesByAddr[dev.Addr]; !taken {
			n.devicesByAddr[dev.Addr] = dev
		}
	}
	return len(n.devices) - 1
}

// RegisterServer installs an endpoint server on a host. Hosts added to the
// graph after New are (re-)indexed here.
func (n *Network) RegisterServer(hostID string, s *endpoint.Server) {
	h := n.Graph.Host(hostID)
	if h == nil {
		panic("simnet: RegisterServer on unknown host " + hostID)
	}
	n.registerHost(h)
	n.servers[hostID] = s
	n.dropPlans()
}

// Server returns the server registered on a host, or nil.
func (n *Network) Server(hostID string) *endpoint.Server { return n.servers[hostID] }

// RegisterResolver installs a DNS resolver on a host (UDP port 53), for
// the DNS measurement extension.
func (n *Network) RegisterResolver(hostID string, r *endpoint.Resolver) {
	h := n.Graph.Host(hostID)
	if h == nil {
		panic("simnet: RegisterResolver on unknown host " + hostID)
	}
	n.registerHost(h)
	n.resolvers[hostID] = r
}

// registerHost records a host in the address index, first taking
// private copies of the registries a clone shares with its source.
func (n *Network) registerHost(h *topology.Host) {
	n.unshare()
	n.hostsByAddr[h.Addr] = h
}

// unshare takes private copies of the registries and device indexes a
// network shares with its clones, before it first writes to any of them.
// Link lists stay shared: attachAt never appends to one in place.
func (n *Network) unshare() {
	if !n.shared {
		return
	}
	n.hostsByAddr = maps.Clone(n.hostsByAddr)
	n.servers = maps.Clone(n.servers)
	n.resolvers = maps.Clone(n.resolvers)
	n.devices = slices.Clone(n.devices)
	n.linkDevices = maps.Clone(n.linkDevices)
	n.guards = maps.Clone(n.guards)
	n.devicesByAddr = maps.Clone(n.devicesByAddr)
	n.shared = false
}

// Resolver returns the resolver registered on a host, or nil.
func (n *Network) Resolver(hostID string) *endpoint.Resolver { return n.resolvers[hostID] }

// Devices returns every device attached anywhere in the network, each
// once, in the order of first attach. The slice is the network's own
// (shared with its clones): read it, never write it.
func (n *Network) Devices() []*middlebox.Device { return n.devices }

// HostByAddr resolves an address to its host.
func (n *Network) HostByAddr(addr netip.Addr) *topology.Host { return n.hostsByAddr[addr] }

// ResetDeviceState clears stateful flow tracking on every device, for use
// between independent experiments.
func (n *Network) ResetDeviceState() {
	for _, st := range n.flows {
		if st != nil {
			st.Reset()
		}
	}
}

// ref resolves device number k to the device and its flow state in this
// network, creating the state when no plan has needed it yet.
func (n *Network) ref(k int) devRef {
	if n.flows[k] == nil {
		n.flows[k] = new(middlebox.FlowState)
	}
	return devRef{n.devices[k], n.flows[k]}
}

// AllocPort returns a fresh ephemeral source port (deterministic sequence).
func (n *Network) AllocPort() uint16 {
	p := n.nextPort
	n.nextPort++
	if n.nextPort < 33000 {
		n.nextPort = 33000
	}
	return p
}

// DeviceByAddr returns the device with the given management address, if
// any. Served from an index maintained by the attach methods, so lookups
// stay O(1) however many devices a country-scale scenario deploys.
func (n *Network) DeviceByAddr(addr netip.Addr) *middlebox.Device {
	if !addr.IsValid() {
		return nil
	}
	return n.devicesByAddr[addr]
}
