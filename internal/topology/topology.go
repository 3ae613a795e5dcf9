// Package topology models the AS-level network graph the simulator routes
// over: autonomous systems with country and organization metadata, routers
// with per-router ICMP behaviour, hosts attached to routers, and links with
// equal-cost multipath (ECMP) routing. Path selection is deterministic per
// flow: a 5-tuple hash picks among equal-cost next hops, which reproduces
// the path variance CenTrace must cope with (§4.1: "90% of all paths to
// each endpoint are covered in 11 traceroutes on average").
package topology

import (
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"sort"
	"sync"
)

// AS is an autonomous system.
type AS struct {
	ASN     uint32
	Name    string // organization, e.g. "Delta Telecom"
	Country string // ISO 3166-1 alpha-2, e.g. "AZ"
	Prefix  netip.Prefix
}

// String implements fmt.Stringer.
func (a *AS) String() string { return fmt.Sprintf("AS%d (%s, %s)", a.ASN, a.Name, a.Country) }

// Router is a network hop. Its ICMP behaviour shapes what CenTrace can see.
type Router struct {
	ID   string
	Addr netip.Addr
	AS   *AS
	// SendsICMP controls whether the router answers TTL expiry with an ICMP
	// Time Exceeded at all. Silent routers create gaps in traceroutes and
	// the rare "No ICMP" ambiguity (§4.3 found exactly one such case).
	SendsICMP bool
	// QuoteLen is the number of transport-segment bytes quoted in ICMP
	// errors: 8 for RFC 792 minimal routers, larger for RFC 1812 routers
	// (§4.3: 57.6% quoted the minimum).
	QuoteLen int
	// RewriteTOS, when non-nil, overwrites the IP TOS byte of forwarded
	// packets — the middlebox-adjacent behaviour behind the 32.06% of
	// quotes that differed in TOS (§4.3).
	RewriteTOS *uint8
	// SetIPFlags, when non-nil, overwrites the IP flag bits of forwarded
	// packets (one quoted packet in the paper differed in IP flags).
	SetIPFlags *uint8
}

// Host is a client or endpoint machine attached to a router.
type Host struct {
	ID     string
	Addr   netip.Addr
	AS     *AS
	Router *Router
}

// LinkID identifies a directed link between two routers.
type LinkID struct{ From, To string }

// Graph is the network topology. Its state splits in two:
//
//   - the shape: AS, router and host records, the adjacency, the address
//     sequence, and the dense router index. Clones share one shape, which
//     is immutable once shared; a structural mutator (AddAS, AddRouter,
//     AddHost, Link) on a graph whose shape is shared copies the shape
//     first, so the change stays private to that graph.
//   - per-graph state: the withdrawn-link set, the generation, and the
//     route caches. SetLinkUp only touches the private withdrawn-link set.
//
// A clone therefore costs in proportion to the withdrawn-link set, not to
// the size of the topology.
type Graph struct {
	// mu guards every field below and the mutators that change them.
	// Measurement workers each own a private clone, so the lock is
	// uncontended on the packet hot path; it exists so that Clone — which
	// warms the source's caches — is safe against a concurrent route
	// recomputation on the same graph (the route-dynamics engine snapshots
	// epoch graphs from a base that may be computing paths at the time).
	mu sync.Mutex
	sh *shape
	// down holds withdrawn links keyed by their canonical undirected form
	// (smaller ID first). A withdrawn link is skipped by every routing
	// computation as if absent, but stays in the adjacency so a later
	// re-announcement restores it. Nil means every link is announced.
	down map[LinkID]bool
	// gen counts structural mutations (routers, hosts, links). External
	// caches keyed on paths through this graph compare generations instead
	// of subscribing to invalidation.
	gen uint64
	// distCache memoizes BFS distance maps per destination router, and
	// routeCache holds per-destination forwarding tables over the shape's
	// dense router indices, so the per-packet path walk does no map
	// lookups, sorting, or allocation. Both are dropped on every
	// structural mutation and refilled lazily. Path computation runs for
	// every simulated packet, so these caches carry the simulator.
	distCache  map[string]map[string]int
	routeCache map[string]*routeTable
	// cachesShared marks distCache and routeCache as visible to another
	// graph (handed to or inherited from a clone): a fill copies both maps
	// before writing, so it never writes into a map another graph reads.
	cachesShared bool
	// warm records that routeCache holds a table toward every router, so
	// Clone can hand the caches over without rebuilding any.
	warm bool
	// lastRtID/lastRt short-circuit routeTableTo for the common case of
	// consecutive lookups toward the same destination (a measurement sends
	// every packet of a probe to one endpoint), skipping the string-keyed
	// map access.
	lastRtID string
	lastRt   *routeTable
}

// shape is the structure of a graph that clones share. Once shared is set
// nothing in it is written again: the maps, the adjacency slices, the
// records they point to, and the dense index are all read-only, and a
// graph that needs to change its structure works on a copy.
type shape struct {
	ases    map[uint32]*AS
	routers map[string]*Router
	hosts   map[string]*Host
	adj     map[string][]string
	// addrSeq tracks per-AS address allocation.
	addrSeq map[uint32]int
	// idx/byIdx give every router a dense index in sorted-ID order. Built
	// lazily, dropped when a router is added, and always built before the
	// shape is shared.
	idx   map[string]int32
	byIdx []*Router
	// shared is set by the first Clone that hands this shape to a second
	// graph.
	shared bool
}

// copy returns a private copy of the shape. Records are not copied: they
// are immutable once shared. The dense index stays valid until a router
// is added, which drops it on the copy.
func (s *shape) copy() *shape {
	c := &shape{
		ases:    maps.Clone(s.ases),
		routers: maps.Clone(s.routers),
		hosts:   maps.Clone(s.hosts),
		adj:     make(map[string][]string, len(s.adj)),
		addrSeq: maps.Clone(s.addrSeq),
		idx:     s.idx,
		byIdx:   s.byIdx,
	}
	for id, neighbors := range s.adj {
		c.adj[id] = slices.Clone(neighbors)
	}
	return c
}

// routeTable is a per-destination ECMP forwarding table: next[i] lists the
// dense indices of router i's equal-cost next hops toward the destination,
// sorted by router ID (the same order NextHops returns). Tables are
// immutable once built, which lets graph clones share them read-only.
type routeTable struct {
	next [][]int32
}

// NewGraph returns an empty topology.
func NewGraph() *Graph {
	return &Graph{sh: &shape{
		ases:    make(map[uint32]*AS),
		routers: make(map[string]*Router),
		hosts:   make(map[string]*Host),
		adj:     make(map[string][]string),
		addrSeq: make(map[uint32]int),
	}}
}

// own returns the graph's shape for writing, first replacing it with a
// private copy when clones share it. Requires g.mu.
func (g *Graph) own() *shape {
	if g.sh.shared {
		g.sh = g.sh.copy()
	}
	return g.sh
}

// AddAS registers an autonomous system. Each AS is allocated a /16 from
// 10.0.0.0/8 keyed by registration order (10.<index>.0.0/16), from which
// router and host addresses are assigned. At most 255 ASes fit; the
// scenarios in this repository use well under that.
func (g *Graph) AddAS(asn uint32, name, country string) *AS {
	g.mu.Lock()
	defer g.mu.Unlock()
	if a, ok := g.sh.ases[asn]; ok {
		return a
	}
	sh := g.own()
	idx := len(sh.ases) + 1
	if idx > 255 {
		panic("topology: AS limit (255) exceeded")
	}
	prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(idx), 0, 0}), 16)
	a := &AS{ASN: asn, Name: name, Country: country, Prefix: prefix}
	sh.ases[asn] = a
	return a
}

// nextAddr allocates the next address inside an AS prefix. Requires a
// private shape.
func (s *shape) nextAddr(a *AS) netip.Addr {
	s.addrSeq[a.ASN]++
	seq := s.addrSeq[a.ASN]
	if seq > 0xfffe {
		panic("topology: AS address space exhausted")
	}
	p4 := a.Prefix.Addr().As4()
	p4[2] = byte(seq >> 8)
	p4[3] = byte(seq)
	return netip.AddrFrom4(p4)
}

// AddRouter creates a router in as with default behaviour: answers ICMP
// with RFC 792 minimal quoting.
func (g *Graph) AddRouter(id string, as *AS) *Router {
	g.mu.Lock()
	defer g.mu.Unlock()
	if r, ok := g.sh.routers[id]; ok {
		return r
	}
	sh := g.own()
	r := &Router{ID: id, Addr: sh.nextAddr(as), AS: as, SendsICMP: true, QuoteLen: 8}
	sh.routers[id] = r
	sh.adj[id] = nil
	sh.idx, sh.byIdx = nil, nil
	g.invalidate()
	return r
}

// invalidate drops every derived routing structure after a structural
// mutation and bumps the generation external caches compare against.
// Caches shared with a clone are dropped, never cleared in place.
// Requires g.mu.
func (g *Graph) invalidate() {
	g.distCache = nil
	g.routeCache = nil
	g.cachesShared = false
	g.warm = false
	g.lastRtID = ""
	g.lastRt = nil
	g.gen++
}

// Gen returns the graph's structural generation. It changes whenever
// routers, hosts, or links are added or link state flips, so callers
// caching computed paths can detect staleness with one comparison. Gen is
// monotonic across clones: a clone starts at its source's generation, so
// external caches keyed by generation never see the counter move
// backwards when they switch between a graph and its clone.
func (g *Graph) Gen() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.gen
}

// AddHost attaches a host to a router, allocating it an address in as.
func (g *Graph) AddHost(id string, as *AS, router *Router) *Host {
	g.mu.Lock()
	defer g.mu.Unlock()
	if h, ok := g.sh.hosts[id]; ok {
		return h
	}
	sh := g.own()
	h := &Host{ID: id, Addr: sh.nextAddr(as), AS: as, Router: router}
	sh.hosts[id] = h
	g.gen++
	return h
}

// Link connects two routers bidirectionally.
func (g *Graph) Link(a, b string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.sh.routers[a]; !ok {
		panic("topology: unknown router " + a)
	}
	if _, ok := g.sh.routers[b]; !ok {
		panic("topology: unknown router " + b)
	}
	if slices.Contains(g.sh.adj[a], b) {
		return
	}
	sh := g.own()
	sh.adj[a] = append(sh.adj[a], b)
	sh.adj[b] = append(sh.adj[b], a)
	g.invalidate()
}

// ukey returns the canonical undirected key for a link: smaller ID first.
func ukey(a, b string) LinkID {
	if b < a {
		a, b = b, a
	}
	return LinkID{From: a, To: b}
}

// edgeUp reports whether the undirected link a<->b is announced.
// Requires g.mu.
func (g *Graph) edgeUp(a, b string) bool {
	if len(g.down) == 0 {
		return true
	}
	return !g.down[ukey(a, b)]
}

// SetLinkUp announces (up=true) or withdraws (up=false) the undirected
// link between two routers — the topology-level primitive behind
// BGP-style route dynamics. A withdrawn link is invisible to BFS
// distances, forwarding tables, NextHops, and AllPaths, but stays in the
// adjacency so a later announcement restores it. A state change
// invalidates derived routing caches and bumps Gen; setting the current
// state again is a no-op. Only this graph's withdrawn-link set changes,
// so the shape stays shared with clones. Panics if the routers are not
// linked.
func (g *Graph) SetLinkUp(a, b string, up bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !slices.Contains(g.sh.adj[a], b) {
		panic("topology: no link " + a + " <-> " + b)
	}
	k := ukey(a, b)
	if up {
		if !g.down[k] {
			return
		}
		delete(g.down, k)
	} else {
		if g.down[k] {
			return
		}
		if g.down == nil {
			g.down = make(map[LinkID]bool)
		}
		g.down[k] = true
	}
	g.invalidate()
}

// LinkUp reports whether the undirected link between two routers is
// currently announced. Unknown pairs report true (there is nothing to
// withdraw).
func (g *Graph) LinkUp(a, b string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.edgeUp(a, b)
}

// Linked reports whether two routers share a link, announced or
// withdrawn.
func (g *Graph) Linked(a, b string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Contains(g.sh.adj[a], b)
}

// Router returns a router by ID, or nil.
func (g *Graph) Router(id string) *Router { return g.sh.routers[id] }

// Host returns a host by ID, or nil.
func (g *Graph) Host(id string) *Host { return g.sh.hosts[id] }

// AS returns an AS by number, or nil.
func (g *Graph) AS(asn uint32) *AS { return g.sh.ases[asn] }

// Routers returns all routers in deterministic order.
func (g *Graph) Routers() []*Router {
	ids := make([]string, 0, len(g.sh.routers))
	for id := range g.sh.routers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*Router, len(ids))
	for i, id := range ids {
		out[i] = g.sh.routers[id]
	}
	return out
}

// Hosts returns all hosts in deterministic order.
func (g *Graph) Hosts() []*Host {
	ids := make([]string, 0, len(g.sh.hosts))
	for id := range g.sh.hosts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*Host, len(ids))
	for i, id := range ids {
		out[i] = g.sh.hosts[id]
	}
	return out
}

// ASes returns all ASes in ASN order.
func (g *Graph) ASes() []*AS {
	asns := make([]uint32, 0, len(g.sh.ases))
	for asn := range g.sh.ases {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	out := make([]*AS, len(asns))
	for i, asn := range asns {
		out[i] = g.sh.ases[asn]
	}
	return out
}

// Clone returns a graph that starts out identical to g and then evolves
// independently: a mutation on either never shows on the other. Clones
// exist so parallel measurement workers can each own a private graph — the
// route caches are lazily filled memos, which makes a shared Graph unsafe
// for concurrent path computation.
//
// Clone copies only per-graph state. The shape (AS, router and host
// records, adjacency, address sequence, dense router index) is shared, and
// whichever graph mutates its structure first copies it; that is why
// records are immutable once a graph has been cloned — set router
// behaviour such as QuoteLen or RewriteTOS before the first Clone. The
// withdrawn-link set is copied. Routing caches are warmed on the source
// (once: a warm source skips it) and shared read-only: distance maps and
// forwarding tables are immutable once built and hold only router IDs and
// dense indices, and a fill on either graph copies the cache maps first.
// Clone warms the source's caches under the graph mutex, so taking a clone
// is safe even while another goroutine is computing paths on the source
// (the route-dynamics engine snapshots epoch graphs this way). The clone
// inherits the source's generation, keeping Gen monotonic across clones.
func (g *Graph) Clone() *Graph {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.warm {
		g.warmAllRoutes()
	}
	// Only the graph holding an unshared shape writes the flag, so no
	// other graph can be reading it.
	if !g.sh.shared {
		g.sh.shared = true
	}
	g.cachesShared = true
	c := &Graph{
		sh:           g.sh,
		gen:          g.gen,
		distCache:    g.distCache,
		routeCache:   g.routeCache,
		cachesShared: true,
		warm:         true,
	}
	if len(g.down) > 0 {
		c.down = maps.Clone(g.down)
	}
	return c
}

// warmAllRoutes builds the dense index and the forwarding table toward
// every router, so a subsequent Clone hands complete routing state to the
// copy. Cheap for the scenario-scale graphs this repository simulates
// (tens to a few hundred routers). Requires g.mu.
func (g *Graph) warmAllRoutes() {
	g.ensureIndex()
	for _, r := range g.sh.byIdx {
		g.routeTableTo(r.ID)
	}
	g.warm = true
}

// ownCaches makes distCache and routeCache safe to write, copying them
// first when a clone can see them. Requires g.mu.
func (g *Graph) ownCaches() {
	if !g.cachesShared {
		return
	}
	g.distCache = maps.Clone(g.distCache)
	g.routeCache = maps.Clone(g.routeCache)
	g.cachesShared = false
}

// distancesTo runs BFS from the destination router and returns hop
// distances for every router that can reach it over announced links.
// Results are memoized until the graph changes. Requires g.mu.
func (g *Graph) distancesTo(dst string) map[string]int {
	if cached, ok := g.distCache[dst]; ok {
		return cached
	}
	dist := map[string]int{dst: 0}
	queue := []string{dst}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		neighbors := append([]string(nil), g.sh.adj[cur]...)
		sort.Strings(neighbors)
		for _, n := range neighbors {
			if !g.edgeUp(cur, n) {
				continue
			}
			if _, seen := dist[n]; !seen {
				dist[n] = dist[cur] + 1
				queue = append(queue, n)
			}
		}
	}
	g.ownCaches()
	if g.distCache == nil {
		g.distCache = make(map[string]map[string]int)
	}
	g.distCache[dst] = dist
	return dist
}

// NextHops returns the equal-cost next hops from router `from` toward
// router `dst`, in deterministic order.
func (g *Graph) NextHops(from, dst string) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	dist := g.distancesTo(dst)
	d, ok := dist[from]
	if !ok || from == dst {
		return nil
	}
	var hops []string
	for _, n := range g.sh.adj[from] {
		if dist[n] == d-1 && g.edgeUp(from, n) {
			hops = append(hops, n)
		}
	}
	sort.Strings(hops)
	return hops
}

// PathForFlow computes the router path from src's router to dst's router
// for a given flow hash, choosing among equal-cost next hops by mixing the
// hash with the hop position (per-flow ECMP: the same flow always takes the
// same path; different source ports may take different paths).
func (g *Graph) PathForFlow(src, dst *Host, flowHash uint64) []*Router {
	return g.PathForFlowSalted(src, dst, flowHash, nil)
}

// PathForFlowSalted is PathForFlow with a per-router perturbation: at each
// router making an ECMP choice, salt(routerID) is XORed into the flow hash
// before the next hop is picked. A nil salt function (or one returning 0)
// reproduces PathForFlow exactly. The route-dynamics engine (routedyn)
// uses this to model route flaps and epoch re-hashes: a router whose salt
// changes over virtual time re-rolls its next-hop choice, emulating path
// churn without touching the topology.
func (g *Graph) PathForFlowSalted(src, dst *Host, flowHash uint64, salt func(routerID string) uint64) []*Router {
	return g.AppendPathForFlow(nil, src, dst, flowHash, salt)
}

// ensureIndex builds the shape's dense router index in sorted-ID order if
// it is missing. Requires g.mu. A missing index implies a private shape
// (Clone builds the index before sharing one), and the built map and slice
// are never mutated in place afterwards (AddRouter drops them wholesale),
// so references captured under the lock stay safe to read after it is
// released.
func (g *Graph) ensureIndex() {
	sh := g.sh
	if sh.idx != nil {
		return
	}
	ids := make([]string, 0, len(sh.routers))
	for id := range sh.routers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	sh.idx = make(map[string]int32, len(ids))
	sh.byIdx = make([]*Router, len(ids))
	for i, id := range ids {
		sh.idx[id] = int32(i)
		sh.byIdx[i] = sh.routers[id]
	}
}

// routeTableTo returns (building and memoizing if needed) the forwarding
// table toward dst. The equal-cost next-hop sets are computed once with the
// same sort order PathForFlowSalted historically used, so table-driven
// walks pick byte-identical paths. Requires g.mu.
func (g *Graph) routeTableTo(dst string) *routeTable {
	if g.lastRt != nil && g.lastRtID == dst {
		return g.lastRt
	}
	if t, ok := g.routeCache[dst]; ok {
		g.lastRtID, g.lastRt = dst, t
		return t
	}
	g.ensureIndex()
	dist := g.distancesTo(dst)
	sh := g.sh
	t := &routeTable{next: make([][]int32, len(sh.byIdx))}
	var hops []string
	for i, r := range sh.byIdx {
		d, ok := dist[r.ID]
		if !ok || r.ID == dst {
			continue
		}
		hops = hops[:0]
		for _, n := range sh.adj[r.ID] {
			if dist[n] == d-1 && g.edgeUp(r.ID, n) {
				hops = append(hops, n)
			}
		}
		sort.Strings(hops)
		if len(hops) == 0 {
			continue
		}
		nx := make([]int32, len(hops))
		for k, h := range hops {
			nx[k] = sh.idx[h]
		}
		t.next[i] = nx
	}
	g.ownCaches()
	if g.routeCache == nil {
		g.routeCache = make(map[string]*routeTable)
	}
	g.routeCache[dst] = t
	g.lastRtID, g.lastRt = dst, t
	return t
}

// AppendPathForFlow computes the same path as PathForFlowSalted but appends
// the routers into buf (resliced to zero length first): it resolves the
// pair's Route and walks it. Returns nil when the hosts are not connected.
func (g *Graph) AppendPathForFlow(buf []*Router, src, dst *Host, flowHash uint64, salt func(routerID string) uint64) []*Router {
	r := g.Route(src, dst)
	return r.AppendPath(buf, flowHash, salt)
}

// Route is the forwarding state of one host pair: the memoized table
// toward the destination host's router and the dense indices of both
// hosts' routers. Resolving it takes the graph's lock and its
// string-keyed lookups; walking it takes neither, so a caller that
// forwards many flows between one pair resolves the route once. The
// table and index are immutable, so a Route stays safe to walk after the
// lock is released, but it answers for the graph as it was: once Gen
// moves, resolve it again. The zero Route walks to nil.
type Route struct {
	table    *routeTable
	byIdx    []*Router
	src, dst int32
}

// Route resolves the forwarding state from src's router toward dst's
// router. A pair with a router missing from the graph gets the zero
// Route.
func (g *Graph) Route(src, dst *Host) Route {
	if src.Router == nil || dst.Router == nil {
		return Route{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ensureIndex()
	s, okSrc := g.sh.idx[src.Router.ID]
	d, okDst := g.sh.idx[dst.Router.ID]
	if !okSrc || !okDst {
		return Route{}
	}
	return Route{table: g.routeTableTo(dst.Router.ID), byIdx: g.sh.byIdx, src: s, dst: d}
}

// AppendPath appends the router path of one flow into buf (resliced to
// zero length first), choosing among equal-cost next hops by mixing the
// flow hash with the hop position, with salt(routerID) XORed in at each
// router when salt is non-nil. The walk is a handful of integer ops per
// hop with no sorting, map lookups, or allocation beyond growing buf.
// Returns nil when dst is unreachable.
func (r *Route) AppendPath(buf []*Router, flowHash uint64, salt func(routerID string) uint64) []*Router {
	if r.table == nil {
		return nil
	}
	cur := r.src
	buf = append(buf[:0], r.byIdx[cur])
	for hop := uint64(0); cur != r.dst; hop++ {
		choices := r.table.next[cur]
		if len(choices) == 0 {
			return nil // dst unreachable from cur
		}
		h := flowHash
		if salt != nil {
			h ^= salt(r.byIdx[cur].ID)
		}
		// Use the high bits of the mixed hash: low bits can correlate with
		// the source-port sequence and collapse the ECMP spread.
		cur = choices[(mix(h, hop)>>32)%uint64(len(choices))]
		buf = append(buf, r.byIdx[cur])
	}
	return buf
}

// AllPaths enumerates every ECMP path between the hosts' routers, up to
// limit paths (0 means no limit). Used by tests and by the path-variance
// calibration experiment.
func (g *Graph) AllPaths(src, dst *Host, limit int) [][]*Router {
	g.mu.Lock()
	defer g.mu.Unlock()
	dist := g.distancesTo(dst.Router.ID)
	if _, ok := dist[src.Router.ID]; !ok {
		return nil
	}
	var out [][]*Router
	var walk func(cur string, acc []*Router)
	walk = func(cur string, acc []*Router) {
		if limit > 0 && len(out) >= limit {
			return
		}
		acc = append(acc, g.sh.routers[cur])
		if cur == dst.Router.ID {
			out = append(out, append([]*Router(nil), acc...))
			return
		}
		d := dist[cur]
		var hops []string
		for _, n := range g.sh.adj[cur] {
			if dist[n] == d-1 && g.edgeUp(cur, n) {
				hops = append(hops, n)
			}
		}
		sort.Strings(hops)
		for _, n := range hops {
			walk(n, acc)
		}
	}
	walk(src.Router.ID, nil)
	return out
}

// FlowHash computes the per-flow hash used by ECMP from the 5-tuple.
func FlowHash(src, dst netip.Addr, srcPort, dstPort uint16, proto uint8) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	write := func(b []byte) {
		for _, c := range b {
			h ^= uint64(c)
			h *= 1099511628211
		}
	}
	s4, d4 := src.As4(), dst.As4()
	write(s4[:])
	write(d4[:])
	write([]byte{byte(srcPort >> 8), byte(srcPort), byte(dstPort >> 8), byte(dstPort), proto})
	return h
}

// mix combines a flow hash with a hop index into a new pseudo-random value.
func mix(h, hop uint64) uint64 {
	x := h ^ (hop+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
