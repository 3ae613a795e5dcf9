package simnet

import (
	"bytes"
	"time"

	"cendev/internal/endpoint"
	"cendev/internal/middlebox"
	"cendev/internal/netem"
	"cendev/internal/topology"
)

// perHopLatency is the virtual one-way latency of each link.
const perHopLatency = 2 * time.Millisecond

// Delivery is one packet arriving back at the sending client.
type Delivery struct {
	Packet *netem.Packet
	// At is the virtual arrival time.
	At time.Duration
	// FromHop is the 1-based hop index the packet originated at (router
	// ICMP), 0 for packets originating at or beyond the endpoint.
	FromHop int
}

// Transmit sends one client packet into the network and returns everything
// the client receives in response, in arrival order. The packet's journey:
//
//	client ── link ── R1 ── link ── R2 … Rn ── link ── endpoint
//
// Devices attached to a directed link inspect the packet as it crosses;
// routers decrement TTL and answer expiry with ICMP Time Exceeded (quoting
// per their RFC behaviour); the endpoint's guard device and server produce
// the final response. Return packets traverse the reverse path with their
// own TTL decrements, so low-TTL injections (CopyTTL devices) can die
// before reaching the client — the mechanism behind "Past E" (§4.3).
//
// The returned slice is a batch buffer owned by the Network, and the
// *Packets the network itself originates (endpoint responses, router ICMP)
// are drawn from per-layer pools: both are valid only until the next
// Transmit on the same Network. Callers that keep packets across sends
// must Clone them first. Delivered payload bytes are stable — they live in
// write-once render caches or fresh per-call buffers, never in pooled
// packet storage — so retaining a payload slice alone is safe.
//
// Transmit never changes pkt: it forwards a copy.
func (n *Network) Transmit(pkt *netem.Packet, src, dst *topology.Host) []Delivery {
	pkt.CloneInto(&n.workPkt)
	return n.transmit(&n.workPkt, src, dst, flowHashOf(pkt))
}

// flowHashOf is the ECMP flow hash of a TCP or UDP packet's 5-tuple, and
// 0 for any other packet, which transmit does not forward.
func flowHashOf(pkt *netem.Packet) uint64 {
	switch {
	case pkt.TCP != nil:
		return topology.FlowHash(pkt.IP.Src, pkt.IP.Dst, pkt.TCP.SrcPort, pkt.TCP.DstPort, uint8(netem.ProtoTCP))
	case pkt.UDP != nil:
		return topology.FlowHash(pkt.IP.Src, pkt.IP.Dst, pkt.UDP.SrcPort, pkt.UDP.DstPort, uint8(netem.ProtoUDP))
	}
	return 0
}

// transmit is Transmit for a packet the network owns and forwards in
// place: a Conn's txPkt, SendUDP's txUDP, or the copy Transmit makes of
// its caller's packet. Everything that outlives the call (injections,
// ICMP errors, endpoint responses) is built fresh, and the next fill of
// the scratch resets every field forwarding writes: TTL, TOS, IP flags,
// lengths and checksums. The caller holds the flow hash: a Conn computes
// it once in Dial for all its packets.
func (n *Network) transmit(pkt *netem.Packet, src, dst *topology.Host, flowHash uint64) []Delivery {
	n.clock += perHopLatency
	// Reclaim every packet handed out on the previous Transmit: the
	// delivery contract above says they are dead now.
	n.tcpPkts.idx, n.udpPkts.idx, n.icmpPkts.idx = 0, 0, 0
	n.t.packets++

	out := n.deliveries[:0]
	defer func() {
		n.deliveries = out
		n.t.deliveries += int64(len(out))
	}()

	if pkt.TCP == nil && pkt.UDP == nil {
		return out
	}

	pair, plan := n.forwardingPlan(src, dst, flowHash)
	if plan == nil {
		return out
	}
	path, planDevs := plan.path, plan.devs

	// deliver queues a response packet originating at hop originHop
	// (1-based; 0 = client-side) for return-path processing.
	deliver := func(resp *netem.Packet, originHop int) {
		duplicate := false
		if n.faults != nil {
			// Global impairments see the delivery once; link impairments see
			// it on every reverse crossing back toward the client, so a dead
			// or lossy link kills responses as well as probes.
			o := n.faults.Global(n.clock)
			last := originHop - 1
			if last > len(path)-1 {
				last = len(path) - 1 // endpoint-originated: start at the last router link
			}
			for i := last; i >= 1 && !o.Drop; i-- {
				o.Merge(n.faults.Cross(path[i-1].ID, path[i].ID, n.clock))
			}
			if !o.Drop && originHop > 0 && len(path) > 0 {
				o.Merge(n.faults.Cross("@"+src.ID, path[0].ID, n.clock))
			}
			if o.Drop {
				return // impaired on the return path
			}
			duplicate = o.Duplicate
		}
		hopsBack := originHop // routers between origin and client, inclusive of origin side
		if hopsBack > 0 {
			// The originating router/device does not decrement its own
			// packet; the remaining originHop-1 routers each decrement once.
			decrements := originHop - 1
			if int(resp.IP.TTL) <= decrements {
				return // died on the return path
			}
			resp.IP.TTL -= uint8(decrements)
		}
		out = append(out, Delivery{
			Packet:  resp,
			At:      n.clock + time.Duration(originHop)*perHopLatency,
			FromHop: originHop,
		})
		if duplicate {
			out = append(out, Delivery{
				Packet:  resp.Clone(),
				At:      n.clock + time.Duration(originHop)*perHopLatency,
				FromHop: originHop,
			})
		}
	}

	if n.faults != nil && n.faults.Global(n.clock).Drop {
		return out // transient loss on the forward path
	}
	// throttleDelay accumulates extra latency imposed by throttling
	// devices; it shifts every delivery's arrival time.
	var throttleDelay time.Duration
	// v takes each device's verdict in turn.
	var v middlebox.Verdict
	ttl := pkt.IP.TTL
	prev := "" // empty = client access link
	for i, router := range path {
		hop := i + 1
		// Link impairments act before the link's devices: a packet lost on
		// the wire never reaches the inspection tap. The pseudo-router name
		// is only built when a fault engine is installed — it is the one
		// string concatenation on the per-hop fast path.
		if n.faults != nil {
			linkFrom := prev
			if linkFrom == "" {
				linkFrom = "@" + src.ID // client access link pseudo-router
			}
			if n.faults.Cross(linkFrom, router.ID, n.clock).Drop {
				return sortDeliveries(out)
			}
		}
		dropped := false
		for _, d := range planDevs[i] {
			if d.st.Inert(pkt) {
				continue
			}
			d.dev.Inspect(&v, d.st, pkt, dst.Addr, n.clock)
			for _, inj := range v.Injected {
				n.t.injections++
				// Injected packets are freshly built per Inspect call;
				// ownership transfers to the delivery.
				deliver(inj, hop)
			}
			if v.DropOriginal {
				dropped = true
			}
			throttleDelay += v.ThrottleDelay
		}
		if dropped {
			n.t.devDrops++
			return sortDeliveries(out)
		}
		// Router decrements TTL; on expiry it may answer with ICMP.
		ttl--
		pkt.IP.TTL = ttl
		if ttl == 0 {
			n.t.ttlExpired++
			// The fault engine can silence or rate-limit a router's ICMP
			// generation on top of the router's own RFC behaviour.
			if router.SendsICMP && (n.faults == nil || n.faults.AllowICMP(router.ID, n.clock)) {
				te := n.icmpPkts.get()
				if err := te.FillTimeExceeded(router.Addr, pkt, router.QuoteLen); err == nil {
					n.t.icmp++
					deliver(te, hop)
				}
			}
			return sortDeliveries(out)
		}
		// Forwarding rewrites (TOS/flags) applied by some routers.
		if router.RewriteTOS != nil {
			pkt.IP.TOS = *router.RewriteTOS
		}
		if router.SetIPFlags != nil {
			pkt.IP.Flags = netem.IPFlags(*router.SetIPFlags)
		}
		prev = router.ID
	}

	// The packet has crossed the last router; deliver to the endpoint.
	endpointHop := len(path) + 1
	if guard := pair.guard; guard.dev != nil && !guard.st.Inert(pkt) {
		guard.dev.Inspect(&v, guard.st, pkt, dst.Addr, n.clock)
		for _, inj := range v.Injected {
			n.t.injections++
			deliver(inj, endpointHop)
		}
		if v.Triggered && v.DropOriginal {
			n.t.devDrops++
			return sortDeliveries(out)
		}
	}
	for _, resp := range n.endpointRespond(pkt, dst, pair.server) {
		deliver(resp, endpointHop)
	}
	if throttleDelay > 0 {
		n.clock += throttleDelay
		for i := range out {
			out[i].At += throttleDelay
		}
	}
	return sortDeliveries(out)
}

// forwardingPlan resolves the host pair's state and the flow's plan: the
// router path the packet takes and the device list on each of its links;
// a nil plan means dst is unreachable. A structural change of the graph
// drops every plan as it happens (GraphChanged), and the active routing is
// read on every packet, so a link withdrawn or an epoch crossed
// mid-connection moves the next packet.
//
// Route dynamics: forwarding follows the active epoch's snapshot graph and
// the engine's epoch and flap salts. Unsalted routing (no route-dynamics
// engine, or epoch 0 with no flap) resolves a plan once per flow and
// reuses it for every packet of the flow: a measurement opens a connection
// per probe, and the SYN, ACK, payload and FIN of one connection share a
// 5-tuple. Salted routing walks per packet into a scratch buffer
// (allocation-free), because the salt varies with virtual time. Either way
// the walk starts from the pair's route and ends in the pair's path memo;
// only a later epoch's snapshot graph resolves its route per packet, under
// that graph's own lock.
func (n *Network) forwardingPlan(src, dst *topology.Host, flowHash uint64) (*pairState, *pathPlan) {
	routeGraph, salt := n.activeRouting()
	if salt == nil {
		// Unsalted routing only happens over the network's own graph:
		// route-dynamics epoch 0 routes over the graph the engine is bound
		// to, and later epochs are salted.
		f := &n.flow
		if key := (planKey{src, dst, flowHash}); f.key != key {
			p := n.pair(src, dst)
			f.key, f.pair, f.plan = key, p, n.walk(p, &p.route, src, flowHash, nil)
		}
		return f.pair, f.plan
	}
	p := n.pair(src, dst)
	route := &p.route
	if routeGraph != n.Graph {
		r := routeGraph.Route(src, dst)
		route = &r
	}
	return p, n.walk(p, route, src, flowHash, salt)
}

// walk resolves one flow's path over route into the network's scratch
// buffer and returns the pair's memoized plan for it, or nil when dst is
// unreachable.
func (n *Network) walk(p *pairState, route *topology.Route, src *topology.Host, flowHash uint64, salt func(string) uint64) *pathPlan {
	path := route.AppendPath(n.pathBuf[:0], flowHash, salt)
	if path == nil {
		return nil
	}
	n.pathBuf = path
	return n.plan(p, src, path)
}

// sortDeliveries orders deliveries by arrival time (stable for equal times).
func sortDeliveries(ds []Delivery) []Delivery {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j].At < ds[j-1].At; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
	return ds
}

// endpointRespond produces the endpoint's transport-level response to a
// packet that reached it; srv is dst's server, nil when none is
// registered. The returned slice is transient scratch (reused next call);
// the packets inside are fresh.
func (n *Network) endpointRespond(pkt *netem.Packet, dst *topology.Host, srv *endpoint.Server) []*netem.Packet {
	if pkt.UDP != nil {
		return n.endpointRespondUDP(pkt, dst)
	}
	tcp := pkt.TCP
	base := func() *netem.Packet {
		p := n.tcpPkts.get()
		p.FillTCP(dst.Addr, pkt.IP.Src, tcp.DstPort, tcp.SrcPort,
			0, tcp.Ack, tcp.Seq+uint32(len(pkt.Payload)), nil)
		return p
	}
	one := func(p *netem.Packet) []*netem.Packet {
		n.respBuf = append(n.respBuf[:0], p)
		return n.respBuf
	}
	portOpen := srv != nil && (tcp.DstPort == 80 || tcp.DstPort == 443 || srv.Services[int(tcp.DstPort)] != "")

	switch {
	case tcp.Flags&netem.TCPSyn != 0 && tcp.Flags&netem.TCPAck == 0:
		resp := base()
		if !portOpen {
			resp.TCP.Flags = netem.TCPRst | netem.TCPAck
			resp.TCP.Ack = tcp.Seq + 1
			return one(resp)
		}
		resp.TCP.Flags = netem.TCPSyn | netem.TCPAck
		resp.TCP.Ack = tcp.Seq + 1
		resp.TCP.Seq = 1000 // deterministic ISN
		return one(resp)

	case len(pkt.Payload) > 0 && portOpen:
		var payload []byte
		switch tcp.DstPort {
		case 80:
			// HTTP servers reassemble the request stream: segments
			// accumulate per flow until the header terminator arrives.
			req, complete := n.bufferHTTP(pkt)
			if !complete {
				ack := base()
				ack.TCP.Flags = netem.TCPAck
				return one(ack)
			}
			payload = n.renderHTTP(srv, req)
		case 443:
			payload = n.renderTLS(srv, pkt.Payload)
		default:
			payload = []byte(srv.Services[int(tcp.DstPort)])
		}
		data := base()
		data.TCP.Flags = netem.TCPPsh | netem.TCPAck
		data.Payload = payload
		fin := base()
		fin.TCP.Flags = netem.TCPFin | netem.TCPAck
		fin.TCP.Seq = data.TCP.Seq + uint32(len(payload))
		n.respBuf = append(n.respBuf[:0], data, fin)
		return n.respBuf

	case tcp.Flags&(netem.TCPFin|netem.TCPRst) != 0:
		resp := base()
		resp.TCP.Flags = netem.TCPAck
		return one(resp)

	default:
		return nil // bare ACK etc.
	}
}

// renderHTTP returns the server's rendered response for raw request bytes,
// memoized per server. HandleHTTP is a pure function of (server config,
// request bytes), so a cache hit is observationally identical to a fresh
// render; cached bytes are write-once and shared across deliveries.
func (n *Network) renderHTTP(srv *endpoint.Server, req []byte) []byte {
	c := n.httpCache[srv]
	if c == nil {
		if n.httpCache == nil {
			n.httpCache = make(map[*endpoint.Server]map[string][]byte)
		}
		c = make(map[string][]byte)
		n.httpCache[srv] = c
	}
	if resp, ok := c[string(req)]; ok {
		return resp
	}
	resp := srv.HandleHTTP(req).Render()
	if len(c) >= maxRenderCache {
		clear(c)
	}
	c[string(req)] = resp
	return resp
}

// renderTLS is renderHTTP's Client Hello counterpart.
func (n *Network) renderTLS(srv *endpoint.Server, raw []byte) []byte {
	c := n.tlsCache[srv]
	if c == nil {
		if n.tlsCache == nil {
			n.tlsCache = make(map[*endpoint.Server]map[string][]byte)
		}
		c = make(map[string][]byte)
		n.tlsCache[srv] = c
	}
	if resp, ok := c[string(raw)]; ok {
		return resp
	}
	resp := srv.HandleTLS(raw).Response
	if len(c) >= maxRenderCache {
		clear(c)
	}
	c[string(raw)] = resp
	return resp
}

// bufferHTTP accumulates HTTP request segments per flow and reports
// whether a complete request (ending in the header terminator) is ready.
// Incomplete single segments that already look like a full request line
// with a bare-delimiter ending are passed through unchanged so mangled
// delimiters still reach the parser (CenFuzz's Remove strategies).
func (n *Network) bufferHTTP(pkt *netem.Packet) ([]byte, bool) {
	key := flowKey{pkt.IP.Src, pkt.IP.Dst, pkt.TCP.SrcPort, pkt.TCP.DstPort, uint8(netem.ProtoTCP)}
	prev, buffered := n.httpStreams[key]
	if !buffered && complete(pkt.Payload) {
		// Common case: the whole request arrived in one segment; hand it
		// to the caller without copying into (and out of) the stream map.
		return pkt.Payload, true
	}
	if n.httpStreams == nil {
		n.httpStreams = make(map[flowKey][]byte)
	}
	buf := append(prev, pkt.Payload...)
	if complete(buf) {
		delete(n.httpStreams, key)
		return buf, true
	}
	// Bound buffered state; a flow exceeding the bound is flushed as-is.
	if len(buf) > 16<<10 {
		delete(n.httpStreams, key)
		return buf, true
	}
	n.httpStreams[key] = buf
	return nil, false
}

// Request-terminator suffixes complete scans for, hoisted so the hot path
// allocates nothing.
var (
	termCRLFCRLF = []byte("\r\n\r\n")
	termLFLF     = []byte("\n\n")
	termCRCR     = []byte("\r\r")
)

// complete reports whether buffered bytes end a request: the canonical
// CRLFCRLF terminator, or any of the mangled delimiter endings CenFuzz
// renders (bare LF/CR doubles), or a trailing empty-line heuristic.
func complete(buf []byte) bool {
	if bytes.HasSuffix(buf, termCRLFCRLF) || bytes.HasSuffix(buf, termLFLF) || bytes.HasSuffix(buf, termCRCR) {
		return true
	}
	// Delimiter-free renders (CenFuzz delimiter="") cannot signal an end;
	// treat any payload without line breaks as complete.
	return !bytes.ContainsAny(buf, "\r\n")
}

// endpointRespondUDP answers UDP datagrams: DNS queries go to the host's
// resolver; everything else is silently dropped (no ICMP port-unreachable
// in this model — probing tools treat silence as a drop either way).
func (n *Network) endpointRespondUDP(pkt *netem.Packet, dst *topology.Host) []*netem.Packet {
	if pkt.UDP.DstPort != 53 || len(pkt.Payload) == 0 {
		return nil
	}
	r := n.resolvers[dst.ID]
	if r == nil {
		return nil
	}
	answer := r.HandleDNS(pkt.Payload)
	if answer == nil {
		return nil
	}
	resp := n.udpPkts.get()
	resp.FillUDP(dst.Addr, pkt.IP.Src, 53, pkt.UDP.SrcPort, answer)
	n.respBuf = append(n.respBuf[:0], resp)
	return n.respBuf
}

// SendUDP transmits one UDP datagram from a client host with the given TTL
// and returns everything the client receives — the DNS probe primitive.
// The returned packets carry Transmit's pooled-delivery contract: they
// are valid only until the next Transmit on this network. Clone anything
// retained past that point.
func (n *Network) SendUDP(client, dst *topology.Host, dstPort uint16, payload []byte, ttl uint8) []Delivery {
	// Built in a dedicated scratch (not txPkt, which Conn keeps as a TCP
	// packet) and forwarded in place, as a Conn's packets are.
	pkt := &n.txUDP
	pkt.FillUDP(client.Addr, dst.Addr, n.AllocPort(), dstPort, payload)
	pkt.IP.TTL = ttl
	return n.transmit(pkt, client, dst, flowHashOf(pkt))
}

// ClientAccessLink returns the pseudo-router name for a client's access
// link, for attaching devices immediately in front of a client host.
func ClientAccessLink(h *topology.Host) string { return "@" + h.ID }

// AttachClientSideDevice places a device on the access link between a
// client host and its first router.
func (n *Network) AttachClientSideDevice(h *topology.Host, dev *middlebox.Device) {
	n.attachAt(topology.LinkID{From: ClientAccessLink(h), To: h.Router.ID}, dev)
}
