package simnet

import (
	"errors"

	"cendev/internal/netem"
	"cendev/internal/topology"
)

// Conn is a simulated TCP connection from a client host to an endpoint
// host. CenTrace and CenFuzz open a fresh connection per probe (§4.1:
// "CenTrace performs each TTL-limited probe over a new TCP connection").
type Conn struct {
	net      *Network
	client   *topology.Host
	endpoint *topology.Host
	SrcPort  uint16
	DstPort  uint16
	seq, ack uint32
	open     bool
	// hash is the connection's ECMP flow hash, computed once in Dial: every
	// packet of the connection shares its 5-tuple.
	hash uint64
}

// ErrConnRefused is returned by Dial when the endpoint resets the SYN.
var ErrConnRefused = errors.New("simnet: connection refused")

// ErrConnTimeout is returned by Dial when the handshake receives no answer
// (e.g. residual stateful blocking is dropping all packets between the
// hosts).
var ErrConnTimeout = errors.New("simnet: connection timed out")

// Dial performs a TCP handshake at full TTL and returns an established
// connection. The SYN carries no payload, so content-triggered devices let
// it pass — but devices in a residual blocking state will drop it, making
// the dial time out just like in the field.
func (n *Network) Dial(client, ep *topology.Host, dstPort uint16) (*Conn, error) {
	// Connections are pooled one-deep per network: measurement loops open a
	// fresh connection per probe and close it before the next, so the same
	// Conn object cycles through thousands of dials without allocating.
	// Callers must not touch a *Conn after Close.
	c := n.freeConn
	if c == nil {
		c = &Conn{}
	} else {
		n.freeConn = nil
	}
	*c = Conn{
		net: n, client: client, endpoint: ep,
		SrcPort: n.AllocPort(), DstPort: dstPort,
		seq: 1,
	}
	c.hash = topology.FlowHash(client.Addr, ep.Addr, c.SrcPort, dstPort, uint8(netem.ProtoTCP))
	fail := func(err error) (*Conn, error) {
		n.freeConn = c
		return nil, err
	}
	// Handshake packets are built in the Network's scratch tx packet:
	// Transmit copies its input into the working packet immediately, so
	// the scratch can be refilled for the next sequential send.
	syn := &n.txPkt
	syn.FillTCP(client.Addr, ep.Addr, c.SrcPort, dstPort, netem.TCPSyn, c.seq, 0, nil)
	// Scan the handshake deliveries fully before transmitting the final
	// ACK: Transmit reuses the delivery buffer, so ds must not be read
	// after the next send.
	var synAck *netem.TCP
	for _, d := range n.transmit(syn, client, ep, c.hash) {
		if d.Packet.TCP == nil || d.Packet.IP.Src != ep.Addr {
			continue
		}
		t := d.Packet.TCP
		if t.Flags&netem.TCPRst != 0 {
			return fail(ErrConnRefused)
		}
		if t.Flags&netem.TCPSyn != 0 && t.Flags&netem.TCPAck != 0 {
			synAck = t
			break
		}
	}
	if synAck == nil {
		return fail(ErrConnTimeout)
	}
	c.seq++
	c.ack = synAck.Seq + 1
	c.open = true
	// Final ACK of the handshake (fire and forget).
	ackPkt := &n.txPkt
	ackPkt.FillTCP(client.Addr, ep.Addr, c.SrcPort, dstPort, netem.TCPAck, c.seq, c.ack, nil)
	n.transmit(ackPkt, client, ep, c.hash)
	return c, nil
}

// SendPayload transmits application payload on the connection with the
// given IP TTL and returns every packet the client receives in response.
// This is the TTL-limited probe primitive CenTrace is built on: the
// handshake ran at full TTL, only the payload packet is TTL-limited.
//
// The returned packets carry Transmit's pooled-delivery contract: they
// are valid only until the next Transmit on this network (the next
// probe). Clone anything retained past that point.
func (c *Conn) SendPayload(payload []byte, ttl uint8) []Delivery {
	pkt := &c.net.txPkt
	pkt.FillTCP(c.client.Addr, c.endpoint.Addr, c.SrcPort, c.DstPort,
		netem.TCPPsh|netem.TCPAck, c.seq, c.ack, payload)
	pkt.IP.TTL = ttl
	pkt.IP.ID = uint16(c.seq) // deterministic, varies per segment
	ds := c.net.transmit(pkt, c.client, c.endpoint, c.hash)
	c.seq += uint32(len(payload))
	return ds
}

// SendSegments transmits application payload split across multiple TCP
// segments on the connection, all at the given TTL, and returns every
// packet received across the sends. Splitting the censorship trigger
// across segments evades DPI engines that inspect packets individually
// (the Geneva/SymTCP evasion class).
func (c *Conn) SendSegments(segments [][]byte, ttl uint8) []Delivery {
	var out []Delivery
	for _, seg := range segments {
		for _, d := range c.SendPayload(seg, ttl) {
			// The accumulated deliveries outlive the next segment's
			// Transmit, which reclaims pooled delivery packets — so each
			// retained packet gets its own copy.
			d.Packet = d.Packet.Clone()
			out = append(out, d)
		}
	}
	return out
}

// ExpectedSeq returns the next in-order sequence number expected from the
// server. Injected packets spoof exactly this value; a genuine FIN sent
// after a lost data segment carries a higher one, which lets measurement
// tools tell the two apart.
func (c *Conn) ExpectedSeq() uint32 { return c.ack }

// Client returns the client host of the connection.
func (c *Conn) Client() *topology.Host { return c.client }

// Endpoint returns the endpoint host of the connection.
func (c *Conn) Endpoint() *topology.Host { return c.endpoint }

// Close sends a FIN at full TTL and returns the connection to the network's
// pool. Responses are discarded. The *Conn must not be used after Close.
func (c *Conn) Close() {
	if !c.open {
		return
	}
	fin := &c.net.txPkt
	fin.FillTCP(c.client.Addr, c.endpoint.Addr, c.SrcPort, c.DstPort,
		netem.TCPFin|netem.TCPAck, c.seq, c.ack, nil)
	c.net.transmit(fin, c.client, c.endpoint, c.hash)
	c.open = false
	c.net.freeConn = c
}
