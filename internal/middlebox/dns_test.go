package middlebox

import (
	"net/netip"
	"testing"

	"cendev/internal/dnsgram"
	"cendev/internal/netem"
)

func dnsProbe(name string) *netem.Packet {
	q := dnsgram.NewQuery(42, name)
	return netem.NewUDPPacket(clientAddr, endpointAddr, 40000, 53, q.Serialize())
}

func TestDNSInjectorForgesAnswer(t *testing.T) {
	d := NewDevice("dns", VendorDNSInjector, []string{blockedDomain}, netip.Addr{})
	st := new(FlowState)
	v := inspect(d, st, dnsProbe(blockedDomain), endpointAddr, 0)
	if !v.Triggered {
		t.Fatal("blocked QNAME should trigger")
	}
	if v.DropOriginal {
		t.Error("on-path injector must not drop the original query")
	}
	if len(v.Injected) != 1 {
		t.Fatalf("injected %d packets, want 1", len(v.Injected))
	}
	inj := v.Injected[0]
	if inj.UDP == nil || inj.UDP.SrcPort != 53 || inj.UDP.DstPort != 40000 {
		t.Fatalf("injected transport = %+v", inj.UDP)
	}
	if inj.IP.Src != endpointAddr {
		t.Errorf("injected src = %s, want spoofed resolver", inj.IP.Src)
	}
	resp, err := dnsgram.ParseResponse(inj.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 42 {
		t.Errorf("response ID = %d, want copied query ID", resp.ID)
	}
	if len(resp.Answers) != 1 || resp.Answers[0] != BogusAddrs[0] {
		t.Errorf("answers = %v, want default bogus address", resp.Answers)
	}
}

func TestDNSInjectorCustomBogusA(t *testing.T) {
	d := NewDevice("dns", VendorDNSInjector, []string{blockedDomain}, netip.Addr{})
	st := new(FlowState)
	d.BogusA = netip.MustParseAddr("198.51.100.6")
	v := inspect(d, st, dnsProbe(blockedDomain), endpointAddr, 0)
	resp, err := dnsgram.ParseResponse(v.Injected[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Answers[0] != d.BogusA {
		t.Errorf("answer = %s, want configured bogus address", resp.Answers[0])
	}
}

func TestDNSInjectorIgnoresUnblockedAndNonDNS(t *testing.T) {
	d := NewDevice("dns", VendorDNSInjector, []string{blockedDomain}, netip.Addr{})
	st := new(FlowState)
	if v := inspect(d, st, dnsProbe("www.open.example"), endpointAddr, 0); v.Triggered {
		t.Error("unblocked QNAME should not trigger")
	}
	// DNS-only device ignores HTTP entirely.
	if v := inspect(d, st, httpProbe(blockedDomain), endpointAddr, 0); v.Triggered {
		t.Error("DNS-only device should ignore TCP traffic")
	}
	// Non-53 UDP ignored.
	q := dnsgram.NewQuery(1, blockedDomain)
	pkt := netem.NewUDPPacket(clientAddr, endpointAddr, 40000, 5353, q.Serialize())
	if v := inspect(d, st, pkt, endpointAddr, 0); v.Triggered {
		t.Error("non-53 UDP should not trigger")
	}
	// Garbage payload ignored.
	garbage := netem.NewUDPPacket(clientAddr, endpointAddr, 40000, 53, []byte("xx"))
	if v := inspect(d, st, garbage, endpointAddr, 0); v.Triggered {
		t.Error("garbage payload should not trigger")
	}
}

func TestDNSDropDevice(t *testing.T) {
	// A regular drop device configured for DNS (rules apply to QNAMEs too).
	d := NewDevice("d", VendorUnknownDrop, []string{blockedDomain}, netip.Addr{})
	st := new(FlowState)
	v := inspect(d, st, dnsProbe(blockedDomain), endpointAddr, 0)
	if !v.Triggered || !v.DropOriginal || v.Injected != nil {
		t.Errorf("verdict = %+v, want in-path DNS drop", v)
	}
}

func TestDNSResidualState(t *testing.T) {
	d := NewDevice("d", VendorUnknownDrop, []string{blockedDomain}, netip.Addr{})
	st := new(FlowState)
	inspect(d, st, dnsProbe(blockedDomain), endpointAddr, 0)
	v := inspect(d, st, dnsProbe("www.open.example"), endpointAddr, 1e9)
	if !v.Triggered || !v.Residual {
		t.Errorf("verdict = %+v, want residual DNS drop", v)
	}
}

func TestDNSCopyTTL(t *testing.T) {
	d := NewDevice("dns", VendorDNSInjector, []string{blockedDomain}, netip.Addr{})
	st := new(FlowState)
	d.CopyTTL = true
	probe := dnsProbe(blockedDomain)
	probe.IP.TTL = 3
	v := inspect(d, st, probe, endpointAddr, 0)
	if v.Injected[0].IP.TTL != 3 {
		t.Errorf("injected TTL = %d, want copied 3", v.Injected[0].IP.TTL)
	}
}
