package middlebox

import (
	"maps"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"cendev/internal/netem"
)

// copyState is a deep copy of every field of a flow state, trigger memo
// included, for comparing a state before and after Inspect.
func copyState(st *FlowState) *FlowState {
	c := &FlowState{
		residual: slices.Clone(st.residual),
		injects:  maps.Clone(st.injects),
		trigMemo: maps.Clone(st.trigMemo),
	}
	if st.streams != nil {
		c.streams = make(map[flowKey][]byte, len(st.streams))
		for k, v := range st.streams {
			c.streams[k] = slices.Clone(v)
		}
	}
	return c
}

// TestInertAgreesWithInspect: for every vendor profile, bare segment and
// state (residual, counts and streams), a device whose state says it is inert gets the zero
// Verdict from Inspect and a state deep-equal to the one it had, and a
// state holding a residual entry is never inert.
func TestInertAgreesWithInspect(t *testing.T) {
	const now = 100 * time.Second
	segments := map[string]netem.TCPFlags{
		"SYN":     netem.TCPSyn,
		"ACK":     netem.TCPAck,
		"FIN":     netem.TCPFin | netem.TCPAck,
		"RST|ACK": netem.TCPRst | netem.TCPAck,
	}
	states := map[string]func() *FlowState{
		"empty": func() *FlowState { return &FlowState{} },
		"live residual": func() *FlowState {
			return &FlowState{residual: []residualEntry{{endpointAddr, clientAddr, now + time.Second}}}
		},
		"expired residual": func() *FlowState {
			return &FlowState{residual: []residualEntry{{clientAddr, endpointAddr, now - time.Second}}}
		},
		"counts and stream": func() *FlowState {
			k := flowKey{clientAddr, endpointAddr, 40000, 80}
			return &FlowState{injects: map[flowKey]int{k: 1}, streams: map[flowKey][]byte{k: []byte("GET / HTTP/1.1\r\n")}}
		},
	}
	vendors := make([]Vendor, 0, len(Profiles))
	for v := range Profiles {
		vendors = append(vendors, v)
	}
	sort.Slice(vendors, func(i, j int) bool { return vendors[i] < vendors[j] })

	inert := 0
	for _, vendor := range vendors {
		dev := NewDevice("d", vendor, []string{blockedDomain}, deviceAddr)
		for stName, mk := range states {
			for segName, flags := range segments {
				st := mk()
				pkt := netem.NewTCPPacket(clientAddr, endpointAddr, 40000, 80, flags, 100, 1, nil)
				if len(st.residual) > 0 && st.Inert(pkt) {
					t.Errorf("%s, %s state, bare %s: Inert with a residual entry", vendor, stName, segName)
				}
				if !st.Inert(pkt) {
					continue
				}
				inert++
				before := copyState(st)
				if v := inspect(dev, st, pkt, endpointAddr, now); !reflect.DeepEqual(v, Verdict{}) {
					t.Errorf("%s, %s state, bare %s: Inert, but Inspect returned %+v", vendor, stName, segName, v)
				}
				if !reflect.DeepEqual(st, before) {
					t.Errorf("%s, %s state, bare %s: Inert, but Inspect changed the state", vendor, stName, segName)
				}
			}
		}
	}
	if want := 2 * len(vendors) * len(segments); inert != want {
		t.Errorf("%d inert cases, want %d: every bare segment at a state with no residual entry", inert, want)
	}
	// A payload or a UDP layer can trigger a device with an empty table.
	st := &FlowState{}
	if st.Inert(httpProbe(blockedDomain)) || st.Inert(netem.NewUDPPacket(clientAddr, endpointAddr, 40000, 53, nil)) {
		t.Error("a packet with a payload or a UDP layer reported inert")
	}
}
