package centrace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"cendev/internal/endpoint"
	"cendev/internal/faults"
	"cendev/internal/middlebox"
	"cendev/internal/simnet"
	"cendev/internal/topology"
)

// buildParallelWorld is buildNet with several endpoints behind one device,
// giving a campaign enough targets for the worker pool to actually
// interleave. With branch set, r1 also reaches r3 through r2b, behind a
// second device, so r1 makes an ECMP choice.
func buildParallelWorld(t *testing.T, branch bool) (*simnet.Network, *topology.Host, []*topology.Host) {
	t.Helper()
	g := topology.NewGraph()
	asC := g.AddAS(100, "ClientNet", "US")
	asT := g.AddAS(200, "Transit", "DE")
	asE := g.AddAS(300, "EndpointNet", "KZ")
	r1 := g.AddRouter("r1", asC)
	g.AddRouter("r2", asT)
	g.AddRouter("r3", asT)
	r4 := g.AddRouter("r4", asE)
	g.Link("r1", "r2")
	g.Link("r2", "r3")
	g.Link("r3", "r4")
	client := g.AddHost("client", asC, r1)
	var servers []*topology.Host
	for i := 0; i < 6; i++ {
		servers = append(servers, g.AddHost(fmt.Sprintf("server-%d", i), asE, r4))
	}
	n := simnet.New(g)
	for _, s := range servers {
		n.RegisterServer(s.ID, endpoint.NewServer(blockedDomain, controlDomain))
	}
	dev := middlebox.NewDevice("d", middlebox.VendorCisco, []string{blockedDomain}, g.Router("r3").Addr)
	n.AttachDevice("r2", "r3", dev)
	if branch {
		g.AddRouter("r2b", asT)
		g.Link("r1", "r2b")
		g.Link("r2b", "r3")
		dev := middlebox.NewDevice("d2", middlebox.VendorCisco, []string{blockedDomain}, g.Router("r3").Addr)
		n.AttachDevice("r2b", "r3", dev)
	}
	return n, client, servers
}

// campaignBytes runs the campaign at the given worker count on a freshly
// built world with a seeded fault engine and returns the results as
// canonical JSON, ordered by target key. branch builds the world with
// r1's ECMP choice, and flap makes r1 re-roll it every two minutes.
func campaignBytes(t *testing.T, workers int, branch, flap bool) []byte {
	t.Helper()
	n, client, servers := buildParallelWorld(t, branch)
	n.SetFaults(faults.NewEngine(7).
		AddGlobal(faults.UniformLoss(0.02)).
		AddGlobal(faults.Duplication(0.01)).
		AddLink("r2", "r3", faults.GilbertElliott(0.05, 0.3, 0, 0.8)).
		LimitICMP("r2", 2, 0.5))
	if flap {
		n.SetRoutes(flapRoutes(t, n, 7, "r1", 2*time.Minute))
	}
	var targets []Target
	for _, s := range servers {
		targets = append(targets,
			Target{Endpoint: s, Domain: blockedDomain, Protocol: HTTP},
			Target{Endpoint: s, Domain: controlDomain, Protocol: HTTPS},
		)
	}
	return resultsJSON(t, (&Campaign{
		Net: n, Client: client,
		Base:              Config{ControlDomain: controlDomain, Repetitions: 3},
		RetryFailedPasses: 1,
		Workers:           workers,
	}).Run(targets))
}

// resultsJSON renders campaign results as canonical JSON, ordered by
// target key.
func resultsJSON(t *testing.T, results []CampaignResult) []byte {
	t.Helper()
	type record struct {
		Key    string  `json:"key"`
		Err    string  `json:"err,omitempty"`
		Result *Result `json:"result"`
	}
	recs := make([]record, 0, len(results))
	for _, r := range results {
		rec := record{Key: r.Target.Key(), Result: r.Result}
		if r.Err != nil {
			rec.Err = r.Err.Error()
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
	raw, err := json.Marshal(recs)
	if err != nil {
		t.Fatalf("marshal results: %v", err)
	}
	return raw
}

// TestCampaignWorkerDeterminism: the same seed and target list must
// produce byte-identical campaign results whether one worker or eight run
// the measurements — the core guarantee of the clone-isolated pool — on a
// single-path world and on an ECMP diamond under a route flap. The flap
// must change the diamond campaign's results.
func TestCampaignWorkerDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name         string
		branch, flap bool
	}{
		{"line", false, false},
		{"diamond-flap", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial := campaignBytes(t, 1, tc.branch, tc.flap)
			for _, workers := range []int{2, 8} {
				par := campaignBytes(t, workers, tc.branch, tc.flap)
				if !bytes.Equal(serial, par) {
					t.Errorf("workers=%d results differ from workers=1 (lens %d vs %d)",
						workers, len(par), len(serial))
				}
			}
		})
	}
	if bytes.Equal(campaignBytes(t, 1, true, true), campaignBytes(t, 1, true, false)) {
		t.Error("the flap left the diamond campaign's results unchanged")
	}
}

// TestCampaignParallelBasics: the pool preserves target-order results, the
// panic barrier, and device-state isolation at a parallel worker count.
func TestCampaignParallelBasics(t *testing.T) {
	n, client, servers := buildParallelWorld(t, false)
	targets := []Target{
		{Endpoint: servers[0], Domain: blockedDomain, Protocol: HTTP},
		{Endpoint: nil, Domain: blockedDomain, Protocol: HTTP, Label: "bad"},
		{Endpoint: servers[1], Domain: "www.open-other.example", Protocol: HTTP},
		{Endpoint: servers[2], Domain: blockedDomain, Protocol: HTTPS},
	}
	results := (&Campaign{
		Net: n, Client: client,
		Base:    Config{ControlDomain: controlDomain, Repetitions: 3},
		Workers: 4,
	}).Run(targets)
	for i, r := range results {
		if r.Target.Key() != targets[i].Key() {
			t.Fatalf("result %d is for %s, want %s", i, r.Target.Key(), targets[i].Key())
		}
	}
	if results[0].Result == nil || !results[0].Result.Blocked {
		t.Error("blocked target lost under parallel run")
	}
	if results[1].Err == nil {
		t.Error("panicking target should carry a recovered error")
	}
	if results[2].Result == nil || !results[2].Result.Valid || results[2].Result.Blocked {
		t.Error("open target should be clean — device state leaked between workers?")
	}
	if results[3].Result == nil || !results[3].Result.Blocked {
		t.Error("HTTPS blocked target lost under parallel run")
	}
}

// TestJournalConcurrentRecord hammers one journal from many goroutines.
// Run under -race this proves the mutex actually covers the writer, its
// scratch buffers and the error; the resume pass proves no frame was torn
// by interleaving and none was lost.
func TestJournalConcurrentRecord(t *testing.T) {
	const goroutines, perG = 16, 50
	target := func(g, i int) Target {
		return Target{Domain: fmt.Sprintf("d-%d-%d.example", g, i), Protocol: HTTP}
	}
	var buf bytes.Buffer
	j := NewJournal(&buf)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				j.Record(CampaignResult{Target: target(g, i)})
				j.Err()
			}
		}(g)
	}
	wg.Wait()
	if err := j.Err(); err != nil {
		t.Fatalf("journal error: %v", err)
	}
	j2, err := ResumeJournal(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatalf("concurrent writes tore the log: %v", err)
	}
	if j2.Len() != goroutines*perG {
		t.Errorf("resumed entries = %d, want %d", j2.Len(), goroutines*perG)
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			if _, ok := j2.Lookup(target(g, i)); !ok {
				t.Errorf("entry %s lost", target(g, i).Key())
			}
		}
	}
}
