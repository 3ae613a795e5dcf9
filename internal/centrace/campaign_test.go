package centrace

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cendev/internal/faults"
	"cendev/internal/middlebox"
	"cendev/internal/simnet"
	"cendev/internal/topology"
	"cendev/internal/wire"
)

// TestCampaignResetsDeviceState is the regression test for stateful
// flow-tracking leaking across independent targets: a device with a huge
// residual window flags the client↔server pair while the first target is
// measured, and without a reset the second target's control traceroute is
// eaten by that residual state.
func TestCampaignResetsDeviceState(t *testing.T) {
	build := func() (*simnet.Network, *topology.Host, *topology.Host) {
		n, client, server := buildNet(t)
		dev := middlebox.NewDevice("d", middlebox.VendorCisco, []string{blockedDomain}, n.Graph.Router("r3").Addr)
		dev.ResidualWindow = 1000 * time.Hour // never forgets on its own
		n.AttachDevice("r2", "r3", dev)
		return n, client, server
	}

	// First, establish the hazard: back-to-back Probers without a reset.
	n, client, server := build()
	first := New(n, client, server, cfg()).Run()
	if !first.Blocked {
		t.Fatal("setup: first target should be blocked")
	}
	open := cfg()
	open.TestDomain = "www.open-other.example"
	second := New(n, client, server, open).Run()
	if second.Valid {
		t.Fatal("setup: residual state should corrupt the follow-up measurement — test premise broken")
	}

	// The campaign resets device state between targets, so the same pair of
	// measurements comes out clean.
	n, client, server = build()
	results := (&Campaign{
		Net: n, Client: client,
		Base: Config{ControlDomain: controlDomain, Repetitions: 3},
	}).Run([]Target{
		{Endpoint: server, Domain: blockedDomain, Protocol: HTTP},
		{Endpoint: server, Domain: "www.open-other.example", Protocol: HTTP},
	})
	if !results[0].Result.Blocked {
		t.Error("first target should still be blocked")
	}
	if !results[1].Result.Valid {
		t.Error("second target invalid: residual device state leaked across targets")
	}
	if results[1].Result.Blocked {
		t.Error("second target blocked: residual device state leaked across targets")
	}
}

// TestCampaignPanicRecovery: a target that blows up mid-measurement (nil
// endpoint → nil dereference) must yield an error-bearing CampaignResult
// while the remaining targets still run.
func TestCampaignPanicRecovery(t *testing.T) {
	n, client, server := buildNet(t)
	dev := middlebox.NewDevice("d", middlebox.VendorCisco, []string{blockedDomain}, n.Graph.Router("r3").Addr)
	n.AttachDevice("r2", "r3", dev)

	results, yields := eachCollect(&Campaign{
		Net: n, Client: client,
		Base: Config{ControlDomain: controlDomain, Repetitions: 3},
	}, []Target{
		{Endpoint: server, Domain: blockedDomain, Protocol: HTTP},
		{Endpoint: nil, Domain: blockedDomain, Protocol: HTTP, Label: "bad"},
		{Endpoint: server, Domain: "www.open-other.example", Protocol: HTTP},
	})
	if yields != 3 {
		t.Errorf("yields = %d, want 3 (every target resolved)", yields)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "panicked") {
		t.Errorf("panicking target: Err = %v, want recovered panic", results[1].Err)
	}
	if results[1].Result != nil {
		t.Error("panicking target should carry no Result")
	}
	if !results[1].Failed() {
		t.Error("panicking target should report Failed")
	}
	// The targets around the panic completed normally.
	if results[0].Result == nil || !results[0].Result.Blocked {
		t.Error("target before the panic lost")
	}
	if results[2].Result == nil || !results[2].Result.Valid || results[2].Result.Blocked {
		t.Error("target after the panic lost")
	}
}

// TestCampaignRetryFailedPasses: a target measured during a network outage
// (blackhole on the client access link) fails its first pass and succeeds
// when the retry pass comes around after the outage window closes.
func TestCampaignRetryFailedPasses(t *testing.T) {
	build := func(passes int) CampaignResult {
		n, client, server := buildNet(t)
		// Pass 1 runs entirely inside the outage (it ends around t≈2280s
		// virtual with 1 repetition and no per-probe retries); pass 2 starts
		// still inside but outlives it.
		n.SetFaults(faults.NewEngine(1).AddLink("@client", "r1",
			faults.Blackhole(0, 41*time.Minute)))
		results, yields := eachCollect(&Campaign{
			Net: n, Client: client,
			Base:              Config{ControlDomain: controlDomain, Repetitions: 1, Retries: -1},
			RetryFailedPasses: passes,
		}, []Target{{Endpoint: server, Domain: controlDomain, Protocol: HTTP}})
		if yields != 1 {
			t.Errorf("yields = %d, want 1", yields)
		}
		return results[0]
	}
	if r := build(0); !r.Failed() {
		t.Error("without retry passes the outage-window target should fail")
	}
	if r := build(1); r.Failed() {
		t.Errorf("retry pass should succeed after the outage (err=%v valid=%v)",
			r.Err, r.Result != nil && r.Result.Valid)
	}
}

// TestCampaignJournalResume: a journaled campaign's results are restored on
// a later run instead of re-measured — proven by resuming against a network
// with no device at all and still seeing the blocked verdicts.
func TestCampaignJournalResume(t *testing.T) {
	var buf bytes.Buffer
	n, client, server := buildNet(t)
	dev := middlebox.NewDevice("d", middlebox.VendorCisco, []string{blockedDomain}, n.Graph.Router("r3").Addr)
	n.AttachDevice("r2", "r3", dev)
	targets := []Target{
		{Endpoint: server, Domain: blockedDomain, Protocol: HTTP, Label: "KZ"},
		{Endpoint: server, Domain: blockedDomain, Protocol: HTTPS, Label: "KZ"},
	}
	j := NewJournal(&buf)
	first := (&Campaign{
		Net: n, Client: client,
		Base:    Config{ControlDomain: controlDomain, Repetitions: 3},
		Journal: j,
	}).Run(targets)
	if len(Blocked(first)) != 2 {
		t.Fatalf("setup: want 2 blocked results, got %d", len(Blocked(first)))
	}
	if j.Err() != nil {
		t.Fatalf("journal error: %v", j.Err())
	}

	// Resume on a deviceless network: only restored results can be blocked.
	n2, client2, server2 := buildNet(t)
	j2, err := ResumeJournal(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Len() != 2 {
		t.Fatalf("journal entries = %d, want 2", j2.Len())
	}
	targets2 := []Target{
		{Endpoint: server2, Domain: blockedDomain, Protocol: HTTP, Label: "KZ"},
		{Endpoint: server2, Domain: blockedDomain, Protocol: HTTPS, Label: "KZ"},
	}
	second, yields := eachCollect(&Campaign{
		Net: n2, Client: client2,
		Base:    Config{ControlDomain: controlDomain, Repetitions: 3},
		Journal: j2,
	}, targets2)
	if yields != 2 {
		t.Errorf("yields = %d, want 2 (both restored)", yields)
	}
	if len(Blocked(second)) != 2 {
		t.Errorf("restored results lost the blocked verdicts: %d blocked", len(Blocked(second)))
	}
}

// TestEachYieldsEveryTargetOnce pins Each's contract: yield sees every
// index exactly once with that target's final result — a journal-restored
// target before any pass, a target that fails pass 0 only when the retry
// pass has measured it, and a target that fails every pass at the last
// one — and Run returns exactly what Each yields, by index. The restored
// result is blocked, which no measurement on this deviceless network is.
func TestEachYieldsEveryTargetOnce(t *testing.T) {
	restored := &Result{Valid: true, Blocked: true}
	campaign := func(passes int) (*Campaign, []Target) {
		n, client, server := buildNet(t)
		// Pass 0 runs inside the outage; the retry pass outlives it (see
		// TestCampaignRetryFailedPasses).
		n.SetFaults(faults.NewEngine(1).AddLink("@client", "r1",
			faults.Blackhole(0, 41*time.Minute)))
		targets := []Target{
			{Endpoint: server, Domain: blockedDomain, Protocol: HTTP},
			{Endpoint: server, Domain: controlDomain, Protocol: HTTP},
			{Endpoint: nil, Domain: controlDomain, Protocol: HTTP, Label: "bad"},
		}
		var buf bytes.Buffer
		NewJournal(&buf).Record(CampaignResult{Target: targets[0], Result: restored})
		j, err := ResumeJournal(&buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		return &Campaign{
			Net: n, Client: client,
			Base:              Config{ControlDomain: controlDomain, Repetitions: 1, Retries: -1},
			RetryFailedPasses: passes,
			Journal:           j,
		}, targets
	}

	if once, _ := eachCollect(campaign(0)); !once[1].Failed() {
		t.Fatal("setup: without a retry pass target 1 should fail")
	}

	c, targets := campaign(1)
	got := make([]CampaignResult, len(targets))
	var order []int
	c.Each(targets, func(i int, cr CampaignResult) {
		order = append(order, i)
		got[i] = cr
	})
	seen := make([]int, len(targets))
	for _, i := range order {
		seen[i]++
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("target %d yielded %d times, want once (order %v)", i, n, order)
		}
	}
	if len(order) == 0 || order[0] != 0 || got[0].Result == nil || !got[0].Result.Blocked {
		t.Errorf("target 0 should be yielded first with its journal result (order %v)", order)
	}
	if got[1].Failed() {
		t.Errorf("target 1 yielded its failed pass 0 result, not the retry pass's (err=%v)", got[1].Err)
	}
	if got[2].Err == nil || !strings.Contains(got[2].Err.Error(), "panicked") {
		t.Errorf("target 2: Err = %v, want its recovered panic", got[2].Err)
	}

	c, targets = campaign(1)
	if run := resultsJSON(t, c.Run(targets)); !bytes.Equal(run, resultsJSON(t, got)) {
		t.Errorf("Run differs from Each collected by index:\nRun:  %s\nEach: %s", run, resultsJSON(t, got))
	}
}

// TestEachDropsYieldedResults: once yield returns, Each keeps nothing of
// that target's result, so a campaign's memory grows with its workers, not
// its targets — with a journal too, which writes each result to its log
// and keeps nothing. From inside the last yield of a workers-1 campaign,
// every earlier result must become unreachable. The control is a yield
// that keeps what it is given, as Run's does: then none may.
func TestEachDropsYieldedResults(t *testing.T) {
	for _, tc := range []struct{ keep, journal bool }{{false, false}, {false, true}, {true, false}} {
		n, client, servers := buildParallelWorld(t, false)
		var targets []Target
		for _, s := range servers {
			targets = append(targets, Target{Endpoint: s, Domain: blockedDomain, Protocol: HTTP})
		}
		var freed atomic.Int32
		var kept []CampaignResult
		yields, freedAtLast := 0, int32(-1)
		c := &Campaign{
			Net: n, Client: client,
			Base: Config{ControlDomain: controlDomain, Repetitions: 1},
		}
		if tc.journal {
			c.Journal = NewJournal(io.Discard)
		}
		c.Each(targets, func(i int, cr CampaignResult) {
			if tc.keep {
				kept = append(kept, cr)
			}
			if yields++; yields < len(targets) {
				runtime.SetFinalizer(cr.Result, func(*Result) { freed.Add(1) })
				return
			}
			// Finalizers run after the collection that finds their
			// object unreachable, on a goroutine of their own.
			earlier := int32(len(targets) - 1)
			for gc := 0; gc < 50 && freed.Load() < earlier; gc++ {
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			freedAtLast = freed.Load()
		})
		runtime.KeepAlive(kept)
		switch earlier := int32(len(targets) - 1); {
		case !tc.keep && freedAtLast != earlier:
			t.Errorf("journal=%v: at the last yield %d of %d earlier results were freed; the campaign retains the rest",
				tc.journal, freedAtLast, earlier)
		case tc.keep && freedAtLast != 0:
			t.Errorf("control: %d kept results were freed; the check cannot see retention", freedAtLast)
		}
	}
}

// eachCollect runs c.Each over targets and returns the yielded results by
// index, with the number of yield calls.
func eachCollect(c *Campaign, targets []Target) ([]CampaignResult, int) {
	out := make([]CampaignResult, len(targets))
	yields := 0
	c.Each(targets, func(i int, cr CampaignResult) {
		out[i] = cr
		yields++
	})
	return out, yields
}

func TestJournalTornTrailingLine(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.Record(CampaignResult{Target: Target{Domain: "a.example", Protocol: HTTP}})
	j.Record(CampaignResult{Target: Target{Domain: "b.example", Protocol: HTTP}})
	// The crash artifact: a partially written final line.
	buf.WriteString(`{"key":"c.exampl`)
	j2, err := ResumeJournal(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatalf("torn trailing line should be tolerated: %v", err)
	}
	if j2.Len() != 2 {
		t.Errorf("entries = %d, want 2 (torn line re-measured)", j2.Len())
	}
	if w := j2.Warnings(); len(w) != 1 {
		t.Errorf("warnings = %v, want exactly one for the torn line", w)
	}
}

// TestJournalTornSegmentMidFile: a record torn in the middle of the
// journal (write reordering around a crash) is skipped with a warning;
// every record around it is still restored — the resume must not fail.
func TestJournalTornSegmentMidFile(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	tgtA := Target{Domain: "a.example", Protocol: HTTP}
	tgtB := Target{Domain: "b.example", Protocol: HTTPS}
	j.Record(CampaignResult{Target: tgtA})
	// The torn segment: a stretch of non-frame bytes where a record
	// should be.
	buf.WriteString(`{"key":"b.exa` + "\n")
	j.Record(CampaignResult{Target: tgtB})

	j2, err := ResumeJournal(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatalf("mid-file torn segment should be skipped, not fatal: %v", err)
	}
	if j2.Len() != 2 {
		t.Errorf("entries = %d, want 2 (records around the tear restored)", j2.Len())
	}
	for _, tgt := range []Target{tgtA, tgtB} {
		if _, ok := j2.Lookup(tgt); !ok {
			t.Errorf("target %s lost around the torn segment", tgt.Key())
		}
	}
	w := j2.Warnings()
	if len(w) != 1 {
		t.Fatalf("warnings = %v, want exactly one for the torn segment", w)
	}
	if !strings.Contains(w[0], "garbage") {
		t.Errorf("warning should describe the skipped region: %q", w[0])
	}
	if _, torn := j2.Torn(); torn {
		t.Error("interior tear misreported as a torn tail")
	}
}

// TestOpenJournalFileTornTailAppend: appending to a journal whose final
// record was torn by a crash must not glue the new record onto the torn
// tail — OpenJournalFile truncates back to the last frame boundary, so
// the surviving record and the new one both outlive the next resume.
func TestOpenJournalFileTornTailAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	var buf bytes.Buffer
	NewJournal(&buf).Record(CampaignResult{Target: Target{Domain: "a.example", Protocol: HTTP}})
	whole := buf.Len()
	NewJournal(&buf).Record(CampaignResult{Target: Target{Domain: "b.example", Protocol: HTTP}})
	torn := buf.Bytes()[:whole+(buf.Len()-whole)/2] // second frame cut mid-write
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	j, f, err := OpenJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 1 {
		t.Fatalf("restored %d entries, want 1", j.Len())
	}
	var truncated bool
	for _, w := range j.Warnings() {
		if strings.Contains(w, "truncated torn tail") {
			truncated = true
		}
	}
	if !truncated {
		t.Fatalf("warnings = %v, want a torn-tail truncation", j.Warnings())
	}
	tgtC := Target{Domain: "c.example", Protocol: HTTPS}
	j.Record(CampaignResult{Target: tgtC})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, f2, err := OpenJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if j2.Len() != 2 {
		t.Fatalf("after append past torn tail: %d entries, want 2", j2.Len())
	}
	if _, ok := j2.Lookup(tgtC); !ok {
		t.Error("record appended after a torn tail was lost")
	}
	if len(j2.Warnings()) != 0 {
		t.Errorf("warnings = %v, want none (the tear was repaired on the first open)", j2.Warnings())
	}
}

// TestOpenJournalFileTornFirstFrame: a crash during a new journal's
// first Record can leave just the first 1, 2 or 3 bytes of a frame —
// shorter than the marker. Open must treat that as a torn tail (truncate
// it away, warn once) and the next Record must append a binary frame.
func TestOpenJournalFileTornFirstFrame(t *testing.T) {
	var buf bytes.Buffer
	NewJournal(&buf).Record(CampaignResult{Target: Target{Domain: "a.example", Protocol: HTTP}})
	for cut := 1; cut <= 3; cut++ {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "campaign.journal")
			if err := os.WriteFile(path, buf.Bytes()[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			j, f, err := OpenJournalFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if j.Len() != 0 {
				t.Fatalf("restored %d entries from a torn first frame, want 0", j.Len())
			}
			truncated := 0
			for _, w := range j.Warnings() {
				if strings.Contains(w, "truncated torn tail") {
					truncated++
				}
			}
			if truncated != 1 {
				t.Fatalf("warnings = %q, want one torn-tail truncation", j.Warnings())
			}
			tgt := Target{Domain: "b.example", Protocol: HTTPS}
			j.Record(CampaignResult{Target: tgt})
			if err := j.Err(); err != nil {
				t.Fatal(err)
			}
			f.Close()

			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(raw, wire.Marker[:]) {
				t.Fatalf("journal after append starts %q, want a frame marker", raw[:min(len(raw), 8)])
			}
			j2, f2, err := OpenJournalFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f2.Close()
			if _, ok := j2.Lookup(tgt); !ok || j2.Len() != 1 {
				t.Fatalf("after append: %d entries, lookup ok=%v; want the appended record", j2.Len(), ok)
			}
			if w := j2.Warnings(); len(w) != 0 {
				t.Errorf("warnings = %q, want none after the repair", w)
			}
		})
	}
}

// TestOpenJournalFileRefusesNonJournal: every journal starts with a
// frame (or a torn prefix of one), so a file whose first byte is not the
// frame marker's — JSON lines, plain text, a mistyped -journal path — is
// refused with an error and left byte-identical, not truncated as a
// torn tail.
func TestOpenJournalFileRefusesNonJournal(t *testing.T) {
	for _, tc := range []struct{ name, content string }{
		{"jsonl", `{"key":"a.example|http","domain":"a.example","protocol":"http"}` + "\n"},
		{"text", "measurement notes, not a journal\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "campaign.journal")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, f, err := OpenJournalFile(path); err == nil {
				f.Close()
				t.Fatal("OpenJournalFile accepted a file that is not a journal")
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(raw) != tc.content {
				t.Fatalf("refused file changed: %q, want %q", raw, tc.content)
			}
		})
	}
}

func TestJournalErrorEntries(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	tgt := Target{Domain: "x.example", Protocol: HTTP}
	j.Record(CampaignResult{Target: tgt, Err: errFake})
	j2, err := ResumeJournal(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	cr, ok := j2.Lookup(tgt)
	if !ok {
		t.Fatal("error entry not restored")
	}
	if cr.Err == nil || cr.Err.Error() != "boom" {
		t.Errorf("restored Err = %v, want boom", cr.Err)
	}
	if !cr.Failed() {
		t.Error("restored error entry should report Failed")
	}
}

var errFake = errFakeType{}

type errFakeType struct{}

func (errFakeType) Error() string { return "boom" }
