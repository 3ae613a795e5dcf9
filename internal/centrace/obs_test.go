package centrace

import (
	"bytes"
	"encoding/json"
	"testing"

	"cendev/internal/faults"
	"cendev/internal/obs"
)

// obsBytes runs the seeded parallel-world campaign at the given worker
// count with a fresh registry and tracer wired through every layer, and
// returns the canonical JSON of the deterministic metric snapshot and the
// span tree.
func obsBytes(t *testing.T, workers int) (metrics, spans []byte) {
	t.Helper()
	n, client, servers := buildParallelWorld(t, false)
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	n.SetObs(reg)
	n.SetFaults(faults.NewEngine(7).
		AddGlobal(faults.UniformLoss(0.02)).
		AddGlobal(faults.Duplication(0.01)).
		AddLink("r2", "r3", faults.GilbertElliott(0.05, 0.3, 0, 0.8)).
		LimitICMP("r2", 2, 0.5))
	var targets []Target
	for _, s := range servers {
		targets = append(targets,
			Target{Endpoint: s, Domain: blockedDomain, Protocol: HTTP},
			Target{Endpoint: s, Domain: controlDomain, Protocol: HTTPS},
		)
	}
	(&Campaign{
		Net: n, Client: client,
		Base: Config{
			ControlDomain: controlDomain, Repetitions: 3,
			Obs: reg, Tracer: tr,
		},
		RetryFailedPasses: 1,
		Workers:           workers,
	}).Run(targets)

	metrics, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatalf("marshal metrics: %v", err)
	}
	spans, err = json.Marshal(tr.Snapshot())
	if err != nil {
		t.Fatalf("marshal spans: %v", err)
	}
	return metrics, spans
}

// TestObsWorkerDeterminism: the deterministic metric snapshot and the
// canonical span tree must be byte-identical at any worker count — the
// observability layer must not become a side channel for scheduling.
func TestObsWorkerDeterminism(t *testing.T) {
	serialMetrics, serialSpans := obsBytes(t, 1)
	for _, workers := range []int{4} {
		parMetrics, parSpans := obsBytes(t, workers)
		if !bytes.Equal(serialMetrics, parMetrics) {
			t.Errorf("workers=%d metric snapshot differs from workers=1:\n%s\n---\n%s",
				workers, serialMetrics, parMetrics)
		}
		if !bytes.Equal(serialSpans, parSpans) {
			t.Errorf("workers=%d span tree differs from workers=1 (lens %d vs %d)",
				workers, len(parSpans), len(serialSpans))
		}
	}
}

// TestObsCampaignContent spot-checks that the instrumented campaign
// actually recorded what happened: every target got a verdict, probes and
// packets were counted, and the span tree has the campaign/pass/target
// shape.
func TestObsCampaignContent(t *testing.T) {
	n, client, servers := buildParallelWorld(t, false)
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	n.SetObs(reg)
	var targets []Target
	for _, s := range servers {
		targets = append(targets, Target{Endpoint: s, Domain: blockedDomain, Protocol: HTTP})
	}
	(&Campaign{
		Net: n, Client: client,
		Base:    Config{ControlDomain: controlDomain, Repetitions: 2, Obs: reg, Tracer: tr},
		Workers: 2,
	}).Run(targets)

	snap := reg.Snapshot()
	blocked, ok := snap.Get("centrace_targets_total", obs.L("verdict", "blocked"))
	if !ok || blocked.Value != int64(len(targets)) {
		t.Errorf("blocked verdicts = %+v, want %d", blocked, len(targets))
	}
	if m, ok := snap.Get("simnet_packets_forwarded_total"); !ok || m.Value == 0 {
		t.Error("packet forwarding went uncounted")
	}
	if m, ok := snap.Get("centrace_probe_virtual_seconds"); !ok || m.Count == 0 {
		t.Error("probe latency histogram is empty")
	}
	if m, ok := snap.Get("parallel_runs_total", obs.L("pool", "centrace.campaign")); !ok || m.Value == 0 {
		t.Error("campaign pool run went uncounted")
	}
	if m, ok := snap.Get("centrace_confidence"); !ok || m.Count != int64(len(targets)) {
		t.Errorf("confidence observations = %+v, want %d", m, len(targets))
	}

	roots := tr.Snapshot()
	if len(roots) != 1 || roots[0].Name != "centrace.campaign" {
		t.Fatalf("root spans = %+v, want single centrace.campaign", roots)
	}
	pass := roots[0].Children
	if len(pass) == 0 || pass[0].Name != "centrace.pass" {
		t.Fatalf("campaign children = %+v, want centrace.pass spans", pass)
	}
	if len(pass[0].Children) != len(targets) {
		t.Fatalf("pass 0 target spans = %d, want %d", len(pass[0].Children), len(targets))
	}
	tgt := pass[0].Children[0]
	hasTargetAttr := false
	for _, a := range tgt.Attrs {
		if a.Key == "target" && a.Value != "" {
			hasTargetAttr = true
		}
	}
	if tgt.Name != "centrace.target" || !hasTargetAttr {
		t.Errorf("target span malformed: %+v", tgt)
	}
	// Each target span wraps a measure span which wraps traces and probes.
	var sawMeasure, sawProbe bool
	var walk func(s obs.SpanSnap)
	walk = func(s obs.SpanSnap) {
		switch s.Name {
		case "centrace.measure":
			sawMeasure = true
		case "centrace.probe":
			sawProbe = true
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(tgt)
	if !sawMeasure || !sawProbe {
		t.Errorf("target subtree missing spans: measure=%v probe=%v", sawMeasure, sawProbe)
	}
	if tr.SpanCount() == 0 {
		t.Error("SpanCount = 0")
	}
}
