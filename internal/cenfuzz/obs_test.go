package cenfuzz

import (
	"bytes"
	"encoding/json"
	"testing"

	"cendev/internal/faults"
	"cendev/internal/middlebox"
	"cendev/internal/obs"
)

// obsSnapshot runs the full catalog plus the extension strategies at the
// given worker count on an instrumented, lossy network and returns the
// canonical JSON of the deterministic metric snapshot and the run's
// measurement count.
func obsSnapshot(t *testing.T, workers int) ([]byte, int) {
	t.Helper()
	n, _ := buildNet(t, middlebox.VendorCisco)
	reg := obs.NewRegistry()
	n.SetObs(reg)
	n.SetFaults(faults.NewEngine(11).
		AddGlobal(faults.UniformLoss(0.03)).
		AddGlobal(faults.Duplication(0.01)))
	fz := New(n, n.Graph.Host("client"), n.Graph.Host("server"), Config{
		TestDomain: blockedDomain, ControlDomain: controlDomain,
		Workers: workers, Obs: reg,
	})
	res := fz.Run(append(Strategies(), ExtensionStrategies()...))
	raw, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return raw, res.TotalMeasurements
}

// TestObsWorkerDeterminism is the CenFuzz counterpart of the campaign
// test: the deterministic snapshot must be byte-identical at any worker
// count. Each strategy worker counts into tallies of its own; a tally
// shared across workers loses updates here and is a data race under
// -race.
func TestObsWorkerDeterminism(t *testing.T) {
	serial, measurements := obsSnapshot(t, 1)
	parallel, _ := obsSnapshot(t, 4)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("workers=4 metric snapshot differs from workers=1:\n%s\n---\n%s", serial, parallel)
	}

	var snap obs.Snapshot
	if err := json.Unmarshal(serial, &snap); err != nil {
		t.Fatal(err)
	}
	var counted int64
	for _, m := range snap.Metrics {
		if m.Name == "cenfuzz_measurements_total" {
			counted += m.Value
		}
	}
	if counted != int64(measurements) {
		t.Errorf("cenfuzz_measurements_total sums to %d, want %d", counted, measurements)
	}
	for _, name := range []string{"simnet_packets_forwarded_total", "faults_drops_total"} {
		found := false
		for _, m := range snap.Metrics {
			found = found || (m.Name == name && m.Value > 0)
		}
		if !found {
			t.Errorf("%s not counted", name)
		}
	}
}
