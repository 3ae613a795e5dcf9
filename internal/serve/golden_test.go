package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"
	"testing"

	"cendev/internal/obs"
)

// goldenSpecs pin the scheduler's payload bytes across commits: one spec
// per job kind and mode. The determinism tests compare a build only with
// itself, so a change that shifted payload bytes the same way on every
// run would pass them; these digests catch it. A deliberate change to a
// measurement's output updates the digests here, and says so.
var goldenSpecs = []struct {
	name   string
	spec   JobSpec
	digest string
}{
	{
		name:   "centrace/http",
		spec:   JobSpec{Kind: KindCenTrace, Endpoint: "az-ep-0-0", Domain: "www.globalblocked.example"},
		digest: "b6c0b6ea098ae6064c82795120683ceed3f524a4dfcf980571475b3a527b71e1",
	},
	{
		name:   "centrace/https",
		spec:   JobSpec{Kind: KindCenTrace, Endpoint: "kz-ep-0-0", Domain: "www.pokerstars.com", Protocol: "https"},
		digest: "a1eaa031ce84965d32bf4c451f270d013ae1a0bf2381217e8e8fc4273c563d77",
	},
	{
		name:   "centrace/loss",
		spec:   JobSpec{Kind: KindCenTrace, Endpoint: "az-ep-0-0", Domain: "www.globalblocked.example", Seed: 7, Loss: 0.05},
		digest: "f9fea03b54e5fb880aa103ed63e11bfea485e962fb2ea183f8d88f0c10489ff1",
	},
	{
		name:   "centrace.campaign/workers=2",
		spec:   JobSpec{Kind: KindCenTraceCampaign, Workers: 2},
		digest: "742b5815f74138a58c92efb4bbf9ec6358857a805c4976a7a59686a413b9a92a",
	},
	{
		name:   "cenfuzz/strategy",
		spec:   JobSpec{Kind: KindCenFuzz, Endpoint: "kz-ep-0-0", Domain: "www.pokerstars.com", Strategy: "Hostname Alt."},
		digest: "63e7482fc0429cc32c25bb3f929a7014d21be6651e729e91ccb2cc96cda94ed6",
	},
	{
		name:   "cenfuzz/catalog",
		spec:   JobSpec{Kind: KindCenFuzz, Endpoint: "az-ep-0-0", Domain: "www.globalblocked.example"},
		digest: "726c203ac0ff26e182930a35c3f2c0b78b2dd340e67ca0a9fce3a8c8057b6636",
	},
	{
		name:   "cenprobe/all",
		spec:   JobSpec{Kind: KindCenProbe},
		digest: "f6fce3bed785d55d952164df2e62a49831693ec43ebd11867a8c3bec9d0f9b15",
	},
	{
		name:   "cencluster",
		spec:   JobSpec{Kind: KindCenCluster},
		digest: "85c14a2c6d89069731070eb74af1c06c3c9f7fa237631624dcc3f7783e2e6aaa",
	},
	{
		name:   "tomography/flap-withdraw",
		spec:   JobSpec{Kind: KindTomography, Scenario: "flap-withdraw"},
		digest: "4b6ba3b8b3674d163b839d66047210328b5616cb26b2e72fa0002eaf6f42052f",
	},
	{
		name:   "tomography/all",
		spec:   JobSpec{Kind: KindTomography},
		digest: "4c31ab86d7242d54baeef37bb0aebd2111e7ff2646edd95340a3bdbf63ed8237",
	},
	// The specs below pin the forwarding branches: an in-country client
	// (every client→endpoint pair has one path), loss-only fault engines
	// (forwarding unsalted while faults are installed), and the
	// multi-segment CenFuzz extension strategies.
	{
		name:   "centrace/in-country",
		spec:   JobSpec{Kind: KindCenTrace, Client: "AZ", Endpoint: "az-ep-0-0", Domain: "www.globalblocked.example"},
		digest: "84c1aa6ae4e960294b5e77cad67d0ae69a3f70c8cb776e69b784fa21a5ac8fd6",
	},
	{
		name:   "cenfuzz/catalog-loss",
		spec:   JobSpec{Kind: KindCenFuzz, Endpoint: "az-ep-0-0", Domain: "www.globalblocked.example", Loss: 0.05, Seed: 3},
		digest: "080beb2ffd8218f012966bc49e3477143d5f5e90c424b5a38d40a76734d259ac",
	},
	{
		// The fault seed is keyed as at workers 1 (CanonKey), so this is
		// also the same spec's payload at workers 1.
		name:   "centrace.campaign/loss",
		spec:   JobSpec{Kind: KindCenTraceCampaign, Workers: 2, Loss: 0.05, RetryPasses: 1, Seed: 5},
		digest: "739d909c7409379e1c995925428fad81de14f63b34f2888475121100197f7697",
	},
	{
		name:   "cenfuzz/extensions",
		spec:   JobSpec{Kind: KindCenFuzz, Endpoint: "kz-ep-0-0", Domain: "www.pokerstars.com", Extensions: true},
		digest: "692149c4315f07578b26a01a0f0063f0e3f33e7a04b8b5b6bf3ff33f749b0750",
	},
}

// TestPayloadGolden runs every golden spec on one scheduler and compares
// the SHA-256 of its payload with the digest recorded for it.
func TestPayloadGolden(t *testing.T) {
	s := NewScheduler(nil)
	for _, g := range goldenSpecs {
		t.Run(g.name, func(t *testing.T) {
			spec := g.spec
			spec.Normalize()
			if err := spec.Validate(); err != nil {
				t.Fatalf("invalid spec: %v", err)
			}
			payload, err := s.Run(spec)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			sum := sha256.Sum256(payload)
			if got := hex.EncodeToString(sum[:]); got != g.digest {
				t.Errorf("payload digest = %s, want %s", got, g.digest)
			}
		})
	}
}

// TestLossyPayloadWorkerIndependent: a lossy spec's payload must not
// depend on its in-job worker count. The fault seed derives from the
// spec's canonical key, so a key that kept the worker count gave each
// count its own loss realization.
func TestLossyPayloadWorkerIndependent(t *testing.T) {
	s := NewScheduler(nil)
	for _, g := range goldenSpecs {
		if g.spec.Loss == 0 {
			continue
		}
		t.Run(g.name, func(t *testing.T) {
			var first []byte
			for _, workers := range []int{1, 2, 4} {
				spec := g.spec
				spec.Workers = workers
				spec.Normalize()
				payload, err := s.Run(spec)
				if err != nil {
					t.Fatalf("workers=%d: run: %v", workers, err)
				}
				if first == nil {
					first = payload
				} else if !bytes.Equal(first, payload) {
					t.Errorf("workers=%d payload differs from workers=1", workers)
				}
			}
		})
	}
}

// goldenSnapshotDigest is the SHA-256 of the JSON deterministic metric
// snapshot an instrumented scheduler holds after running every golden
// spec once. It pins the measurement series the way the payload digests
// pin the payloads: counting in goroutine-private tallies and adding them
// into the registry at flush points must land exactly the series and
// values that counting each event into the registry did.
const goldenSnapshotDigest = "414dd74c1343fefd010e3403c2f3c8a3512bb1526457af02d5c0abfcff46d553"

// goldenSnapshot runs the golden specs in table order on one scheduler
// with a fresh registry, dealt round-robin over the given number of
// goroutines, and returns the hex SHA-256 of its deterministic snapshot.
func goldenSnapshot(t *testing.T, goroutines int) string {
	t.Helper()
	reg := obs.NewRegistry()
	s := NewScheduler(reg)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(first int) {
			defer wg.Done()
			for i := first; i < len(goldenSpecs); i += goroutines {
				spec := goldenSpecs[i].spec
				spec.Normalize()
				if _, err := s.Run(spec); err != nil {
					t.Errorf("%s: run: %v", goldenSpecs[i].name, err)
				}
			}
		}(g)
	}
	wg.Wait()
	raw, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestMetricSnapshotGolden runs the golden specs on an instrumented
// scheduler, once serially and once from two goroutines, and compares the
// deterministic snapshot's digest with the recorded one.
func TestMetricSnapshotGolden(t *testing.T) {
	for _, goroutines := range []int{1, 2} {
		if got := goldenSnapshot(t, goroutines); got != goldenSnapshotDigest {
			t.Errorf("goroutines=%d: snapshot digest = %s, want %s", goroutines, got, goldenSnapshotDigest)
		}
	}
}
