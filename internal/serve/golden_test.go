package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
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
		name:   "centrace.campaign/loss",
		spec:   JobSpec{Kind: KindCenTraceCampaign, Workers: 2, Loss: 0.05, RetryPasses: 1, Seed: 5},
		digest: "50947c815e67f63e12ad416d021a6f175c185739213bd420f39408a9bac5df66",
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
