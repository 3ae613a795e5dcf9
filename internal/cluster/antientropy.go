package cluster

// Anti-entropy: the coordinator's background consistency sweep. The key
// hash space is cut into 64 fixed buckets; for each bucket, each node
// is asked for a rolled-up digest of the (job ID, result digest) pairs
// it holds there, and only on mismatch does the sweep pay for the
// per-job detail listing and repair pushes. Bucket order is a seeded
// permutation, so two coordinators with the same seed sweep in the same
// order and a partial sweep covers a deterministic prefix.
//
// Divergence classes and their handling:
//   - missing: the coordinator's store says the node is a replica, the
//     node has no (or wrong-digest) copy → push the verified bytes.
//   - extra: the node holds results the coordinator does not count —
//     stolen executions whose completion lost the race, or leftovers of
//     conflicted jobs. Benign; logged, never deleted (an operator
//     investigating a conflict wants the evidence intact).

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"

	"cendev/internal/serve"
	"cendev/internal/wire"
)

// SweepReport summarizes one anti-entropy pass.
type SweepReport struct {
	BucketsChecked  int
	RangesMismatch  int
	Repaired        int
	Extras          int
	Unrepairable    []string // job IDs with no healthy replica left
	QueryFailures   int      // nodes that could not be asked
	ResultsVerified int64    // replica-result pairs confirmed in place
}

// Sweep runs one full anti-entropy pass over every bucket and node.
func (c *Coordinator) Sweep() (SweepReport, error) {
	var rep SweepReport
	// expected[node][bucket] = jobID → digest, from the coordinator's
	// durable view of who holds what.
	expected := make(map[string]map[int]map[string]string)
	type jobInfo struct {
		spec     serve.JobSpec
		digest   string
		replicas []string
	}
	jobs := make(map[string]jobInfo)
	for _, e := range c.srv.Store().List(serve.StateDone) {
		if e.Digest == "" || len(e.Replicas) == 0 {
			continue
		}
		jobs[e.ID] = jobInfo{spec: e.Spec, digest: e.Digest, replicas: e.Replicas}
		b := bucketOf(e.ID)
		for _, n := range e.Replicas {
			if expected[n] == nil {
				expected[n] = make(map[int]map[string]string)
			}
			if expected[n][b] == nil {
				expected[n][b] = make(map[string]string)
			}
			expected[n][b][e.ID] = e.Digest
		}
	}

	rng := rand.New(rand.NewSource(antiEntropySeed))
	order := rng.Perm(Buckets)
	nodes := c.ring.Nodes()
	for _, b := range order {
		rep.BucketsChecked++
		start, end := bucketRange(b)
		for _, node := range nodes {
			exp := expected[node][b]
			wantCount, wantDigest := setDigest(exp)
			got, err := c.queryRange(node, start, end)
			if err != nil {
				rep.QueryFailures++
				c.opts.Logf("cluster: sweep: bucket %d node %s unreachable: %v", b, node, err)
				continue
			}
			if got.Count == wantCount && got.Digest == wantDigest {
				rep.ResultsVerified += wantCount
				continue
			}
			rep.RangesMismatch++
			c.opts.Obs.Counter("censerved_cluster_antientropy_mismatches_total").Inc()
			detail, err := c.queryDetail(node, start, end)
			if err != nil {
				rep.QueryFailures++
				c.opts.Logf("cluster: sweep: bucket %d node %s detail failed: %v", b, node, err)
				continue
			}
			ids := make([]string, 0, len(exp))
			for id := range exp {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			for _, id := range ids {
				want := exp[id]
				if detail[id] == want {
					rep.ResultsVerified++
					continue
				}
				info := jobs[id]
				if c.repairOne(id, info.spec, want, info.replicas, node) {
					rep.Repaired++
				} else {
					rep.Unrepairable = append(rep.Unrepairable, id)
				}
			}
			for id, d := range detail {
				if _, want := exp[id]; !want {
					rep.Extras++
					c.opts.Logf("cluster: sweep: node %s holds uncounted result %s (digest %.12s…) — benign, kept", node, id, d)
				}
			}
		}
	}
	sort.Strings(rep.Unrepairable)
	return rep, nil
}

// repairOne restores one missing/corrupt replica on target by reading
// verified bytes from any healthy replica and pushing them.
func (c *Coordinator) repairOne(id string, spec serve.JobSpec, digest string, replicas []string, target string) bool {
	sources := make([]string, 0, len(replicas))
	for _, n := range replicas {
		if n != target {
			sources = append(sources, n)
		}
	}
	payload, _, _ := c.readReplicas(id, digest, sources)
	if payload == nil {
		c.opts.Logf("cluster: sweep: job %s: no healthy source replica to repair %s from", id, target)
		return false
	}
	repaired := c.repairReplicas(id, spec, payload, digest, []string{target})
	return len(repaired) == 1
}

// queryRange fetches one node's rolled-up digest for [start, end].
func (c *Coordinator) queryRange(node string, start, end uint64) (*wire.DigestRange, error) {
	body, err := c.digestsGET(node, start, end, false)
	if err != nil {
		return nil, err
	}
	payload, ok := wire.NewReader(body).Next()
	if !ok {
		return nil, fmt.Errorf("cluster: digest response is not a wire frame")
	}
	return wire.DecodeDigestRange(payload)
}

// queryDetail fetches one node's per-job digests for [start, end].
func (c *Coordinator) queryDetail(node string, start, end uint64) (map[string]string, error) {
	body, err := c.digestsGET(node, start, end, true)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string)
	rd := wire.NewReader(body)
	for {
		payload, ok := rd.Next()
		if !ok {
			break
		}
		comp, err := wire.DecodeCompletion(payload)
		if err != nil {
			return nil, err
		}
		out[comp.ID] = comp.Digest
	}
	if _, torn := rd.Torn(); torn {
		return nil, fmt.Errorf("cluster: digest detail stream torn")
	}
	return out, nil
}

func (c *Coordinator) digestsGET(node string, start, end uint64, detail bool) ([]byte, error) {
	base, ok := c.opts.Peers[node]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown node %q", node)
	}
	url := fmt.Sprintf("%s/v1/cluster/digests?start=%d&end=%d", base, start, end)
	if detail {
		url += "&detail=1"
	}
	resp, err := c.opts.Client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 64<<20))
}

// DrainBackend implements serve.BackendDrainer: once serve's own
// workers have finished (so no job is mid-replication), stop granting
// leases, release parked long-pollers, and run a final sweep so the
// process only exits with every acknowledged job verified durable on
// its full replica set.
func (c *Coordinator) DrainBackend() error {
	c.mu.Lock()
	c.draining = true
	pending := len(c.jobs)
	c.broadcastLocked()
	c.mu.Unlock()
	if pending > 0 {
		// Cannot happen through serve's drain ordering (queue closes and
		// workers finish first); guard anyway.
		return fmt.Errorf("cluster: drain with %d jobs still in flight", pending)
	}
	rep, err := c.Sweep()
	if err != nil {
		return fmt.Errorf("cluster: drain sweep: %w", err)
	}
	c.opts.Logf("cluster: drain sweep: %d results verified, %d repaired, %d unrepairable, %d query failures",
		rep.ResultsVerified, rep.Repaired, len(rep.Unrepairable), rep.QueryFailures)
	if len(rep.Unrepairable) > 0 {
		return fmt.Errorf("cluster: drain left %d results unrepairable: %v", len(rep.Unrepairable), rep.Unrepairable)
	}
	return nil
}
