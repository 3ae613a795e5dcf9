package cluster

// BenchmarkClusterThroughput measures end-to-end jobs/second through
// the full protocol — HTTP submission, placement, worker pull, local
// persistence, completion, digest verification — at 1 and 3 in-process
// workers (replication 1, so added workers add capacity rather than
// redundancy). Every result digest is asserted inside the benchmark:
// a throughput number from wrong results would be worthless.

import (
	"fmt"
	"testing"

	"cendev/internal/serve"
)

// BenchmarkAntiEntropySweep measures one Coordinator.Sweep, the pass a
// coordinator runs before it drains, over three workers that hold
// sweepJobs done results between them at replication 2, every replica in
// place: 64 buckets × 3 nodes of digest queries over loopback HTTP, no
// repair. The figure grows with what each query costs a worker.
func BenchmarkAntiEntropySweep(b *testing.B) {
	const sweepJobs = 5000
	nodes := []string{"w1", "w2", "w3"}
	tc := startCluster(b, clusterConfig{
		nodes: nodes,
		dead:  map[string]bool{"w1": true, "w2": true, "w3": true},
	})
	st := tc.srv.Store()
	for i := 0; i < sweepJobs; i++ {
		spec := serve.JobSpec{Kind: serve.KindCenProbe, Endpoint: fmt.Sprintf("ep-%d", i), Seed: int64(i + 1)}
		spec.Normalize()
		payload, _ := echoHook("")(spec)
		digest := serve.PayloadDigest(payload)
		e, err := st.AppendQueued(spec)
		if err != nil {
			b.Fatal(err)
		}
		replicas := tc.coord.ring.Owners(e.ID, 2)
		if err := st.UpdateDone(e.ID, 1, payload, digest, replicas); err != nil {
			b.Fatal(err)
		}
		for _, n := range replicas {
			if err := tc.workers[n].Store().PutResult(e.ID, spec, payload, digest); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := tc.coord.Sweep()
		if err != nil {
			b.Fatal(err)
		}
		if rep.RangesMismatch != 0 || rep.QueryFailures != 0 || rep.ResultsVerified != 2*sweepJobs {
			b.Fatalf("sweep report %+v, want every one of %d replicas verified in place", rep, 2*sweepJobs)
		}
	}
}

func BenchmarkClusterThroughput(b *testing.B) {
	for _, workers := range []int{1, 3} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			nodes := make([]string, workers)
			for i := range nodes {
				nodes[i] = fmt.Sprintf("w%d", i+1)
			}
			tc := startCluster(b, clusterConfig{
				nodes:       nodes,
				replication: 1,
				hookFor:     echoHook,
			})
			specs := make([]serve.JobSpec, b.N)
			wantDigests := make([]string, b.N)
			for i := range specs {
				specs[i] = serve.JobSpec{
					Kind:     serve.KindCenProbe,
					Endpoint: fmt.Sprintf("ep-%d", i),
					Seed:     int64(i + 1),
				}
				s := specs[i]
				s.Normalize()
				payload, _ := echoHook("")(s)
				wantDigests[i] = serve.PayloadDigest(payload)
			}

			b.ResetTimer()
			ids := make([]string, b.N)
			for i := range specs {
				ids[i] = tc.submit(specs[i])
			}
			for i, id := range ids {
				st := tc.waitTerminal(id)
				if st.State != serve.StateDone {
					b.Fatalf("job %s: state %s (%s)", id, st.State, st.Error)
				}
				if st.Digest != wantDigests[i] {
					b.Fatalf("job %s: digest %s, want %s", id, st.Digest, wantDigests[i])
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}
