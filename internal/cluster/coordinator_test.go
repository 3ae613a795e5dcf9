package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"cendev/internal/serve"
	"cendev/internal/wire"
)

// coordStep drives a Coordinator's lease state machine through its
// protocol handlers, with no workers and no network.
type coordStep struct {
	t *testing.T
	c *Coordinator
}

// pull is one pull arrival from node, as handlePull serves it before it
// parks: a tick and a grant.
func (s coordStep) pull(node string) *wire.JobLease {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	s.c.tickLocked()
	return s.c.grantLocked(node)
}

// post delivers comp to the coordinator's completion handler.
func (s coordStep) post(comp *wire.Completion) {
	s.t.Helper()
	body := wire.AppendFrame(nil, wire.AppendCompletion(nil, comp))
	rec := httptest.NewRecorder()
	s.c.handleComplete(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/complete", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		s.t.Fatalf("completion from %s: status %d: %s", comp.Node, rec.Code, rec.Body)
	}
}

// fail posts a transient failure of job id on node.
func (s coordStep) fail(id, node string) {
	s.t.Helper()
	s.post(&wire.Completion{ID: id, Node: node, Attempt: 1, Transient: true, Error: "simulated crash"})
}

// succeed posts a successful completion of job id on node.
func (s coordStep) succeed(id, node string) {
	s.t.Helper()
	s.post(&wire.Completion{ID: id, Node: node, Attempt: 1, Digest: "d1"})
}

// pullUntilLease pulls from node until it gets a lease, at most limit
// times, and returns the lease and the number of pulls.
func (s coordStep) pullUntilLease(node string, limit int64) (*wire.JobLease, int64) {
	for i := int64(1); i <= limit; i++ {
		if l := s.pull(node); l != nil {
			return l, i
		}
	}
	return nil, limit
}

// newStepCoordinator builds a two-node coordinator at replication 1 with
// one job whose slot starts on w1.
func newStepCoordinator(t *testing.T) coordStep {
	t.Helper()
	c, err := NewCoordinator(CoordinatorOptions{
		Peers:       map[string]string{"w1": "http://w1.invalid", "w2": "http://w2.invalid"},
		Replication: 1,
		StealAfter:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.jobs["j1"] = &clusterJob{
		id:          "j1",
		slots:       []*slot{{node: "w1"}},
		completions: make(map[string]string),
		done:        make(chan struct{}),
	}
	return coordStep{t, c}
}

// TestFailedNodeLeavesSlotToHealthyNode: a node that failed a job
// transiently gets nothing, however fast it pulls within the bar, while
// another node can serve the job's slot; it could otherwise tick the
// event clock past the steal deadline and take the slot back from a
// healthy holder.
func TestFailedNodeLeavesSlotToHealthyNode(t *testing.T) {
	s := newStepCoordinator(t)
	if l := s.pull("w1"); l == nil || l.ID != "j1" {
		t.Fatalf("w1's first pull got %+v, want its own slot of j1", l)
	}
	s.fail("j1", "w1")
	for i := int64(0); i < barDeadlines*s.c.opts.StealAfter; i++ {
		if l := s.pull("w1"); l != nil {
			t.Fatalf("pull %d: w1 took j1 back (owner %s) after failing it, while w2 can serve it", i, l.Owner)
		}
	}
	if l := s.pull("w2"); l == nil || l.ID != "j1" || l.Node != "w2" {
		t.Fatalf("w2's pull got %+v, want the slot of j1", l)
	}
}

// TestFailedNodeTakesSlotFromSilentHolder: the bar ends. With w2 never
// pulling, as if dead, w1 takes the slot back once the bar runs out,
// and the job finishes: on w1 if it succeeds, or with a transient error
// once w1 has used up the job's transient budget. A bar that lasted
// forever would leave the job open.
func TestFailedNodeTakesSlotFromSilentHolder(t *testing.T) {
	for _, tc := range []struct {
		name     string
		recovers bool
	}{{"succeeds", true}, {"keeps-failing", false}} {
		recovers := tc.recovers
		t.Run(tc.name, func(t *testing.T) {
			s := newStepCoordinator(t)
			cj := s.c.jobs["j1"]
			limit := barDeadlines*s.c.opts.StealAfter + 1
			s.pull("w1")
			budget := transientPerReplica * s.c.opts.Replication
			for f := 1; ; f++ {
				s.fail("j1", "w1")
				if f > budget {
					break
				}
				l, n := s.pullUntilLease("w1", limit)
				if l == nil || l.ID != "j1" || l.Owner != "w2" {
					t.Fatalf("after failure %d, %d pulls gave w1 %+v, want j1's slot stolen from silent w2", f, n, l)
				}
				if recovers {
					s.succeed("j1", "w1")
					break
				}
			}
			select {
			case <-cj.done:
			default:
				t.Fatal("job still open: the bar on w1 outlived silent w2")
			}
			if recovers {
				if cj.err != nil || len(cj.res.Replicas) != 1 || cj.res.Replicas[0] != "w1" {
					t.Fatalf("job ended with %+v, %v; want done on [w1]", cj.res, cj.err)
				}
			} else if !serve.IsTransient(cj.err) {
				t.Fatalf("job ended with %v, want a transient error after %d failures", cj.err, budget+1)
			}
		})
	}
}

// TestFailedNodesRetryWhenAllFailed: once every node has failed a job
// transiently, no node is left to prefer, and the slot goes back to one
// that failed.
func TestFailedNodesRetryWhenAllFailed(t *testing.T) {
	s := newStepCoordinator(t)
	s.pull("w1")
	s.fail("j1", "w1")
	if l := s.pull("w2"); l == nil {
		t.Fatal("w2 got no lease after w1 failed j1")
	}
	s.fail("j1", "w2")
	if l := s.pull("w1"); l == nil || l.ID != "j1" || l.Node != "w1" {
		t.Fatalf("w1's pull got %+v after both nodes failed j1, want the slot", l)
	}
}
