// Package serve is the measurement-orchestration service behind the
// censerved daemon: an HTTP JSON API over a priority job queue with
// per-tenant token-bucket admission control, a scheduler that dispatches
// centrace/cenfuzz/cenprobe/cencluster jobs onto clone-isolated simnet
// networks, and a sharded append-only result store with crash-safe
// recovery. The paper's tools are one-shot batch pipelines; serve is the
// long-running fleet layer that real deployments (Censored Planet's
// longitudinal scans, Pathfinder-style campaigns) run them under.
//
// Determinism contract: a job's result payload is a pure function of its
// normalized spec. The scheduler gives every job a private clone of the
// canonical base world, rewound to the same origin state, with a fault
// engine seeded from the spec alone — so the same spec submitted twice,
// at any queue interleaving, concurrency, or in-job worker count, yields
// byte-identical bytes from GET /v1/results/{id}.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// Job kinds the scheduler can dispatch.
const (
	KindCenTrace         = "centrace"          // one measurement, needs endpoint+domain
	KindCenTraceCampaign = "centrace.campaign" // every endpoint × domain × protocol
	KindCenFuzz          = "cenfuzz"           // strategy catalog against one endpoint
	KindCenProbe         = "cenprobe"          // banner grabs (given addrs or all devices)
	KindCenCluster       = "cencluster"        // full §7 corpus + clustering study
	KindTomography       = "tomography"        // churn-tomography cross-validation study
)

// JobSpec is the wire-level description of one measurement job — the body
// of POST /v1/jobs. Zero values take the documented defaults so a minimal
// submission is just {"kind":"centrace","endpoint":...,"domain":...}.
type JobSpec struct {
	Kind string `json:"kind"`
	// Tenant names the admission-control bucket the job debits. Default
	// "default".
	Tenant string `json:"tenant,omitempty"`
	// Priority orders the queue: higher runs first, FIFO within a
	// priority.
	Priority int `json:"priority,omitempty"`
	// Seed roots the job's derived fault seed (and any other randomness).
	// Default 1. Same spec + same seed → byte-identical payload.
	Seed int64 `json:"seed,omitempty"`

	// Measurement parameters (kind-dependent; unknown-for-kind fields are
	// rejected only when they would silently change the result).
	Client      string   `json:"client,omitempty"`       // vantage: us, AZ, KZ, RU (default us)
	Endpoint    string   `json:"endpoint,omitempty"`     // endpoint host ID
	Domain      string   `json:"domain,omitempty"`       // test domain
	Control     string   `json:"control,omitempty"`      // control domain
	Protocol    string   `json:"protocol,omitempty"`     // http | https (default http)
	Repetitions int      `json:"repetitions,omitempty"`  // traceroute repetitions (default 3)
	Workers     int      `json:"workers,omitempty"`      // in-job parallel workers (default 1)
	RetryPasses int      `json:"retry_passes,omitempty"` // campaign retry passes
	Strategy    string   `json:"strategy,omitempty"`     // cenfuzz: run one strategy
	Extensions  bool     `json:"extensions,omitempty"`   // cenfuzz: include extension strategies
	Addrs       []string `json:"addrs,omitempty"`        // cenprobe: addresses (default: all devices)
	TopK        int      `json:"topk,omitempty"`         // cencluster: top-importance features
	MinPts      int      `json:"minpts,omitempty"`       // cencluster: DBSCAN min cluster size
	Scenario    string   `json:"scenario,omitempty"`     // tomography: one scenario (default: all)

	// Fault profile, applied through a per-job engine seeded from
	// (Seed, canonical spec) so realizations are job-deterministic.
	Loss float64 `json:"loss,omitempty"` // uniform packet-loss rate [0,1]
}

// Normalize fills defaults in place. Called once at admission so the
// stored spec, the derived seed, and the scheduler all see the same
// values.
func (s *JobSpec) Normalize() {
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Client == "" {
		s.Client = "us"
	}
	if s.Protocol == "" {
		s.Protocol = "http"
	}
	if s.Repetitions <= 0 {
		s.Repetitions = 3
	}
	if s.Workers <= 0 {
		s.Workers = 1
	}
}

// Validate rejects specs the scheduler could not run. Host existence is
// checked at dispatch time (the world belongs to the scheduler); this is
// the shape-level check admission performs before persisting anything.
func (s *JobSpec) Validate() error {
	switch s.Kind {
	case KindCenTrace, KindCenFuzz:
		if s.Domain == "" {
			return fmt.Errorf("serve: %s job needs a domain", s.Kind)
		}
	case KindCenTraceCampaign, KindCenProbe, KindCenCluster, KindTomography:
		// Tomography scenario names are validated at dispatch time, like
		// host IDs: the scenario catalog belongs to the scheduler's layer.
	default:
		return fmt.Errorf("serve: unknown job kind %q", s.Kind)
	}
	if s.Protocol != "http" && s.Protocol != "https" {
		return fmt.Errorf("serve: unknown protocol %q (want http or https)", s.Protocol)
	}
	if math.IsNaN(s.Loss) || s.Loss < 0 || s.Loss >= 1 {
		return fmt.Errorf("serve: loss %v out of [0,1)", s.Loss)
	}
	return nil
}

// CanonKey renders the measurement-relevant part of a normalized spec as
// a stable string — the label the per-job fault seed is derived from, and
// the result cache key. Tenant and Priority are deliberately excluded:
// who submitted a job and how urgently must not change its result bytes.
// Workers is pinned to 1, not dropped, so keys stay those of workers-1
// specs: the in-job worker count must not change the bytes either, and a
// fault seed keyed on it would.
func (s JobSpec) CanonKey() string {
	c := s
	c.Tenant = ""
	c.Priority = 0
	c.Workers = 1
	raw, err := json.Marshal(c)
	if err != nil {
		// Only a non-finite loss fails to marshal, and Validate rejects
		// one before a spec is admitted, stored or keyed.
		panic(fmt.Sprintf("serve: canonicalizing spec: %v", err))
	}
	return string(raw)
}

// DecodeSpec reads a spec from its JSON form, which is the body of POST
// /v1/jobs, the spec a cluster lease ships and the spec a store record
// carries. A field JobSpec does not have is an error, not ignored: a
// spec written by a newer build must not silently lose a field. So is
// anything but whitespace after the spec object: raw must be one spec,
// not a spec followed by more.
func DecodeSpec(raw []byte) (JobSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return JobSpec{}, errors.New("data after the job spec object")
	}
	return spec, nil
}

// JobState is the lifecycle state of a job.
type JobState string

const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
	// StateDead is the dead-letter state: the job failed transiently and
	// exhausted its retry budget. Dead jobs stay persisted and queryable
	// (GET /v1/jobs?state=dead) so an operator can inspect what the
	// service gave up on.
	StateDead JobState = "dead"
	// StateConflict is the replica-divergence state: two executions of
	// the same spec returned different digests — a determinism violation
	// or a corrupted/lying replica. Conflicted jobs are terminal and
	// never retried: the divergence is already durable and needs an
	// operator, not another roll of the dice.
	StateConflict JobState = "conflict"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateDead || s == StateConflict
}

// listStates are the ?state= filter values GET /v1/jobs accepts, in
// lifecycle order (empty string — no filter — is also accepted).
var listStates = []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateDead, StateConflict}

// validListState reports whether state is usable as a ?state= filter.
func validListState(s JobState) bool {
	if s == "" {
		return true
	}
	for _, v := range listStates {
		if s == v {
			return true
		}
	}
	return false
}

// JobStatus is the body of GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Spec  JobSpec  `json:"spec"`
	// Attempts counts dispatches, including re-runs after a crash
	// recovery.
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
	// Digest is the hex SHA-256 of the result payload, set once done —
	// what replica verification and the CI smoke compare.
	Digest string `json:"digest,omitempty"`
	// Replicas names the cluster nodes holding a durable copy of the
	// payload (empty on standalone nodes).
	Replicas []string `json:"replicas,omitempty"`
}

// jobsResponse is the body of GET /v1/jobs.
type jobsResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

// submitResponse is the body of a successful POST /v1/jobs.
type submitResponse struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
}

// errorResponse is the JSON error body every non-2xx response carries.
type errorResponse struct {
	Error string `json:"error"`
	// RetryAfterSec mirrors the Retry-After header on 429s.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}
