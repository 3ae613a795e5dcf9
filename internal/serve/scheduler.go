package serve

import (
	"encoding/json"
	"fmt"

	"cendev/internal/cenfuzz"
	"cendev/internal/cenprobe"
	"cendev/internal/centrace"
	"cendev/internal/experiments"
	"cendev/internal/faults"
	"cendev/internal/obs"
	"cendev/internal/simnet"
	"cendev/internal/topology"
)

// Scheduler turns admitted job specs into measurement runs. It owns one
// canonical base world, built once at startup; every job runs on a
// private clone of that world, rewound to the same origin state, with a
// fault engine seeded from the spec alone — the mechanism behind the
// service determinism contract (two submissions of one spec produce
// byte-identical payloads no matter how the queue interleaves them
// across workers).
type Scheduler struct {
	world *experiments.Scenario
	// cloneMu serializes base-network clones. Network.Clone writes a few
	// fields of its source (it freezes the geo registry and marks the
	// graph shape, route caches and host index as shared), so clones of
	// one base must not overlap. A clone copies only per-clone state —
	// device flow state, device indexes, the withdrawn-link set — and
	// shares the rest, so the lock is held for tens of microseconds.
	cloneMu chan struct{}
	obs     *obs.Registry
}

// NewScheduler builds the canonical world. The registry, when non-nil,
// receives the aggregated measurement series of every job (clones share
// it), alongside the service's own series.
func NewScheduler(reg *obs.Registry) *Scheduler {
	w := experiments.BuildWorld()
	w.Net.SetObs(reg)
	// Freeze the geo registry before any concurrency exists, so later
	// clones taken by concurrent jobs only ever read it.
	w.Net.Geo.Freeze()
	s := &Scheduler{world: w, cloneMu: make(chan struct{}, 1), obs: reg}
	s.cloneMu <- struct{}{}
	return s
}

// clone takes a private copy of the base world's network.
func (s *Scheduler) clone() *simnet.Network {
	<-s.cloneMu
	defer func() { s.cloneMu <- struct{}{} }()
	return s.world.Net.Clone()
}

// client resolves a vantage-point name against the base world. Host
// pointers from the base graph are valid against clones: measurement code
// resolves hops by address, exactly as campaigns already do.
func (s *Scheduler) client(name string) (*topology.Host, error) {
	if name == "us" {
		return s.world.USClient, nil
	}
	if h := s.world.InCountryClients[name]; h != nil {
		return h, nil
	}
	return nil, fmt.Errorf("serve: unknown client %q (have us, AZ, KZ, RU)", name)
}

// endpoint resolves an endpoint host ID, falling back to the domain's
// origin server when the ID is empty.
func (s *Scheduler) endpoint(id, domain string) (*topology.Host, error) {
	for _, e := range s.world.Endpoints {
		if e.Host.ID == id {
			return e.Host, nil
		}
	}
	if id == "" {
		if h := s.world.Origins[domain]; h != nil {
			return h, nil
		}
		return nil, fmt.Errorf("serve: no origin for domain %q and no endpoint given", domain)
	}
	return nil, fmt.Errorf("serve: unknown endpoint %q", id)
}

// Run executes one job and returns its canonical payload. The spec must
// be normalized. Payload bytes are a pure function of the spec.
func (s *Scheduler) Run(spec JobSpec) (json.RawMessage, error) {
	switch spec.Kind {
	case KindCenTrace:
		return s.runCenTrace(spec)
	case KindCenTraceCampaign:
		return s.runCampaign(spec)
	case KindCenFuzz:
		return s.runCenFuzz(spec)
	case KindCenProbe:
		return s.runCenProbe(spec)
	case KindCenCluster:
		return s.runCenCluster(spec)
	case KindTomography:
		return s.runTomography(spec)
	default:
		return nil, fmt.Errorf("serve: unknown job kind %q", spec.Kind)
	}
}

// jobNet clones the base network and installs the spec's fault profile
// behind a seed derived from the spec's measurement-relevant content, so
// fault realizations are identical for identical specs. The job flushes
// the clone's metric tallies (FlushObs) as it drops it, so its series are
// in the registry before it reads done.
func (s *Scheduler) jobNet(spec JobSpec) *simnet.Network {
	n := s.clone()
	if spec.Loss > 0 {
		seed := faults.DeriveSeed(spec.Seed, spec.CanonKey())
		n.SetFaults(faults.NewEngine(seed).AddGlobal(faults.UniformLoss(spec.Loss)))
	}
	return n
}

func marshalPayload(v any) (json.RawMessage, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("serve: marshal payload: %w", err)
	}
	return raw, nil
}

func (s *Scheduler) runCenTrace(spec JobSpec) (json.RawMessage, error) {
	client, err := s.client(spec.Client)
	if err != nil {
		return nil, err
	}
	ep, err := s.endpoint(spec.Endpoint, spec.Domain)
	if err != nil {
		return nil, err
	}
	proto, err := centrace.ParseProtocol(spec.Protocol)
	if err != nil {
		return nil, err
	}
	n := s.jobNet(spec)
	defer n.FlushObs()
	res := centrace.RunJob(n, client, ep, centrace.JobSpec{
		ControlDomain: controlOr(spec.Control),
		TestDomain:    spec.Domain,
		Protocol:      proto,
		Repetitions:   spec.Repetitions,
	})
	return marshalPayload(res)
}

func (s *Scheduler) runCampaign(spec JobSpec) (json.RawMessage, error) {
	client, err := s.client(spec.Client)
	if err != nil {
		return nil, err
	}
	n := s.jobNet(spec)
	defer n.FlushObs()
	res := centrace.RunCampaignJob(n, client, s.world.CampaignTargets(), centrace.CampaignJobSpec{
		ControlDomain: controlOr(spec.Control),
		Repetitions:   spec.Repetitions,
		Workers:       spec.Workers,
		RetryPasses:   spec.RetryPasses,
	})
	return marshalPayload(res)
}

func (s *Scheduler) runCenFuzz(spec JobSpec) (json.RawMessage, error) {
	client, err := s.client(spec.Client)
	if err != nil {
		return nil, err
	}
	ep, err := s.endpoint(spec.Endpoint, spec.Domain)
	if err != nil {
		return nil, err
	}
	n := s.jobNet(spec)
	defer n.FlushObs()
	res, err := cenfuzz.RunJob(n, client, ep, cenfuzz.JobSpec{
		TestDomain:    spec.Domain,
		ControlDomain: controlOr(spec.Control),
		Strategy:      spec.Strategy,
		Extensions:    spec.Extensions,
		Workers:       spec.Workers,
	})
	if err != nil {
		return nil, err
	}
	return marshalPayload(res)
}

func (s *Scheduler) runCenProbe(spec JobSpec) (json.RawMessage, error) {
	addrs, err := cenprobe.ParseAddrs(spec.Addrs)
	if err != nil {
		return nil, err
	}
	if len(addrs) == 0 {
		// Default sweep: every censorship device's management address in
		// deployment order (ProbeAllOpt sorts, so order here is cosmetic).
		for _, d := range s.world.Devices {
			addrs = append(addrs, d.Device.Addr)
		}
	}
	n := s.jobNet(spec)
	defer n.FlushObs()
	res := cenprobe.RunJob(n, cenprobe.JobSpec{Addrs: addrs, Workers: spec.Workers})
	return marshalPayload(res)
}

// runCenCluster runs the full §7 study. BuildCorpus constructs its own
// world, so this kind ignores the fault profile; it is the heaviest job
// the service dispatches.
func (s *Scheduler) runCenCluster(spec JobSpec) (json.RawMessage, error) {
	c := experiments.BuildCorpus(experiments.CorpusConfig{
		Repetitions: spec.Repetitions,
		Workers:     spec.Workers,
		Obs:         s.obs,
	})
	topk := spec.TopK
	if topk <= 0 {
		topk = 10
	}
	minpts := spec.MinPts
	if minpts <= 0 {
		minpts = 2
	}
	res := experiments.Fig6(c, experiments.Fig6Config{TopK: topk, MinPts: minpts, Workers: spec.Workers})
	type clusterPayload struct {
		Observations int    `json:"observations"`
		Rendered     string `json:"rendered"`
	}
	return marshalPayload(clusterPayload{
		Observations: len(c.Observations()),
		Rendered:     experiments.RenderFig6(res),
	})
}

// runTomography runs the churn-tomography cross-validation study — all
// scenarios, or the one spec.Scenario names. Like cencluster, the study
// builds its own scenario worlds, so the base-world clone and fault
// profile are not used; the payload is a pure function of the spec.
func (s *Scheduler) runTomography(spec JobSpec) (json.RawMessage, error) {
	var names []string
	if spec.Scenario != "" {
		names = []string{spec.Scenario}
	}
	cv, err := experiments.CrossValidateNamed(names, experiments.CrossValConfig{
		Workers:     spec.Workers,
		Repetitions: spec.Repetitions,
		Obs:         s.obs,
	})
	if err != nil {
		return nil, err
	}
	type tomographyPayload struct {
		Cells       []experiments.CrossValCell `json:"cells"`
		Comparable  int                        `json:"comparable"`
		Agreements  int                        `json:"agreements"`
		AgreementOK bool                       `json:"agreement_ok"`
		Rendered    string                     `json:"rendered"`
	}
	return marshalPayload(tomographyPayload{
		Cells:       cv.Cells,
		Comparable:  cv.Comparable,
		Agreements:  cv.Agreements,
		AgreementOK: cv.OK(),
		Rendered:    experiments.RenderCrossValidation(cv),
	})
}

// controlOr defaults the control domain.
func controlOr(c string) string {
	if c == "" {
		return experiments.ControlDomain
	}
	return c
}
