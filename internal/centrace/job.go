package centrace

// Service job entrypoints: the orchestration daemon (internal/serve)
// dispatches measurement jobs described by wire-level specs onto worker-
// owned network clones. The functions here translate a spec into a run
// and distill the rich Result into a canonical, JSON-stable payload —
// fixed field order, no pointers into the topology, no wall-clock values —
// so the same spec and seed marshal to byte-identical bytes regardless of
// queue interleaving or worker count.

import (
	"fmt"

	"cendev/internal/simnet"
	"cendev/internal/topology"
)

// ParseProtocol maps the wire protocol names to Protocol.
func ParseProtocol(s string) (Protocol, error) {
	switch s {
	case "", "http":
		return HTTP, nil
	case "https":
		return HTTPS, nil
	default:
		return HTTP, fmt.Errorf("centrace: unknown protocol %q (want http or https)", s)
	}
}

// JobSpec parameterizes one service-dispatched CenTrace measurement.
type JobSpec struct {
	ControlDomain string
	TestDomain    string
	Protocol      Protocol
	Repetitions   int
}

// JobResult is the canonical payload of one CenTrace job: the analysis
// verdict flattened to plain JSON-stable types.
type JobResult struct {
	Valid           bool    `json:"valid"`
	Blocked         bool    `json:"blocked"`
	TermKind        string  `json:"terminating_response"`
	TermTTL         int     `json:"terminating_ttl"`
	EndpointTTL     int     `json:"endpoint_ttl"`
	Location        string  `json:"location"`
	Placement       string  `json:"placement"`
	DeviceTTL       int     `json:"device_ttl"`
	TTLCorrected    bool    `json:"ttl_copy_corrected"`
	Degraded        bool    `json:"degraded"`
	Confidence      float64 `json:"confidence"`
	BlockingHop     string  `json:"blocking_hop,omitempty"`
	BlockingASN     uint32  `json:"blocking_asn,omitempty"`
	BlockingCountry string  `json:"blocking_country,omitempty"`
	BlockpageVendor string  `json:"blockpage_vendor,omitempty"`
}

// RunJob performs one CenTrace measurement on n and returns the canonical
// payload. The caller owns n (typically a private clone) — the run mutates
// its clock and device state.
func RunJob(n *simnet.Network, client, ep *topology.Host, spec JobSpec) JobResult {
	res := New(n, client, ep, Config{
		ControlDomain: spec.ControlDomain,
		TestDomain:    spec.TestDomain,
		Protocol:      spec.Protocol,
		Repetitions:   spec.Repetitions,
		Obs:           n.Obs(),
	}).Run()
	return canonResult(res)
}

// canonResult flattens a Result into its canonical payload form.
func canonResult(res *Result) JobResult {
	out := JobResult{
		Valid:           res.Valid,
		Blocked:         res.Blocked,
		TermKind:        res.TermKind.String(),
		TermTTL:         res.TermTTL,
		EndpointTTL:     res.EndpointTTL,
		Location:        res.Location.String(),
		Placement:       res.Placement.String(),
		DeviceTTL:       res.DeviceTTL,
		TTLCorrected:    res.TTLCopyCorrected,
		Degraded:        res.Degraded,
		Confidence:      res.Confidence.Score,
		BlockpageVendor: res.BlockpageVendor,
	}
	if res.Blocked && res.BlockingHop.Addr.IsValid() {
		out.BlockingHop = res.BlockingHop.Addr.String()
		out.BlockingASN = res.BlockingHop.ASN
		out.BlockingCountry = res.BlockingHop.Country
	}
	return out
}

// CampaignJobSpec parameterizes one service-dispatched campaign over a
// target list.
type CampaignJobSpec struct {
	ControlDomain string
	Repetitions   int
	Workers       int
	RetryPasses   int
}

// CampaignTargetPayload is one resolved target in a campaign payload.
type CampaignTargetPayload struct {
	Key   string `json:"key"`
	Error string `json:"error,omitempty"`
	JobResult
}

// CampaignJobResult is the canonical payload of a campaign job: one row
// per target in target order, plus the aggregate counts.
type CampaignJobResult struct {
	Targets []CampaignTargetPayload `json:"targets"`
	Blocked int                     `json:"blocked"`
	Failed  int                     `json:"failed"`
}

// RunCampaignJob measures every target on n across spec.Workers clone-
// isolated workers and returns the canonical campaign payload. Rows come
// out in target order with byte-identical content at every worker count
// (the Campaign determinism contract). Each row is filled as its target
// resolves, so no target's full Result outlives its row.
func RunCampaignJob(n *simnet.Network, client *topology.Host, targets []Target, spec CampaignJobSpec) CampaignJobResult {
	out := CampaignJobResult{Targets: make([]CampaignTargetPayload, len(targets))}
	(&Campaign{
		Net:    n,
		Client: client,
		Base: Config{
			ControlDomain: spec.ControlDomain,
			Repetitions:   spec.Repetitions,
			Obs:           n.Obs(),
		},
		Workers:           spec.Workers,
		RetryFailedPasses: spec.RetryPasses,
	}).Each(targets, func(i int, cr CampaignResult) {
		row := CampaignTargetPayload{Key: cr.Target.Key()}
		if cr.Err != nil {
			row.Error = cr.Err.Error()
		}
		if cr.Result != nil {
			row.JobResult = canonResult(cr.Result)
		}
		switch {
		case cr.Failed():
			out.Failed++
		case cr.Result.Blocked:
			out.Blocked++
		}
		out.Targets[i] = row
	})
	return out
}
