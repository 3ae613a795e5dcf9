package wire

// Cluster frame payloads (DESIGN.md §15): the three record kinds the
// coordinator/worker protocol moves over HTTP bodies as single wire
// frames. Like the store and journal records, each payload leads with a
// version byte and every field after it is fixed-order; the codecs are
// hand-written append/decode pairs over the package primitives so
// encoding stays a pure allocation-light function of the record.
//
// The payloads deliberately know nothing about job specs or stores:
// JobLease carries the spec as opaque bytes (the coordinator ships the
// normalized JSON spec it persisted), and Completion carries the result
// payload as opaque bytes plus its SHA-256 hex digest — the unit of
// replica verification.

import "fmt"

// JobLease is the body of a successful GET /v1/cluster/pull: one replica
// execution granted to one worker node.
type JobLease struct {
	// ID is the coordinator-global job ID.
	ID string
	// Node is the worker the lease is granted to.
	Node string
	// Owner is the ring owner whose replica slot this execution fills —
	// equal to Node except for stolen leases.
	Owner string
	// Attempt counts executions of this replica slot, starting at 1.
	Attempt int64
	// Spec is the normalized job spec as JSON, seed included, which is
	// how the API accepts it and the store persists it.
	Spec []byte
}

// Completion is the body of POST /v1/cluster/complete and of
// /v1/cluster/repair pushes: one executed (or replicated) result record
// plus its digest. Error-only completions carry no payload.
type Completion struct {
	ID      string
	Node    string
	Attempt int64
	// Transient marks an error as retryable (serve.IsTransient on the
	// worker side); the coordinator re-leases transient failures and
	// finalizes permanent ones immediately.
	Transient bool
	Error     string
	// Digest is the lowercase hex SHA-256 of Payload; empty on error
	// completions.
	Digest  string
	Payload []byte
}

// DigestRange is one anti-entropy bucket summary: the rolled-up digest
// of every (job ID, result digest) pair a node holds whose key hash
// falls in [Start, End].
type DigestRange struct {
	Start uint64
	End   uint64
	Count int64
	// Digest is the lowercase hex SHA-256 over the sorted
	// "id=digest\n" lines of the bucket; empty when Count is 0.
	Digest string
}

// Version bytes for the cluster payloads. Each kind evolves
// independently. Lease version 2 dropped version 1's seed, which the
// spec already carries.
const (
	JobLeaseV2    = 2
	CompletionV1  = 1
	DigestRangeV1 = 1
)

// AppendJobLease appends the binary payload of l to b.
func AppendJobLease(b []byte, l *JobLease) []byte {
	b = append(b, JobLeaseV2)
	b = AppendString(b, l.ID)
	b = AppendString(b, l.Node)
	b = AppendString(b, l.Owner)
	b = AppendVarint(b, l.Attempt)
	return AppendBytes(b, l.Spec)
}

// DecodeJobLease decodes one lease payload.
func DecodeJobLease(payload []byte) (*JobLease, error) {
	d := NewDec(payload)
	if v := d.Byte(); v != JobLeaseV2 {
		if d.Err() == nil {
			return nil, fmt.Errorf("wire: unknown job lease version %d", v)
		}
		return nil, d.Err()
	}
	l := &JobLease{}
	l.ID = d.String()
	l.Node = d.String()
	l.Owner = d.String()
	l.Attempt = d.Varint()
	l.Spec = d.Bytes()
	if err := d.Err(); err != nil {
		return nil, err
	}
	return l, nil
}

// AppendCompletion appends the binary payload of c to b.
func AppendCompletion(b []byte, c *Completion) []byte {
	b = append(b, CompletionV1)
	b = AppendString(b, c.ID)
	b = AppendString(b, c.Node)
	b = AppendVarint(b, c.Attempt)
	b = AppendBool(b, c.Transient)
	b = AppendString(b, c.Error)
	b = AppendString(b, c.Digest)
	return AppendBytes(b, c.Payload)
}

// DecodeCompletion decodes one completion payload.
func DecodeCompletion(payload []byte) (*Completion, error) {
	d := NewDec(payload)
	if v := d.Byte(); v != CompletionV1 {
		if d.Err() == nil {
			return nil, fmt.Errorf("wire: unknown completion version %d", v)
		}
		return nil, d.Err()
	}
	c := &Completion{}
	c.ID = d.String()
	c.Node = d.String()
	c.Attempt = d.Varint()
	c.Transient = d.Bool()
	c.Error = d.String()
	c.Digest = d.String()
	c.Payload = d.Bytes()
	if err := d.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// AppendDigestRange appends the binary payload of r to b.
func AppendDigestRange(b []byte, r *DigestRange) []byte {
	b = append(b, DigestRangeV1)
	b = AppendUvarint(b, r.Start)
	b = AppendUvarint(b, r.End)
	b = AppendVarint(b, r.Count)
	return AppendString(b, r.Digest)
}

// DecodeDigestRange decodes one digest-range payload.
func DecodeDigestRange(payload []byte) (*DigestRange, error) {
	d := NewDec(payload)
	if v := d.Byte(); v != DigestRangeV1 {
		if d.Err() == nil {
			return nil, fmt.Errorf("wire: unknown digest range version %d", v)
		}
		return nil, d.Err()
	}
	r := &DigestRange{}
	r.Start = d.Uvarint()
	r.End = d.Uvarint()
	r.Count = d.Varint()
	r.Digest = d.String()
	if err := d.Err(); err != nil {
		return nil, err
	}
	return r, nil
}
