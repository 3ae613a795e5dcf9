package serve

// Binary form of one store record (DESIGN.md §14): the frame payload a
// shard append writes through internal/wire. The leading version byte
// gates schema evolution; every field after it is fixed-order. The spec
// rides as the JSON the API accepts (DecodeSpec), so a new spec field
// needs only its JSON tag. The JSON shape of the whole record survives
// only as the export/debug view (Store.ExportJSON).

import (
	"encoding/json"
	"fmt"

	"cendev/internal/wire"
)

// storeRecordV4 is the one store record version the store writes and
// reads. Version 4 carries the spec as JSON; versions 2 and 3 carried it
// in a binary codec of its own, and version 1 was a JSON line.
const storeRecordV4 = 4

// appendStoreRecord appends the binary payload of rec to b. It fails,
// returning b unchanged, only when the spec cannot be encoded as JSON.
func appendStoreRecord(b []byte, rec *storeRecord) ([]byte, error) {
	var spec []byte
	if rec.Spec != nil {
		var err error
		if spec, err = json.Marshal(rec.Spec); err != nil {
			return b, fmt.Errorf("serve: encoding spec of %s: %w", rec.ID, err)
		}
	}
	b = append(b, storeRecordV4)
	b = wire.AppendVarint(b, rec.Seq)
	b = wire.AppendVarint(b, rec.Merged)
	b = wire.AppendString(b, rec.ID)
	b = wire.AppendString(b, string(rec.State))
	b = wire.AppendBytes(b, spec)
	b = wire.AppendVarint(b, int64(rec.Attempts))
	b = wire.AppendString(b, rec.Error)
	b = wire.AppendBytes(b, rec.Payload)
	b = wire.AppendString(b, rec.Digest)
	b = wire.AppendUvarint(b, uint64(len(rec.Replicas)))
	for _, r := range rec.Replicas {
		b = wire.AppendString(b, r)
	}
	return b, nil
}

// decodeStoreRecord decodes one binary record payload.
func decodeStoreRecord(payload []byte) (*storeRecord, error) {
	d := wire.NewDec(payload)
	if v := d.Byte(); v != storeRecordV4 {
		if d.Err() == nil {
			return nil, fmt.Errorf("serve: unknown store record version %d", v)
		}
		return nil, d.Err()
	}
	rec := &storeRecord{}
	rec.Seq = d.Varint()
	rec.Merged = d.Varint()
	rec.ID = d.String()
	rec.State = JobState(d.String())
	spec := d.Bytes()
	rec.Attempts = int(d.Varint())
	rec.Error = d.String()
	rec.Payload = d.Bytes()
	rec.Digest = d.String()
	if n := d.Count(); n > 0 && d.Err() == nil {
		rec.Replicas = make([]string, 0, n)
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			rec.Replicas = append(rec.Replicas, d.String())
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if spec != nil {
		s, err := DecodeSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("serve: decoding spec of %s: %w", rec.ID, err)
		}
		rec.Spec = &s
	}
	return rec, nil
}
