package serve

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cendev/internal/vfs"
	"cendev/internal/wire"
)

// FuzzStoreReplay feeds arbitrary bytes to the sharded store's segment
// reader as pre-existing shard files — the same bytes installed both as
// an active shard and as a segment beyond the shard count, which is
// replayed but never appended to. OpenStore must never panic or fail,
// and its crash-recovery contract must hold: after the first open
// repairs the segments (truncating any torn tail), a second open of the
// same directory rebuilds exactly the same merged index and finds
// nothing left to repair.
//
// The same bytes then seed a chaos filesystem, with a fuzz-chosen fault
// schedule (one hard failure, one torn write) layered on top of a live
// append workload: whatever the faults do, every append the store
// acknowledged must survive the crash+reboot that follows.
func FuzzStoreReplay(f *testing.F) {
	f.Add([]byte(nil), int64(1), uint8(0), uint8(0))
	f.Add([]byte(`{"seq":1,"id":"j-00000001","state":"queued","spec":{"kind":"centrace"}}`+"\n"), int64(2), uint8(0), uint8(0))
	f.Add([]byte(`{"seq":1,"id":"j-1","state":"queued"}`+"\n"+`{"seq":2,"id":"j-1","state":"done"}`+"\n"), int64(3), uint8(5), uint8(0))
	f.Add([]byte(`{"seq":1,"id":"j-1","state":"queued"}`+"\n"+`{"seq":2,"id":"j-1","st`), int64(4), uint8(0), uint8(9)) // torn tail
	f.Add([]byte("garbage\n"+`{"seq":3,"id":"j-2","state":"running"}`+"\n"), int64(5), uint8(7), uint8(12))
	f.Add([]byte(`{"seq":9,"merged":12,"id":"j-3","state":"done","payload":{"x":1}}`+"\n"), int64(6), uint8(3), uint8(3))
	// Binary seeds: a clean frame, a torn second frame, interior garbage.
	recA := encodeRecord(f, &storeRecord{Seq: 1, ID: "j-00000001", State: StateQueued})
	recB := encodeRecord(f, &storeRecord{Seq: 2, ID: "j-00000001", State: StateDone})
	frameA := wire.AppendFrame(nil, recA)
	frameB := wire.AppendFrame(nil, recB)
	f.Add(append([]byte(nil), frameA...), int64(7), uint8(0), uint8(0))
	f.Add(append(append([]byte(nil), frameA...), frameB[:len(frameB)/2]...), int64(8), uint8(0), uint8(7))
	f.Add(append(append(append([]byte(nil), frameA...), "mid-file damage"...), frameB...), int64(9), uint8(5), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, seed int64, failA, failB uint8) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "shard-02.bin"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "shard-01.bin"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenStore(dir, 2)
		if err != nil {
			t.Fatalf("OpenStore: %v", err)
		}
		n := s.Len()
		pending := s.Pending()
		if err := s.Close(); err != nil {
			t.Fatalf("Close after replay: %v", err)
		}

		s2, err := OpenStore(dir, 2)
		if err != nil {
			t.Fatalf("second open of repaired store failed: %v", err)
		}
		defer s2.Close()
		if s2.Len() != n {
			t.Fatalf("repaired store replay diverged: %d jobs then %d", n, s2.Len())
		}
		pending2 := s2.Pending()
		if len(pending2) != len(pending) {
			t.Fatalf("pending set diverged: %d then %d", len(pending), len(pending2))
		}
		for i := range pending {
			if pending[i].ID != pending2[i].ID || pending[i].State != pending2[i].State {
				t.Fatalf("pending[%d] diverged: %+v then %+v", i, pending[i], pending2[i])
			}
		}
		for _, w := range s2.Warnings() {
			if strings.Contains(w, "truncated torn tail") {
				t.Fatalf("first open left a torn tail for the second to repair: %s", w)
			}
		}

		// Chaos phase: same pre-existing bytes, fuzz-chosen faults, live
		// appends, then a crash. Acknowledged means durable.
		c := vfs.NewChaos(seed)
		c.Install("store/shard-02.bin", data)
		c.Install("store/shard-01.bin", data)
		if failA > 0 {
			c.FailOp(int(failA), vfs.ErrIO)
		}
		if failB > 0 {
			c.ShortWriteOp(int(failB))
		}
		acked := map[string]JobState{}
		if st, err := OpenStoreFS(c, "store", 2); err == nil {
			for i := 0; i < 3; i++ {
				if e, err := st.AppendQueued(matrixSpec(i)); err == nil {
					acked[e.ID] = StateQueued
				}
			}
			var ids []string
			for id := range acked {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			if len(ids) > 0 {
				if err := st.UpdateState(ids[0], StateDone, 1, "", nil); err == nil {
					acked[ids[0]] = StateDone
				}
			}
			st.Close()
		}
		c.Crash()
		c.Reboot()
		st2, err := OpenStoreFS(c, "store", 2)
		if err != nil {
			if len(acked) > 0 {
				t.Fatalf("post-crash open failed with %d acknowledged jobs at stake: %v", len(acked), err)
			}
			return
		}
		defer st2.Close()
		for id, state := range acked {
			e, ok := st2.Get(id)
			if !ok {
				t.Fatalf("acknowledged job %s lost after chaos crash (seed=%d failA=%d failB=%d)", id, seed, failA, failB)
			}
			if stateRank(e.State) < stateRank(state) {
				t.Fatalf("job %s recovered as %s, behind its acknowledged %s", id, e.State, state)
			}
		}
	})
}
