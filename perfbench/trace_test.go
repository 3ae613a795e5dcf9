package main

import (
	"testing"
	"time"
)

// TestSelfTimesOverlappingChildren: a parent's self time subtracts the
// union of its children, clipped to the parent; overlapping children
// count once and the part of a child outside the parent not at all.
func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "child", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "child", Start: 90, End: 120},
		{ID: 6, Parent: 4, Name: "grandchild", Start: 62, End: 64},
	}
	got := selfTimes(spans)
	// Children cover [10,50) + [60,70) + [90,100) = 60 of the parent's 100.
	want := map[string]int64{"parent": 40, "child": 20 + 30 + (10 - 2) + 30, "grandchild": 2}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

// TestResolveJoinsExecutionsBySeed: executor spans join the job with the
// same spec seed, and the queue and done_to_seen spans run from the
// acknowledgement to the first execution and from the last execution to
// the client seeing done.
func TestResolveJoinsExecutionsBySeed(t *testing.T) {
	r := newRecorder()
	at := func(ms int) time.Time { return r.t0.Add(time.Duration(ms) * time.Millisecond) }
	job := r.newID()
	r.record(spanExec, at(5), at(9), 0, 0, "", 42)
	r.record(spanExec, at(6), at(12), 0, 0, "", 42)
	r.record(spanExec, at(1), at(2), 0, 0, "", 7) // no client saw seed 7
	r.verified(42, "j-1", job, at(3), at(15))
	spans, _ := r.resolve()
	found := map[string]span{}
	for _, s := range spans {
		if s.Job == "j-1" {
			if s.Parent != job {
				t.Errorf("%s span parent = %d, want job span %d", s.Name, s.Parent, job)
			}
			found[s.Name] = s
		}
	}
	ms := int64(time.Millisecond)
	if q := found[spanQueue]; q.Start != 3*ms || q.End != 5*ms {
		t.Errorf("queue span = [%d, %d), want [3ms, 5ms)", q.Start, q.End)
	}
	if d := found[spanDoneToSeen]; d.Start != 12*ms || d.End != 15*ms {
		t.Errorf("done_to_seen span = [%d, %d), want [12ms, 15ms)", d.Start, d.End)
	}
}
