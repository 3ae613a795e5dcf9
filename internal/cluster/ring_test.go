package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

// TestRingOwnersDeterministic: placement is a pure function of
// (members, key) — two independently built rings agree on every owner
// set, owners are distinct, and replication clamps to the member count.
func TestRingOwnersDeterministic(t *testing.T) {
	nodes := []string{"w3", "w1", "w2"} // construction order must not matter
	a := NewRing(nodes)
	b := NewRing([]string{"w1", "w2", "w3"})
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("j-%08d", i)
		oa, ob := a.Owners(key, 2), b.Owners(key, 2)
		if !reflect.DeepEqual(oa, ob) {
			t.Fatalf("key %s: owner sets diverged: %v vs %v", key, oa, ob)
		}
		if len(oa) != 2 || oa[0] == oa[1] {
			t.Fatalf("key %s: owners %v not 2 distinct nodes", key, oa)
		}
	}
	if got := a.Owners("j-1", 9); len(got) != 3 {
		t.Fatalf("replication beyond membership: %v, want all 3 nodes", got)
	}
}

// TestRingBalance: virtual nodes keep primary-owner load roughly even —
// no node should own more than ~2× its fair share of keys.
func TestRingBalance(t *testing.T) {
	r := NewRing([]string{"w1", "w2", "w3", "w4"})
	counts := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[r.Owners(fmt.Sprintf("j-%08d", i), 1)[0]]++
	}
	fair := keys / 4
	for n, c := range counts {
		if c > 2*fair || c < fair/2 {
			t.Errorf("node %s owns %d of %d keys (fair share %d): ring unbalanced", n, c, keys, fair)
		}
	}
}

// TestRingStability: removing one node only moves keys that the removed
// node owned — consistent hashing's defining property.
func TestRingStability(t *testing.T) {
	before := NewRing([]string{"w1", "w2", "w3"})
	after := NewRing([]string{"w1", "w3"})
	moved, total := 0, 2000
	for i := 0; i < total; i++ {
		key := fmt.Sprintf("j-%08d", i)
		ob, oa := before.Owners(key, 1)[0], after.Owners(key, 1)[0]
		if ob != oa {
			moved++
			if ob != "w2" {
				t.Fatalf("key %s moved from surviving node %s to %s", key, ob, oa)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no keys moved; w2 owned some of 2000 keys")
	}
}
