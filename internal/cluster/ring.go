package cluster

import (
	"fmt"
	"sort"
)

// Ring is a consistent-hash ring with virtual nodes: each physical node
// projects virtualNodes points onto the 64-bit hash circle, and a key
// is owned by the first R distinct nodes clockwise from its hash. The
// ring is immutable after construction — membership is configuration,
// not gossip — so placement is a pure function of (members, key) and
// every caller computes identical owner sets.
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  []string    // sorted member names
}

type ringPoint struct {
	hash uint64
	node string
}

// virtualNodes is the per-node point count. 64 points per node keeps the
// max/min load ratio under ~1.3 for small clusters without making ring
// construction measurable.
const virtualNodes = 64

// NewRing builds a ring over the given node names.
func NewRing(nodes []string) *Ring {
	r := &Ring{nodes: append([]string(nil), nodes...)}
	sort.Strings(r.nodes)
	r.points = make([]ringPoint, 0, len(r.nodes)*virtualNodes)
	for _, n := range r.nodes {
		for i := 0; i < virtualNodes; i++ {
			r.points = append(r.points, ringPoint{hash: hashKey(fmt.Sprintf("%s/%d", n, i)), node: n})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	return r
}

// Nodes returns the sorted member names.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Owners returns the first n distinct nodes clockwise from key's hash —
// the replica set for that key. n is clamped to the member count.
func (r *Ring) Owners(key string, n int) []string {
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	if n <= 0 || len(r.points) == 0 {
		return nil
	}
	start := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= hashKey(key)
	})
	owners := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; len(owners) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			owners = append(owners, p.node)
		}
	}
	return owners
}
