// Package ml implements the learning primitives the clustering pipeline
// (§7 of the paper) needs, from scratch on the standard library: CART
// decision trees and random forests with mean-decrease-in-impurity (MDI)
// feature importance, k-fold cross-validation, DBSCAN with k-distance ε
// estimation, Spearman rank correlation with p-values, and median
// imputation. Missing values are represented as NaN throughout.
package ml

import (
	"math"
	"math/rand"
	"sort"
)

// Dataset is a feature matrix with integer class labels. Rows are samples.
type Dataset struct {
	X [][]float64
	Y []int
}

// NumFeatures returns the width of the feature matrix.
func (d *Dataset) NumFeatures() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// treeNode is one node of a CART tree.
type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	// prediction is the majority class at a leaf.
	prediction int
	leaf       bool
}

// Tree is a CART classification tree trained with Gini impurity.
type Tree struct {
	root *treeNode
	// importance accumulates the weighted impurity decrease per feature
	// (unnormalized MDI).
	importance []float64
	minLeaf    int
	maxDepth   int
}

// TreeConfig bounds tree growth.
type TreeConfig struct {
	MaxDepth    int // 0 = unbounded
	MinLeafSize int // minimum samples per leaf; 0 = 1
	// MaxFeatures limits how many features are considered per split
	// (random subspace); 0 = all.
	MaxFeatures int
	// Rng drives feature subsampling; nil = deterministic full scan.
	Rng *rand.Rand
}

// gini computes the Gini impurity of a label multiset. The squared counts
// are summed as integers, so the result does not depend on map order (a
// float sum in map order could differ in its last bits from run to run and
// flip a near-tie split).
func gini(counts map[int]int, total int) float64 {
	if total == 0 {
		return 0
	}
	sq := 0
	for _, c := range counts {
		sq += c * c
	}
	return 1 - float64(sq)/float64(total*total)
}

func countLabels(y []int, idx []int) map[int]int {
	counts := make(map[int]int)
	for _, i := range idx {
		counts[y[i]]++
	}
	return counts
}

func majority(counts map[int]int) int {
	best, bestC := 0, -1
	// Deterministic tie-break by class id.
	keys := make([]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		if counts[k] > bestC {
			best, bestC = k, counts[k]
		}
	}
	return best
}

// FitTree trains a CART tree on the dataset restricted to idx (nil = all
// rows).
func FitTree(d *Dataset, idx []int, cfg TreeConfig) *Tree {
	if idx == nil {
		idx = make([]int, len(d.X))
		for i := range idx {
			idx[i] = i
		}
	}
	t := &Tree{
		importance: make([]float64, d.NumFeatures()),
		minLeaf:    max(1, cfg.MinLeafSize),
		maxDepth:   cfg.MaxDepth,
	}
	t.root = t.grow(d, idx, 0, cfg)
	return t
}

// grow recursively builds the tree.
func (t *Tree) grow(d *Dataset, idx []int, depth int, cfg TreeConfig) *treeNode {
	counts := countLabels(d.Y, idx)
	node := &treeNode{prediction: majority(counts), leaf: true}
	if len(counts) <= 1 || len(idx) < 2*t.minLeaf {
		return node
	}
	if t.maxDepth > 0 && depth >= t.maxDepth {
		return node
	}
	feat, thresh, gain, ok := t.bestSplit(d, idx, counts, cfg)
	if !ok || gain <= 1e-12 {
		return node
	}
	var left, right []int
	for _, i := range idx {
		if val := d.X[i][feat]; !math.IsNaN(val) && val <= thresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < t.minLeaf || len(right) < t.minLeaf {
		return node
	}
	t.importance[feat] += gain * float64(len(idx))
	node.leaf = false
	node.feature = feat
	node.threshold = thresh
	node.left = t.grow(d, left, depth+1, cfg)
	node.right = t.grow(d, right, depth+1, cfg)
	return node
}

// bestSplit scans candidate features for the best Gini gain.
func (t *Tree) bestSplit(d *Dataset, idx []int, parentCounts map[int]int, cfg TreeConfig) (feat int, thresh, gain float64, ok bool) {
	n := len(idx)
	parentGini := gini(parentCounts, n)
	features := t.candidateFeatures(d.NumFeatures(), cfg)
	bestGain := 0.0
	for _, f := range features {
		// Sort sample indices by feature value (NaN treated as +inf so
		// missing values fall to the right branch).
		order := append([]int(nil), idx...)
		sort.Slice(order, func(a, b int) bool {
			va, vb := d.X[order[a]][f], d.X[order[b]][f]
			if math.IsNaN(va) {
				return false
			}
			if math.IsNaN(vb) {
				return true
			}
			return va < vb
		})
		leftCounts := make(map[int]int)
		rightCounts := make(map[int]int)
		for k, v := range countLabels(d.Y, idx) {
			rightCounts[k] = v
		}
		for i := 0; i < n-1; i++ {
			y := d.Y[order[i]]
			leftCounts[y]++
			rightCounts[y]--
			va, vb := d.X[order[i]][f], d.X[order[i+1]][f]
			if math.IsNaN(va) || math.IsNaN(vb) || va == vb {
				continue
			}
			nl, nr := i+1, n-i-1
			g := parentGini -
				(float64(nl)/float64(n))*gini(leftCounts, nl) -
				(float64(nr)/float64(n))*gini(rightCounts, nr)
			if g > bestGain {
				bestGain = g
				feat = f
				thresh = (va + vb) / 2
				ok = true
			}
		}
	}
	return feat, thresh, bestGain, ok
}

// candidateFeatures selects the feature subset for a split.
func (t *Tree) candidateFeatures(total int, cfg TreeConfig) []int {
	all := make([]int, total)
	for i := range all {
		all[i] = i
	}
	if cfg.MaxFeatures <= 0 || cfg.MaxFeatures >= total || cfg.Rng == nil {
		return all
	}
	cfg.Rng.Shuffle(total, func(i, j int) { all[i], all[j] = all[j], all[i] })
	sub := all[:cfg.MaxFeatures]
	sort.Ints(sub)
	return sub
}

// Predict classifies one sample.
func (t *Tree) Predict(x []float64) int {
	node := t.root
	for !node.leaf {
		v := x[node.feature]
		if !math.IsNaN(v) && v <= node.threshold {
			node = node.left
		} else {
			node = node.right
		}
	}
	return node.prediction
}

// Importance returns the tree's normalized MDI per feature (sums to 1
// when any split occurred).
func (t *Tree) Importance() []float64 {
	out := make([]float64, len(t.importance))
	total := 0.0
	for _, v := range t.importance {
		total += v
	}
	if total == 0 {
		return out
	}
	for i, v := range t.importance {
		out[i] = v / total
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
