//lintest:importpath cendev/internal/obs

// Package det exercises maprange inside a deterministic package path:
// map iteration feeding ordered output (appends left unsorted, stream
// writes, string building) is a finding; order-insensitive bodies and
// the collect-keys-then-sort idiom are not.
package det

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

func badAppendUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "appends to keys, which is never sorted"
	}
	return keys
}

func okAppendSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func okAppendSortSlice(m map[string]int) []int {
	var vals []int
	for _, v := range m {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

func badFprintf(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s %d\n", k, v) // want "map iteration calls fmt.Fprintf"
	}
}

func badEncoder(w io.Writer, m map[string]int) {
	enc := json.NewEncoder(w)
	for k := range m {
		enc.Encode(k) // want "map iteration calls Encode"
	}
}

func badBuilder(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k) // want "map iteration calls WriteString"
	}
	return b.String()
}

func badConcat(m map[string]int) string {
	out := ""
	for k := range m {
		out += k // want "concatenates onto out"
	}
	return out
}

func okCounting(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum += v // integer accumulation is order-insensitive
	}
	return sum
}

func okIntegerOps(m map[string]int) (int, int) {
	diff, prod := 0, 1
	for _, v := range m {
		diff -= v
		prod *= v
	}
	return diff, prod
}

func badFloatSum(m map[int]int, total int) float64 {
	sum := 0.0
	for _, c := range m {
		p := float64(c) / float64(total)
		sum += p * p // want "accumulates onto sum with \\+="
	}
	return 1 - sum
}

func badFloatOps(m map[string]float64) (float64, float64, float32) {
	var diff, prod float64 = 0, 1
	var ratio float32 = 1
	for _, v := range m {
		diff -= v           // want "accumulates onto diff with -="
		prod *= v           // want "accumulates onto prod with \\*="
		ratio /= float32(v) // want "accumulates onto ratio with /="
	}
	return diff, prod, ratio
}

func okFloatSortedKeys(m map[int]int, total int) float64 {
	labels := make([]int, 0, len(m))
	for k := range m {
		labels = append(labels, k)
	}
	sort.Ints(labels)
	sum := 0.0
	for _, k := range labels {
		p := float64(m[k]) / float64(total)
		sum += p * p // slice order is fixed once sorted; no finding
	}
	return sum
}

func okFloatLocal(m map[string]float64) map[string]float64 {
	scaled := make(map[string]float64, len(m))
	for k, v := range m {
		x := v
		x *= 2 // a per-iteration local cannot carry order out of the loop
		scaled[k] = x
	}
	return scaled
}

func okMapToMap(m map[string]int) map[string]int {
	inverted := make(map[string]int, len(m))
	for k, v := range m {
		inverted[k] = v * 2
	}
	return inverted
}

func okSliceRange(xs []string, w io.Writer) {
	for _, x := range xs {
		fmt.Fprintln(w, x) // slices iterate in index order; no finding
	}
}

func okVolatile(w io.Writer, m map[string]int) {
	for k := range m {
		fmt.Fprintln(w, k) //cenlint:volatile fixture: debug dump read by humans, order irrelevant
	}
}

func badBareDirective(w io.Writer, m map[string]int) {
	for k := range m {
		fmt.Fprintln(w, k) /* want "justification" */ //cenlint:volatile
	}
}
