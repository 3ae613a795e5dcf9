package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"
)

func testCatalog() *catalog {
	return &catalog{
		endpoints: []target{
			{id: "ep-a", domains: []string{"a.example", "b.example"}},
			{id: "ep-b", domains: []string{"c.example"}},
			{id: "ep-c", domains: []string{"d.example", "e.example", "f.example"}},
		},
		devices:    []string{"198.51.100.1", "198.51.100.2", "198.51.100.3", "198.51.100.4"},
		strategies: []string{"Normal", "Host Word Rem.", "Get Word Alt."},
		scenarios:  []string{"two-vantage-exact", "diamond-ecmp"},
	}
}

func specBytes(t *testing.T, cat *catalog, wl workload, seed int64, n int) []byte {
	t.Helper()
	g := newGenerator(cat, wl, seed)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < n; i++ {
		if err := enc.Encode(g.next()); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestGeneratorIsPureFunctionOfSeed: the same seed yields byte-identical
// specs, another seed different ones, and cluster-light sends exactly
// light-mix's specs.
func TestGeneratorIsPureFunctionOfSeed(t *testing.T) {
	cat := testCatalog()
	for _, wl := range workloads {
		a, b := specBytes(t, cat, wl, 7, 200), specBytes(t, cat, wl, 7, 200)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave different specs on two runs", wl.name)
		}
		if bytes.Equal(a, specBytes(t, cat, wl, 8, 200)) {
			t.Errorf("%s: seeds 7 and 8 gave the same specs", wl.name)
		}
	}
	light, _ := workloadNamed("light-mix")
	clustered, _ := workloadNamed("cluster-light")
	if !bytes.Equal(specBytes(t, cat, light, 3, 200), specBytes(t, cat, clustered, 3, 200)) {
		t.Error("cluster-light specs differ from light-mix specs for the same seed")
	}
}

// TestGeneratorSeedsAreUnique: no two specs share a seed, so the
// spec+seed result cache cannot hit and executor spans join one job each.
func TestGeneratorSeedsAreUnique(t *testing.T) {
	for _, wl := range workloads {
		g := newGenerator(testCatalog(), wl, 5)
		seen := make(map[int64]bool)
		for i := 0; i < 5000; i++ {
			s := g.next().Seed
			if seen[s] {
				t.Fatalf("%s: seed %d repeats at spec %d", wl.name, s, i)
			}
			seen[s] = true
		}
	}
}

// TestLightMixProportions: 40% CenTrace (every tenth lossy), 20% each of
// CenProbe, tomography and CenFuzz, over whole blocks.
func TestLightMixProportions(t *testing.T) {
	wl, _ := workloadNamed("light-mix")
	g := newGenerator(testCatalog(), wl, 11)
	kinds := make(map[string]int)
	for i := 0; i < 1000; i++ {
		kinds[sampleKind(g.next())]++
	}
	want := map[string]int{"centrace": 360, "centrace+loss": 40, "cenprobe": 200, "tomography": 200, "cenfuzz": 200}
	for k, n := range want {
		if kinds[k] != n {
			t.Errorf("%s: %d of 1000 specs, want %d", k, kinds[k], n)
		}
	}
}

// TestWarmupCoversEverySampleKind: whatever the seed, the warm-up batch
// holds the first spec of every sample kind, so every deployment's
// warm-up passes them all through the correctness gate.
func TestWarmupCoversEverySampleKind(t *testing.T) {
	want := map[string]string{
		"light-mix":     "cenfuzz cenprobe centrace centrace+loss tomography",
		"heavy-mix":     "cenfuzz centrace.campaign tomography",
		"cluster-light": "cenfuzz cenprobe centrace centrace+loss tomography",
	}
	for _, wl := range workloads {
		for seed := int64(1); seed <= 50; seed++ {
			var kinds []string
			for _, spec := range samples(testCatalog(), wl, seed) {
				kinds = append(kinds, sampleKind(spec))
			}
			sort.Strings(kinds)
			if got := strings.Join(kinds, " "); got != want[wl.name] {
				t.Errorf("%s seed %d: warm-up samples %q, want %q", wl.name, seed, got, want[wl.name])
			}
		}
	}
}
