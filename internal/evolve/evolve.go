// Package evolve implements a Geneva-style genetic search for censorship
// evasion strategies — the baseline approach the paper contrasts CenFuzz
// against (§3.4, §6: Geneva "utilizes genetic algorithms to optimize the
// discovery of ... circumvention strategies", whereas CenFuzz
// "deterministically tests the same, sometimes invalid, requests across
// all censorship devices").
//
// The genome is a sequence of HTTP request mutations; fitness rewards
// requests that evade the censor, with a bonus when the origin still
// serves the intended content (circumvention) and a parsimony pressure
// toward shorter genomes. The search is seeded and fully deterministic.
//
// The comparison the benchmarks draw out is exactly the paper's argument:
// the genetic search finds *a* working strategy quickly but follows a
// randomized path, so its outcomes are not comparable across devices;
// CenFuzz's fixed permutation set costs more measurements but yields a
// device fingerprint.
package evolve

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"cendev/internal/httpgram"
)

// Gene is one request mutation.
type Gene int

// The mutation alphabet, mirroring the grammar dimensions CenFuzz covers.
const (
	GeneMethodPOST Gene = iota
	GeneMethodPATCH
	GeneMethodEmpty
	GeneMethodTruncate // GET → GE
	GeneVersionMangle  // HTTP/1.1 → XXXX/1.1
	GeneVersionSpace   // HTTP/1.1 → HTTP/ 1.1
	GeneHostWordMangle // Host: → HostHeader:
	GeneHostWordCase   // Host: → hOST:
	GeneHostWordTrunc  // Host: → ost:
	GenePathAlternate  // / → /index.html
	GeneHostPadTrail   // hostname → hostname*
	GeneHostPadLead    // hostname → *hostname
	GeneHostCase       // hostname → HOSTNAME
	GeneDelimiterLF    // \r\n → \n
	GeneHeaderNoise    // add X-Evade: 1
	geneCount
)

// String implements fmt.Stringer.
func (g Gene) String() string {
	names := [...]string{
		"method=POST", "method=PATCH", "method=empty", "method-truncate",
		"version-mangle", "version-space", "hostword-mangle", "hostword-case",
		"hostword-truncate", "path-alternate", "hostpad-trail", "hostpad-lead",
		"host-case", "delimiter-lf", "header-noise",
	}
	if int(g) < len(names) {
		return names[g]
	}
	return fmt.Sprintf("Gene(%d)", int(g))
}

// Genome is an ordered mutation sequence.
type Genome []Gene

// String implements fmt.Stringer.
func (g Genome) String() string {
	parts := make([]string, len(g))
	for i, gene := range g {
		parts[i] = gene.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Apply renders the genome's request for a domain.
func (g Genome) Apply(domain string) *httpgram.Request {
	r := httpgram.NewRequest(domain)
	for _, gene := range g {
		switch gene {
		case GeneMethodPOST:
			r.Method = "POST"
		case GeneMethodPATCH:
			r.Method = "PATCH"
		case GeneMethodEmpty:
			r.Method = ""
		case GeneMethodTruncate:
			if len(r.Method) > 0 {
				r.Method = r.Method[:len(r.Method)-1]
			}
		case GeneVersionMangle:
			r.Version = "XXXX/1.1"
		case GeneVersionSpace:
			r.Version = "HTTP/ 1.1"
		case GeneHostWordMangle:
			r.HostWord = "HostHeader:"
		case GeneHostWordCase:
			r.HostWord = "hOST:"
		case GeneHostWordTrunc:
			r.HostWord = "ost:"
		case GenePathAlternate:
			r.Path = "/index.html"
		case GeneHostPadTrail:
			r.Hostname = r.Hostname + "*"
		case GeneHostPadLead:
			r.Hostname = "*" + r.Hostname
		case GeneHostCase:
			r.Hostname = strings.ToUpper(r.Hostname)
		case GeneDelimiterLF:
			r.Delimiter = "\n"
		case GeneHeaderNoise:
			r.Headers = append(r.Headers, httpgram.Header{Name: "X-Evade", Value: "1"})
		}
	}
	return r
}

// Outcome is the measured result of trying one genome.
type Outcome struct {
	Evaded       bool
	Circumvented bool
}

// Evaluator measures a genome's rendered request against the censor and
// origin. Implementations are measurement campaigns (see experiments) or
// test doubles.
type Evaluator func(g Genome) Outcome

// Config parameterizes the search.
type Config struct {
	PopulationSize int // default 20
	Generations    int // default 15
	Seed           int64
}

const (
	// genomeLen is the maximum genome length.
	genomeLen = 4
	// targetFitness is the fitness at which the search stops early.
	targetFitness = 1.5
)

func (c Config) withDefaults() Config {
	if c.PopulationSize == 0 {
		c.PopulationSize = 20
	}
	if c.Generations == 0 {
		c.Generations = 15
	}
	return c
}

// Result is the search outcome.
type Result struct {
	Best        Genome
	BestFitness float64
	BestOutcome Outcome
	Generations int
	// Evaluations counts measurement campaigns spent — the cost axis on
	// which Geneva-style search beats exhaustive fuzzing.
	Evaluations int
}

// fitness scores an outcome: evasion is worth 1, circumvention another 1,
// and each gene costs a little (parsimony).
func fitness(o Outcome, g Genome) float64 {
	f := 0.0
	if o.Evaded {
		f += 1
	}
	if o.Circumvented {
		f += 1
	}
	return f - 0.01*float64(len(g))
}

// Search runs the genetic algorithm.
func Search(eval Evaluator, cfg Config) Result {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	type scored struct {
		g Genome
		f float64
		o Outcome
	}
	evaluations := 0
	memo := map[string]scored{}
	score := func(g Genome) scored {
		key := g.String()
		if s, ok := memo[key]; ok {
			return s
		}
		o := eval(g)
		evaluations++
		s := scored{g: g, f: fitness(o, g), o: o}
		memo[key] = s
		return s
	}
	randomGenome := func() Genome {
		n := 1 + rng.Intn(genomeLen)
		g := make(Genome, n)
		for i := range g {
			g[i] = Gene(rng.Intn(int(geneCount)))
		}
		return g
	}

	pop := make([]scored, cfg.PopulationSize)
	for i := range pop {
		pop[i] = score(randomGenome())
	}
	res := Result{}
	for gen := 0; gen < cfg.Generations; gen++ {
		sort.SliceStable(pop, func(i, j int) bool { return pop[i].f > pop[j].f })
		if pop[0].f > res.BestFitness || res.Best == nil {
			res.Best = append(Genome(nil), pop[0].g...)
			res.BestFitness = pop[0].f
			res.BestOutcome = pop[0].o
		}
		res.Generations = gen + 1
		if res.BestFitness >= targetFitness {
			break
		}
		// Elitism: keep the top quarter; refill with crossover + mutation.
		elite := cfg.PopulationSize / 4
		if elite < 2 {
			elite = 2
		}
		next := append([]scored(nil), pop[:elite]...)
		for len(next) < cfg.PopulationSize {
			a := pop[rng.Intn(elite)].g
			b := pop[rng.Intn(len(pop))].g
			child := crossover(rng, a, b)
			child = mutate(rng, child)
			next = append(next, score(child))
		}
		pop = next
	}
	res.Evaluations = evaluations
	return res
}

// crossover splices two genomes at random cut points.
func crossover(rng *rand.Rand, a, b Genome) Genome {
	if len(a) == 0 {
		return append(Genome(nil), b...)
	}
	if len(b) == 0 {
		return append(Genome(nil), a...)
	}
	cutA := rng.Intn(len(a) + 1)
	cutB := rng.Intn(len(b) + 1)
	child := append(append(Genome(nil), a[:cutA]...), b[cutB:]...)
	if len(child) > genomeLen {
		child = child[:genomeLen]
	}
	if len(child) == 0 {
		child = Genome{Gene(rng.Intn(int(geneCount)))}
	}
	return child
}

// mutate applies point mutations: substitute, insert, or delete a gene.
func mutate(rng *rand.Rand, g Genome) Genome {
	out := append(Genome(nil), g...)
	switch rng.Intn(3) {
	case 0: // substitute
		out[rng.Intn(len(out))] = Gene(rng.Intn(int(geneCount)))
	case 1: // insert
		if len(out) < genomeLen {
			pos := rng.Intn(len(out) + 1)
			out = append(out[:pos], append(Genome{Gene(rng.Intn(int(geneCount)))}, out[pos:]...)...)
		}
	case 2: // delete
		if len(out) > 1 {
			pos := rng.Intn(len(out))
			out = append(out[:pos], out[pos+1:]...)
		}
	}
	return out
}
