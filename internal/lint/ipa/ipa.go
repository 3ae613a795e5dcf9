// Package ipa is cenlint's interprocedural analysis engine. The PR-5
// analyzers are per-function and syntactic, which leaves a blind spot
// the repo's determinism promise cannot afford: a time.Now() laundered
// through a helper in a "free" package, a pooled packet retained past
// its release point, or a goroutine parked forever all pass a
// per-function gate. ipa closes the gap with per-function summaries —
// which taint sources a function transitively reaches, how its
// parameters escape, whether it returns pooled storage, whether it
// blocks, whether it loops without a termination signal — computed
// bottom-up over the package import DAG (Go bans import cycles, so a
// package's callees outside itself are always summarized first) and a
// bounded fixpoint within each package for local recursion.
//
// Summaries are deliberately position-free so the driver can serialize
// a package's resolved facts and cache them keyed by input hashes;
// diagnostics always come from re-walking the AST of the package under
// analysis with the resolved facts of everything it calls.
//
// Soundness posture: the engine over-approximates through function
// values and closures (a referenced local function counts as called)
// and under-approximates through interfaces (a dynamic call resolves to
// no summary). Both edges are documented per analyzer; the fixtures pin
// the intended behavior.
package ipa

import (
	"go/ast"
	"go/types"
	"sort"
	"sync"
)

// Kind names a class of nondeterminism source.
type Kind string

const (
	// KindWallClock marks functions that read or wait on the wall clock.
	KindWallClock Kind = "wall-clock"
	// KindGlobalRand marks functions that draw from the process-global
	// math/rand generator or from crypto/rand.
	KindGlobalRand Kind = "global-rand"
)

// TaintEdge records how a function reaches a taint source: Via is the
// next callee toward the source ("" when the function reads the source
// directly), Src is the originating call for the chain's tail, e.g.
// "time.Now".
type TaintEdge struct {
	Via string `json:"via,omitempty"`
	Src string `json:"src"`
}

// ParamFlow summarizes what a function does with one parameter.
type ParamFlow struct {
	// Escapes: the parameter is stored to a heap location that outlives
	// the call (field, map or slice element, package-level variable),
	// sent on a channel, or handed to a callee that does one of those.
	Escapes bool `json:"escapes,omitempty"`
	// How describes the escape for diagnostics.
	How string `json:"how,omitempty"`
	// Via is the callee the escape happens through, if indirect.
	Via string `json:"via,omitempty"`
	// Returned: the parameter (or an alias of it) is returned, so the
	// caller's result aliases the argument.
	Returned bool `json:"returned,omitempty"`
}

// Summary is one function's position-free fact set.
type Summary struct {
	// Fn is the types.Func FullName — the cross-package stable key.
	Fn string `json:"fn"`
	// Pkg is the declaring package path.
	Pkg string `json:"pkg"`
	// Taints maps each reached source kind to its witness edge.
	Taints map[Kind]TaintEdge `json:"taints,omitempty"`
	// Calls lists local (module-internal) callees by FullName, sorted.
	Calls []string `json:"calls,omitempty"`
	// Params describes receiver-less parameter flow, one entry per
	// declared parameter in order (variadic last).
	Params []ParamFlow `json:"params,omitempty"`
	// ReturnsPooled: a return value aliases pool-owned storage.
	ReturnsPooled bool `json:"returns_pooled,omitempty"`
	// PooledVia is the pool source (or intermediate callee) the returned
	// alias came from.
	PooledVia string `json:"pooled_via,omitempty"`
	// Blocks: the function can park on a channel operation, select,
	// WaitGroup.Wait, or a blocking callee.
	Blocks bool `json:"blocks,omitempty"`
	// BlocksOn describes the direct blocking operation; BlocksVia the
	// callee for indirect blocking.
	BlocksOn  string `json:"blocks_on,omitempty"`
	BlocksVia string `json:"blocks_via,omitempty"`
	// Unbounded: the function contains (or always reaches) a `for {}`
	// loop with no return, break, channel receive, or select inside —
	// a goroutine running it can never be stopped.
	Unbounded    bool   `json:"unbounded,omitempty"`
	UnboundedVia string `json:"unbounded_via,omitempty"`
}

func (s *Summary) taint(k Kind) (TaintEdge, bool) {
	if s == nil || s.Taints == nil {
		return TaintEdge{}, false
	}
	e, ok := s.Taints[k]
	return e, ok
}

// equal reports whether two summaries carry identical facts. Used to
// detect the fixpoint.
func (s *Summary) equal(o *Summary) bool {
	if (s == nil) != (o == nil) {
		return false
	}
	if s == nil {
		return true
	}
	if s.Fn != o.Fn || s.Pkg != o.Pkg || s.ReturnsPooled != o.ReturnsPooled ||
		s.PooledVia != o.PooledVia || s.Blocks != o.Blocks || s.BlocksOn != o.BlocksOn ||
		s.BlocksVia != o.BlocksVia || s.Unbounded != o.Unbounded || s.UnboundedVia != o.UnboundedVia {
		return false
	}
	if len(s.Taints) != len(o.Taints) || len(s.Calls) != len(o.Calls) || len(s.Params) != len(o.Params) {
		return false
	}
	for k, v := range s.Taints {
		if o.Taints[k] != v {
			return false
		}
	}
	for i := range s.Calls {
		if s.Calls[i] != o.Calls[i] {
			return false
		}
	}
	for i := range s.Params {
		if s.Params[i] != o.Params[i] {
			return false
		}
	}
	return true
}

// Config declares the engine's source and contract tables. It is part
// of the summary-cache key (via the driver's cache version), so changes
// here must bump driver.CacheVersion.
type Config struct {
	// WallClock maps package path -> function names that read or wait on
	// the wall clock.
	WallClock map[string]map[string]bool
	// PoolSources are FullNames of functions whose results alias pooled
	// storage valid only until the owner's next release point.
	PoolSources map[string]bool
	// SanctionedPoolReturns are exported functions allowed to return
	// pooled values — the documented delivery APIs whose contract the
	// callers are expected to know (DESIGN.md §14).
	SanctionedPoolReturns map[string]bool
}

// DefaultConfig returns the repo's production engine configuration.
func DefaultConfig() Config {
	return Config{
		WallClock: map[string]map[string]bool{"time": {
			"Now":       true,
			"Since":     true,
			"Until":     true,
			"Sleep":     true,
			"After":     true,
			"AfterFunc": true,
			"Tick":      true,
			"NewTimer":  true,
			"NewTicker": true,
		}},
		PoolSources: map[string]bool{
			// simnet's per-layer delivery pools: packets are reclaimed
			// wholesale at the top of the next Transmit.
			"(*cendev/internal/simnet.pktPool).get": true,
			// wire.Reader.Next returns a sub-slice of the reader's buffer:
			// valid until the reader (or the buffer it wraps) is reused.
			"(*cendev/internal/wire.Reader).Next": true,
		},
		SanctionedPoolReturns: map[string]bool{
			// The documented batch-delivery API: pooled packets are valid
			// until the next Transmit, callers Clone to retain.
			"(*cendev/internal/simnet.Network).Transmit": true,
			// Transient probe primitives: thin wrappers over Transmit that
			// forward its deliveries under the same validity contract
			// (documented on each method).
			"(*cendev/internal/simnet.Conn).SendPayload": true,
			"(*cendev/internal/simnet.Network).SendUDP":  true,
		},
	}
}

// SourceOf classifies a referenced function as a taint source: a
// package-level function in the configured wall-clock table, any
// non-constructor math/rand function (the process-global generator),
// or anything in crypto/rand. A method is never a source: it works on a
// value the caller threaded in, such as a time.Time or a seeded
// *rand.Rand, whose method names (After, Intn) shadow the sources'.
func (c Config) SourceOf(fn *types.Func) (Kind, bool) {
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", false
	}
	path := fn.Pkg().Path()
	if names, ok := c.WallClock[path]; ok && names[fn.Name()] {
		return KindWallClock, true
	}
	switch path {
	case "math/rand", "math/rand/v2":
		if len(fn.Name()) < 3 || fn.Name()[:3] != "New" {
			return KindGlobalRand, true
		}
	case "crypto/rand":
		return KindGlobalRand, true
	}
	return "", false
}

// PackageFacts is one package's resolved summaries — the serializable
// unit the driver caches.
type PackageFacts struct {
	Pkg   string              `json:"pkg"`
	Funcs map[string]*Summary `json:"funcs"`
}

// Program holds the resolved summaries of every package added so far.
// It is safe for concurrent use: the driver analyzes independent
// packages in parallel, each publishing its facts before dependents
// start.
type Program struct {
	cfg   Config
	local map[string]bool

	mu    sync.RWMutex
	funcs map[string]*Summary
}

// NewProgram returns an empty program. localPkgs are the package paths
// whose functions will be summarized — call edges into any other
// package resolve to intrinsics (taint sources) or nothing.
func NewProgram(cfg Config, localPkgs []string) *Program {
	local := make(map[string]bool, len(localPkgs))
	for _, p := range localPkgs {
		local[p] = true
	}
	return &Program{cfg: cfg, local: local, funcs: map[string]*Summary{}}
}

// Config returns the engine configuration.
func (p *Program) Config() Config { return p.cfg }

// IsLocal reports whether pkgPath's functions are summarized.
func (p *Program) IsLocal(pkgPath string) bool { return p.local[pkgPath] }

// Summary returns the resolved summary for a FullName, or nil.
func (p *Program) Summary(fullName string) *Summary {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.funcs[fullName]
}

// Of returns the resolved summary for a *types.Func, or nil.
func (p *Program) Of(fn *types.Func) *Summary {
	if fn == nil {
		return nil
	}
	return p.Summary(fn.FullName())
}

// AddFacts publishes pre-resolved facts (the cache-hit path).
func (p *Program) AddFacts(pf *PackageFacts) {
	if pf == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, v := range pf.Funcs {
		p.funcs[k] = v
	}
}

// maxRounds bounds the within-package fixpoint. Facts are monotone and
// package-local recursion cycles are short, so this is generous.
const maxRounds = 10

// AddPackage extracts and resolves summaries for one package whose
// module-internal dependencies have already been added, publishes them,
// and returns the serializable facts. files/info must describe the
// type-checked package at pkgPath.
func (p *Program) AddPackage(pkgPath string, files []*ast.File, info *types.Info) *PackageFacts {
	var decls []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}
	cur := map[string]*Summary{}
	lookup := func(name string) *Summary {
		if s, ok := cur[name]; ok {
			return s
		}
		return p.Summary(name)
	}
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, fd := range decls {
			s := p.extractFunc(pkgPath, fd, info, lookup)
			if s == nil {
				continue
			}
			if !s.equal(cur[s.Fn]) {
				cur[s.Fn] = s
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	p.mu.Lock()
	for k, v := range cur {
		p.funcs[k] = v
	}
	p.mu.Unlock()
	return &PackageFacts{Pkg: pkgPath, Funcs: cur}
}

// TaintChain reconstructs the witness call chain from fullName to its
// taint source of kind k: ["a.F", "b.G", "time.Now"]. Returns nil when
// the function is untainted or unknown.
func (p *Program) TaintChain(fullName string, k Kind) []string {
	var chain []string
	cur := fullName
	for depth := 0; depth < 64; depth++ {
		s := p.Summary(cur)
		e, ok := s.taint(k)
		if !ok {
			return nil
		}
		chain = append(chain, cur)
		if e.Via == "" {
			return append(chain, e.Src)
		}
		cur = e.Via
	}
	return append(chain, "…")
}

// UnboundedChain reconstructs the witness chain from fullName to the
// function owning the unbounded loop (inclusive). Nil when bounded.
func (p *Program) UnboundedChain(fullName string) []string {
	var chain []string
	cur := fullName
	for depth := 0; depth < 64; depth++ {
		s := p.Summary(cur)
		if s == nil || !s.Unbounded {
			return nil
		}
		chain = append(chain, cur)
		if s.UnboundedVia == "" {
			return chain
		}
		cur = s.UnboundedVia
	}
	return append(chain, "…")
}

// BlockChain reconstructs the witness chain from fullName to the
// function with the direct blocking operation, returning the chain and
// the operation description. ok is false when the function is unknown
// or does not block.
func (p *Program) BlockChain(fullName string) (chain []string, op string, ok bool) {
	cur := fullName
	for depth := 0; depth < 64; depth++ {
		s := p.Summary(cur)
		if s == nil || !s.Blocks {
			return nil, "", false
		}
		chain = append(chain, cur)
		if s.BlocksVia == "" {
			return chain, s.BlocksOn, true
		}
		cur = s.BlocksVia
	}
	return append(chain, "…"), "blocking call", true
}

// FormatChain renders a witness chain for diagnostics: "a → b → c".
func FormatChain(chain []string) string {
	out := ""
	for i, c := range chain {
		if i > 0 {
			out += " → "
		}
		out += ShortName(c)
	}
	return out
}

// ShortName compresses a FullName for diagnostics: the package path is
// reduced to its last element ("cendev/internal/topology.FlowHash" →
// "topology.FlowHash", "(*cendev/internal/simnet.Network).Transmit" →
// "(*simnet.Network).Transmit").
func ShortName(full string) string {
	out := make([]byte, 0, len(full))
	seg := 0 // length of out at the start of the current path segment
	for i := 0; i < len(full); i++ {
		c := full[i]
		if c == '/' {
			out = out[:seg] // the segment was a path element, not the last one
			continue
		}
		out = append(out, c)
		if c == '(' || c == '*' {
			seg = len(out)
		}
	}
	return string(out)
}

// sortedKeys returns the map's keys in sorted order — every iteration
// that can influence a witness choice goes through this, so resolved
// facts are independent of map order and worker scheduling.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
