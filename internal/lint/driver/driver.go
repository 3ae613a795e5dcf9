// Package driver loads type-checked packages for the cenlint analyzers
// without golang.org/x/tools (the build environment is offline): package
// metadata and compiled export data come from `go list -export -deps
// -json`, syntax from go/parser, and types from go/types with a gc
// importer reading the export files. The driver also owns the
// //cenlint:volatile suppression directive, so every analyzer gets the
// same escape hatch with the same justification rule.
//
// Analyze is the repo-gate entry point: it schedules packages in
// dependency order (a package starts only after its module-internal
// deps have published their ipa summaries), analyzes independent
// packages in parallel, and caches each package's resolved facts and
// findings keyed by a hash of everything that can change them — so a
// warm re-run touches no parser or type checker at all.
package driver

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"cendev/internal/lint/analysis"
	"cendev/internal/lint/ipa"
)

// CacheVersion is folded into every summary-cache key. Bump it whenever
// the fact schema, the engine configuration (ipa.DefaultConfig), or any
// analyzer's behavior changes in a way source hashes can't see.
const CacheVersion = "cenlint-cache-v2"

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path      string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	// Facts is the module-wide interprocedural program. Every analyzer
	// pass reads it, so it must be set.
	Facts *ipa.Program
}

// Finding is one resolved diagnostic: position plus the analyzer that
// produced it.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// Options configures an Analyze run.
type Options struct {
	// Dir is where `go list` runs; "" means the current directory.
	Dir string
	// Patterns are the go list package patterns to analyze.
	Patterns []string
	// Analyzers to apply to every matched package.
	Analyzers []*analysis.Analyzer
	// CacheDir enables the per-package summary/finding cache when
	// non-empty. The directory is created if missing.
	CacheDir string
	// Workers bounds concurrent package analysis; <=0 means GOMAXPROCS.
	Workers int
	// Audit reports //cenlint:volatile directives that suppressed
	// nothing, so stale escapes can't accumulate. Leave it off for
	// single-analyzer runs — a directive aimed at another analyzer's
	// diagnostic would be falsely idle.
	Audit bool
}

// Stats records where an Analyze run spent its time — the ci lint-engine
// stage serializes this into BENCH_lint.json.
type Stats struct {
	Packages  int   `json:"packages"`
	CacheHits int   `json:"cache_hits"`
	LoadMS    int64 `json:"load_ms"`
	AnalyzeMS int64 `json:"analyze_ms"`
	TotalMS   int64 `json:"total_ms"`
	Workers   int   `json:"workers"`
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	GoFiles    []string
	Deps       []string
	DepOnly    bool
	Standard   bool
}

// list resolves patterns with `go list` (run in dir; "" means the
// current directory) and returns every matched and depended-on package.
// Test files are deliberately out of scope: the determinism invariants
// cenlint enforces are about measurement outputs, and tests may use the
// wall clock freely.
func list(dir string, patterns []string) ([]listPkg, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=Dir,ImportPath,Name,Export,GoFiles,Deps,DepOnly,Standard",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// syncImporter serializes a gc importer: the importer caches loaded
// packages in an unguarded map, and Analyze type-checks packages from
// multiple goroutines.
type syncImporter struct {
	mu  sync.Mutex
	imp types.Importer
}

func (s *syncImporter) Import(path string) (*types.Package, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.imp.Import(path)
}

// Analyze runs the full pipeline over every package matched by
// opts.Patterns: load metadata, schedule packages bottom-up over the
// module-internal import DAG, extract ipa summaries for every local
// package (matched or dependency-only), run the analyzers on the
// matched ones, and return the deduplicated, stably sorted findings.
func Analyze(opts Options) ([]Finding, Stats, error) {
	start := time.Now()
	stats := Stats{}

	raw, err := list(opts.Dir, opts.Patterns)
	if err != nil {
		return nil, stats, err
	}
	exports := map[string]string{} // import path -> export data file
	local := map[string]*listPkg{} // module-local (non-stdlib) packages
	for i := range raw {
		p := &raw[i]
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard && len(p.GoFiles) > 0 {
			local[p.ImportPath] = p
		}
	}
	order := sortedPaths(local)
	stats.LoadMS = time.Since(start).Milliseconds()

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	stats.Workers = workers
	if opts.CacheDir != "" {
		if err := os.MkdirAll(opts.CacheDir, 0o755); err != nil {
			return nil, stats, fmt.Errorf("lint: creating cache dir: %w", err)
		}
	}

	fset := token.NewFileSet()
	imp := &syncImporter{imp: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	})}
	prog := ipa.NewProgram(ipa.DefaultConfig(), order)

	// Module-internal dependency edges, restricted to packages in this
	// run. Deps is transitive, which only makes the schedule stricter.
	depsOf := map[string][]string{}
	for path, p := range local {
		for _, d := range p.Deps {
			if _, ok := local[d]; ok {
				depsOf[path] = append(depsOf[path], d)
			}
		}
		sort.Strings(depsOf[path])
	}

	done := map[string]chan struct{}{}
	for _, path := range order {
		done[path] = make(chan struct{})
	}
	var (
		mu       sync.Mutex
		firstErr error
		results  = map[string][]Finding{}
		keys     = map[string]string{}
	)
	analyzeStart := time.Now()
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, path := range order {
		p := local[path]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done[p.ImportPath])
			for _, d := range depsOf[p.ImportPath] {
				<-done[d]
			}
			mu.Lock()
			failed := firstErr != nil
			depKeys := make([]string, 0, len(depsOf[p.ImportPath]))
			for _, d := range depsOf[p.ImportPath] {
				depKeys = append(depKeys, keys[d])
			}
			mu.Unlock()
			if failed {
				return
			}
			sem <- struct{}{}
			defer func() { <-sem }()
			findings, key, hit, err := analyzeOne(p, depKeys, exports, fset, imp, prog, opts)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			keys[p.ImportPath] = key
			results[p.ImportPath] = findings
			stats.Packages++
			if hit {
				stats.CacheHits++
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, stats, firstErr
	}

	var all []Finding
	for _, path := range order {
		all = append(all, results[path]...)
	}
	all = dedupe(all)
	stats.AnalyzeMS = time.Since(analyzeStart).Milliseconds()
	stats.TotalMS = time.Since(start).Milliseconds()
	return all, stats, nil
}

// cacheEntry is one package's serialized outcome.
type cacheEntry struct {
	Key      string            `json:"key"`
	Facts    *ipa.PackageFacts `json:"facts"`
	Findings []Finding         `json:"findings"`
}

// analyzeOne processes one package: cache probe, else parse + type-check
// + summary extraction + (for matched packages) the analyzer run, then a
// cache write. depKeys are the already-computed cache keys of the
// package's module-internal deps, in sorted dep order.
func analyzeOne(p *listPkg, depKeys []string, exports map[string]string, fset *token.FileSet, imp types.Importer, prog *ipa.Program, opts Options) (findings []Finding, key string, hit bool, err error) {
	target := !p.DepOnly

	if opts.CacheDir != "" {
		key, err = cacheKey(p, depKeys, exports, opts, target)
		if err != nil {
			return nil, "", false, err
		}
		if entry := loadCache(opts.CacheDir, key); entry != nil {
			prog.AddFacts(entry.Facts)
			return entry.Findings, key, true, nil
		}
	}

	var files []*ast.File
	for _, gf := range p.GoFiles {
		f, perr := parser.ParseFile(fset, filepath.Join(p.Dir, gf), nil, parser.ParseComments)
		if perr != nil {
			return nil, "", false, fmt.Errorf("lint: parsing %s: %w", gf, perr)
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: imp}
	info := NewInfo()
	tpkg, terr := conf.Check(p.ImportPath, fset, files, info)
	if terr != nil {
		return nil, "", false, fmt.Errorf("lint: type-checking %s: %w", p.ImportPath, terr)
	}
	facts := prog.AddPackage(p.ImportPath, files, info)

	if target {
		pkg := &Package{
			Path: p.ImportPath, Fset: fset, Files: files,
			Types: tpkg, TypesInfo: info, Facts: prog,
		}
		findings, err = runPackage(pkg, opts.Analyzers, opts.Audit)
		if err != nil {
			return nil, "", false, err
		}
	}
	if opts.CacheDir != "" {
		saveCache(opts.CacheDir, &cacheEntry{Key: key, Facts: facts, Findings: findings})
	}
	return findings, key, false, nil
}

// cacheKey hashes everything that can change a package's facts or
// findings: the cache schema version, the analyzer set, whether the
// package is a matched target or facts-only, its source bytes, the keys
// of its module-internal deps (transitively covering their sources) and
// the export files of its stdlib deps (go build cache paths are content
// hashes, so the path string is a faithful proxy).
func cacheKey(p *listPkg, depKeys []string, exports map[string]string, opts Options, target bool) (string, error) {
	h := sha256.New()
	put := func(ss ...string) {
		for _, s := range ss {
			fmt.Fprintf(h, "%d:%s\n", len(s), s)
		}
	}
	put(CacheVersion, p.ImportPath)
	put(fmt.Sprintf("target=%t audit=%t", target, opts.Audit))
	for _, a := range opts.Analyzers {
		put(a.Name)
	}
	for _, gf := range p.GoFiles {
		src, err := os.ReadFile(filepath.Join(p.Dir, gf))
		if err != nil {
			return "", fmt.Errorf("lint: hashing %s: %w", gf, err)
		}
		put(gf, string(src))
	}
	put(depKeys...)
	for _, d := range p.Deps {
		if exp, ok := exports[d]; ok {
			put(d, exp)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func cachePath(dir, key string) string {
	return filepath.Join(dir, key[:32]+".json")
}

func loadCache(dir, key string) *cacheEntry {
	b, err := os.ReadFile(cachePath(dir, key))
	if err != nil {
		return nil
	}
	var e cacheEntry
	if json.Unmarshal(b, &e) != nil || e.Key != key {
		return nil
	}
	return &e
}

// saveCache writes best-effort: a failed write just means a cold run
// next time. The temp+rename keeps concurrent writers from tearing the
// entry.
func saveCache(dir string, e *cacheEntry) {
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(dir, "entry-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(name)
		return
	}
	tmp.Close()
	os.Rename(name, cachePath(dir, e.Key))
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// RunPackage applies the analyzers to one package with directive
// suppression and generated-file filtering, without the unused-directive
// audit — the right mode for single-analyzer fixture runs.
func RunPackage(pkg *Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	return runPackage(pkg, analyzers, false)
}

// RunPackageAudit is RunPackage plus the unused-suppression audit: a
// //cenlint:volatile that suppressed nothing across the given analyzers
// is itself reported.
func RunPackageAudit(pkg *Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	return runPackage(pkg, analyzers, true)
}

// runPackage applies the analyzers to one package, resolves positions,
// drops diagnostics in generated files, drops diagnostics suppressed by
// //cenlint:volatile directives, and appends the driver's own
// directive-hygiene findings (a directive with no justification is
// itself reported, so a bare annotation cannot silently green the gate).
func runPackage(pkg *Package, analyzers []*analysis.Analyzer, audit bool) ([]Finding, error) {
	suppressed, directives, directiveFindings := scanDirectives(pkg)
	generated := generatedFiles(pkg)

	var out []Finding
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Facts:     pkg.Facts,
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			if generated[pos.Filename] {
				return
			}
			if dir := suppressed[lineKey{pos.Filename, pos.Line}]; dir != nil {
				dir.used = true
				return
			}
			out = append(out, Finding{Analyzer: name, Pos: pos, Message: d.Message})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: analyzer %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	for _, f := range directiveFindings {
		if !generated[f.Pos.Filename] {
			out = append(out, f)
		}
	}
	if audit {
		for _, d := range directives {
			if !d.used && !generated[d.pos.Filename] {
				out = append(out, Finding{
					Analyzer: "cenlint", Pos: d.pos,
					Message: "unused //cenlint:volatile directive: it suppresses no diagnostic — remove it",
				})
			}
		}
	}
	out = dedupe(out)
	return out, nil
}

type lineKey struct {
	file string
	line int
}

// directive is one //cenlint:volatile occurrence; both of its covered
// lines share the pointer so a hit on either marks it used.
type directive struct {
	pos  token.Position
	used bool
}

// directivePrefix introduces every cenlint control comment.
const directivePrefix = "//cenlint:"

// scanDirectives walks every comment for //cenlint: directives. A
// //cenlint:volatile directive suppresses all diagnostics on its own
// line and the line below it (so it works both as a trailing comment and
// as a standalone line above the statement). The directive must carry a
// justification after the keyword; a bare one, and any unknown
// //cenlint: verb, is reported as a finding of the pseudo-analyzer
// "cenlint" — those findings are exempt from suppression.
func scanDirectives(pkg *Package) (map[lineKey]*directive, []*directive, []Finding) {
	suppressed := map[lineKey]*directive{}
	var directives []*directive
	var findings []Finding
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				pos := pkg.Fset.Position(c.Pos())
				if !strings.HasPrefix(rest, "volatile") {
					verb := rest
					if i := strings.IndexAny(verb, " \t"); i >= 0 {
						verb = verb[:i]
					}
					findings = append(findings, Finding{
						Analyzer: "cenlint", Pos: pos,
						Message: fmt.Sprintf("unknown cenlint directive %q (only //cenlint:volatile is defined)", verb),
					})
					continue
				}
				d := &directive{pos: pos}
				directives = append(directives, d)
				suppressed[lineKey{pos.Filename, pos.Line}] = d
				suppressed[lineKey{pos.Filename, pos.Line + 1}] = d
				just := strings.Trim(strings.TrimPrefix(rest, "volatile"), " \t:—-")
				if just == "" {
					findings = append(findings, Finding{
						Analyzer: "cenlint", Pos: pos,
						Message: "//cenlint:volatile needs a justification (write //cenlint:volatile <why wall-clock or unordered output is intended here>)",
					})
				}
			}
		}
	}
	return suppressed, directives, findings
}

// generatedFiles returns the filenames in pkg carrying the standard
// machine-generated marker (a "// Code generated … DO NOT EDIT." line
// before the package clause). Generated code is type-checked — its facts
// feed the call graph — but never reported on.
func generatedFiles(pkg *Package) map[string]bool {
	out := map[string]bool{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			if cg.Pos() >= f.Package {
				break
			}
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "// Code generated ") && strings.HasSuffix(c.Text, " DO NOT EDIT.") {
					out[pkg.Fset.Position(f.Package).Filename] = true
				}
			}
		}
	}
	return out
}

// dedupe sorts findings and collapses duplicates at the same position
// with the same message (two analyzers agreeing on one defect), keeping
// the alphabetically-first analyzer. The result is byte-stable across
// runs and worker counts.
func dedupe(fs []Finding) []Finding {
	sortFindings(fs)
	out := fs[:0]
	for i, f := range fs {
		if i > 0 {
			p := out[len(out)-1]
			if p.Pos.Filename == f.Pos.Filename && p.Pos.Line == f.Pos.Line &&
				p.Pos.Column == f.Pos.Column && p.Message == f.Message {
				continue
			}
		}
		out = append(out, f)
	}
	return out
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

func sortedPaths(m map[string]*listPkg) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
