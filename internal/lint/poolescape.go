package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"cendev/internal/lint/analysis"
	"cendev/internal/lint/ipa"
)

// PoolEscape enforces the DESIGN §14 buffer ownership contract: a value
// obtained from a pool source (simnet's pktPool packets, wire.Reader's
// in-place payload slices) is valid only until the owner's next release
// point. Storing such a value anywhere that outlives the current call —
// a package-level variable, a non-receiver field, a map or slice
// element of a caller-owned container, a channel — or returning it from
// an exported non-sanctioned function silently turns reuse of the
// backing array into cross-measurement data corruption. The sanctioned
// owner pattern (the pool owner stashing packets in its own fields for
// wholesale reclaim) and retention via Clone() stay silent.
//
// The value-flow scan is shared with the ipa summary extractor, so a
// helper that launders a pooled value through another package is caught
// the same way a direct store is: the callee's parameter-escape summary
// travels with it.
var PoolEscape = &analysis.Analyzer{
	Name: "poolescape",
	Doc: "forbid pooled simnet packets and wire scratch buffers from escaping their release point " +
		"(heap stores, channel sends, exported alias returns); Clone() to retain",
	Run: runPoolEscape,
}

func runPoolEscape(pass *analysis.Pass) error {
	cfg := pass.Facts.Config()
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fr := ipa.ScanFlows(fd, pass.TypesInfo, cfg, pass.Facts.Summary)
			for _, fl := range fr.Flows {
				if !strings.HasPrefix(fl.Root, "pool:") {
					continue
				}
				src := ipa.PoolSourceShort(fl.Root)
				switch fl.Sink {
				case ipa.SinkReceiverField:
					// The owner pattern: pool owners may stash pooled values in
					// their own fields — they control the release point.
				case ipa.SinkReturn:
					obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
					if obj == nil || cfg.SanctionedPoolReturns[obj.FullName()] || !fd.Name.IsExported() {
						// Unexported returns propagate ReturnsPooled through the
						// summaries; the caller's store is where the bug lands.
						continue
					}
					pass.Reportf(fl.Pos,
						"%s returns an alias of pooled storage from %s; exported APIs must Clone() or be listed as a sanctioned pool return (DESIGN §14)",
						fd.Name.Name, src)
				case ipa.SinkCallee:
					pass.Reportf(fl.Pos,
						"pooled value from %s handed to %s, where it is %s; Clone() before the call or keep the callee alias-free",
						src, ipa.ShortName(fl.Via), fl.How)
				default: // SinkGlobal, SinkMapOrSlice, SinkField, SinkSend
					pass.Reportf(fl.Pos,
						"pooled value from %s is %s (%s); it is valid only until the pool's next release — Clone() to retain",
						src, fl.Sink, fl.Target)
				}
			}
		}
	}
	return nil
}
