// Package rngshare flags *rand.Rand values that can cross a shard
// boundary: a rand captured by (or passed to) a goroutine, or stored in a
// struct field declared outside the generator package. The engine's
// determinism model gives each shard a private RNG stream derived from
// (campaign seed, shard, epoch); a rand reachable from two goroutines or
// embedded in state that outlives its shard both races and decouples the
// stream from the shard, silently reshaping stimuli.
//
// Struct fields provably confined to one shard can be waived:
//
//	//dvz:shardlocal <justification>
//
// Goroutine findings have no waiver — pass seeds, not streams.
package rngshare

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"dejavuzz/internal/analysis/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name:     "rngshare",
	Doc:      "flag *rand.Rand values shared across goroutines or stored outside the generator package",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var (
	scope  string
	rngPkg string
)

func init() {
	Analyzer.Flags.StringVar(&scope, "scope", lintutil.DeterminismScope,
		"comma-separated packages to check (\"*\" for all)")
	Analyzer.Flags.StringVar(&rngPkg, "rngpkg", "dejavuzz/internal/gen",
		"generator package whose own structs may hold RNG state")
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !lintutil.InScope(scope, pass.Pkg.Path()) {
		return nil, nil
	}
	waivers := lintutil.Collect(pass.Fset, pass.Files, "shardlocal")
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	// Struct fields holding rand state outside the generator package.
	if pass.Pkg.Path() != rngPkg {
		ins.Preorder([]ast.Node{(*ast.StructType)(nil)}, func(n ast.Node) {
			st := n.(*ast.StructType)
			for _, field := range st.Fields.List {
				t := pass.TypesInfo.TypeOf(field.Type)
				if t == nil || !lintutil.IsRandRand(t) {
					continue
				}
				if just, ok := waivers.At(field.Pos()); ok {
					if strings.TrimSpace(just) == "" {
						pass.Reportf(field.Pos(), "//dvz:shardlocal waiver has no justification")
					}
					continue
				}
				pass.Reportf(field.Pos(), "struct field stores a rand.Rand outside %s; RNG streams belong to shard generators (waive provably shard-confined state with //dvz:shardlocal <justification>)", rngPkg)
			}
		})
	}

	// Rand streams escaping into goroutines.
	ins.Preorder([]ast.Node{(*ast.GoStmt)(nil)}, func(n ast.Node) {
		gs := n.(*ast.GoStmt)
		for _, arg := range gs.Call.Args {
			if t := pass.TypesInfo.TypeOf(arg); t != nil && lintutil.IsRandRand(t) {
				pass.Reportf(arg.Pos(), "*rand.Rand passed to a goroutine; shard RNG streams are single-goroutine — pass a seed and derive a stream instead")
			}
		}
		lit, ok := gs.Call.Fun.(*ast.FuncLit)
		if !ok {
			return
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
			if !ok || !lintutil.IsRandRand(obj.Type()) || obj.IsField() {
				return true
			}
			if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
				return true // declared inside the closure
			}
			pass.Reportf(id.Pos(), "goroutine closure captures *rand.Rand %q; shard RNG streams are single-goroutine — pass a seed and derive a stream instead", id.Name)
			return true
		})
	})
	return nil, nil
}
