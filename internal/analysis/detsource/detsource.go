// Package detsource forbids nondeterministic input sources in
// determinism-relevant packages: wall-clock reads (time.Now / time.Since /
// time.Until), the process environment (os.Getenv / os.LookupEnv /
// os.Environ), the global math/rand source (any package-level rand
// function), and RNG construction (rand.New / rand.NewSource and the v2
// constructors) outside the generator seams — the internal/gen functions
// that derive per-shard streams from the campaign seed.
//
// Wall-clock reads alone are waivable, because the engine deliberately
// measures Report.Duration (documented as excluded from byte-identity):
//
//	//dvz:wallclock <justification>
//
// Environment and RNG findings have no waiver: thread configuration
// through Options, and derive randomness from gen.New/gen.NewEpochShard.
package detsource

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
	Name:     "detsource",
	Doc:      "forbid wall-clock, environment and unseamed RNG sources in determinism-relevant packages",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var (
	scope     string
	seamPkg   string
	seamFuncs string
)

func init() {
	Analyzer.Flags.StringVar(&scope, "scope", lintutil.DeterminismScope,
		"comma-separated packages to check (\"*\" for all)")
	Analyzer.Flags.StringVar(&seamPkg, "seampkg", "dejavuzz/internal/gen",
		"package whose seam functions may construct RNGs")
	Analyzer.Flags.StringVar(&seamFuncs, "seams", "New,NewEpochShard,buildRand",
		"comma-separated function names in seampkg allowed to call rand.New/rand.NewSource")
}

var rngConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !lintutil.InScope(scope, pass.Pkg.Path()) {
		return nil, nil
	}
	waivers := lintutil.Collect(pass.Fset, pass.Files, "wallclock")
	seams := make(map[string]bool)
	for _, s := range strings.Split(seamFuncs, ",") {
		seams[strings.TrimSpace(s)] = true
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		call := n.(*ast.CallExpr)
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		// Only package-level functions: methods like (*rand.Rand).Intn or
		// (time.Time).Sub are how deterministic code is supposed to look.
		if fn.Type().(*types.Signature).Recv() != nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "time":
			switch fn.Name() {
			case "Now", "Since", "Until":
				if just, ok := waivers.At(call.Pos()); ok {
					if strings.TrimSpace(just) == "" {
						pass.Reportf(call.Pos(), "//dvz:wallclock waiver has no justification")
					}
					return true
				}
				pass.Reportf(call.Pos(), "time.%s reads the wall clock in a determinism-relevant package; campaign results must not depend on it (waive measurement-only uses with //dvz:wallclock <justification>)", fn.Name())
			}
		case "os":
			switch fn.Name() {
			case "Getenv", "LookupEnv", "Environ":
				pass.Reportf(call.Pos(), "os.%s reads the process environment in a determinism-relevant package; thread configuration through Options instead", fn.Name())
			}
		case "math/rand", "math/rand/v2":
			if rngConstructors[fn.Name()] {
				if pass.Pkg.Path() == seamPkg && seams[enclosingFuncName(stack)] {
					return true
				}
				pass.Reportf(call.Pos(), "rand.%s constructs an RNG outside the generator seams; derive shard streams via gen.New/gen.NewEpochShard", fn.Name())
				return true
			}
			pass.Reportf(call.Pos(), "rand.%s draws from the global math/rand source, which is shared and seeded nondeterministically; use the shard generator's stream", fn.Name())
		}
		return true
	})
	return nil, nil
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	}
	return nil
}

func enclosingFuncName(stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd.Name.Name
		}
	}
	return ""
}
