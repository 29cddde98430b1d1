// Package mapiter flags `for … range` over maps in determinism-relevant
// packages. Go randomises map iteration order per run, so any map loop
// whose effect depends on visit order is a cross-run nondeterminism bug —
// exactly what the engine's byte-identity guarantee forbids.
//
// A loop passes without comment when the analyzer can prove it
// order-insensitive:
//
//   - pure counting: integer ++ / += / -= and bitwise-accumulate
//     assignments (floating-point accumulation is order-sensitive and is
//     not accepted);
//   - set insertion: `m[k] = v` stores into another map;
//   - append-then-sort: appends into a slice that is sorted (sort.* or
//     slices.Sort*) in the enclosing block before any other statement
//     touches it;
//   - writes confined to loop-local variables, if/continue control flow
//     around the above, and idempotent `x = <constant>` stores.
//
// Anything else needs an explicit waiver comment on the loop line or the
// line above:
//
//	//dvz:ordered <justification>
//
// A waiver without a justification is an error, and a waiver cannot
// silence a loop that serializes (encoding/json, encoding/gob) or feeds a
// *rand.Rand in map order — those reshape checkpoints, reports or
// stimulus streams and must iterate sorted keys instead.
package mapiter

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"dejavuzz/internal/analysis/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name:     "mapiter",
	Doc:      "flag map iteration whose order can leak into reports, events, checkpoints or stimulus streams",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var scope string

func init() {
	Analyzer.Flags.StringVar(&scope, "scope", lintutil.DeterminismScope,
		"comma-separated packages to check (\"*\" for all)")
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !lintutil.InScope(scope, pass.Pkg.Path()) {
		return nil, nil
	}
	waivers := lintutil.Collect(pass.Fset, pass.Files, "ordered")
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.WithStack([]ast.Node{(*ast.RangeStmt)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		rs := n.(*ast.RangeStmt)
		t := pass.TypesInfo.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, ok := t.Underlying().(*types.Map); !ok {
			return true
		}
		if just, ok := waivers.At(rs.For); ok {
			if strings.TrimSpace(just) == "" {
				pass.Reportf(rs.For, "//dvz:ordered waiver has no justification")
			} else if why := unwaivable(pass, rs.Body); why != "" {
				pass.Reportf(rs.For, "map iteration %s in visit order and cannot be waived; iterate sorted keys", why)
			}
			return true
		}
		if insensitive(pass, rs, stack) {
			return true
		}
		pass.Reportf(rs.For, "range over map: iteration order is nondeterministic; iterate sorted keys, or add //dvz:ordered <justification> if provably order-insensitive")
		return true
	})
	return nil, nil
}

// unwaivable returns a non-empty reason when the loop body does something
// no waiver may bless: serializing or feeding an RNG in map visit order.
func unwaivable(pass *analysis.Pass, body *ast.BlockStmt) string {
	reason := ""
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || reason != "" {
			return reason == ""
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if s := pass.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.MethodVal && lintutil.IsRandRand(s.Recv()) {
			reason = "feeds a *rand.Rand"
			return false
		}
		if obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil {
			switch obj.Pkg().Path() {
			case "encoding/json", "encoding/gob":
				reason = "serializes"
				return false
			}
		}
		return true
	})
	return reason
}

// insensitive reports whether the map loop is provably order-insensitive:
// its body is built only from the commutative statement forms, and every
// slice it appends to is sorted in the enclosing block before anything
// else observes it.
func insensitive(pass *analysis.Pass, rs *ast.RangeStmt, stack []ast.Node) bool {
	c := &classifier{pass: pass, locals: make(map[types.Object]bool)}
	c.defineLoopVars(rs)
	if !c.stmts(rs.Body.List) {
		return false
	}
	if len(c.appends) == 0 {
		return true
	}
	list, idx := enclosingList(rs, stack)
	if list == nil {
		return false
	}
	for target := range c.appends {
		if !sortedBeforeEscape(pass, target, list[idx+1:]) {
			return false
		}
	}
	return true
}

// enclosingList finds the statement list holding the range statement and
// its index within it.
func enclosingList(rs *ast.RangeStmt, stack []ast.Node) ([]ast.Stmt, int) {
	for i := len(stack) - 1; i >= 0; i-- {
		var list []ast.Stmt
		switch n := stack[i].(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			continue
		}
		for j, s := range list {
			if s == ast.Stmt(rs) {
				return list, j
			}
		}
	}
	return nil, 0
}

// classifier walks a loop body, accepting only statement forms whose
// combined effect is independent of iteration order. It tracks variables
// declared inside the loop (writes to them are invisible across
// iterations) and the outer slices the loop appends to (which must be
// sorted afterwards).
type classifier struct {
	pass    *analysis.Pass
	locals  map[types.Object]bool
	appends map[string]bool // ExprString of append targets needing a later sort
}

func (c *classifier) defineLoopVars(rs *ast.RangeStmt) {
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok {
			if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
				c.locals[obj] = true
			}
		}
	}
}

func (c *classifier) stmts(list []ast.Stmt) bool {
	for _, s := range list {
		if !c.stmt(s) {
			return false
		}
	}
	return true
}

func (c *classifier) stmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:
		return true
	case *ast.BranchStmt:
		// Labeled jumps can re-order arbitrarily; plain continue/break only
		// skip commutative work.
		return s.Label == nil && (s.Tok == token.CONTINUE || s.Tok == token.BREAK)
	case *ast.BlockStmt:
		return c.stmts(s.List)
	case *ast.IfStmt:
		if s.Init != nil && !c.stmt(s.Init) {
			return false
		}
		if !c.stmts(s.Body.List) {
			return false
		}
		return s.Else == nil || c.stmt(s.Else)
	case *ast.SwitchStmt:
		if s.Init != nil && !c.stmt(s.Init) {
			return false
		}
		for _, cl := range s.Body.List {
			if !c.stmts(cl.(*ast.CaseClause).Body) {
				return false
			}
		}
		return true
	case *ast.TypeSwitchStmt:
		if s.Init != nil && !c.stmt(s.Init) {
			return false
		}
		if !c.stmt(s.Assign) {
			return false
		}
		for _, cl := range s.Body.List {
			if !c.stmts(cl.(*ast.CaseClause).Body) {
				return false
			}
		}
		return true
	case *ast.RangeStmt:
		c.defineLoopVars(s)
		return c.stmts(s.Body.List)
	case *ast.ForStmt:
		if s.Init != nil && !c.stmt(s.Init) {
			return false
		}
		if s.Post != nil && !c.stmt(s.Post) {
			return false
		}
		return c.stmts(s.Body.List)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return false
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				for _, name := range vs.Names {
					if obj := c.pass.TypesInfo.Defs[name]; obj != nil {
						c.locals[obj] = true
					}
				}
			}
		}
		return true
	case *ast.IncDecStmt:
		return c.localWrite(s.X) || isInteger(c.pass.TypesInfo.TypeOf(s.X))
	case *ast.AssignStmt:
		return c.assign(s)
	case *ast.ExprStmt:
		// The only bare call accepted is sorting a loop-local slice
		// (e.g. collecting one sub-slice per outer iteration).
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		if target, ok := sortTarget(c.pass, call); ok {
			return c.localWrite(target)
		}
		return false
	default:
		return false
	}
}

func (c *classifier) assign(s *ast.AssignStmt) bool {
	if s.Tok == token.DEFINE {
		// Fresh per-iteration variables: their values may be read from
		// anywhere, their lifetime ends with the iteration.
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
					c.locals[obj] = true
				}
			}
		}
		return true
	}
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		if len(s.Lhs) != 1 {
			return false
		}
		return c.localWrite(s.Lhs[0]) || isInteger(c.pass.TypesInfo.TypeOf(s.Lhs[0]))
	case token.ASSIGN:
		if len(s.Lhs) != len(s.Rhs) {
			return false
		}
		for i, lhs := range s.Lhs {
			if !c.assignPair(lhs, s.Rhs[i]) {
				return false
			}
		}
		return true
	}
	return false
}

func (c *classifier) assignPair(lhs, rhs ast.Expr) bool {
	if c.localWrite(lhs) {
		return true
	}
	// Set insertion: a store into another map is commutative as long as
	// the loop writes each key at most once (map keys are unique).
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		if t := c.pass.TypesInfo.TypeOf(ix.X); t != nil {
			if _, ok := t.Underlying().(*types.Map); ok {
				return true
			}
		}
	}
	// Append: s = append(s, …) is accepted provisionally; the caller
	// checks the slice is sorted before escaping.
	if call, ok := rhs.(*ast.CallExpr); ok {
		if id, ok := call.Fun.(*ast.Ident); ok && len(call.Args) >= 1 {
			if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
				if exprString(call.Args[0]) == exprString(lhs) {
					if c.appends == nil {
						c.appends = make(map[string]bool)
					}
					c.appends[exprString(lhs)] = true
					return true
				}
			}
		}
	}
	// Idempotent constant store (`found = true` style): every iteration
	// writes the same value, so order cannot matter.
	if tv, ok := c.pass.TypesInfo.Types[rhs]; ok && tv.Value != nil {
		return true
	}
	if id, ok := rhs.(*ast.Ident); ok && id.Name == "nil" {
		return true
	}
	return false
}

// localWrite reports whether the expression's root variable was declared
// inside the loop body.
func (c *classifier) localWrite(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj := c.pass.TypesInfo.Uses[x]
			if obj == nil {
				obj = c.pass.TypesInfo.Defs[x]
			}
			return obj != nil && c.locals[obj]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}

func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// sortTarget recognises the sort calls the append-then-sort escape
// accepts and returns the sorted expression.
func sortTarget(pass *analysis.Pass, call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return nil, false
	}
	pkgID, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil, false
	}
	pn, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName)
	if !ok {
		return nil, false
	}
	switch pn.Imported().Path() {
	case "sort":
		switch sel.Sel.Name {
		case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
		default:
			return nil, false
		}
	case "slices":
		switch sel.Sel.Name {
		case "Sort", "SortFunc", "SortStableFunc":
		default:
			return nil, false
		}
	default:
		return nil, false
	}
	arg := call.Args[0]
	// sort.Sort(sort.StringSlice(x)) wraps the target in a conversion.
	if conv, ok := arg.(*ast.CallExpr); ok && len(conv.Args) == 1 {
		arg = conv.Args[0]
	}
	return arg, true
}

// sortedBeforeEscape scans the statements after the loop for a sort of
// target. Any earlier statement mentioning target counts as an escape.
func sortedBeforeEscape(pass *analysis.Pass, target string, rest []ast.Stmt) bool {
	for _, s := range rest {
		if es, ok := s.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				if arg, ok := sortTarget(pass, call); ok && exprString(arg) == target {
					return true
				}
			}
		}
		if mentions(s, target) {
			return false
		}
	}
	return false
}

func mentions(n ast.Node, target string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n.(type) {
		case *ast.Ident, *ast.SelectorExpr:
			if e, ok := n.(ast.Expr); ok && exprString(e) == target {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// exprString renders the small lvalue expressions the classifier compares
// (identifiers, selector chains, index and deref forms).
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.ParenExpr:
		return "(" + exprString(e.X) + ")"
	case *ast.BasicLit:
		return e.Value
	default:
		return "?"
	}
}
