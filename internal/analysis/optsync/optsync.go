// Package optsync checks that every field of the engine's Options
// (core.Options) is classified for determinism: each field must either be
// read by the DiffFrom enumeration (so an option mismatch on resume names
// the field) or be listed — with a justification — in the package's
// determinism-irrelevant allowlist variable. A field in both, a stale
// allowlist entry, or an entry without a justification is an error.
// Because EquivalentTo is defined as "DiffFrom finds nothing", this keeps
// option equivalence exactly as strict as a whole-struct comparison minus
// the allowlist: a new field cannot be added without classifying it.
//
// The wire Options (dejavuzz.Options) needs no such check: its JSON keys
// are its own field tags, so there is no mirror to drift, and the root
// package's round-trip tests pin every field.
package optsync

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"dejavuzz/internal/analysis/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "optsync",
	Doc:  "check that every core.Options field is enumerated by DiffFrom or allowlisted as determinism-irrelevant",
	Run:  run,
}

var (
	enginePkg string
	allowVar  string
)

func init() {
	Analyzer.Flags.StringVar(&enginePkg, "enginepkg", "dejavuzz/internal/core",
		"package holding the engine Options with DiffFrom")
	Analyzer.Flags.StringVar(&allowVar, "allowvar", "optionsDeterminismIrrelevant",
		"name of the determinism-irrelevant field allowlist variable in enginepkg")
}

func run(pass *analysis.Pass) (interface{}, error) {
	// lintutil.InScope keeps the flag syntax uniform with the other
	// analyzers when tests point the check at a fixture package.
	if lintutil.InScope(enginePkg, pass.Pkg.Path()) {
		checkEngine(pass)
	}
	return nil, nil
}

func checkEngine(pass *analysis.Pass) {
	st, fields, pos := optionsStruct(pass)
	if st == nil {
		pass.Reportf(pos, "optsync: package %s has no Options struct to check", pass.Pkg.Path())
		return
	}
	diff := findMethod(pass, "Options", "DiffFrom")
	if diff == nil {
		pass.Reportf(pos, "optsync: %s.Options has no DiffFrom method enumerating its determinism-relevant fields", pass.Pkg.Path())
		return
	}
	enumerated := fieldsReferenced(pass, diff.Body, fields)
	allow := allowlist(pass)

	names := make(map[string]bool, len(fields))
	for f := range fields {
		names[f.Name()] = true
	}
	for _, f := range orderedFields(st, fields) {
		inEnum := enumerated[f]
		_, inAllow := allow[f.Name()]
		switch {
		case inEnum && inAllow:
			pass.Reportf(f.Pos(), "Options.%s is both enumerated in DiffFrom and allowlisted as determinism-irrelevant; pick one", f.Name())
		case !inEnum && !inAllow:
			pass.Reportf(f.Pos(), "Options.%s is neither enumerated in DiffFrom nor listed in %s; classify the new field as determinism-relevant (add it to DiffFrom) or not (allowlist it with a justification)", f.Name(), allowVar)
		}
	}
	for name, entry := range allow {
		if !names[name] {
			pass.Reportf(entry.pos, "%s lists %q, which is not a field of Options", allowVar, name)
		} else if strings.TrimSpace(entry.justification) == "" {
			pass.Reportf(entry.pos, "%s entry %q has no justification", allowVar, name)
		}
	}
}

type allowEntry struct {
	justification string
	pos           token.Pos
}

// allowlist finds the package-level `var <allowVar> = map[string]string{…}`
// and returns its entries.
func allowlist(pass *analysis.Pass) map[string]allowEntry {
	out := make(map[string]allowEntry)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if name.Name != allowVar || i >= len(vs.Values) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.CompositeLit)
					if !ok {
						continue
					}
					for _, elt := range lit.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						key, kok := constString(pass, kv.Key)
						val, vok := constString(pass, kv.Value)
						if !kok {
							pass.Reportf(kv.Key.Pos(), "%s keys must be constant strings", allowVar)
							continue
						}
						if !vok {
							val = ""
						}
						out[key] = allowEntry{justification: val, pos: kv.Key.Pos()}
					}
				}
			}
		}
	}
	return out
}

func constString(pass *analysis.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return "", false
	}
	s := tv.Value.ExactString()
	if len(s) >= 2 && s[0] == '"' {
		return s[1 : len(s)-1], true
	}
	return s, true
}

// ---- helpers ----

// optionsStruct finds the package's Options struct and its field objects.
func optionsStruct(pass *analysis.Pass) (*types.Struct, map[*types.Var]bool, token.Pos) {
	pos := token.NoPos
	if len(pass.Files) > 0 {
		pos = pass.Files[0].Name.Pos()
	}
	obj, ok := pass.Pkg.Scope().Lookup("Options").(*types.TypeName)
	if !ok {
		return nil, nil, pos
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return nil, nil, pos
	}
	fields := make(map[*types.Var]bool, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		fields[st.Field(i)] = true
	}
	return st, fields, obj.Pos()
}

// orderedFields returns the struct's fields in declaration order
// (deterministic diagnostics).
func orderedFields(st *types.Struct, fields map[*types.Var]bool) []*types.Var {
	out := make([]*types.Var, 0, len(fields))
	for i := 0; i < st.NumFields(); i++ {
		if fields[st.Field(i)] {
			out = append(out, st.Field(i))
		}
	}
	return out
}

// findMethod locates the declaration of a method on the named type (value
// or pointer receiver).
func findMethod(pass *analysis.Pass, typeName, method string) *ast.FuncDecl {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != method || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			t := fd.Recv.List[0].Type
			if se, ok := t.(*ast.StarExpr); ok {
				t = se.X
			}
			if id, ok := t.(*ast.Ident); ok && id.Name == typeName {
				return fd
			}
		}
	}
	return nil
}

// fieldsReferenced walks a body and returns which of the given field
// objects it mentions — selector reads/writes and keyed composite-literal
// keys both resolve to the field object in the Uses map.
func fieldsReferenced(pass *analysis.Pass, body *ast.BlockStmt, fields map[*types.Var]bool) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && fields[v] {
			out[v] = true
		}
		return true
	})
	return out
}
