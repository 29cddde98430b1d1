// Package lintutil carries the pieces the determinism analyzers share: the
// determinism-relevant package scope, the `//dvz:<name>` waiver-directive
// comments and the *rand.Rand type test.
package lintutil

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeterminismScope is the default analyzer scope: the packages whose code
// must replay byte-identically for any worker count and across
// cancel/resume. Wall-clock, environment reads and ad-hoc RNG stay legal
// everywhere else (internal/server, internal/experiments, the cmd
// binaries).
const DeterminismScope = "dejavuzz," +
	"dejavuzz/internal/core," +
	"dejavuzz/internal/scenario," +
	"dejavuzz/internal/gen," +
	"dejavuzz/internal/campaign," +
	"dejavuzz/internal/triage"

// InScope reports whether pkgPath is named by the comma-separated scope
// list. The element "*" matches every package (test fixtures).
func InScope(scope, pkgPath string) bool {
	for _, s := range strings.Split(scope, ",") {
		s = strings.TrimSpace(s)
		if s == "*" || s == pkgPath {
			return true
		}
	}
	return false
}

// Directives indexes the `//dvz:<name> <justification>` waiver comments of
// one package for one directive name.
type Directives struct {
	fset *token.FileSet
	// byLine maps file name then line to the text after the directive
	// marker (the justification, possibly empty).
	byLine map[string]map[int]string
}

// Collect gathers every `//dvz:<name>` comment in the files. The
// justification is whatever follows the marker on the same line.
func Collect(fset *token.FileSet, files []*ast.File, name string) *Directives {
	marker := "//dvz:" + name
	d := &Directives{fset: fset, byLine: make(map[string]map[int]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, marker)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := d.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int]string)
					d.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = strings.TrimSpace(rest)
			}
		}
	}
	return d
}

// At returns the waiver covering the node at pos: a directive comment
// trailing the same line or sitting on the line directly above.
func (d *Directives) At(pos token.Pos) (justification string, ok bool) {
	p := d.fset.Position(pos)
	lines := d.byLine[p.Filename]
	if lines == nil {
		return "", false
	}
	if j, ok := lines[p.Line]; ok {
		return j, true
	}
	if j, ok := lines[p.Line-1]; ok {
		return j, true
	}
	return "", false
}

// IsRandRand reports whether t is math/rand's or math/rand/v2's Rand, or
// a pointer to one.
func IsRandRand(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Name() != "Rand" {
		return false
	}
	path := obj.Pkg().Path()
	return path == "math/rand" || path == "math/rand/v2"
}
