package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Sanction/suppression markers. A marker is a comment of the form
//
//	//graphrules:<verb> [args...]
//
// attached to a function (doc comment) or a statement (same line, or a
// line comment immediately above). Verbs understood by the suite:
//
//	ctxshim       — this function is a sanctioned non-Ctx→Ctx wrapper
//	                shim; ctxflow permits its context.Background().
//	locktransfer  — this function intentionally returns while holding
//	                locks (ownership transfers to the caller); lockorder
//	                skips its held-at-return check.
//	vetignore     — suppress findings on this line (optionally only for
//	                the named analyzers: //graphrules:vetignore typederr).
const MarkerPrefix = "//graphrules:"

type marker struct {
	verb string
	args []string
}

// markerIndex maps file name → line → markers on that line.
type markerIndex map[string]map[int][]marker

// indexMarkers scans every comment in the package for graphrules
// markers.
func indexMarkers(fset *token.FileSet, files []*ast.File) markerIndex {
	idx := markerIndex{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, MarkerPrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				m := idx[pos.Filename]
				if m == nil {
					m = map[int][]marker{}
					idx[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], marker{verb: fields[0], args: fields[1:]})
			}
		}
	}
	return idx
}

func (idx markerIndex) at(file string, line int) []marker {
	return idx[file][line]
}

// lineMarked reports whether a marker with the verb (and, when the
// marker carries args, one naming arg) sits on the given line or the
// line above it.
func (idx markerIndex) lineMarked(file string, line int, verb, arg string) bool {
	for _, l := range []int{line, line - 1} {
		for _, m := range idx.at(file, l) {
			if m.verb != verb {
				continue
			}
			if verb == "vetignore" && len(m.args) > 0 && !containsStr(m.args, arg) {
				continue
			}
			return true
		}
	}
	return false
}

func containsStr(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// suppressed reports whether a //graphrules:vetignore marker covers a
// diagnostic of this pass's analyzer at pos.
func (p *Pass) suppressed(pos token.Pos) bool {
	if !pos.IsValid() {
		return false
	}
	pp := p.Fset.Position(pos)
	return p.markers.lineMarked(pp.Filename, pp.Line, "vetignore", p.Analyzer.Name)
}

// FuncMarked reports whether fn carries the marker verb in its doc
// comment or on the line of (or above) its declaration.
func (p *Pass) FuncMarked(fn *ast.FuncDecl, verb string) bool {
	if fn == nil {
		return false
	}
	if fn.Doc != nil {
		for _, c := range fn.Doc.List {
			if strings.HasPrefix(c.Text, MarkerPrefix+verb) {
				return true
			}
		}
	}
	pp := p.Fset.Position(fn.Pos())
	return p.markers.lineMarked(pp.Filename, pp.Line, verb, "")
}
