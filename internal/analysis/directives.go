package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive comment prefixes. They use the Go directive-comment form
// ("//mdvet:..." with no space), which gofmt never reflows.
const (
	ignoreDirective     = "//mdvet:ignore"
	panicsDirective     = "//mdvet:panics"
	hotDirective        = "//mdvet:hot"
	collectiveDirective = "//mdvet:collective"
	boundaryDirective   = "//mdvet:boundary"
)

type ignoreKey struct {
	file string
	line int
}

// posDirective is one positional suppression directive (ignore,
// panics). Analyzers mark it used when it actually suppresses
// a finding; a directive still unused after every analyzer ran is itself a
// finding (stale suppression — see Stale).
type posDirective struct {
	kind string // directive prefix, for messages
	pos  token.Position
	used bool
}

// Directives is the parsed set of //mdvet: comments of one package.
type Directives struct {
	// ignores maps a (file, line) to the analyzer names suppressed there.
	// A directive on line L suppresses findings on L (trailing comment)
	// and L+1 (full-line comment above the flagged statement).
	ignores map[ignoreKey]map[string]*posDirective
	// panics is positional like ignore but analyzer-bound: it licenses a
	// bare panic for errpanic.
	panics map[ignoreKey]*posDirective
	// hot, collective, and boundary hold the positions of annotated
	// FuncDecls.
	hot        map[token.Pos]bool
	collective map[token.Pos]bool
	boundary   map[token.Pos]bool
	// all positional directives in parse order, for Stale.
	positional []*posDirective
	bad        []Diagnostic
}

// NewDirectives scans the files' comments for //mdvet: directives.
// Malformed directives (a suppression without its mandatory reason)
// become diagnostics retrievable via Bad.
func NewDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{
		ignores:    map[ignoreKey]map[string]*posDirective{},
		panics:     map[ignoreKey]*posDirective{},
		hot:        map[token.Pos]bool{},
		collective: map[token.Pos]bool{},
		boundary:   map[token.Pos]bool{},
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d.parseComment(fset, c)
			}
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			for _, c := range fn.Doc.List {
				switch directiveName(c.Text) {
				case hotDirective:
					d.hot[fn.Pos()] = true
				case collectiveDirective:
					d.collective[fn.Pos()] = true
				case boundaryDirective:
					d.boundary[fn.Pos()] = true
				}
			}
		}
	}
	return d
}

// directiveName returns the matching directive prefix of a comment, or "".
func directiveName(text string) string {
	for _, p := range []string{
		ignoreDirective, panicsDirective,
		hotDirective, collectiveDirective, boundaryDirective,
	} {
		if text == p || strings.HasPrefix(text, p+" ") {
			return p
		}
	}
	return ""
}

func (d *Directives) parseComment(fset *token.FileSet, c *ast.Comment) {
	name := directiveName(c.Text)
	pos := fset.Position(c.Pos())
	rest := strings.TrimSpace(strings.TrimPrefix(c.Text, name))
	fields := strings.Fields(rest)
	switch name {
	case ignoreDirective:
		if len(fields) < 2 {
			d.bad = append(d.bad, Diagnostic{
				Analyzer: "mdvet",
				Pos:      pos,
				Message:  "malformed //mdvet:ignore: want \"//mdvet:ignore <analyzer> <reason>\" (the reason is mandatory)",
			})
			return
		}
		key := ignoreKey{file: pos.Filename, line: pos.Line}
		if d.ignores[key] == nil {
			d.ignores[key] = map[string]*posDirective{}
		}
		pd := &posDirective{kind: ignoreDirective + " " + fields[0], pos: pos}
		d.ignores[key][fields[0]] = pd
		d.positional = append(d.positional, pd)
	case panicsDirective:
		if len(fields) < 1 {
			d.bad = append(d.bad, Diagnostic{
				Analyzer: "mdvet",
				Pos:      pos,
				Message:  "malformed " + name + ": want \"" + name + " <reason>\" (the reason is mandatory)",
			})
			return
		}
		pd := &posDirective{kind: name, pos: pos}
		d.panics[ignoreKey{file: pos.Filename, line: pos.Line}] = pd
		d.positional = append(d.positional, pd)
	}
}

// Ignored reports whether an //mdvet:ignore for the analyzer covers pos,
// and marks the directive used (a suppression that fires is not stale).
func (d *Directives) Ignored(analyzer string, pos token.Position) bool {
	if d == nil {
		return false
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		if pd := d.ignores[ignoreKey{file: pos.Filename, line: line}][analyzer]; pd != nil {
			pd.used = true
			return true
		}
	}
	return false
}

// PanicAllowed reports whether an //mdvet:panics directive covers pos
// (same line or the line above, like ignore), marking it used.
func (d *Directives) PanicAllowed(pos token.Position) bool {
	if d == nil {
		return false
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		if pd := d.panics[ignoreKey{file: pos.Filename, line: line}]; pd != nil {
			pd.used = true
			return true
		}
	}
	return false
}

// IsHot reports whether fn carries //mdvet:hot in its doc comment.
func (d *Directives) IsHot(fn *ast.FuncDecl) bool {
	return d != nil && fn != nil && d.hot[fn.Pos()]
}

// IsCollective reports whether fn carries //mdvet:collective in its doc
// comment.
func (d *Directives) IsCollective(fn *ast.FuncDecl) bool {
	return d != nil && fn != nil && d.collective[fn.Pos()]
}

// IsBoundary reports whether fn carries //mdvet:boundary in its doc
// comment: the function is a declared checkpoint/preemption boundary, so
// loops reaching it satisfy the preemptpoll contract.
func (d *Directives) IsBoundary(fn *ast.FuncDecl) bool {
	return d != nil && fn != nil && d.boundary[fn.Pos()]
}

// Bad returns one diagnostic per malformed directive.
func (d *Directives) Bad() []Diagnostic {
	if d == nil {
		return nil
	}
	return d.bad
}

// Stale returns one diagnostic per positional suppression directive that
// suppressed nothing. Only meaningful after every analyzer has run over
// the package (Check guarantees that); a directive whose analyzer never
// queried its position is dead weight that silently licenses future
// regressions, so it is a finding in its own right.
func (d *Directives) Stale() []Diagnostic {
	if d == nil {
		return nil
	}
	var out []Diagnostic
	for _, pd := range d.positional {
		if pd.used {
			continue
		}
		out = append(out, Diagnostic{
			Analyzer: "mdvet",
			Pos:      pd.pos,
			Message:  "stale " + pd.kind + " directive: it suppresses no finding (remove it, or the contract drifted)",
		})
	}
	return out
}
