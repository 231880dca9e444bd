package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseDirectives(t *testing.T, src string) *Directives {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return NewDirectives(fset, []*ast.File{f})
}

func TestIgnoreRequiresReason(t *testing.T) {
	cases := []struct {
		name string
		text string
		bad  bool
	}{
		{"bare", "//mdvet:ignore", true},
		{"analyzer only", "//mdvet:ignore collsym", true},
		{"with reason", "//mdvet:ignore collsym caller holds a single-rank world", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := parseDirectives(t, "package p\n\nfunc f() {\n\t"+c.text+"\n\t_ = 1\n}\n")
			bad := d.Bad()
			if c.bad {
				if len(bad) != 1 || !strings.Contains(bad[0].Message, "malformed //mdvet:ignore") {
					t.Fatalf("want one malformed-directive diagnostic, got %v", bad)
				}
				return
			}
			if len(bad) != 0 {
				t.Fatalf("unexpected diagnostics: %v", bad)
			}
		})
	}
}

func TestIgnoreCoverage(t *testing.T) {
	d := parseDirectives(t, `package p

func f() {
	//mdvet:ignore collsym reason text
	_ = 1
}
`)
	at := func(line int) token.Position { return token.Position{Filename: "fix.go", Line: line} }
	if !d.Ignored("collsym", at(4)) {
		t.Error("directive line itself not covered")
	}
	if !d.Ignored("collsym", at(5)) {
		t.Error("line below the directive not covered")
	}
	if d.Ignored("collsym", at(6)) {
		t.Error("directive must not leak past the next line")
	}
	if d.Ignored("maporder", at(5)) {
		t.Error("directive must only suppress the named analyzer")
	}
}

func TestPanicsRequireReason(t *testing.T) {
	cases := []struct {
		name string
		text string
		bad  string // expected malformed-message fragment, "" for valid
	}{
		{"panics bare", "//mdvet:panics", "malformed //mdvet:panics"},
		{"panics with reason", "//mdvet:panics unreachable: caller validated the range", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := parseDirectives(t, "package p\n\nfunc f() {\n\t"+c.text+"\n\t_ = 1\n}\n")
			bad := d.Bad()
			if c.bad != "" {
				if len(bad) != 1 || !strings.Contains(bad[0].Message, c.bad) {
					t.Fatalf("want one %q diagnostic, got %v", c.bad, bad)
				}
				return
			}
			if len(bad) != 0 {
				t.Fatalf("unexpected diagnostics: %v", bad)
			}
		})
	}
}

func TestPanicsCoverage(t *testing.T) {
	d := parseDirectives(t, `package p

func f() {
	//mdvet:panics unreachable by construction
	panic("x")
}
`)
	at := func(line int) token.Position { return token.Position{Filename: "fix.go", Line: line} }
	if !d.PanicAllowed(at(4)) || !d.PanicAllowed(at(5)) {
		t.Error("panics must cover its own line and the next")
	}
	if d.PanicAllowed(at(3)) {
		t.Error("panics must not cover the line above")
	}
	if d.PanicAllowed(at(6)) {
		t.Error("panics must not leak past the next line")
	}
	if d.Ignored("errpanic", at(5)) {
		t.Error("a panics directive must not act as an ignore")
	}
}

func TestStaleDirectives(t *testing.T) {
	d := parseDirectives(t, `package p

func f() {
	//mdvet:ignore collsym used below
	_ = 1
	//mdvet:ignore maporder never fires
	_ = 2
	//mdvet:panics never consulted
	_ = 3
	//mdvet:panics consulted below
	_ = 4
}
`)
	at := func(line int) token.Position { return token.Position{Filename: "fix.go", Line: line} }
	// Simulate the analyzers: collsym suppresses at line 5, errpanic
	// consults line 11; the maporder ignore and the first panics stay unused.
	if !d.Ignored("collsym", at(5)) {
		t.Fatal("collsym ignore should cover line 5")
	}
	if !d.PanicAllowed(at(11)) {
		t.Fatal("panics directive should cover line 11")
	}
	stale := d.Stale()
	if len(stale) != 2 {
		t.Fatalf("want 2 stale directives, got %v", stale)
	}
	if stale[0].Pos.Line != 6 || !strings.Contains(stale[0].Message, "stale //mdvet:ignore maporder") {
		t.Errorf("stale[0] = %v, want the unused maporder ignore at line 6", stale[0])
	}
	if stale[1].Pos.Line != 8 || !strings.Contains(stale[1].Message, "stale //mdvet:panics") {
		t.Errorf("stale[1] = %v, want the unused panics at line 8", stale[1])
	}
}

func TestHotAndCollectiveDirectives(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", `package p

// kernel inner loop.
//
//mdvet:hot
func hot() {}

//mdvet:collective
func coll() {}

//mdvet:boundary
func bound() {}

func plain() {}
`, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDirectives(fset, []*ast.File{f})
	fns := map[string]*ast.FuncDecl{}
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok {
			fns[fn.Name.Name] = fn
		}
	}
	if !d.IsHot(fns["hot"]) || d.IsHot(fns["coll"]) || d.IsHot(fns["plain"]) {
		t.Error("IsHot must reflect exactly the //mdvet:hot doc comments")
	}
	if !d.IsCollective(fns["coll"]) || d.IsCollective(fns["hot"]) || d.IsCollective(fns["plain"]) {
		t.Error("IsCollective must reflect exactly the //mdvet:collective doc comments")
	}
	if !d.IsBoundary(fns["bound"]) || d.IsBoundary(fns["coll"]) || d.IsBoundary(fns["plain"]) {
		t.Error("IsBoundary must reflect exactly the //mdvet:boundary doc comments")
	}
}
