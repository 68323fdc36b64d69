// Package archtest holds the module's architecture rules: what the code may
// not declare, name, import or write, and which paths may not exist. Every
// file here is a test file, so the package builds nothing into the module.
//
// Each rule is one Test in rules_test.go. Its doc comment states the rule in
// one sentence and names, by its CHANGES.md headline, the change that
// introduced it; its body passes the rule as data to check: the part of the tree the rule reads (its
// directories or files, and whether _test.go files count) and what the rule
// forbids there (declarations, identifiers, imports, string or comment
// text, paths, or a structural condition), with the files or enclosing
// functions it allows. check runs the rule twice. Over the module (every
// .go file, whatever its build tags, outside benchmark/, which is its own
// module, and outside every testdata/) it must find nothing. Over the
// rule's violating fixture, testdata/<TestName>/, a tree laid out like the
// module, it must flag exactly the lines that end in "// want" and every
// forbidden path.
//
// To add a rule: write a Test with its one-sentence doc comment, a check
// call that states the rule, and a fixture holding at least one violation
// of each thing the rule forbids, each marked "// want" — plus, where the
// rule allows something or skips _test.go files, an unmarked case that
// must not be flagged.
package archtest

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// rule is one architecture rule as data. Each pattern is a regexp, searched
// for anywhere in what it is matched against; empty forbids nothing.
type rule struct {
	in    []string // tree-relative files, or directories with their subdirectories; none: the whole tree
	tests bool     // read _test.go files too

	decls   string   // a top-level declaration: "func F", "func (*T) M", "type T", "var V", "const C"; an interface method is "func (I) M"
	idents  string   // an identifier in code: "pkg.Name" when an import qualifies it (the package's name, whatever the file calls it), the bare name otherwise
	imports string   // an import path
	text    string   // the text of a string literal, quotes included, or of a comment
	paths   []string // globs, relative to the tree root, that must match nothing

	// inspect checks a structural condition over the files in scope.
	inspect func(files []*file, report reporter)

	// allow exempts a match whose "path:decl" it matches, decl being the
	// enclosing top-level declaration written as decls writes it ("" outside
	// one); for a declaration, the declaration itself.
	allow string
}

// reporter records a violation at pos in f; a nil f means the rule found
// no file to check.
type reporter func(f *file, pos token.Pos, what string)

// file is one parsed .go file of a tree.
type file struct {
	path string // slash-separated, relative to the tree root
	test bool
	src  []byte
	fset *token.FileSet
	ast  *ast.File
	pkgs map[string]string // the name an import has in this file -> the package's name
	top  []decl            // top-level declarations, interface methods included
}

type decl struct {
	pos, end token.Pos
	name     string // as rule.decls writes it
	method   bool   // an interface method, inside its type's declaration
}

type finding struct {
	path string
	line int // 0 for a path that exists
	what string
}

func (f finding) String() string {
	if f.line == 0 {
		return f.path + ": " + f.what
	}
	return fmt.Sprintf("%s:%d: %s", f.path, f.line, f.what)
}

// tree is every .go file under root.
type tree struct {
	root  string
	files []*file
}

var module = sync.OnceValues(func() (*tree, error) { return load("../..") })

// load parses every .go file under root except under root/benchmark and
// any testdata directory.
func load(root string) (*tree, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	t := &tree{root: root}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if p != root && (d.Name() == "testdata" || d.Name() == ".git" || rel == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		af, err := parser.ParseFile(fset, p, src, parser.ParseComments)
		if err != nil {
			return err
		}
		t.files = append(t.files, newFile(fset, rel, src, af))
		return nil
	})
	return t, err
}

var majorVersion = regexp.MustCompile(`^v[0-9]+$`)

func newFile(fset *token.FileSet, rel string, src []byte, af *ast.File) *file {
	f := &file{path: rel, test: strings.HasSuffix(rel, "_test.go"), src: src, fset: fset, ast: af, pkgs: map[string]string{}}
	for _, is := range af.Imports {
		p, _ := strconv.Unquote(is.Path.Value)
		name := path.Base(p)
		if majorVersion.MatchString(name) && path.Dir(p) != "." {
			name = path.Base(path.Dir(p))
		}
		local := name
		if is.Name != nil {
			local = is.Name.Name
		}
		f.pkgs[local] = name
	}
	add := func(n ast.Node, name string, method bool) {
		f.top = append(f.top, decl{n.Pos(), n.End(), name, method})
	}
	for _, d := range af.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			add(d, funcName(d), false)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s, "type "+s.Name.Name, false)
					if it, ok := s.Type.(*ast.InterfaceType); ok {
						for _, m := range it.Methods.List {
							for _, n := range m.Names {
								add(m, fmt.Sprintf("func (%s) %s", s.Name.Name, n.Name), true)
							}
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(s, d.Tok.String()+" "+n.Name, false)
					}
				}
			}
		}
	}
	return f
}

func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return "func " + d.Name.Name
	}
	return fmt.Sprintf("func (%s) %s", recvType(d.Recv.List[0].Type), d.Name.Name)
}

func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "*" + recvType(e.X)
	case *ast.ParenExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

// enclosing returns the top-level declaration around pos, "" if none.
func (f *file) enclosing(pos token.Pos) string {
	for _, d := range f.top {
		if !d.method && d.pos <= pos && pos <= d.end {
			return d.name
		}
	}
	return ""
}

// qualified returns "pkg.Name" when x is a selector on an import of f.
func (f *file) qualified(x ast.Expr) (string, bool) {
	sel, ok := x.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Obj != nil { // Obj is set when a local name shadows the import
		return "", false
	}
	pkg, ok := f.pkgs[id.Name]
	return pkg + "." + sel.Sel.Name, ok
}

// idents calls visit for each identifier in code, an import-qualified one
// as "pkg.Name".
func (f *file) idents(visit func(pos token.Pos, name string)) {
	ast.Inspect(f.ast, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ImportSpec:
			return false
		case *ast.SelectorExpr:
			if q, ok := f.qualified(n); ok {
				visit(n.Sel.Pos(), q)
				return false
			}
		case *ast.Ident:
			visit(n.Pos(), n.Name)
		}
		return true
	})
}

// texts calls visit for each comment and string literal as written.
func (f *file) texts(visit func(pos token.Pos, s string)) {
	for _, cg := range f.ast.Comments {
		for _, c := range cg.List {
			visit(c.Slash, c.Text)
		}
	}
	ast.Inspect(f.ast, func(n ast.Node) bool {
		if l, ok := n.(*ast.BasicLit); ok && l.Kind == token.STRING {
			visit(l.ValuePos, l.Value)
		}
		return true
	})
}

// typeName writes a type expression as rule.idents writes a name.
func (f *file) typeName(e ast.Expr) string {
	if s, ok := e.(*ast.StarExpr); ok {
		return "*" + f.typeName(s.X)
	}
	if q, ok := f.qualified(e); ok {
		return q
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

func (r rule) reads(f *file) bool {
	if f.test && !r.tests {
		return false
	}
	if len(r.in) == 0 {
		return true
	}
	for _, in := range r.in {
		if f.path == in || strings.HasPrefix(f.path, in+"/") {
			return true
		}
	}
	return false
}

func compile(pattern string) *regexp.Regexp {
	if pattern == "" {
		return nil
	}
	return regexp.MustCompile(pattern)
}

// run returns what r finds in t.
func (r rule) run(t *tree) []finding {
	decls, idents, imports, text, allow := compile(r.decls), compile(r.idents), compile(r.imports), compile(r.text), compile(r.allow)
	var out []finding
	report := func(f *file, pos token.Pos, what string) {
		if f == nil {
			out = append(out, finding{path: strings.Join(r.in, ", "), what: what})
			return
		}
		if allow != nil && allow.MatchString(f.path+":"+f.enclosing(pos)) {
			return
		}
		out = append(out, finding{f.path, f.fset.Position(pos).Line, what})
	}
	var scoped []*file
	for _, f := range t.files {
		if !r.reads(f) {
			continue
		}
		scoped = append(scoped, f)
		for _, d := range f.top {
			if decls != nil && decls.MatchString(d.name) {
				report(f, d.pos, "declares "+d.name)
			}
		}
		for _, is := range f.ast.Imports {
			if p, _ := strconv.Unquote(is.Path.Value); imports != nil && imports.MatchString(p) {
				report(f, is.Pos(), "imports "+p)
			}
		}
		if idents != nil {
			f.idents(func(pos token.Pos, name string) {
				if idents.MatchString(name) {
					report(f, pos, "names "+name)
				}
			})
		}
		if text != nil {
			f.texts(func(pos token.Pos, s string) {
				for _, m := range text.FindAllStringIndex(s, -1) {
					report(f, pos+token.Pos(m[0]), "writes "+s[m[0]:m[1]])
				}
			})
		}
	}
	if r.inspect != nil {
		r.inspect(scoped, report)
	}
	for _, g := range r.paths {
		matches, err := filepath.Glob(filepath.Join(t.root, filepath.FromSlash(g)))
		if err != nil {
			panic(err)
		}
		for _, m := range matches {
			rel, _ := filepath.Rel(t.root, m)
			out = append(out, finding{path: filepath.ToSlash(rel), what: "matches " + g})
		}
	}
	return out
}

// check holds the module to rules and requires them to flag the test's
// fixture, testdata/<TestName>, on exactly its "// want" lines and at
// every forbidden path.
func check(t *testing.T, rules ...rule) {
	t.Helper()
	mod, err := module()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		for _, f := range r.run(mod) {
			t.Errorf("%s", f)
		}
	}
	fixture, err := load(filepath.Join("testdata", t.Name()))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{} // "path:line" marked // want -> flagged
	for _, f := range fixture.files {
		for i, line := range bytes.Split(f.src, []byte("\n")) {
			if bytes.HasSuffix(bytes.TrimSpace(line), []byte("// want")) {
				want[fmt.Sprintf("%s:%d", f.path, i+1)] = false
			}
		}
	}
	if len(want) == 0 && !slices.ContainsFunc(rules, func(r rule) bool { return len(r.paths) > 0 }) {
		t.Fatalf("fixture testdata/%s marks no line // want", t.Name())
	}
	for _, r := range rules {
		matched := map[string]bool{}
		for _, f := range r.run(fixture) {
			if f.line == 0 {
				matched[f.what] = true
				continue
			}
			key := fmt.Sprintf("%s:%d", f.path, f.line)
			if _, ok := want[key]; !ok {
				t.Errorf("fixture: %s, on a line not marked // want", f)
			}
			want[key] = true
		}
		for _, g := range r.paths {
			if !matched["matches "+g] {
				t.Errorf("fixture: nothing matches %s", g)
			}
		}
	}
	for key, flagged := range want {
		if !flagged {
			t.Errorf("fixture: %s is marked // want but not flagged", key)
		}
	}
}

// exactlyOnce returns an inspect that requires each file in scope, and at
// least one, to name pattern (as rule.idents matches names) exactly once.
func exactlyOnce(pattern string) func([]*file, reporter) {
	re := regexp.MustCompile(pattern)
	return func(files []*file, report reporter) {
		if len(files) == 0 {
			report(nil, token.NoPos, "no file to name "+pattern)
		}
		for _, f := range files {
			var at []token.Pos
			f.idents(func(pos token.Pos, name string) {
				if re.MatchString(name) {
					at = append(at, pos)
				}
			})
			switch len(at) {
			case 0:
				report(f, f.ast.Package, "names "+pattern+" nowhere, want once")
			case 1:
			default:
				for _, pos := range at {
					report(f, pos, fmt.Sprintf("names %s %d times, want once", pattern, len(at)))
				}
			}
		}
	}
}
