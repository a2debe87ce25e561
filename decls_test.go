package trio

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// stdInterfaceMethods are method names the standard library calls
// through its own interfaces (sort, heap, error, fmt, io, net/http): a
// method so named may be live with its name appearing nowhere else.
var stdInterfaceMethods = map[string]bool{
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Error": true, "String": true, "Unwrap": true, "Is": true, "As": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
}

// TestNoUnreferencedDeclarations fails on dead code the compiler lets
// through: a top-level func, method, type, var or const of a non-test
// file outside benchmark/ whose name appears as an identifier nowhere
// else in the module (test files and benchmark/ count as uses). Names
// are matched alone, not by package or receiver, so the check only ever
// misses dead code, never flags live code.
func TestNoUnreferencedDeclarations(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}
	var decls []*ast.Ident
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		if strings.HasSuffix(path, "_test.go") || strings.HasPrefix(filepath.ToSlash(path), "benchmark/") {
			return nil
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv == nil && (name == "main" || name == "init") ||
					d.Recv != nil && stdInterfaceMethods[name] {
					continue
				}
				decls = append(decls, d.Name)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						decls = append(decls, s.Name)
					case *ast.ValueSpec:
						decls = append(decls, s.Names...)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range decls {
		if id.Name != "_" && uses[id.Name] == 1 {
			t.Errorf("%s: %s is declared and never named anywhere else", fset.Position(id.Pos()), id.Name)
		}
	}
}

// TestNoSleepInController fails on a time.Sleep in the controller's
// non-test code. Every wait there is an event: a lease waiter parks on
// its file until a release, a death or its own deadline timer, and the
// sweeper's ticker and the fix handler's time.After are deadlines. A
// sleep is a poll, which can neither be woken nor counted where it ends.
func TestNoSleepInController(t *testing.T) {
	fset, files := controllerSources(t)
	for _, f := range files {
		timePkg := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"time"` {
				timePkg = "time"
				if imp.Name != nil {
					timePkg = imp.Name.Name
				}
			}
		}
		if timePkg == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sleep" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == timePkg {
					t.Errorf("%s: time.Sleep in the controller: wait on an event or a deadline instead", fset.Position(sel.Pos()))
				}
			}
			return true
		})
	}
}

// TestPageLedgerOnly fails on a write to the page ledger's tables outside
// internal/controller/pages.go: an index assignment (or ++, --) to
// pageOwner, allocPages or parked, or a delete or clear of one. Every move
// of a page between the allocator, a pool, a file and the parked set is a
// function of the ledger, and binds under its one rule (DESIGN.md §5a).
func TestPageLedgerOnly(t *testing.T) {
	ledger := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		return ok && (sel.Sel.Name == "pageOwner" || sel.Sel.Name == "allocPages" || sel.Sel.Name == "parked")
	}
	indexed := func(e ast.Expr) bool {
		ix, ok := e.(*ast.IndexExpr)
		return ok && ledger(ix.X)
	}
	fset, files := controllerSources(t)
	if files[filepath.Join("internal", "controller", "pages.go")] == nil {
		t.Fatal("no internal/controller/pages.go")
	}
	for path, f := range files {
		if filepath.Base(path) == "pages.go" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var write ast.Node
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					if indexed(l) {
						write = l
					}
				}
			case *ast.IncDecStmt:
				if indexed(n.X) {
					write = n
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && (id.Name == "delete" || id.Name == "clear") && len(n.Args) > 0 && ledger(n.Args[0]) {
					write = n
				}
			}
			if write != nil {
				t.Errorf("%s: a page ledger table written outside pages.go: move the page with a ledger function", fset.Position(write.Pos()))
			}
			return true
		})
	}
}

// controllerSources parses the non-test Go files of internal/controller,
// keyed by path.
func controllerSources(t *testing.T) (*token.FileSet, map[string]*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	paths, err := filepath.Glob(filepath.Join("internal", "controller", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]*ast.File{}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		if files[path], err = parser.ParseFile(fset, path, nil, parser.SkipObjectResolution); err != nil {
			t.Fatal(err)
		}
	}
	if len(files) == 0 {
		t.Fatal("found no controller source to check")
	}
	return fset, files
}
