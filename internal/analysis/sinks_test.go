package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSinksNameObsDeclarations: every key of instrumentationSinks and
// metricNameSinks names a function or method declared in internal/obs, in
// sinkKey's form ("Type.Method" or a bare function name). A key that names
// nothing never matches a call, so the rule it stands for silently lapses.
// The obs sources are only parsed: declarations need no type-checking.
func TestSinksNameObsDeclarations(t *testing.T) {
	dir := filepath.Join("..", "obs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			key := fn.Name.Name
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if ident, ok := recv.(*ast.Ident); ok {
					key = ident.Name + "." + key
				}
			}
			declared[key] = true
		}
	}
	if len(declared) < 50 {
		t.Fatalf("parsed only %d obs declarations from %s", len(declared), dir)
	}
	for key := range instrumentationSinks {
		if !declared[key] {
			t.Errorf("instrumentationSinks key %q names no function or method in internal/obs", key)
		}
	}
	for key := range metricNameSinks {
		if !declared[key] {
			t.Errorf("metricNameSinks key %q names no function or method in internal/obs", key)
		}
	}
}
