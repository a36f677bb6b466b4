package memfp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// stdlibMethods are the method names only the standard library calls:
// fmt.Stringer, error, http.Handler, sort.Interface and container/heap's
// Push and Pop, http.RoundTripper.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "ServeHTTP": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"RoundTrip": true,
}

// TestNoUnusedExports fails on every exported func, type, const, var or
// method in the module that no non-test code names. The benchmark module
// under bench/ counts as a user but is not itself checked. A top-level
// name is used when its own package names it or another package selects
// it through an import; a method is used when any code selects its name.
// Neither a method receiver nor a `var _ T = v` assertion is a use. Any
// other identifier spelled like a name counts as its use, so the guard
// can miss dead code but never flags live code.
func TestNoUnusedExports(t *testing.T) {
	type decl struct {
		pos  token.Position
		name string // qualified name in the report
		key  string // a method's name, or a top-level one's pkg.Name
	}
	fset := token.NewFileSet()
	var decls []decl
	used := map[string]bool{} // pkg.Name for top-level names, Name for methods

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "memfp"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		checked := pkg != "memfp/bench" && !strings.HasPrefix(pkg, "memfp/bench/")
		imports := map[string]string{}
		for _, s := range f.Imports {
			p, _ := strconv.Unquote(s.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if s.Name != nil {
				name = s.Name.Name
			}
			imports[name] = p
		}
		declare := func(id *ast.Ident, qualified, key string) {
			if checked && id.IsExported() {
				decls = append(decls, decl{fset.Position(id.Pos()), qualified, key})
			}
		}
		var uses func(n ast.Node)
		uses = func(n ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
						used[imports[id.Name]+"."+x.Sel.Name] = true
						return false
					}
					used[x.Sel.Name] = true
					uses(x.X)
					return false
				case *ast.Field: // a field's or parameter's own name is no use
					uses(x.Type)
					return false
				case *ast.Ident:
					used[pkg+"."+x.Name] = true
				}
				return true
			})
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declare(d.Name, pkg+"."+d.Name.Name, pkg+"."+d.Name.Name)
				} else {
					recv := d.Recv.List[0].Type
					if s, ok := recv.(*ast.StarExpr); ok {
						recv = s.X
					}
					if g, ok := recv.(*ast.IndexExpr); ok {
						recv = g.X
					}
					if g, ok := recv.(*ast.IndexListExpr); ok {
						recv = g.X
					}
					declare(d.Name, pkg+"."+recv.(*ast.Ident).Name+"."+d.Name.Name, d.Name.Name)
				}
				uses(d.Type)
				if d.Body != nil {
					uses(d.Body)
				}
			case *ast.GenDecl:
				if d.Tok == token.IMPORT {
					continue
				}
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declare(s.Name, pkg+"."+s.Name.Name, pkg+"."+s.Name.Name)
						if it, ok := s.Type.(*ast.InterfaceType); ok {
							for _, m := range it.Methods.List {
								for _, n := range m.Names {
									declare(n, pkg+"."+s.Name.Name+"."+n.Name, n.Name)
								}
							}
						}
						if s.TypeParams != nil {
							uses(s.TypeParams)
						}
						uses(s.Type)
					case *ast.ValueSpec:
						assertion := s.Type != nil
						for _, n := range s.Names {
							declare(n, pkg+"."+n.Name, pkg+"."+n.Name)
							assertion = assertion && n.Name == "_"
						}
						if assertion {
							continue
						}
						if s.Type != nil {
							uses(s.Type)
						}
						for _, v := range s.Values {
							uses(v)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var dead []string
	for _, d := range decls {
		if used[d.key] || (!strings.Contains(d.key, ".") && stdlibMethods[d.key]) {
			continue
		}
		dead = append(dead, d.pos.String()+": "+d.name)
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is exported but no non-test code names it", d)
	}
}
