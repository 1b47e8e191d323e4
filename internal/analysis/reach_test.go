package analysis_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"robuststore/internal/analysis"
)

// internalPrefix is the import-path prefix of the packages whose exports
// the reach test audits. An identifier is named relative to it:
// "core.Replica", "exp/search.LoadPins", "shard.Store.ExecuteTxn".
const internalPrefix = "robuststore/internal/"

// TestEveryExportIsReached fails when an exported func, type, var, const
// or method declared in a non-test file under internal/ is referred to by
// no non-test file of the module or of bench/: code that only tests reach
// is deleted with its tests. A package-level name is reached when a use
// type-checks to it, or when bench/ names it qualified by its package; a
// method is reached when a selector of its name appears anywhere, so a call
// through an interface counts. testdata/reach_allow.txt lists the
// exceptions, one identifier and its reason a line; an entry that is
// reached now, or no longer declared, fails too.
func TestEveryExportIsReached(t *testing.T) {
	pkgs, err := analysis.Load("robuststore/...")
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]token.Position{}
	methodName := map[string]string{}
	reached := map[string]bool{}
	selectors := map[string]bool{}
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.PkgPath, internalPrefix) {
			continue
		}
		rel := strings.TrimPrefix(pkg.PkgPath, internalPrefix)
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				declared[rel+"."+name] = pkg.Fset.Position(obj.Pos())
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			for _, m := range methods(tn.Type()) {
				if m.Exported() {
					key := rel + "." + name + "." + m.Name()
					declared[key] = pkg.Fset.Position(m.Pos())
					methodName[key] = m.Name()
				}
			}
		}
	}
	for _, pkg := range pkgs {
		// Each package is checked on its own, its imports read from export
		// data, so a use is matched to a declaration by package and name.
		for _, obj := range pkg.TypesInfo.Uses {
			if p := obj.Pkg(); p != nil && strings.HasPrefix(p.Path(), internalPrefix) && p.Scope().Lookup(obj.Name()) == obj {
				reached[strings.TrimPrefix(p.Path(), internalPrefix)+"."+obj.Name()] = true
			}
		}
		for _, f := range pkg.Syntax {
			collectSelectors(f, selectors, nil, reached)
		}
	}
	benchFiles, err := filepath.Glob(filepath.Join(root, "bench", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range benchFiles {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		collectSelectors(f, selectors, internalImports(f), reached)
	}
	for key, name := range methodName {
		if selectors[name] {
			reached[key] = true
		}
	}

	allow := readAllowlist(t, "testdata/reach_allow.txt")
	var problems []string
	for key, pos := range declared {
		if reached[key] {
			continue
		}
		if !allow[key] {
			file, _ := filepath.Rel(root, pos.Filename)
			problems = append(problems, fmt.Sprintf("%s (%s:%d) is exported but no non-test file refers to it: "+
				"delete it with its tests, or list it with a reason", key, file, pos.Line))
		}
	}
	for key := range allow {
		if _, ok := declared[key]; !ok {
			problems = append(problems, key+" is allowlisted but no longer declared: drop its line")
		} else if reached[key] {
			problems = append(problems, key+" is allowlisted but reached now: drop its line")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// methods returns the methods declared on a named type: its own for a
// concrete type, its explicit ones for an interface.
func methods(typ types.Type) []*types.Func {
	named, ok := typ.(*types.Named)
	if !ok {
		return nil
	}
	var out []*types.Func
	if iface, ok := named.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumExplicitMethods(); i++ {
			out = append(out, iface.ExplicitMethod(i))
		}
		return out
	}
	for i := 0; i < named.NumMethods(); i++ {
		out = append(out, named.Method(i))
	}
	return out
}

// collectSelectors records the name of every selector in f. With imports
// (local name → path relative to internalPrefix) it also marks a
// package-qualified name as reached; this is how bench/, which is parsed
// but not type-checked, reaches package-level names.
func collectSelectors(f *ast.File, selectors map[string]bool, imports map[string]string, reached map[string]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selectors[sel.Sel.Name] = true
		if x, ok := sel.X.(*ast.Ident); ok {
			if rel, ok := imports[x.Name]; ok {
				reached[rel+"."+sel.Sel.Name] = true
			}
		}
		return true
	})
}

// internalImports maps the local name of each internal package f imports
// to its path relative to internalPrefix.
func internalImports(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, spec := range f.Imports {
		path, err := strconv.Unquote(spec.Path.Value)
		if err != nil || !strings.HasPrefix(path, internalPrefix) {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if spec.Name != nil {
			name = spec.Name.Name
		}
		out[name] = strings.TrimPrefix(path, internalPrefix)
	}
	return out
}

// readAllowlist reads "identifier reason..." lines and returns the
// identifiers; blank lines and lines starting with # are skipped, and an
// entry without a reason fails.
func readAllowlist(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]bool{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		key, reason, _ := strings.Cut(text, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", path, line, key)
		}
		allow[key] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}
