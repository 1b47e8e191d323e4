package analysis_test

import (
	"bufio"
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"robuststore/internal/analysis"
)

// internalPrefix is the import-path prefix of the packages whose exports
// the reach test audits. An identifier is named relative to it:
// "core.Replica", "exp/search.LoadPins", "shard.Store.ShardOf".
const internalPrefix = "robuststore/internal/"

// TestEveryExportIsReached fails when an exported func, type, var, const
// or method declared in a non-test file under internal/ is referred to by
// no non-test file of the module or of bench/: code that only tests reach
// is deleted with its tests. Both modules are type-checked. A package-level
// name is reached when a use type-checks to it. A method is reached when a
// selector in a non-test file resolves to it, or, for a method of a
// concrete type, when an interface that non-test code declares or names —
// or fmt.Stringer or error, which fmt and errors call dynamically — has a
// method of the same name, parameter types and result types: that is how
// a call through core.StateMachine reaches webtier's machine.
// testdata/reach_allow.txt lists the exceptions, one identifier and its
// reason a line; an entry that is reached now, or no longer declared,
// fails too.
func TestEveryExportIsReached(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load("robuststore/...")
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(filepath.Join(root, "bench"))
	benchPkgs, err := analysis.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	pkgs = append(pkgs, benchPkgs...)

	declared := map[string]token.Position{}
	concrete := map[string]string{} // method key → methodSig
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
			_, isIface := tn.Type().Underlying().(*types.Interface)
			for _, m := range methods(tn.Type()) {
				if m.Exported() {
					key := methodKey(m)
					declared[key] = pkg.Fset.Position(m.Pos())
					if !isIface {
						concrete[key] = methodSig(m)
					}
				}
			}
		}
	}

	reached := map[string]bool{}
	ifaceSigs := map[string]bool{"String()(string)": true, "Error()(string)": true}
	seen := map[types.Type]bool{}
	for _, pkg := range pkgs {
		// Each package is checked on its own, its imports read from export
		// data, so a use is matched to a declaration by package and name.
		for _, obj := range pkg.TypesInfo.Uses {
			if p := obj.Pkg(); p != nil && strings.HasPrefix(p.Path(), internalPrefix) && p.Scope().Lookup(obj.Name()) == obj {
				reached[strings.TrimPrefix(p.Path(), internalPrefix)+"."+obj.Name()] = true
			}
			interfaceSigs(obj.Type(), ifaceSigs, seen)
		}
		for _, obj := range pkg.TypesInfo.Defs {
			if obj != nil {
				interfaceSigs(obj.Type(), ifaceSigs, seen)
			}
		}
		for _, sel := range pkg.TypesInfo.Selections {
			if fn, ok := sel.Obj().(*types.Func); ok {
				reached[methodKey(fn)] = true
			}
		}
	}
	for key, sig := range concrete {
		if ifaceSigs[sig] {
			reached[key] = true
		}
	}

	allow := readAllowlist(t, filepath.Join(root, "internal/analysis/testdata/reach_allow.txt"))
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

// methodKey names a method as the reach test does, "shard.Store.ShardOf",
// whichever package's type-check the object comes from; a method of an
// instantiated generic type is named by its origin.
func methodKey(fn *types.Func) string {
	fn = fn.Origin()
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || fn.Pkg() == nil {
		return ""
	}
	typ := recv.Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	named, ok := typ.(*types.Named)
	if !ok {
		return ""
	}
	return strings.TrimPrefix(fn.Pkg().Path(), internalPrefix) + "." + named.Obj().Name() + "." + fn.Name()
}

// methodSig spells a method's name, parameter types and result types,
// "Snapshot()(any,int64)", so two type-checks of one signature compare
// equal.
func methodSig(fn *types.Func) string {
	return fn.Name() + signatureTypes(fn.Type().(*types.Signature))
}

// signatureTypes spells a signature's parameter and result types without
// their names, which an interface and its implementation may choose apart:
// "(string,func(string)(bool))(any)". A func-typed parameter is spelled
// the same way.
func signatureTypes(sig *types.Signature) string {
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			if fn, ok := tuple.At(i).Type().(*types.Signature); ok {
				b.WriteString("func" + signatureTypes(fn))
			} else {
				b.WriteString(types.TypeString(tuple.At(i).Type(), nil))
			}
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// interfaceSigs adds the methodSig of every method of every interface typ
// is or is built from — through pointers, containers and signatures, not
// through the fields or methods of a named type.
func interfaceSigs(typ types.Type, sigs map[string]bool, seen map[types.Type]bool) {
	if typ == nil || seen[typ] {
		return
	}
	seen[typ] = true
	switch t := typ.(type) {
	case *types.Named:
		if iface, ok := t.Underlying().(*types.Interface); ok {
			interfaceSigs(iface, sigs, seen)
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			sigs[methodSig(t.Method(i))] = true
		}
	case *types.Pointer:
		interfaceSigs(t.Elem(), sigs, seen)
	case *types.Slice:
		interfaceSigs(t.Elem(), sigs, seen)
	case *types.Array:
		interfaceSigs(t.Elem(), sigs, seen)
	case *types.Chan:
		interfaceSigs(t.Elem(), sigs, seen)
	case *types.Map:
		interfaceSigs(t.Key(), sigs, seen)
		interfaceSigs(t.Elem(), sigs, seen)
	case *types.Signature:
		interfaceSigs(t.Params(), sigs, seen)
		interfaceSigs(t.Results(), sigs, seen)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			interfaceSigs(t.At(i).Type(), sigs, seen)
		}
	}
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
