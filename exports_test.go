package hidinglcp_test

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hidinglcp/internal/analysis"
)

// graphtestPath is the one package that may export test-only fixtures: only
// _test.go files may import it, so nothing in it reaches a binary.
const graphtestPath = "hidinglcp/internal/graph/graphtest"

// exportAllowlist names the exported functions and methods that stay in
// production files although no production code calls them. Each entry is
// keyed "importpath.Func" or "importpath.Type.Method" and gives the reason.
var exportAllowlist = map[string]string{
	"hidinglcp/internal/analysis/analysistest.Run": "test-support package that runs an analyzer over its fixtures; only the analyzer tests import it",
	"hidinglcp/internal/core.AllAccept":            "Section 2.2's every-node-accepts predicate; the decoders' completeness and soundness tests check each scheme through it",
	"hidinglcp/internal/core.CheckAnonymous":       "finite identifier-obliviousness check; the core and decoders tests share it",
	"hidinglcp/internal/graph.EnumIDs":             "injective identifier-assignment enumeration; the graph and decoders tests quantify over it",
	"hidinglcp/internal/graph.Graph.Equal":         "labeled-graph equality that the graph, view, nbhd and core tests compare results with",
	"hidinglcp/internal/graph.Graph.Key":           "labeled-graph fingerprint that the bench module's tests key instances by",
	"hidinglcp/internal/graph.InducedPorts":        "reference for crash-induced port views: the sim fault tests compare the simulator's truncated views against it, and it needs Ports internals",
	"hidinglcp/internal/obs.RedactBytes":           "hiding-contract sanitizer that certflow recognizes by name, for certificate bytes that must reach an output",
	"hidinglcp/internal/obs.RedactString":          "hiding-contract sanitizer that certflow recognizes by name, for certificate bytes that must reach an output",
	"hidinglcp/internal/obs.RedactStrings":         "hiding-contract sanitizer that certflow recognizes by name, for certificate bytes that must reach an output",
	"hidinglcp/internal/view.MustExtract":          "panicking Extract for fixed views; the view, nbhd, core, decoders and forgetful tests build fixtures with it",
}

// exportReport is what checkExports finds over the loaded packages.
type exportReport struct {
	// Total counts the exported functions and methods declared outside
	// graphtest.
	Total int
	// Unused lists, sorted, the keys of those with no reference from a
	// non-test file other than their own body that satisfy no interface
	// method and are not allowlisted.
	Unused []string
	// StaleAllow lists allowlist keys that are declared nowhere or that
	// production code does reference.
	StaleAllow []string
	// GraphtestImports lists the non-test files that import graphtest.
	GraphtestImports []string
}

// TestExportsHaveProductionCallers fails on any exported function or method
// of this module or of the bench module that only tests call. Such code is
// either deleted, moved into a _test.go file, or (for fixtures several
// packages' tests share) moved into graphtest.
func TestExportsHaveProductionCallers(t *testing.T) {
	// Loading from the bench module sees both modules through one importer.
	rep := checkExports(t, exportAllowlist, "bench", "./...", "hidinglcp/...")
	t.Logf("%d exported functions and methods outside graphtest", rep.Total)
	for _, k := range rep.Unused {
		t.Errorf("%s: exported, but no production code calls it; delete it or move it into a _test.go file", k)
	}
	for _, k := range rep.StaleAllow {
		t.Errorf("allowlist entry %s is stale: it is declared nowhere or production code now calls it", k)
	}
	for _, f := range rep.GraphtestImports {
		t.Errorf("%s imports %s; only _test.go files may", f, graphtestPath)
	}
}

// TestExportGuardSelfTest runs the check over a small module holding an
// export only a test calls and a method only its own body calls (both
// flagged), a method that satisfies an interface with no direct caller and
// an allowlisted export (neither flagged), and a stale allowlist entry.
func TestExportGuardSelfTest(t *testing.T) {
	allow := map[string]string{
		"exportguard.Allowed": "fixture for the allowlist path",
		"exportguard.Missing": "stale on purpose",
	}
	rep := checkExports(t, allow, filepath.Join("testdata", "exportguard"), "./...")
	if got, want := strings.Join(rep.Unused, ","), "exportguard.T.Recursive,exportguard.TestOnly"; got != want {
		t.Errorf("Unused = %q, want %q", got, want)
	}
	if got, want := strings.Join(rep.StaleAllow, ","), "exportguard.Missing"; got != want {
		t.Errorf("StaleAllow = %q, want %q", got, want)
	}
	if rep.Total != 5 {
		t.Errorf("Total = %d, want 5", rep.Total)
	}
}

// checkExports loads the packages that patterns match from dir (non-test
// files only) and reports the exported functions and methods no production
// code reaches.
func checkExports(t *testing.T, allow map[string]string, dir string, patterns ...string) exportReport {
	t.Helper()
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		t.Fatalf("loading %v from %s: %v", patterns, dir, err)
	}

	var rep exportReport
	declared := map[string]bool{}
	var exported []string
	referenced := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				if strings.Trim(imp.Path.Value, `"`) == graphtestPath {
					rep.GraphtestImports = append(rep.GraphtestImports, pkg.Fset.Position(f.Pos()).Filename)
				}
			}
			for _, decl := range f.Decls {
				self := ""
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						self = funcKey(fn)
						declared[self] = true
						if fd.Name.IsExported() && pkg.ImportPath != graphtestPath {
							exported = append(exported, self)
						}
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
							if k := funcKey(fn); k != self {
								referenced[k] = true
							}
						}
					}
					return true
				})
			}
		}
	}

	satisfies := interfaceMethods(pkgs)
	rep.Total = len(exported)
	for _, k := range exported {
		if !referenced[k] && !satisfies[k] && allow[k] == "" {
			rep.Unused = append(rep.Unused, k)
		}
	}
	for k := range allow {
		if !declared[k] || referenced[k] {
			rep.StaleAllow = append(rep.StaleAllow, k)
		}
	}
	sort.Strings(rep.Unused)
	sort.Strings(rep.StaleAllow)
	return rep
}

// funcKey names a function "importpath.Func" and a method
// "importpath.Type.Method", so keys agree across separately type-checked
// copies of one package.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return pkg + "." + fn.Name()
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	if named, ok := rt.(*types.Named); ok {
		return pkg + "." + named.Obj().Name() + "." + fn.Name()
	}
	return pkg + "." + rt.String() + "." + fn.Name()
}

// interfaceMethods returns the keys of the module methods that implement a
// method of some named interface visible to a loaded package (its own or
// one it imports, the standard library included) or of error. Calls through
// the interface name the interface's method, not these, so they count as
// used.
func interfaceMethods(pkgs []*analysis.Package) map[string]bool {
	modules := map[string]bool{}
	for _, pkg := range pkgs {
		modules[pkg.ImportPath] = true
	}
	out := map[string]bool{}
	checked := map[string]bool{}
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for _, pkg := range pkgs {
		var named []*types.Named
		ifaces := []*types.Interface{errType}
		ifaceNames := []string{"error"}
		seen := map[*types.Package]bool{}
		var visit func(p *types.Package)
		visit = func(p *types.Package) {
			if seen[p] {
				return
			}
			seen[p] = true
			scope := p.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				nt, ok := tn.Type().(*types.Named)
				if !ok || nt.TypeParams().Len() > 0 {
					continue
				}
				if it, ok := nt.Underlying().(*types.Interface); ok {
					if it.NumMethods() > 0 && it.IsMethodSet() {
						ifaces = append(ifaces, it)
						ifaceNames = append(ifaceNames, p.Path()+"."+name)
					}
				} else if modules[p.Path()] {
					named = append(named, nt)
				}
			}
			for _, imp := range p.Imports() {
				visit(imp)
			}
		}
		visit(pkg.Types)
		for _, nt := range named {
			ptr := types.NewPointer(nt)
			mset := types.NewMethodSet(ptr)
			if mset.Len() == 0 {
				continue
			}
			tkey := nt.Obj().Pkg().Path() + "." + nt.Obj().Name()
		next:
			for i, it := range ifaces {
				pair := tkey + "|" + ifaceNames[i]
				if checked[pair] {
					continue
				}
				checked[pair] = true
				for j := 0; j < it.NumMethods(); j++ {
					if mset.Lookup(it.Method(j).Pkg(), it.Method(j).Name()) == nil {
						continue next
					}
				}
				if !types.Implements(ptr, it) {
					continue
				}
				for j := 0; j < it.NumMethods(); j++ {
					m := it.Method(j)
					if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
						if fn, ok := sel.Obj().(*types.Func); ok {
							out[funcKey(fn)] = true
						}
					}
				}
			}
		}
	}
	return out
}
