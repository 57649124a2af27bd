package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// CertflowAnalyzer enforces the hiding contract (paper Section 2.4) as a
// taint discipline: certificate bytes must never reach an observability or
// logging sink. The certification of k-coloring is *hiding* — certificates
// reveal nothing about the witness coloring beyond its existence — and that
// guarantee dies the moment a label string is interpolated into a span
// attribute, a run-manifest field, a progress line, an error message, or a
// stderr print, because all of those outlive the run and ship as CI
// artifacts.
//
// Taint sources (certificate-derived values):
//
//   - reads of the Labels field of view.View or core.Labeled,
//   - results of the canonical serializations view.View.Key and BinKey
//     (both embed the raw label bytes),
//   - results of core Prover.Certify calls (the certificate assignment).
//
// Sinks (observable surfaces):
//
//   - any call into a package named "obs" — counters, gauges, span
//     attributes, manifest config, progress callbacks,
//   - the printing fmt family (Print/Println/Printf/Fprint*) and package
//     log,
//   - error construction (fmt.Errorf, errors.New) — errors cross the CLI
//     boundary onto stderr,
//   - panic — its argument lands on stderr with the crash dump.
//
// Sanitizers (flows through them are clean): the obs.Redact* helpers,
// view.View.KeyDigest, the builtin len, and any conversion to a numeric
// type — lengths, counts, and one-way digests are exactly the residue the
// hiding contract permits an observer to see.
//
// Taint propagates through assignments, field and index reads, string
// concatenation, the string-manipulation stdlib (fmt.Sprint*, strings,
// bytes, strconv), composite literals, range statements, closures, and —
// interprocedurally — same-package function calls: per-function summaries
// record which parameters flow to results or onward into sinks, and the
// summaries themselves compose through certflowCallDepth levels of calls,
// which bounds the analysis (a flow buried deeper than the bound is the
// dynamic regression tests' problem, not this analyzer's).
var CertflowAnalyzer = &Analyzer{
	Name: "certflow",
	Doc:  "report certificate-tainted values flowing into observability, logging, or error-message sinks",
	Run:  runCertflow,
}

// certflowCallDepth bounds interprocedural summary composition: a tainted
// value is tracked through at most this many levels of same-package calls.
const certflowCallDepth = 4

// taint masks: bit 0 marks certificate-derived values; bit i+1 marks values
// derived from parameter i of the function under summary.
const certSourceBit uint64 = 1

func paramBit(i int) uint64 {
	if i >= 62 {
		return 0
	}
	return 1 << uint(i+1)
}

// fnSummary is the interprocedural abstraction of one function: per result,
// which parameters (receiver first) reach it and whether the body taints it
// from certificate sources regardless of arguments (results[i] holds
// parameter bits and certSourceBit, so a multi-value call taints only the
// variables its tainted results land in); and which parameters reach a
// sink inside the callee (with a human-readable chain).
type fnSummary struct {
	results   []uint64
	paramSink []string
}

type certflow struct {
	pass  *Pass
	decls map[*types.Func]*ast.FuncDecl
	sums  map[*types.Func]*fnSummary
	// globals holds taint for package-level variables initialized from
	// certificate sources.
	globals map[types.Object]uint64
	// reported dedupes diagnostics across the fixpoint's final walk.
	reported map[string]bool
	report   bool
}

func runCertflow(pass *Pass) error {
	cf := &certflow{
		pass:     pass,
		decls:    map[*types.Func]*ast.FuncDecl{},
		sums:     map[*types.Func]*fnSummary{},
		globals:  map[types.Object]uint64{},
		reported: map[string]bool{},
	}
	var fns []*ast.FuncDecl
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if obj, ok := pass.Info.Defs[d.Name].(*types.Func); ok && d.Body != nil {
					cf.decls[obj] = d
					fns = append(fns, d)
				}
			case *ast.GenDecl:
				if d.Tok == token.VAR {
					cf.seedGlobals(d)
				}
			}
		}
	}
	// Deterministic iteration order for the summary fixpoint.
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })

	// Summary fixpoint: each round composes summaries one call level
	// deeper; certflowCallDepth rounds bound the interprocedural horizon.
	for round := 0; round < certflowCallDepth; round++ {
		changed := false
		for _, fn := range fns {
			obj := cf.pass.Info.Defs[fn.Name].(*types.Func)
			sum := cf.analyzeFunc(fn)
			if !summariesEqual(cf.sums[obj], sum) {
				cf.sums[obj] = sum
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Reporting pass with the stabilized summaries.
	cf.report = true
	for _, fn := range fns {
		cf.analyzeFunc(fn)
	}
	return nil
}

func summariesEqual(a, b *fnSummary) bool {
	if a == nil || b == nil {
		return a == b
	}
	if !slices.Equal(a.results, b.results) || len(a.paramSink) != len(b.paramSink) {
		return false
	}
	for i := range a.paramSink {
		if a.paramSink[i] != b.paramSink[i] {
			return false
		}
	}
	return true
}

// seedGlobals marks package-level variables whose initializers draw from
// certificate sources.
func (cf *certflow) seedGlobals(d *ast.GenDecl) {
	env := &taintEnv{cf: cf, vars: map[types.Object]uint64{}, fields: map[types.Object]map[string]uint64{}, sum: &fnSummary{}}
	for _, spec := range d.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, val := range vs.Values {
			if env.exprMask(val)&certSourceBit != 0 && i < len(vs.Names) {
				if obj := cf.pass.Info.Defs[vs.Names[i]]; obj != nil {
					cf.globals[obj] = certSourceBit
				}
			}
		}
	}
}

// analyzeFunc runs the intra-procedural taint walk over one function to a
// local fixpoint and returns its summary. Diagnostics are emitted only when
// cf.report is set (the final pass, after summaries stabilized).
func (cf *certflow) analyzeFunc(fn *ast.FuncDecl) *fnSummary {
	env := &taintEnv{cf: cf, vars: map[types.Object]uint64{}, fields: map[types.Object]map[string]uint64{}}
	params := funcParams(cf.pass.Info, fn)
	env.sum = &fnSummary{paramSink: make([]string, len(params)), results: make([]uint64, fn.Type.Results.NumFields())}
	env.params = params
	for i, p := range params {
		if p != nil {
			env.vars[p] = paramBit(i)
		}
	}
	// Local fixpoint: loops carry taint backwards, so walk until the
	// variable map stops growing (masks only ever grow — termination).
	for iter := 0; iter < 4; iter++ {
		before := env.snapshot()
		env.walkStmt(fn.Body)
		if env.snapshot() == before {
			break
		}
	}
	if cf.report {
		env.reporting = true
		env.walkStmt(fn.Body)
		env.reporting = false
	}
	return env.sum
}

// funcParams lists a function's taint-tracked parameters: the receiver (if
// any) first, then the declared parameters.
func funcParams(info *types.Info, fn *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fn.Recv != nil {
		for _, f := range fn.Recv.List {
			for _, name := range f.Names {
				out = append(out, info.Defs[name])
			}
			if len(f.Names) == 0 {
				out = append(out, nil)
			}
		}
	}
	for _, f := range fn.Type.Params.List {
		if len(f.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range f.Names {
			out = append(out, info.Defs[name])
		}
	}
	return out
}

// taintEnv is the per-function (and shared-with-closures) taint state.
// Taint is field-sensitive along the selector path: an assignment to
// s.v.f taints the key (s, "v.f"), not all of s, so a builder whose cache
// field holds label bytes can still put its name field into a diagnostic.
// A read of a path sees whole-value taint on s (for structs copied from
// tainted values wholesale) and the taint of every key on the same branch:
// the path itself, the fields written below it (s.v and s carry s.v.f's)
// and the field it lies below (s.v.f.g carries s.v's). A sibling path
// (s.v.g, s.w) stays clean.
type taintEnv struct {
	cf        *certflow
	vars      map[types.Object]uint64
	fields    map[types.Object]map[string]uint64
	params    []types.Object
	sum       *fnSummary
	reporting bool
}

func (e *taintEnv) snapshot() uint64 {
	var h uint64 = uint64(len(e.vars))
	for _, m := range e.vars {
		h += m * 31
	}
	for _, fm := range e.fields {
		h += uint64(len(fm)) * 17
		for _, m := range fm {
			h += m * 13
		}
	}
	return h
}

// assign merges mask into the root object of an assignable expression.
// Error-typed destinations stay clean: certflow flags every construction of
// an error from tainted bytes (fmt.Errorf, errors.New), so an error value
// that got past construction carries no label bytes by induction — tainting
// it again would re-report every flow at each hand-off of the same error.
func (e *taintEnv) assign(lhs ast.Expr, mask uint64) {
	if mask == 0 {
		return
	}
	root, path := fieldPath(lhs, nil)
	if root == nil {
		return
	}
	obj := e.cf.pass.Info.Defs[root]
	if obj == nil {
		obj = e.cf.pass.Info.Uses[root]
	}
	if obj == nil {
		return
	}
	if isErrorType(obj.Type()) {
		return
	}
	// Field-sensitive case: key the taint on (base object, field path).
	if path != "" {
		fm := e.fields[obj]
		if fm == nil {
			fm = map[string]uint64{}
			e.fields[obj] = fm
		}
		fm[path] |= mask
		return
	}
	e.vars[obj] |= mask
}

// fieldPath returns the root identifier of a selector chain and the
// dotted field names from it down, skipping index, slice, dereference,
// type-assertion and parenthesis steps: h.v[i].Labels is h with
// "v.Labels". visit, when not nil, sees every step above the root,
// outermost first. The root is nil when the chain does not start at an
// identifier.
func fieldPath(x ast.Expr, visit func(ast.Expr)) (*ast.Ident, string) {
	var names []string
	for {
		switch ex := x.(type) {
		case *ast.Ident:
			slices.Reverse(names)
			return ex, strings.Join(names, ".")
		case *ast.SelectorExpr:
			names = append(names, ex.Sel.Name)
			x = ex.X
		case *ast.IndexExpr:
			x = ex.X
		case *ast.StarExpr:
			x = ex.X
		case *ast.ParenExpr:
			x = ex.X
		case *ast.SliceExpr:
			x = ex.X
		case *ast.TypeAssertExpr:
			x = ex.X
		default:
			return nil, ""
		}
		if visit != nil {
			visit(x)
		}
	}
}

// samePathBranch reports whether field paths a and b lie on one branch:
// equal, or one a field below the other.
func samePathBranch(a, b string) bool {
	short, long := a, b
	if len(short) > len(long) {
		short, long = long, short
	}
	return long == short || strings.HasPrefix(long, short+".")
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

func (e *taintEnv) walkStmt(s ast.Stmt) {
	switch st := s.(type) {
	case nil:
	case *ast.BlockStmt:
		if st == nil {
			return
		}
		for _, s2 := range st.List {
			e.walkStmt(s2)
		}
	case *ast.ExprStmt:
		e.exprMask(st.X)
	case *ast.AssignStmt:
		if len(st.Lhs) > 1 && len(st.Rhs) == 1 {
			// A multi-value call assigns each result its own mask when the
			// callee's summary has one per result; any other tuple (a map
			// index, a type assertion, a channel receive) spreads one mask.
			var m uint64
			var results []uint64
			if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
				m, results = e.callMask(call)
			} else {
				m = e.exprMask(st.Rhs[0])
			}
			for i, l := range st.Lhs {
				if len(results) == len(st.Lhs) {
					m = results[i]
				}
				e.assign(l, m)
			}
			return
		}
		for i, r := range st.Rhs {
			m := e.exprMask(r)
			if i < len(st.Lhs) {
				e.assign(st.Lhs[i], m)
			}
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, val := range vs.Values {
						m := e.exprMask(val)
						if i < len(vs.Names) {
							e.assign(vs.Names[i], m)
						}
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for i, r := range st.Results {
			m := e.exprMask(r)
			if len(st.Results) == len(e.sum.results) {
				e.sum.results[i] |= m
				continue
			}
			// return f() of a multi-value call: every result may carry
			// the call's mask.
			for j := range e.sum.results {
				e.sum.results[j] |= m
			}
		}
	case *ast.IfStmt:
		e.walkStmt(st.Init)
		e.exprMask(st.Cond)
		e.walkStmt(st.Body)
		e.walkStmt(st.Else)
	case *ast.ForStmt:
		e.walkStmt(st.Init)
		if st.Cond != nil {
			e.exprMask(st.Cond)
		}
		e.walkStmt(st.Post)
		e.walkStmt(st.Body)
	case *ast.RangeStmt:
		m := e.exprMask(st.X)
		// An integer range key is an index — a count, sanctioned residue
		// like len. Non-numeric keys (ranging over a map keyed by tainted
		// strings) stay tainted. Values always carry the element bytes.
		if st.Key != nil && !isNumericOrBool(e.cf.pass.Info.TypeOf(st.Key)) {
			e.assign(st.Key, m)
		}
		if st.Value != nil {
			e.assign(st.Value, m)
		}
		e.walkStmt(st.Body)
	case *ast.SwitchStmt:
		e.walkStmt(st.Init)
		if st.Tag != nil {
			e.exprMask(st.Tag)
		}
		e.walkStmt(st.Body)
	case *ast.TypeSwitchStmt:
		e.walkStmt(st.Init)
		e.walkStmt(st.Assign)
		e.walkStmt(st.Body)
	case *ast.CaseClause:
		for _, x := range st.List {
			e.exprMask(x)
		}
		for _, s2 := range st.Body {
			e.walkStmt(s2)
		}
	case *ast.SelectStmt:
		e.walkStmt(st.Body)
	case *ast.CommClause:
		e.walkStmt(st.Comm)
		for _, s2 := range st.Body {
			e.walkStmt(s2)
		}
	case *ast.SendStmt:
		e.exprMask(st.Chan)
		e.exprMask(st.Value)
	case *ast.GoStmt:
		e.exprMask(st.Call)
	case *ast.DeferStmt:
		e.exprMask(st.Call)
	case *ast.LabeledStmt:
		e.walkStmt(st.Stmt)
	case *ast.IncDecStmt, *ast.BranchStmt, *ast.EmptyStmt:
	}
}

// identObj returns the object an identifier uses or defines, or nil.
func (e *taintEnv) identObj(id *ast.Ident) types.Object {
	if obj := e.cf.pass.Info.Uses[id]; obj != nil {
		return obj
	}
	return e.cf.pass.Info.Defs[id]
}

// identMask is an identifier's whole-value taint, without its field taints.
func (e *taintEnv) identMask(id *ast.Ident) uint64 {
	obj := e.identObj(id)
	if obj == nil {
		return 0
	}
	return e.vars[obj] | e.cf.globals[obj]
}

// exprMask computes the taint mask of an expression, checking every call it
// contains against the sink list exactly once per walk.
func (e *taintEnv) exprMask(x ast.Expr) uint64 {
	switch ex := x.(type) {
	case nil:
		return 0
	case *ast.BasicLit:
		return 0
	case *ast.Ident:
		m := e.identMask(ex)
		// A whole-value read carries every field written into it.
		for _, fm := range e.fields[e.identObj(ex)] {
			m |= fm
		}
		return m
	case *ast.SelectorExpr:
		if e.isCertSourceSel(ex) {
			return certSourceBit
		}
		root, path := fieldPath(ex, nil)
		if root == nil {
			return e.exprMask(ex.X)
		}
		var m uint64
		fieldPath(ex, func(step ast.Expr) {
			// The steps between ex and its root: label reads still taint,
			// and index expressions are walked for the calls they hold.
			switch st := step.(type) {
			case *ast.SelectorExpr:
				if e.isCertSourceSel(st) {
					m |= certSourceBit
				}
			case *ast.IndexExpr:
				e.exprMask(st.Index)
			}
		})
		m |= e.identMask(root)
		for k, fm := range e.fields[e.identObj(root)] {
			if samePathBranch(k, path) {
				m |= fm
			}
		}
		return m
	case *ast.ParenExpr:
		return e.exprMask(ex.X)
	case *ast.StarExpr:
		return e.exprMask(ex.X)
	case *ast.UnaryExpr:
		return e.exprMask(ex.X)
	case *ast.IndexExpr:
		e.exprMask(ex.Index)
		return e.exprMask(ex.X)
	case *ast.SliceExpr:
		return e.exprMask(ex.X)
	case *ast.TypeAssertExpr:
		return e.exprMask(ex.X)
	case *ast.BinaryExpr:
		l, r := e.exprMask(ex.X), e.exprMask(ex.Y)
		if ex.Op == token.ADD {
			return l | r
		}
		return 0
	case *ast.CompositeLit:
		var m uint64
		for _, el := range ex.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				m |= e.exprMask(kv.Value)
				continue
			}
			m |= e.exprMask(el)
		}
		return m
	case *ast.KeyValueExpr:
		return e.exprMask(ex.Value)
	case *ast.FuncLit:
		// Closures share the enclosing taint state; the literal's mask is
		// the union of its return values, so a tainted callback handed to a
		// sink (Progress.SetExtra) is caught at the hand-off.
		sub := &taintEnv{cf: e.cf, vars: e.vars, fields: e.fields, params: e.params, sum: e.sum, reporting: e.reporting}
		lit := &litReturns{env: sub}
		lit.walk(ex)
		return lit.mask
	case *ast.CallExpr:
		m, _ := e.callMask(ex)
		return m
	}
	return 0
}

// litReturns walks a function literal's body with the shared environment,
// unioning the masks of its return expressions.
type litReturns struct {
	env  *taintEnv
	mask uint64
}

func (l *litReturns) walk(lit *ast.FuncLit) {
	prevSum := l.env.sum
	// Returns inside the literal belong to the literal, not the enclosing
	// function's summary: intercept them with a scratch summary.
	scratch := &fnSummary{paramSink: prevSum.paramSink, results: make([]uint64, lit.Type.Results.NumFields())}
	l.env.sum = scratch
	l.env.walkStmt(lit.Body)
	l.env.sum = prevSum
	for _, m := range scratch.results {
		l.mask |= m
	}
}

// callMask sink-checks and propagates one call expression. Besides the
// mask of the call as a value (the union over its results), it returns one
// mask per result when the callee's summary keeps them apart, else nil.
func (e *taintEnv) callMask(call *ast.CallExpr) (uint64, []uint64) {
	info := e.cf.pass.Info
	// Type conversions: numeric results launder nothing worth reporting
	// (lengths and counts are sanctioned); stringish conversions carry the
	// bytes along.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		var m uint64
		for _, a := range call.Args {
			m |= e.exprMask(a)
		}
		if isNumericOrBool(tv.Type) {
			return 0, nil
		}
		return m, nil
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap", "min", "max":
				for _, a := range call.Args {
					e.exprMask(a)
				}
				return 0, nil
			case "append":
				var m uint64
				for _, a := range call.Args {
					m |= e.exprMask(a)
				}
				return m, nil
			case "panic":
				var m uint64
				for _, a := range call.Args {
					m |= e.exprMask(a)
				}
				if m&certSourceBit != 0 {
					e.reportSink(call.Pos(), "panic (the argument lands on stderr with the crash dump)")
				}
				e.recordParamSink(m, "panic")
				return 0, nil
			default:
				for _, a := range call.Args {
					e.exprMask(a)
				}
				return 0, nil
			}
		}
	}

	argMasks := make([]uint64, len(call.Args))
	var union uint64
	for i, a := range call.Args {
		argMasks[i] = e.exprMask(a)
		union |= argMasks[i]
	}

	// fmt.Fprint* into an in-memory buffer is string construction, not
	// observation: taint the builder and move on. (Fprint to anything else
	// — os.Stderr, a file, an unknown io.Writer — is a sink below.)
	if path := calleePkgPath(info, call); path == "fmt" && len(call.Args) > 0 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "Fprint") {
			if isMemoryWriter(info.TypeOf(call.Args[0])) {
				dst := ast.Unparen(call.Args[0])
				if un, ok := dst.(*ast.UnaryExpr); ok && un.Op == token.AND {
					dst = un.X
				}
				e.assign(dst, union)
				return 0, nil
			}
		}
	}

	// Sanitizers terminate flows: redacted residue is the permitted
	// observable.
	if e.isSanitizerCall(call) {
		return 0, nil
	}

	// Certificate sources.
	if e.isCertSourceCall(call) {
		return certSourceBit | union, nil
	}

	// Sinks.
	if desc, ok := e.sinkDesc(call); ok {
		if union&certSourceBit != 0 {
			e.reportSink(call.Pos(), desc)
		}
		e.recordParamSink(union, desc)
		// Errors built from tainted parts stay tainted so a later print of
		// the same error is not double-reported but a stored-then-emitted
		// error still carries its mask.
		return union, nil
	}

	// Same-package calls: compose the callee's summary.
	if callee := e.calleeFunc(call); callee != nil {
		if sum := e.cf.sums[callee]; sum != nil {
			masks := argMasks
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if _, isMethod := info.Selections[sel]; isMethod {
					masks = append([]uint64{e.exprMask(sel.X)}, argMasks...)
				}
			}
			results := make([]uint64, len(sum.results))
			for r, rm := range sum.results {
				results[r] = rm & certSourceBit
			}
			for i, m := range masks {
				if i >= len(sum.paramSink) {
					break
				}
				if m == 0 {
					continue
				}
				for r, rm := range sum.results {
					if rm&paramBit(i) != 0 {
						results[r] |= m
					}
				}
				if chain := sum.paramSink[i]; chain != "" {
					if m&certSourceBit != 0 {
						e.reportSink(call.Pos(), "call to "+callee.Name()+", which forwards it to "+chain)
					}
					e.recordParamSink(m, callee.Name()+" → "+chain)
				}
			}
			var out uint64
			for _, m := range results {
				out |= m
			}
			return out, results
		}
	}

	// Known cross-package propagators: the string-manipulation stdlib.
	if path := calleePkgPath(info, call); path != "" {
		switch path {
		case "strings", "bytes", "strconv", "fmt", "unicode/utf8", "encoding/hex", "encoding/base64", "encoding/json":
			// The scanning family writes parsed pieces of its input through
			// pointer arguments: a color scanned out of a certificate is
			// witness data and stays tainted.
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && strings.Contains(sel.Sel.Name, "Scan") {
				for _, a := range call.Args {
					if un, ok := ast.Unparen(a).(*ast.UnaryExpr); ok && un.Op == token.AND {
						e.assign(un.X, union)
					}
				}
			}
			return union, nil
		}
		return 0, nil
	}

	// Unknown method call: a stringish result of a tainted receiver stays
	// tainted (err.Error(), strings.Builder.String(), ...).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if tv, ok := info.Types[call]; ok && isStringish(tv.Type) {
			return e.exprMask(sel.X) | union, nil
		}
		e.exprMask(sel.X)
	}
	return 0, nil
}

// recordParamSink notes in the function summary that the parameters in mask
// reach the described sink, so callers one level up inherit the flow.
func (e *taintEnv) recordParamSink(mask uint64, desc string) {
	for i := range e.sum.paramSink {
		if mask&paramBit(i) != 0 && e.sum.paramSink[i] == "" {
			e.sum.paramSink[i] = desc
		}
	}
}

func (e *taintEnv) reportSink(pos token.Pos, desc string) {
	if !e.reporting {
		return
	}
	p := e.cf.pass.Fset.Position(pos)
	key := p.String() + "|" + desc
	if e.cf.reported[key] {
		return
	}
	e.cf.reported[key] = true
	e.cf.pass.Reportf(pos,
		"certificate-tainted value flows into %s; the hiding contract forbids label bytes in observable output — redact to lengths or digests (obs.RedactString, view.KeyDigest)", desc)
}

// isCertSourceSel reports whether sel reads the Labels field of view.View
// or core.Labeled.
func (e *taintEnv) isCertSourceSel(sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Labels" {
		return false
	}
	t := e.cf.pass.Info.TypeOf(sel.X)
	return isCertCarrier(t)
}

// isCertCarrier reports whether t (possibly behind a pointer) is view.View
// or core.Labeled — the two types that hold raw certificate assignments.
func isCertCarrier(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch {
	case obj.Pkg().Name() == "view" && obj.Name() == "View":
		return true
	case obj.Pkg().Name() == "core" && obj.Name() == "Labeled":
		return true
	}
	return false
}

// isCertSourceCall reports calls whose results embed certificate bytes:
// view.View.Key/BinKey and any core Certify method.
func (e *taintEnv) isCertSourceCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := e.cf.pass.Info.Selections[sel]
	if !ok {
		return false
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch {
	case fn.Pkg().Name() == "view" && (fn.Name() == "Key" || fn.Name() == "BinKey"):
		return isCertCarrier(e.cf.pass.Info.TypeOf(sel.X))
	case fn.Pkg().Name() == "core" && fn.Name() == "Certify":
		return true
	}
	return false
}

// isSanitizerCall reports the sanctioned redactors: obs.Redact*, the len
// builtin (handled earlier), and view.View.KeyDigest.
func (e *taintEnv) isSanitizerCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	info := e.cf.pass.Info
	if pkgIdent, ok := sel.X.(*ast.Ident); ok {
		if pkgName, ok := info.Uses[pkgIdent].(*types.PkgName); ok {
			return pkgName.Imported().Name() == "obs" && strings.HasPrefix(sel.Sel.Name, "Redact")
		}
	}
	if s, ok := info.Selections[sel]; ok {
		if fn, ok := s.Obj().(*types.Func); ok && fn.Pkg() != nil {
			if fn.Pkg().Name() == "view" && fn.Name() == "KeyDigest" {
				return true
			}
			if fn.Pkg().Name() == "obs" && strings.HasPrefix(fn.Name(), "Redact") {
				return true
			}
		}
	}
	return false
}

// sinkDesc classifies a call as an observability/logging sink.
func (e *taintEnv) sinkDesc(call *ast.CallExpr) (string, bool) {
	info := e.cf.pass.Info
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	// pkg.Func form.
	if pkgIdent, ok := sel.X.(*ast.Ident); ok {
		if pkgName, ok := info.Uses[pkgIdent].(*types.PkgName); ok {
			if _, isFunc := info.Uses[sel.Sel].(*types.Func); !isFunc {
				return "", false
			}
			path := pkgName.Imported().Path()
			name := sel.Sel.Name
			switch {
			case pkgName.Imported().Name() == "obs":
				return "observability sink obs." + name, true
			case path == "fmt" && isFmtPrint(name):
				return "fmt." + name + " output", true
			case path == "fmt" && name == "Errorf":
				return "an error message (fmt.Errorf)", true
			case path == "errors" && name == "New":
				return "an error message (errors.New)", true
			case path == "log":
				return "log." + name + " output", true
			}
			return "", false
		}
	}
	// Method form: any method declared in a package named "obs" is an
	// observability sink (SetAttr, SetConfig, SetExtra, ...).
	if s, ok := info.Selections[sel]; ok {
		if fn, ok := s.Obj().(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Name() == "obs" {
			if strings.HasPrefix(fn.Name(), "Redact") {
				return "", false
			}
			recv := ""
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				t := sig.Recv().Type()
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				if named, ok := t.(*types.Named); ok {
					recv = named.Obj().Name() + "."
				}
			}
			return "observability sink obs." + recv + fn.Name(), true
		}
	}
	return "", false
}

// calleeFunc resolves a call to a function or method declared in the
// package under analysis, for summary lookup.
func (e *taintEnv) calleeFunc(call *ast.CallExpr) *types.Func {
	info := e.cf.pass.Info
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			if _, declared := e.cf.decls[fn]; declared {
				return fn
			}
		}
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fun]; ok {
			if fn, ok := s.Obj().(*types.Func); ok {
				if _, declared := e.cf.decls[fn]; declared {
					return fn
				}
			}
		}
	}
	return nil
}

// calleePkgPath returns the import path of a pkg.Func call's package, or "".
func calleePkgPath(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	pkgIdent, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pkgName, ok := info.Uses[pkgIdent].(*types.PkgName)
	if !ok {
		return ""
	}
	if _, isFunc := info.Uses[sel.Sel].(*types.Func); !isFunc {
		return ""
	}
	return pkgName.Imported().Path()
}

// isMemoryWriter reports whether t is *strings.Builder or *bytes.Buffer —
// the in-memory accumulators that make Fprint a propagator, not a sink.
func isMemoryWriter(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch {
	case obj.Pkg().Path() == "strings" && obj.Name() == "Builder":
		return true
	case obj.Pkg().Path() == "bytes" && obj.Name() == "Buffer":
		return true
	}
	return false
}

func isFmtPrint(name string) bool {
	switch name {
	case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
		return true
	}
	return false
}

func isNumericOrBool(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsNumeric|types.IsBoolean) != 0
}

// isStringish reports types that carry bytes an observer could read:
// strings, byte slices, and string slices.
func isStringish(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.Slice:
		if eb, ok := u.Elem().Underlying().(*types.Basic); ok {
			return eb.Kind() == types.Byte || eb.Info()&types.IsString != 0
		}
	}
	return false
}
