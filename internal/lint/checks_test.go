package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// isTestFile reports whether f is a _test.go file; all checks but
// maporder skip them.
func isTestFile(p *pass, f *ast.File) bool {
	return strings.HasSuffix(p.fset.Position(f.Pos()).Filename, "_test.go")
}

// inSim reports whether path is internal/sim, which owns virtual time
// and the seeded source.
func inSim(path string) bool {
	return path == "ppm/internal/sim" || strings.HasPrefix(path, "ppm/internal/sim/")
}

// clockFuncs lists the time package functions that observe or wait on
// the real clock.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

// walltime forbids reading the wall clock. Everything inside the
// simulation takes its time from the seeded discrete-event scheduler; a
// single time.Now makes two runs of one seed diverge. time.Duration and
// the time constants stay fine everywhere. internal/sim, the cmd/ entry
// points (which may time their own execution for operators) and tests
// are allowed.
func walltime(p *pass, report func(token.Pos, string)) {
	if path := p.pkg.Path(); inSim(path) || strings.HasPrefix(path, "ppm/cmd/") {
		return
	}
	for _, f := range p.files {
		if isTestFile(p, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				fn, ok := p.info.Uses[sel.Sel].(*types.Func)
				if ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" && clockFuncs[fn.Name()] {
					report(sel.Pos(), "wall clock: time."+fn.Name()+
						" is nondeterministic; use the sim scheduler's virtual time")
				}
			}
			return true
		})
	}
}

// rawgoroutine forbids go statements outside tests. The simulation is
// single-threaded by design: all concurrency is events on the seeded
// scheduler, so every interleaving replays. A raw goroutine hands those
// decisions to the Go runtime, which never makes them the same way twice.
func rawgoroutine(p *pass, report func(token.Pos, string)) {
	for _, f := range p.files {
		if isTestFile(p, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				report(g.Pos(), "raw goroutine: concurrency must be modeled as events on the sim scheduler")
			}
			return true
		})
	}
}

// seededConstructors are the math/rand functions that build an
// explicitly seeded generator rather than using the global source.
var seededConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// unseededrand forbids the global math/rand source, which Go seeds
// randomly at process start, and crypto/rand, which is entropy by
// definition. Building an explicitly seeded generator is allowed
// anywhere: the seed is in the caller's hands. internal/sim owns the
// per-run source and is exempt.
func unseededrand(p *pass, report func(token.Pos, string)) {
	if inSim(p.pkg.Path()) {
		return
	}
	for _, f := range p.files {
		if isTestFile(p, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := p.info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch obj.Pkg().Path() {
			case "crypto/rand":
				report(sel.Pos(), "crypto/rand is entropy; draw from the sim scheduler's seeded source")
			case "math/rand", "math/rand/v2":
				// Methods run on a generator the caller built; only
				// package-level functions use the global source.
				fn, ok := obj.(*types.Func)
				if ok && fn.Type().(*types.Signature).Recv() == nil && !seededConstructors[fn.Name()] {
					report(sel.Pos(), "global math/rand source: rand."+fn.Name()+
						" is unseeded; use the sim scheduler's seeded *rand.Rand")
				}
			}
			return true
		})
	}
}

// sorters maps a package's base name to the functions recognized as
// establishing a deterministic order for their first argument.
var sorters = map[string]map[string]bool{
	"detord": {"Sort": true, "SortBy": true, "SortBy2": true},
	"sort": {
		"Strings": true, "Ints": true, "Float64s": true,
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// emissionPkgs are package base names whose calls inside a map-range
// body append to a deterministic stream (a metric series, a span log).
var emissionPkgs = map[string]bool{"metrics": true, "trace": true}

// maporder flags iteration over a map whose body has order-sensitive
// effects: Go randomizes map order per run, so a map-range that appends
// to an outer slice, sends on a channel, emits metrics or spans, or
// prints makes two runs of one seed diverge. Two forms pass: ranging a
// sorted key slice (for _, k := range detord.Keys(m)), which never
// ranges the map, and collect-then-sort — a loop whose only effect is
// appending to local slices, each later passed to a recognized sort in
// the same block. Test files are checked too.
func maporder(p *pass, report func(token.Pos, string)) {
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt
			switch n := n.(type) {
			case *ast.BlockStmt:
				list = n.List
			case *ast.CaseClause:
				list = n.Body
			case *ast.CommClause:
				list = n.Body
			default:
				return true
			}
			for i, st := range list {
				rs, ok := st.(*ast.RangeStmt)
				if !ok {
					continue
				}
				if t := p.info.TypeOf(rs.X); t == nil {
					continue
				} else if _, isMap := t.Underlying().(*types.Map); !isMap {
					continue
				}
				if effect := mapRangeEffect(p, rs, list[i+1:]); effect != "" {
					report(rs.Pos(), "map iteration order is random: "+effect+
						"; range detord.Keys, sort before use, or annotate //ppmlint:allow maporder")
				}
			}
			return true
		})
	}
}

// mapRangeEffect returns the first order-sensitive effect of one
// map-range, or "". tail is the statement list following the loop in
// its block, where the collect-then-sort idiom sorts.
func mapRangeEffect(p *pass, rs *ast.RangeStmt, tail []ast.Stmt) string {
	var (
		collected []*ast.Ident // outer slices the body appends to
		effect    string       // first non-append effect found
	)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if effect != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			effect = "channel send"
		case *ast.CallExpr:
			effect = emissionKind(p, n)
		case *ast.AssignStmt:
			for li, lhs := range n.Lhs {
				if li >= len(n.Rhs) {
					continue
				}
				id, ok := lhs.(*ast.Ident)
				if !ok {
					// Appending to a field or element survives the loop but
					// cannot be tracked to a later sort; always an effect.
					if _, sel := lhs.(*ast.SelectorExpr); sel && isAppend(p, n.Rhs[li]) {
						effect = "append to a non-local slice"
					}
					continue
				}
				if !isAppend(p, n.Rhs[li]) {
					continue
				}
				if arg, ok := n.Rhs[li].(*ast.CallExpr).Args[0].(*ast.Ident); !ok || p.info.ObjectOf(arg) != p.info.ObjectOf(id) {
					continue
				}
				if obj := p.info.ObjectOf(id); obj != nil && (obj.Pos() < rs.Pos() || obj.Pos() > rs.End()) {
					collected = append(collected, id)
				}
			}
		}
		return true
	})
	if effect != "" {
		return effect
	}
	for _, id := range collected {
		if !sortedLater(p, id, tail) {
			return "append to " + id.Name + " without a later sort"
		}
	}
	return ""
}

// isAppend reports whether expr is a call of the append builtin with
// at least one argument.
func isAppend(p *pass, expr ast.Expr) bool {
	call, ok := expr.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := p.info.Uses[fn].(*types.Builtin)
	return ok && b.Name() == "append"
}

// emissionKind classifies a call as order-sensitive emission, returning
// a description or "".
func emissionKind(p *pass, call *ast.CallExpr) string {
	var name *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name = fun.Sel
	case *ast.Ident:
		name = fun
	default:
		return ""
	}
	fn, ok := p.info.Uses[name].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	base := pkgBase(fn.Pkg().Path())
	if emissionPkgs[base] {
		return base + " emission (" + base + "." + fn.Name() + ")"
	}
	if base == "fmt" && (strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		return "output (fmt." + fn.Name() + ")"
	}
	return ""
}

// sortedLater reports whether a recognized sorter is applied to id in
// the statements following the loop.
func sortedLater(p *pass, id *ast.Ident, tail []ast.Stmt) bool {
	obj := p.info.ObjectOf(id)
	found := false
	for _, st := range tail {
		ast.Inspect(st, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || !sorters[pkgBase(fn.Pkg().Path())][fn.Name()] {
				return true
			}
			if arg, ok := call.Args[0].(*ast.Ident); ok && p.info.ObjectOf(arg) == obj {
				found = true
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

func pkgBase(path string) string {
	return path[strings.LastIndexByte(path, '/')+1:]
}

// errdrop reports discarded error returns: a call statement (bare or
// deferred) whose error nobody reads, and an error-typed result sent to
// the blank identifier. A silently dropped error is a failure the
// retry engine, the journal and the operator never hear about. Test
// files are skipped. Callees whose error contract is vestigial are
// exempt: fmt's print family, strings.Builder and bytes.Buffer writers
// and hash.Hash.Write (documented never to fail), and package flag in
// cmd/ packages (ExitOnError parsing exits on its own). A deliberate
// fire-and-forget call carries //ppmlint:allow errdrop <why>.
func errdrop(p *pass, report func(token.Pos, string)) {
	for _, f := range p.files {
		if isTestFile(p, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				droppedCall(p, n.X, report)
			case *ast.DeferStmt:
				droppedCall(p, n.Call, report)
			case *ast.AssignStmt:
				blankErrors(p, n, report)
			}
			return true
		})
	}
}

// droppedCall flags a call used as a statement whose results include
// an error.
func droppedCall(p *pass, x ast.Expr, report func(token.Pos, string)) {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok || !returnsError(p, call) || exempt(p, call) {
		return
	}
	report(call.Pos(), "error from "+types.ExprString(call.Fun)+
		" discarded (handle it, or //ppmlint:allow errdrop <why>)")
}

// blankErrors flags blank-identifier slots receiving an error: an n:n
// assignment, or one multi-valued call on the right.
func blankErrors(p *pass, stmt *ast.AssignStmt, report func(token.Pos, string)) {
	for i, lhs := range stmt.Lhs {
		if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
			continue
		}
		var (
			typ types.Type
			src ast.Expr
		)
		if len(stmt.Rhs) == len(stmt.Lhs) {
			src = stmt.Rhs[i]
			typ = p.info.Types[src].Type
		} else if len(stmt.Rhs) == 1 {
			src = stmt.Rhs[0]
			if tuple, ok := p.info.Types[src].Type.(*types.Tuple); ok && i < tuple.Len() {
				typ = tuple.At(i).Type()
			}
		}
		if typ == nil || !isError(typ) {
			continue
		}
		if call, ok := ast.Unparen(src).(*ast.CallExpr); ok && exempt(p, call) {
			continue
		}
		report(lhs.Pos(), "error assigned to _ (handle it, or //ppmlint:allow errdrop <why>)")
	}
}

// returnsError reports whether any result of call is an error.
func returnsError(p *pass, call *ast.CallExpr) bool {
	switch t := p.info.Types[call].Type.(type) {
	case nil:
		return false
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isError(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isError(t)
	}
}

var errorType = types.Universe.Lookup("error").Type()

func isError(t types.Type) bool { return types.Identical(t, errorType) }

// exempt reports whether the callee's error contract is vestigial.
func exempt(p *pass, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
		// hash.Hash.Write is documented to never return an error; the
		// HMAC auth and stamping paths call it constantly.
		if fun.Sel.Name == "Write" && pkgOf(recvNamed(p.info.Types[fun.X].Type)) == "hash" {
			return true
		}
	default:
		return false
	}
	fn, ok := p.info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "fmt":
		return strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")
	case "flag":
		path := p.pkg.Path()
		return strings.HasPrefix(path, "cmd/") || strings.Contains(path, "/cmd/")
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if named := recvNamed(recv.Type()); named != nil {
			switch pkgOf(named) + "." + named.Obj().Name() {
			case "strings.Builder", "bytes.Buffer":
				return true
			}
		}
	}
	return false
}

func recvNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// pkgOf returns the path of the package declaring named, or "".
func pkgOf(named *types.Named) string {
	if named == nil || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path()
}
