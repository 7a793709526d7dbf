package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The interprocedural layer. A Program is built once per run over every
// loaded analysis unit and hands analyzers two things the per-package
// Pass cannot: the declaration (and body) behind a resolved callee, and
// a per-function summary of the facts the protocol analyzers care about —
// what a callee does with a pooled-message parameter, whether it returns
// a pooled message, and whether it bounds-checks a count parameter
// against a buffer. Summaries are computed lazily with memoization;
// recursion degrades to the conservative answer (escape / unknown)
// instead of looping.
//
// Functions are keyed by (package path, receiver, name) rather than by
// *types.Func identity because the loader type-checks each unit
// independently: the same declaration yields distinct objects in its own
// unit and in importers' views, but the same key.

// Program indexes every function declaration across the loaded units.
type Program struct {
	pkgs  []*Package
	funcs map[string]*ProgFunc
}

// ProgFunc is one function declaration with its defining package.
type ProgFunc struct {
	Key  string
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	summary  *FuncSummary
	inFlight bool
}

// MsgEffect classifies what a callee does with a *transport.Message
// parameter, from the caller's point of view.
type MsgEffect uint8

// Message-parameter effects, ordered from least to most precise
// knowledge. EffectEscape is the conservative default: the callee may
// retain the pointer, so the caller must stop tracking it (exactly what
// intra-procedural poolcheck assumed for every call).
const (
	EffectEscape MsgEffect = iota
	// EffectUses: the callee only reads the message; ownership stays
	// with the caller, which still owes the release.
	EffectUses
	// EffectReleases: the callee calls transport.Release on every
	// completing path.
	EffectReleases
	// EffectReleasesReceived: transport.ReleaseReceived, likewise.
	EffectReleasesReceived
	// EffectSendsOwned: the callee hands the message to
	// transport.SendOwned; ownership transfers downstream.
	EffectSendsOwned
)

// FuncSummary is the per-function fact sheet the analyzers consume.
type FuncSummary struct {
	// MsgParams is aligned with the signature's parameters; entries for
	// non-message parameters stay EffectEscape and are never consulted.
	MsgParams []MsgEffect
	// ReturnsMsg/ReturnsMsgOK: every non-nil return of the first result
	// is a pooled message of this origin (a constructor-shaped helper).
	ReturnsMsg   poolOrigin
	ReturnsMsgOK bool
	// ValidatesLen[i]: integer parameter i is compared against len() of
	// a slice parameter somewhere in the body — the hoisted-length-check
	// shape codeccheck accepts as a guard.
	ValidatesLen []bool
}

// funcKey builds the cross-unit-stable key for fn.
func funcKey(fn *types.Func) string {
	key := objPkgPath(fn) + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		_, name := namedTypePath(recv.Type())
		key += name + "."
	}
	return key + fn.Name()
}

// BuildProgram indexes the function declarations of pkgs.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{pkgs: pkgs, funcs: make(map[string]*ProgFunc)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := funcKey(obj)
				if _, seen := prog.funcs[key]; !seen {
					prog.funcs[key] = &ProgFunc{Key: key, Obj: obj, Decl: fd, Pkg: pkg}
				}
			}
		}
	}
	return prog
}

// Packages returns the units the program was built over.
func (p *Program) Packages() []*Package { return p.pkgs }

// PrecomputeSummaries forces every function summary in deterministic
// (key) order. The driver calls this before fanning analysis out across
// goroutines so the memoization fields are only ever read concurrently.
func (p *Program) PrecomputeSummaries() {
	keys := make([]string, 0, len(p.funcs))
	for k := range p.funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p.Summary(p.funcs[k])
	}
}

// FuncOf resolves obj to its declaration across units, or nil for
// builtins, interface methods, and functions outside the loaded set.
func (p *Program) FuncOf(obj types.Object) *ProgFunc {
	fn, ok := obj.(*types.Func)
	if !ok || p == nil {
		return nil
	}
	return p.funcs[funcKey(fn)]
}

// CalleeFunc resolves a call expression to its declaration, or nil.
func (p *Program) CalleeFunc(info *types.Info, call *ast.CallExpr) *ProgFunc {
	if p == nil {
		return nil
	}
	return p.FuncOf(calleeObj(info, call))
}

// Summary computes (memoized) the function's summary. Recursive cycles
// observe a conservative nil mid-computation.
func (p *Program) Summary(pf *ProgFunc) *FuncSummary {
	if pf == nil {
		return nil
	}
	if pf.summary != nil {
		return pf.summary
	}
	if pf.inFlight {
		return nil
	}
	pf.inFlight = true
	pf.summary = p.computeSummary(pf)
	pf.inFlight = false
	return pf.summary
}

// transportReleaseCall classifies call as one of the four
// ownership-transfer calls of the transport pool API, returning the kind
// and the message argument expression.
func transportReleaseCall(info *types.Info, call *ast.CallExpr) (kind string, arg ast.Expr) {
	for _, c := range [...]struct {
		name string
		argN int
	}{
		{"Release", 0},
		{"ReleaseReceived", 0},
		{"SendOwned", 1},
		{"SendRetained", 1},
	} {
		if isPkgCall(info, call, "internal/transport", c.name) && len(call.Args) > c.argN {
			return c.name, call.Args[c.argN]
		}
	}
	return "", nil
}

// msgOriginOfCall classifies call as producing a pooled message:
// transport.NewMessage or its sized form NewSizedMessage,
// transport.Decode, an Endpoint-shaped Recv, or a module helper whose
// summary says it returns one.
func msgOriginOfCall(info *types.Info, prog *Program, call *ast.CallExpr) (poolOrigin, bool) {
	if isPkgCall(info, call, "internal/transport", "NewMessage") ||
		isPkgCall(info, call, "internal/transport", "NewSizedMessage") {
		return originNew, true
	}
	if isPkgCall(info, call, "internal/transport", "Decode") {
		return originRecv, true
	}
	if fn := methodCall(info, call, "Recv"); fn != nil {
		sig := fn.Type().(*types.Signature)
		if sig.Results().Len() >= 1 && isMessagePtr(sig.Results().At(0).Type()) {
			return originRecv, true
		}
	}
	if prog != nil {
		if sum := prog.Summary(prog.CalleeFunc(info, call)); sum != nil && sum.ReturnsMsgOK {
			return sum.ReturnsMsg, true
		}
	}
	return 0, false
}

// paramSumState accumulates one message parameter's observed treatment.
type paramSumState struct {
	used bool
	// topRelease is the release kind seen as an unconditional top-level
	// (or top-level deferred) statement; condRelease marks releases
	// buried under control flow, which the caller cannot rely on.
	topRelease  string
	condRelease bool
	escaped     bool
}

// summaryWalker scans a function body for the summary facts.
type summaryWalker struct {
	prog   *Program
	info   *types.Info
	params map[*types.Var]*paramSumState
	// intParams/sliceParams drive the ValidatesLen detection.
	intParams   map[*types.Var]int
	sliceParams map[*types.Var]bool
	validates   map[int]bool
}

func (p *Program) computeSummary(pf *ProgFunc) *FuncSummary {
	sig := pf.Obj.Type().(*types.Signature)
	nParams := sig.Params().Len()
	sum := &FuncSummary{
		MsgParams:    make([]MsgEffect, nParams),
		ValidatesLen: make([]bool, nParams),
	}
	w := &summaryWalker{
		prog:        p,
		info:        pf.Pkg.Info,
		params:      make(map[*types.Var]*paramSumState),
		intParams:   make(map[*types.Var]int),
		sliceParams: make(map[*types.Var]bool),
		validates:   make(map[int]bool),
	}
	paramIndex := make(map[*types.Var]int, nParams)
	for i := 0; i < nParams; i++ {
		v := sig.Params().At(i)
		paramIndex[v] = i
		switch t := v.Type().Underlying().(type) {
		case *types.Pointer:
			if isMessagePtr(v.Type()) && !(sig.Variadic() && i == nParams-1) {
				w.params[v] = &paramSumState{}
			}
		case *types.Basic:
			if t.Info()&types.IsInteger != 0 {
				w.intParams[v] = i
			}
		case *types.Slice:
			w.sliceParams[v] = true
		}
	}

	// Top-level statements: unconditional releases live here.
	for _, stmt := range pf.Decl.Body.List {
		var call *ast.CallExpr
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			call, _ = s.X.(*ast.CallExpr)
		case *ast.DeferStmt:
			call = s.Call
		}
		if call == nil {
			continue
		}
		if kind, argExpr := transportReleaseCall(w.info, call); kind != "" {
			if st := w.paramOf(argExpr); st != nil && st.topRelease == "" {
				st.topRelease = kind
			}
		}
	}

	w.scanStmts(pf.Decl.Body.List, true)

	for v, st := range w.params {
		i := paramIndex[v]
		switch {
		case st.escaped:
			sum.MsgParams[i] = EffectEscape
		case st.topRelease != "":
			switch st.topRelease {
			case "Release":
				sum.MsgParams[i] = EffectReleases
			case "ReleaseReceived":
				sum.MsgParams[i] = EffectReleasesReceived
			case "SendOwned":
				sum.MsgParams[i] = EffectSendsOwned
			default: // SendRetained keeps ownership: a use only.
				sum.MsgParams[i] = EffectUses
			}
		case st.condRelease:
			// Released on some paths only: the caller cannot assume
			// either way, so ownership is treated as transferred.
			sum.MsgParams[i] = EffectEscape
		default:
			sum.MsgParams[i] = EffectUses
		}
	}
	for i := range sum.ValidatesLen {
		sum.ValidatesLen[i] = w.validates[i]
	}

	p.summarizeReturns(pf, sum)
	return sum
}

// paramOf resolves e to a tracked message parameter's state.
func (w *summaryWalker) paramOf(e ast.Expr) *paramSumState {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := w.info.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	return w.params[v]
}

func (w *summaryWalker) scanStmts(stmts []ast.Stmt, topLevel bool) {
	for _, s := range stmts {
		w.scanStmt(s, topLevel)
	}
}

func (w *summaryWalker) scanStmt(s ast.Stmt, topLevel bool) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		w.scanExpr(s.X, topLevel)
	case *ast.DeferStmt:
		w.scanExpr(s.Call, topLevel)
	case *ast.GoStmt:
		// The goroutine may outlive the call: everything it mentions
		// escapes.
		w.escapeAll(s.Call)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if st := w.paramOf(r); st != nil {
				st.escaped = true
				continue
			}
			w.scanExpr(r, false)
		}
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			if st := w.paramOf(r); st != nil {
				// Aliased: the copy is beyond this summary's sight.
				st.escaped = true
				continue
			}
			w.scanExpr(r, false)
		}
		for _, l := range s.Lhs {
			if _, ok := ast.Unparen(l).(*ast.Ident); !ok {
				w.scanExpr(l, false)
			}
		}
	case *ast.SendStmt:
		if st := w.paramOf(s.Value); st != nil {
			st.escaped = true
		} else {
			w.scanExpr(s.Value, false)
		}
		w.scanExpr(s.Chan, false)
	case *ast.IfStmt:
		w.scanStmt(s.Init, false)
		w.scanExpr(s.Cond, false)
		w.scanStmts(s.Body.List, false)
		w.scanStmt(s.Else, false)
	case *ast.ForStmt:
		w.scanStmt(s.Init, false)
		w.scanExpr(s.Cond, false)
		w.scanStmts(s.Body.List, false)
		w.scanStmt(s.Post, false)
	case *ast.RangeStmt:
		w.scanExpr(s.X, false)
		w.scanStmts(s.Body.List, false)
	case *ast.BlockStmt:
		w.scanStmts(s.List, false)
	case *ast.LabeledStmt:
		w.scanStmt(s.Stmt, topLevel)
	case *ast.SwitchStmt:
		w.scanStmt(s.Init, false)
		w.scanExpr(s.Tag, false)
		w.scanStmts(s.Body.List, false)
	case *ast.TypeSwitchStmt:
		w.scanStmt(s.Init, false)
		w.scanStmts(s.Body.List, false)
	case *ast.SelectStmt:
		w.scanStmts(s.Body.List, false)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.scanExpr(e, false)
		}
		w.scanStmts(s.Body, false)
	case *ast.CommClause:
		w.scanStmt(s.Comm, false)
		w.scanStmts(s.Body, false)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						if st := w.paramOf(v); st != nil {
							st.escaped = true
							continue
						}
						w.scanExpr(v, false)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		w.scanExpr(s.X, false)
	default:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.scanExpr(e, false)
				return false
			}
			return true
		})
	}
}

// scanExpr classifies every mention of a tracked parameter. topLevel
// marks expressions whose release calls were already credited by the
// top-level pre-pass.
func (w *summaryWalker) scanExpr(e ast.Expr, topLevel bool) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
		if st := w.paramOf(e); st != nil {
			st.used = true
		}
	case *ast.CallExpr:
		w.noteValidates(e)
		if kind, argExpr := transportReleaseCall(w.info, e); kind != "" {
			if st := w.paramOf(argExpr); st != nil {
				if !topLevel {
					st.condRelease = true
				}
				st.used = true
				for _, a := range e.Args {
					if a != argExpr {
						w.scanExpr(a, false)
					}
				}
				return
			}
		}
		callee := w.prog.CalleeFunc(w.info, e)
		var sum *FuncSummary
		if callee != nil {
			sum = w.prog.Summary(callee)
		}
		w.scanExpr(e.Fun, false)
		for i, a := range e.Args {
			st := w.paramOf(a)
			if st == nil {
				w.scanExpr(a, false)
				continue
			}
			st.used = true
			eff := EffectEscape
			if sum != nil && i < len(sum.MsgParams) {
				eff = sum.MsgParams[i]
			}
			switch eff {
			case EffectUses:
				// Ownership stays here; nothing else to record.
			case EffectReleases, EffectReleasesReceived, EffectSendsOwned:
				// The callee consumes it — but only a top-level call
				// makes that unconditional for *this* function's caller.
				if !topLevel {
					st.condRelease = true
				} else if st.topRelease == "" {
					switch eff {
					case EffectReleases:
						st.topRelease = "Release"
					case EffectReleasesReceived:
						st.topRelease = "ReleaseReceived"
					default:
						st.topRelease = "SendOwned"
					}
				}
			default:
				st.escaped = true
			}
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if st := w.paramOf(e.X); st != nil {
				st.escaped = true
				return
			}
		}
		w.scanExpr(e.X, false)
	case *ast.FuncLit:
		w.escapeAll(e)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if st := w.paramOf(v); st != nil {
				st.escaped = true
				continue
			}
			w.scanExpr(v, false)
		}
	case *ast.SelectorExpr:
		w.scanExpr(e.X, false)
	case *ast.BinaryExpr:
		w.noteValidatesBinary(e)
		w.scanExpr(e.X, false)
		w.scanExpr(e.Y, false)
	case *ast.ParenExpr:
		w.scanExpr(e.X, false)
	case *ast.StarExpr:
		w.scanExpr(e.X, false)
	case *ast.IndexExpr:
		w.scanExpr(e.X, false)
		w.scanExpr(e.Index, false)
	case *ast.SliceExpr:
		w.scanExpr(e.X, false)
		w.scanExpr(e.Low, false)
		w.scanExpr(e.High, false)
		w.scanExpr(e.Max, false)
	case *ast.TypeAssertExpr:
		w.scanExpr(e.X, false)
	case *ast.KeyValueExpr:
		w.scanExpr(e.Key, false)
		w.scanExpr(e.Value, false)
	}
}

// escapeAll marks every tracked parameter mentioned under n as escaped
// (closures and goroutines run on their own schedule).
func (w *summaryWalker) escapeAll(n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if st := w.paramOf(id); st != nil {
				st.escaped = true
			}
		}
		return true
	})
}

// noteValidates records count-parameter validation done through a helper
// the summary layer already understands (one hoist deep).
func (w *summaryWalker) noteValidates(call *ast.CallExpr) {
	callee := w.prog.CalleeFunc(w.info, call)
	if callee == nil {
		return
	}
	sum := w.prog.Summary(callee)
	if sum == nil {
		return
	}
	for i, a := range call.Args {
		if i >= len(sum.ValidatesLen) || !sum.ValidatesLen[i] {
			continue
		}
		if id, ok := ast.Unparen(a).(*ast.Ident); ok {
			if v, ok := w.info.Uses[id].(*types.Var); ok {
				if idx, tracked := w.intParams[v]; tracked {
					w.validates[idx] = true
				}
			}
		}
	}
}

// noteValidatesBinary records a comparison of an integer parameter
// against len() of a slice parameter.
func (w *summaryWalker) noteValidatesBinary(e *ast.BinaryExpr) {
	switch e.Op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
	default:
		return
	}
	var intIdx = -1
	var sawLen bool
	for _, side := range [...]ast.Expr{e.X, e.Y} {
		ast.Inspect(side, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if v, ok := w.info.Uses[n].(*types.Var); ok {
					if i, tracked := w.intParams[v]; tracked {
						intIdx = i
					}
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "len" {
					if _, isBuiltin := w.info.Uses[id].(*types.Builtin); isBuiltin && len(n.Args) == 1 {
						if tv, ok := w.info.Types[n.Args[0]]; ok {
							if _, isSlice := tv.Type.Underlying().(*types.Slice); isSlice {
								sawLen = true
							}
						}
					}
				}
			}
			return true
		})
	}
	if intIdx >= 0 && sawLen {
		w.validates[intIdx] = true
	}
}

// summarizeReturns classifies constructor-shaped helpers: every non-nil
// return of a *transport.Message first result traces to the same pooled
// origin.
func (p *Program) summarizeReturns(pf *ProgFunc, sum *FuncSummary) {
	sig := pf.Obj.Type().(*types.Signature)
	if sig.Results().Len() < 1 || !isMessagePtr(sig.Results().At(0).Type()) {
		return
	}
	info := pf.Pkg.Info

	// Origins of locals bound from producer calls anywhere in the body.
	localOrigin := make(map[*types.Var]poolOrigin)
	ast.Inspect(pf.Decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, r := range as.Rhs {
			call, ok := ast.Unparen(r).(*ast.CallExpr)
			if !ok {
				continue
			}
			origin, ok := msgOriginOfCall(info, p, call)
			if !ok {
				continue
			}
			li := i
			if len(as.Rhs) == 1 {
				li = 0
			}
			if li >= len(as.Lhs) {
				continue
			}
			if id, ok := ast.Unparen(as.Lhs[li]).(*ast.Ident); ok {
				if v, ok := info.Defs[id].(*types.Var); ok {
					localOrigin[v] = origin
				} else if v, ok := info.Uses[id].(*types.Var); ok {
					localOrigin[v] = origin
				}
			}
		}
		return true
	})

	// The transport package itself flips ownership by assigning the
	// unexported owner field (ReadFrame: NewMessage + owner=ownerReceiver
	// returns a RECEIVED message). An owner flip to ownerReceiver
	// overrides the traced origin; any other owner write makes the
	// function too clever to summarize.
	var ownerRecv, ownerOther bool
	ast.Inspect(pf.Decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, l := range as.Lhs {
			sel, ok := ast.Unparen(l).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "owner" {
				continue
			}
			if tv, ok := info.Types[sel.X]; !ok || !isMessagePtr(tv.Type) {
				continue
			}
			rhs := ""
			if i < len(as.Rhs) {
				if id, ok := ast.Unparen(as.Rhs[i]).(*ast.Ident); ok {
					rhs = id.Name
				}
			}
			if rhs == "ownerReceiver" {
				ownerRecv = true
			} else {
				ownerOther = true
			}
		}
		return true
	})
	if ownerOther {
		return
	}

	var origin poolOrigin
	var have, bad bool
	ast.Inspect(pf.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) == 0 {
			return true
		}
		r := ast.Unparen(ret.Results[0])
		var o poolOrigin
		var ok2 bool
		switch r := r.(type) {
		case *ast.CallExpr:
			o, ok2 = msgOriginOfCall(info, p, r)
		case *ast.Ident:
			if r.Name == "nil" {
				return true
			}
			if v, okv := info.Uses[r].(*types.Var); okv {
				o, ok2 = localOrigin[v]
			}
		}
		if !ok2 {
			bad = true
			return true
		}
		if have && o != origin {
			bad = true
			return true
		}
		origin, have = o, true
		return true
	})
	if have && !bad {
		if ownerRecv {
			origin = originRecv
		}
		sum.ReturnsMsg = origin
		sum.ReturnsMsgOK = true
	}
}
