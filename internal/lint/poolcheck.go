package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// poolcheck enforces the transport message-pool ownership discipline
// (transport/pool.go):
//
//   - a message obtained from transport.NewMessage (or NewSizedMessage)
//     must reach exactly one of transport.Release / transport.SendOwned
//     on every path (or provably escape to another owner);
//   - a message obtained from Endpoint.Recv or transport.Decode must
//     reach transport.ReleaseReceived (or escape);
//   - no use of a message after it was released or handed to SendOwned;
//   - Release on a received message and ReleaseReceived on a
//     creator-owned message are silent no-ops at runtime — both are
//     almost always a leak spelled politely, so they are findings;
//   - SendRetained keeps ownership: its message must STILL be released.
//
// The tracker is per-function and path-sensitive for release state
// (branches merge: a message counts as released only when every
// fall-through branch released it) but deliberately loses track of
// messages that escape — stored in a struct, captured by a closure, sent
// on a channel, passed to a call it cannot see through — because
// ownership then legitimately belongs to someone else (queues,
// pipelines, fault paths that lean on the GC are all documented owners).
//
// Calls into module functions are seen through the interprocedural
// summaries (summary.go): a helper that only reads its message parameter
// no longer launders ownership (the caller still owes the release), a
// helper that unconditionally releases counts as the release itself, and
// a helper whose first result is always a pooled message registers its
// caller's binding with the right origin. Pointer comparisons (== / !=)
// against a tracked message are exempt from use-after-release: identity
// tests never dereference.

// PoolCheck returns the poolcheck analyzer.
func PoolCheck() *Analyzer {
	return &Analyzer{
		Name: "poolcheck",
		Doc:  "pooled messages reach exactly one release on every path and are never used afterwards",
		Run:  runPoolCheck,
	}
}

func runPoolCheck(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					poolAnalyzeFunc(pass, n.Body)
				}
				return false
			case *ast.FuncLit:
				// Package-level var initializers; lits inside functions are
				// handled by the walker itself.
				poolAnalyzeFunc(pass, n.Body)
				return false
			}
			return true
		})
	}
}

type poolOrigin uint8

const (
	originNew poolOrigin = iota
	originRecv
)

// poolFacts is the path-independent record of one tracked message
// variable: where it came from and whether ANY path consumed it or let
// it escape.
type poolFacts struct {
	origin   poolOrigin
	pos      token.Pos
	name     string
	consumed bool
	escaped  bool
}

// poolRel marks a variable released on the current path.
type poolRel struct {
	by   string
	line int
}

// poolPath is the per-path release state: variables present are released.
type poolPath map[*types.Var]poolRel

func (p poolPath) clone() poolPath {
	c := make(poolPath, len(p))
	for k, v := range p {
		c[k] = v
	}
	return c
}

type poolWalker struct {
	pass  *Pass
	info  *types.Info
	prog  *Program
	vars  map[*types.Var]*poolFacts
	order []*types.Var
}

func poolAnalyzeFunc(pass *Pass, body *ast.BlockStmt) {
	w := &poolWalker{
		pass: pass,
		info: pass.Pkg.Info,
		prog: pass.Prog,
		vars: make(map[*types.Var]*poolFacts),
	}
	w.walkStmts(body.List, make(poolPath))
	for _, v := range w.order {
		f := w.vars[v]
		if f.consumed || f.escaped {
			continue
		}
		var msg string
		if f.origin == originNew {
			msg = "pooled message %q from transport.NewMessage is never released: no path reaches transport.Release or transport.SendOwned"
		} else {
			msg = "received message %q is never released: call transport.ReleaseReceived when done with it"
		}
		if w.pass.Pkg.IsTestPos(f.pos) {
			w.pass.Warnf("poolcheck", f.pos, msg, f.name)
		} else {
			w.pass.Reportf("poolcheck", f.pos, msg, f.name)
		}
	}
}

// trackedIdent resolves e to a tracked variable, or nil.
func (w *poolWalker) trackedIdent(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := w.info.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	if _, tracked := w.vars[v]; !tracked {
		return nil
	}
	return v
}

// useCheck reports a use of v while the current path considers it
// released.
func (w *poolWalker) useCheck(path poolPath, v *types.Var, pos token.Pos) {
	if rel, ok := path[v]; ok {
		w.pass.Reportf("poolcheck", pos,
			"use of message %q after %s released it (line %d)", w.vars[v].name, rel.by, rel.line)
	}
}

// escape marks v as having a new owner; the tracker stops expecting a
// release from this function.
func (w *poolWalker) escape(v *types.Var) { w.vars[v].escaped = true }

// line returns the 1-based source line of pos.
func (w *poolWalker) line(pos token.Pos) int { return w.pass.Pkg.Fset.Position(pos).Line }

// isMessagePtr reports whether t is *transport.Message.
func isMessagePtr(t types.Type) bool {
	path, name := namedTypePath(t)
	if _, ok := t.(*types.Pointer); !ok {
		return false
	}
	return name == "Message" && hasPathSuffix(path, "internal/transport")
}

// originOf classifies call as a message-producing call (the transport
// producers plus any module helper whose summary proves a constant
// origin), returning the origin and true, or false for everything else.
func (w *poolWalker) originOf(call *ast.CallExpr) (poolOrigin, bool) {
	return msgOriginOfCall(w.info, w.prog, call)
}

// register begins tracking the variable bound by ident to a fresh pooled
// message.
func (w *poolWalker) register(path poolPath, ident ast.Expr, origin poolOrigin) {
	id, ok := ast.Unparen(ident).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	var v *types.Var
	if def, ok := w.info.Defs[id].(*types.Var); ok {
		v = def
	} else if use, ok := w.info.Uses[id].(*types.Var); ok {
		v = use
	}
	if v == nil || !isMessagePtr(v.Type()) {
		return
	}
	if _, seen := w.vars[v]; !seen {
		w.order = append(w.order, v)
	}
	w.vars[v] = &poolFacts{origin: origin, pos: id.Pos(), name: id.Name}
	delete(path, v)
}

// releaseCall classifies call as one of the four ownership-transfer
// calls, returning the tracked message argument (nil when the argument
// is not a tracked local).
func (w *poolWalker) releaseCall(call *ast.CallExpr) (kind string, arg ast.Expr) {
	return transportReleaseCall(w.info, call)
}

// summaryOf resolves call to a module function's summary (nil for
// dynamic calls, externals, and anything the program index cannot see)
// plus a display name for diagnostics.
func (w *poolWalker) summaryOf(call *ast.CallExpr) (*FuncSummary, string) {
	pf := w.prog.CalleeFunc(w.info, call)
	if pf == nil {
		return nil, ""
	}
	return w.prog.Summary(pf), pf.Obj.Name()
}

// applyCallEffect applies a callee's summarized effect on the tracked
// message argument at position i. With no summary (or an escape effect)
// ownership conservatively transfers, exactly as the intra-procedural
// tracker assumed for every call.
func (w *poolWalker) applyCallEffect(path poolPath, sum *FuncSummary, calleeName string, i int, v *types.Var, pos token.Pos, deferred bool) {
	eff := EffectEscape
	if sum != nil && i < len(sum.MsgParams) {
		eff = sum.MsgParams[i]
	}
	switch eff {
	case EffectUses:
		// The callee only reads it: ownership — and the release
		// obligation — stay right here.
		w.useCheck(path, v, pos)
	case EffectReleases:
		w.applyRelease(path, "Release", calleeName+" (which releases it)", v, pos, deferred)
	case EffectReleasesReceived:
		w.applyRelease(path, "ReleaseReceived", calleeName+" (which releases it)", v, pos, deferred)
	case EffectSendsOwned:
		w.applyRelease(path, "SendOwned", calleeName+" (which sends it owned)", v, pos, deferred)
	default:
		w.useCheck(path, v, pos)
		w.escape(v)
	}
}

// applyRelease handles Release/ReleaseReceived/SendOwned/SendRetained on
// a tracked variable on the current path. via names what performed the
// transfer in diagnostics — "transport.Release" for direct calls, the
// helper's name when a summary proved the release happens inside a
// callee. deferred releases consume but do not mark the path released
// (they run at function exit).
func (w *poolWalker) applyRelease(path poolPath, kind, via string, v *types.Var, pos token.Pos, deferred bool) {
	f := w.vars[v]
	switch kind {
	case "Release":
		if f.origin == originRecv {
			w.pass.Reportf("poolcheck", pos,
				"%s is a no-op on received message %q; use transport.ReleaseReceived", via, f.name)
			return
		}
	case "ReleaseReceived":
		if f.origin == originNew {
			w.pass.Reportf("poolcheck", pos,
				"%s is a no-op on creator-owned message %q; use transport.Release or transport.SendOwned", via, f.name)
			return
		}
	case "SendOwned":
		if f.origin == originRecv {
			// Forwarding a received pointer: ownership moves downstream.
			w.useCheck(path, v, pos)
			w.escape(v)
			return
		}
	case "SendRetained":
		// Ownership retained: just a use, the release still has to come.
		w.useCheck(path, v, pos)
		return
	}
	if rel, ok := path[v]; ok {
		w.pass.Reportf("poolcheck", pos,
			"message %q released twice: %s here, %s at line %d", f.name, via, rel.by, rel.line)
		return
	}
	f.consumed = true
	if !deferred {
		path[v] = poolRel{by: via, line: w.line(pos)}
	}
}

// scan inspects an expression: registers origin calls in sub-expressions
// is NOT done here (assignments handle binding); it checks uses of
// released messages, applies release calls, and marks escapes.
func (w *poolWalker) scan(path poolPath, n ast.Node) {
	switch n := n.(type) {
	case nil:
	case *ast.Ident:
		if v, ok := w.info.Uses[n].(*types.Var); ok {
			if _, tracked := w.vars[v]; tracked {
				w.useCheck(path, v, n.Pos())
			}
		}
	case *ast.CallExpr:
		if kind, argExpr := w.releaseCall(n); kind != "" {
			if v := w.trackedIdent(argExpr); v != nil {
				w.applyRelease(path, kind, "transport."+kind, v, n.Pos(), false)
				for _, a := range n.Args {
					if a != argExpr {
						w.scan(path, a)
					}
				}
				return
			}
		}
		sum, calleeName := w.summaryOf(n)
		w.scan(path, n.Fun)
		for i, a := range n.Args {
			if v := w.trackedIdent(a); v != nil {
				w.applyCallEffect(path, sum, calleeName, i, v, a.Pos(), false)
				continue
			}
			w.scan(path, a)
		}
	case *ast.SelectorExpr:
		// Field/method access is a use of the base, not an escape.
		w.scan(path, n.X)
	case *ast.FuncLit:
		// The closure may run at any time: everything it captures escapes,
		// and its body is checked as its own function.
		ast.Inspect(n.Body, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if v, ok := w.info.Uses[id].(*types.Var); ok {
					if _, tracked := w.vars[v]; tracked {
						w.escape(v)
					}
				}
			}
			return true
		})
		poolAnalyzeFunc(w.pass, n.Body)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if v := w.trackedIdent(n.X); v != nil {
				w.useCheck(path, v, n.X.Pos())
				w.escape(v)
				return
			}
		}
		w.scan(path, n.X)
	case *ast.CompositeLit:
		for _, elt := range n.Elts {
			e := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				e = kv.Value
			}
			if v := w.trackedIdent(e); v != nil {
				w.useCheck(path, v, e.Pos())
				w.escape(v)
				continue
			}
			w.scan(path, e)
		}
	case *ast.BinaryExpr:
		if n.Op == token.EQL || n.Op == token.NEQ {
			// Pointer identity never dereferences: comparing a tracked
			// message — even one already released or handed off — is
			// legal (handoff tests assert exactly this).
			if w.trackedIdent(n.X) == nil {
				w.scan(path, n.X)
			}
			if w.trackedIdent(n.Y) == nil {
				w.scan(path, n.Y)
			}
			return
		}
		w.scan(path, n.X)
		w.scan(path, n.Y)
	case *ast.ParenExpr:
		w.scan(path, n.X)
	case *ast.StarExpr:
		w.scan(path, n.X)
	case *ast.IndexExpr:
		w.scan(path, n.X)
		w.scan(path, n.Index)
	case *ast.SliceExpr:
		w.scan(path, n.X)
		w.scan(path, n.Low)
		w.scan(path, n.High)
		w.scan(path, n.Max)
	case *ast.TypeAssertExpr:
		w.scan(path, n.X)
	case *ast.KeyValueExpr:
		w.scan(path, n.Key)
		w.scan(path, n.Value)
	}
}

// walkStmts walks a statement sequence, returning true when every path
// through it terminates (return/branch).
func (w *poolWalker) walkStmts(stmts []ast.Stmt, path poolPath) bool {
	for _, s := range stmts {
		if w.walkStmt(s, path) {
			return true
		}
	}
	return false
}

type poolBranch struct {
	path       poolPath
	terminated bool
}

// mergeBranches replaces path with the intersection of release states
// over all fall-through branches.
func mergeBranches(path poolPath, branches []poolBranch) {
	var live []poolPath
	for _, b := range branches {
		if !b.terminated {
			live = append(live, b.path)
		}
	}
	for k := range path {
		delete(path, k)
	}
	if len(live) == 0 {
		return
	}
	for v, rel := range live[0] {
		inAll := true
		for _, p := range live[1:] {
			if _, ok := p[v]; !ok {
				inAll = false
				break
			}
		}
		if inAll {
			path[v] = rel
		}
	}
}

func (w *poolWalker) walkStmt(s ast.Stmt, path poolPath) bool {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		w.scan(path, s.X)
	case *ast.AssignStmt:
		w.walkAssign(path, s.Lhs, s.Rhs)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				lhs := make([]ast.Expr, len(vs.Names))
				for i, n := range vs.Names {
					lhs[i] = n
				}
				w.walkAssign(path, lhs, vs.Values)
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if v := w.trackedIdent(r); v != nil {
				w.useCheck(path, v, r.Pos())
				w.escape(v)
				continue
			}
			w.scan(path, r)
		}
		return true
	case *ast.BranchStmt:
		return true
	case *ast.DeferStmt:
		w.walkAsync(path, s.Call, true)
	case *ast.GoStmt:
		w.walkAsync(path, s.Call, false)
	case *ast.SendStmt:
		w.scan(path, s.Chan)
		if v := w.trackedIdent(s.Value); v != nil {
			w.useCheck(path, v, s.Value.Pos())
			w.escape(v)
		} else {
			w.scan(path, s.Value)
		}
	case *ast.IncDecStmt:
		w.scan(path, s.X)
	case *ast.BlockStmt:
		return w.walkStmts(s.List, path)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, path)
	case *ast.IfStmt:
		w.walkStmt(s.Init, path)
		w.scan(path, s.Cond)
		then := poolBranch{path: path.clone()}
		then.terminated = w.walkStmts(s.Body.List, then.path)
		els := poolBranch{path: path.clone()}
		if s.Else != nil {
			els.terminated = w.walkStmt(s.Else, els.path)
		}
		mergeBranches(path, []poolBranch{then, els})
		return then.terminated && s.Else != nil && els.terminated
	case *ast.SwitchStmt:
		w.walkStmt(s.Init, path)
		w.scan(path, s.Tag)
		w.walkCases(path, s.Body.List, false)
	case *ast.TypeSwitchStmt:
		w.walkStmt(s.Init, path)
		w.walkCases(path, s.Body.List, false)
	case *ast.SelectStmt:
		w.walkCases(path, s.Body.List, true)
	case *ast.ForStmt:
		w.walkStmt(s.Init, path)
		w.scan(path, s.Cond)
		body := path.clone()
		w.walkStmts(s.Body.List, body)
		w.walkStmt(s.Post, body)
	case *ast.RangeStmt:
		w.scan(path, s.X)
		body := path.clone()
		if s.Tok == token.DEFINE && s.Key != nil {
			// Ranging over a channel of messages binds received values.
			if t, ok := w.info.Types[s.X]; ok {
				if ch, ok := t.Type.Underlying().(*types.Chan); ok && isMessagePtr(ch.Elem()) {
					w.register(body, s.Key, originRecv)
				}
			}
		}
		w.walkStmts(s.Body.List, body)
	default:
		// Anything unhandled: scan conservatively for uses.
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.scan(path, e)
				return false
			}
			return true
		})
	}
	return false
}

// walkCases walks switch/select clause bodies as parallel branches. A
// switch without a default keeps an implicit unchanged fall-through
// branch; a select without a default blocks until some clause runs, so
// its clauses cover every path.
func (w *poolWalker) walkCases(path poolPath, clauses []ast.Stmt, isSelect bool) {
	var branches []poolBranch
	hasDefault := false
	for _, c := range clauses {
		b := poolBranch{path: path.clone()}
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			for _, e := range cc.List {
				w.scan(path, e)
			}
			b.terminated = w.walkStmts(cc.Body, b.path)
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			} else {
				w.walkStmt(cc.Comm, b.path)
			}
			b.terminated = w.walkStmts(cc.Body, b.path)
		default:
			continue
		}
		branches = append(branches, b)
	}
	if !isSelect && !hasDefault {
		branches = append(branches, poolBranch{path: path.clone()})
	}
	mergeBranches(path, branches)
}

// walkAssign handles registration (m := transport.NewMessage(), resp,
// err := ep.Recv()) and aliasing/field stores.
func (w *poolWalker) walkAssign(path poolPath, lhs, rhs []ast.Expr) {
	registered := make(map[int]bool)
	if len(rhs) == 1 {
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			if origin, ok := w.originOf(call); ok && len(lhs) >= 1 {
				for _, a := range call.Args {
					w.scan(path, a)
				}
				w.register(path, lhs[0], origin)
				registered[0] = true
			}
		}
	}
	if len(registered) == 0 {
		for i, r := range rhs {
			if call, ok := ast.Unparen(r).(*ast.CallExpr); ok && len(rhs) == len(lhs) {
				if origin, ok := w.originOf(call); ok {
					for _, a := range call.Args {
						w.scan(path, a)
					}
					w.register(path, lhs[i], origin)
					registered[i] = true
					continue
				}
			}
			if v := w.trackedIdent(r); v != nil {
				// Aliased into another variable or stored somewhere.
				w.useCheck(path, v, r.Pos())
				w.escape(v)
				continue
			}
			w.scan(path, r)
		}
	}
	for i, l := range lhs {
		if registered[i] {
			continue
		}
		if id, ok := ast.Unparen(l).(*ast.Ident); ok {
			// Rebinding a tracked variable to a non-message value: the
			// path state for the old value no longer applies.
			if v, ok := w.info.Uses[id].(*types.Var); ok {
				if _, tracked := w.vars[v]; tracked {
					delete(path, v)
				}
			}
			continue
		}
		w.scan(path, l)
	}
}

// walkAsync handles defer/go calls: deferred releases (direct or through
// a summarized helper) consume their message; a goroutine's arguments
// always hand ownership away — the goroutine runs on its own schedule,
// so even a read-only callee could race a release here.
func (w *poolWalker) walkAsync(path poolPath, call *ast.CallExpr, deferred bool) {
	if deferred {
		if kind, argExpr := w.releaseCall(call); kind != "" {
			if v := w.trackedIdent(argExpr); v != nil {
				w.applyRelease(path, kind, "transport."+kind, v, call.Pos(), true)
				return
			}
		}
	}
	var sum *FuncSummary
	var calleeName string
	if deferred {
		sum, calleeName = w.summaryOf(call)
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		w.scan(path, lit)
	} else {
		w.scan(path, call.Fun)
	}
	for i, a := range call.Args {
		if v := w.trackedIdent(a); v != nil {
			if deferred {
				w.applyCallEffect(path, sum, calleeName, i, v, a.Pos(), true)
			} else {
				w.useCheck(path, v, a.Pos())
				w.escape(v)
			}
			continue
		}
		w.scan(path, a)
	}
}
