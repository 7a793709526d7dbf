package lint

import (
	"go/ast"
	"go/token"
)

// fencecheck enforces the PR 7 view-epoch fencing invariant: a
// data-plane handler (the MsgPush/MsgPull paths) must consult the
// stale-view fence before it touches shard state, the dedup table, or
// the sync controller. A handler that applies a gradient and only then
// discovers the message belonged to a previous view has already
// corrupted the new epoch's state.
//
// Scope: packages that declare a staleFenced method (internal/core; the
// pslite baseline deliberately has no views and is exempt). Handlers
// are the MsgPush/MsgPull case bodies of MsgType switches plus every
// same-package function those bodies pass the message to — one level
// deep, matching how the server splits runBatched/stagePush/stagePull.
//
// Protected touches:
//   - any method call through a field named ctrl (the controller);
//   - any dedupRecord call (recording before the fence would make a
//     stale message look delivered);
//   - any method call through a field named shard, EXCEPT the read-only
//     inspectors Has/Keys/NumStripes/StripeOf/KeySize (the migration
//     hold path checks shard.Has before fencing, by design).
//
// dedupLookup is allowed anywhere: the documented order is dedup-first
// (a duplicate must be re-acked even when stale).
//
// PR 10 adds a second region kind: MsgPullRO case bodies are *read-only*
// regions. The read tier serves from published snapshots and must never
// touch the controller, the dedup table, or a mutating shard method at
// all — there is no fence that makes such a touch legal, so every
// protected touch is flagged regardless of staleFenced ordering.

// FenceCheck returns the fencecheck analyzer.
func FenceCheck() *Analyzer {
	return &Analyzer{
		Name: "fencecheck",
		Doc:  "data-plane handlers consult the view-epoch fence before touching shard state, dedup tables, or the controller",
		Run:  runFenceCheck,
	}
}

// shardReadOnly are shard methods that never mutate: safe pre-fence.
var shardReadOnly = map[string]bool{
	"Has": true, "Keys": true, "NumStripes": true, "StripeOf": true, "KeySize": true,
	"ROSnapshot": true,
}

func runFenceCheck(pass *Pass) {
	info := pass.Pkg.Info

	// Gate: only packages that declare the fence itself.
	if !declaresStaleFenced(pass.Pkg) {
		return
	}

	// Collect handler regions: MsgPush/MsgPull case bodies, plus the
	// declarations of same-package functions called with the message.
	type region struct {
		body     []ast.Stmt
		pos      token.Pos
		name     string
		readOnly bool // MsgPullRO region: no fence can legalize a touch
	}
	var regions []region
	seenFunc := make(map[*ast.FuncDecl]bool)

	declOf := func(call *ast.CallExpr) *ast.FuncDecl {
		pf := pass.Prog.CalleeFunc(info, call)
		if pf == nil || pf.Pkg != pass.Pkg || pf.Decl.Body == nil {
			return nil
		}
		return pf.Decl
	}

	for _, ms := range collectMsgSwitches(pass.Pkg) {
		if ms.msgVar == nil {
			continue
		}
		for _, c := range ms.stmt.Body.List {
			cc, ok := c.(*ast.CaseClause)
			if !ok || cc.List == nil {
				continue
			}
			dataPlane, readOnly := false, false
			for _, e := range cc.List {
				if mc := msgTypeConst(info, e); mc != nil {
					switch mc.Name() {
					case "MsgPush", "MsgPull":
						dataPlane = true
					case "MsgPullRO":
						readOnly = true
					}
				}
			}
			if !dataPlane && !readOnly {
				continue
			}
			name := "MsgPush/MsgPull case"
			if readOnly {
				name = "MsgPullRO case"
			}
			regions = append(regions, region{body: cc.Body, pos: cc.Pos(), name: name, readOnly: readOnly})
			// One level deep: functions the case hands the message to.
			for _, s := range cc.Body {
				ast.Inspect(s, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					passesMsg := false
					for _, a := range call.Args {
						if id, ok := ast.Unparen(a).(*ast.Ident); ok && info.Uses[id] == ms.msgVar {
							passesMsg = true
						}
					}
					if !passesMsg {
						return true
					}
					if fd := declOf(call); fd != nil && !seenFunc[fd] {
						seenFunc[fd] = true
						regions = append(regions, region{body: fd.Body.List, pos: fd.Pos(), name: fd.Name.Name, readOnly: readOnly})
					}
					return true
				})
			}
		}
	}

	for _, r := range regions {
		checkFenceRegion(pass, r.body, r.name, r.readOnly)
	}
}

// declaresStaleFenced reports whether the unit declares a staleFenced
// method.
func declaresStaleFenced(pkg *Package) bool {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "staleFenced" {
				return true
			}
		}
	}
	return false
}

// checkFenceRegion flags protected touches that precede the region's
// first staleFenced call (or any protected touch when the region never
// fences). In a readOnly region (MsgPullRO) no fence can legalize a
// touch: every protected touch is flagged.
func checkFenceRegion(pass *Pass, body []ast.Stmt, name string, readOnly bool) {
	fencePos := token.NoPos
	type touch struct {
		pos  token.Pos
		what string
	}
	var touches []touch
	for _, s := range body {
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if sel.Sel.Name == "staleFenced" {
				if fencePos == token.NoPos || call.Pos() < fencePos {
					fencePos = call.Pos()
				}
				return true
			}
			if sel.Sel.Name == "dedupRecord" {
				touches = append(touches, touch{pos: call.Pos(), what: "dedupRecord"})
				return true
			}
			// Method call through a field: s.ctrl.OnPush, s.shard.Apply…
			base, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch base.Sel.Name {
			case "ctrl":
				touches = append(touches, touch{pos: call.Pos(), what: "the controller (" + sel.Sel.Name + ")"})
			case "shard":
				if !shardReadOnly[sel.Sel.Name] {
					touches = append(touches, touch{pos: call.Pos(), what: "shard state (" + sel.Sel.Name + ")"})
				}
			}
			return true
		})
	}
	for _, t := range touches {
		msg := "%s touches %s before consulting the view-epoch fence (staleFenced): stale data-plane messages must be rejected first"
		if readOnly {
			msg = "%s touches %s inside a read-only (MsgPullRO) region: the read tier must serve from published snapshots only"
		} else if fencePos != token.NoPos && fencePos <= t.pos {
			continue
		}
		if pass.Pkg.IsTestPos(t.pos) {
			pass.Warnf("fencecheck", t.pos, msg, name, t.what)
		} else {
			pass.Reportf("fencecheck", t.pos, msg, name, t.what)
		}
	}
}
