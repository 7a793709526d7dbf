package lint

import (
	"go/ast"
	"go/types"
)

// segcheck guards the kvstore live-slice boundary (PR 10 read tier).
// Shard.Segment returns the segment slice *itself* — storage that the
// apply path keeps mutating under stripe locks. Inside package kvstore
// that aliasing is deliberate (the snapshot publisher and checkpoint
// writer read it under the stripe lock); anywhere else it is a data
// race waiting for a concurrent ApplyGrad: the caller holds no lock,
// and the read tier's whole design is that readers never take one.
//
// Out-of-package readers have race-free alternatives: ReadInto and
// GatherShard copy under the stripe lock, and Snapshot.Get/Gather/Flat
// read immutable published epochs. segcheck flags every Segment call on
// a kvstore.Shard outside its declaring package — as a failure in
// production code, a warning in tests (single-goroutine test inspection
// is benign but still sets a bad example next to the copying APIs).
//
// Shard.LiveSegments has one sanctioned borrow: a pull response lends
// the shard's segments to a synchronous send instead of gathering a
// copy. Its result may only become the Segs of a message that the same
// function hands to transport.SendOwned — assigned directly
// (m.Segs, err = s.LiveSegments(...)) or through one local variable
// (segs, err := ...; m.Segs = segs). SendOwned reads the segments before
// it returns, so the borrow cannot outlive the caller's quiescence. Any
// other use is flagged like Segment.

// SegCheck returns the segcheck analyzer.
func SegCheck() *Analyzer {
	return &Analyzer{
		Name: "segcheck",
		Doc:  "kvstore.Shard.Segment/LiveSegments escape live mutable slices: callers outside kvstore must copy (ReadInto/GatherShard), read a published snapshot, or lend LiveSegments to a SendOwned in the same function",
		Run:  runSegCheck,
	}
}

// isShardType reports whether t is kvstore.Shard (by value or pointer).
func isShardType(t types.Type) bool {
	path, name := namedTypePath(t)
	return name == "Shard" && hasPathSuffix(path, "internal/kvstore")
}

// shardMethodCall returns the name of the kvstore.Shard method call
// invokes, or "".
func shardMethodCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	tv, ok := info.Types[sel.X]
	if !ok || !isShardType(tv.Type) {
		return ""
	}
	return sel.Sel.Name
}

func runSegCheck(pass *Pass) {
	// The declaring package aliases by design.
	if hasPathSuffix(pass.Pkg.Path, "internal/kvstore") || hasPathSuffix(pass.Pkg.Path, "internal/kvstore_test") {
		return
	}
	info := pass.Pkg.Info
	report := func(call *ast.CallExpr, msg string) {
		if pass.Pkg.IsTestPos(call.Pos()) {
			pass.Warnf("segcheck", call.Pos(), msg)
		} else {
			pass.Reportf("segcheck", call.Pos(), msg)
		}
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch shardMethodCall(info, call) {
				case "Segment":
					report(call, "Segment aliases live stripe storage outside kvstore: copy with ReadInto/GatherShard or serve from ROSnapshot")
				case "LiveSegments":
					if !lentToSendOwned(info, fd.Body, call) {
						report(call, "LiveSegments result must become the Segs of a message passed to transport.SendOwned in the same function")
					}
				}
				return true
			})
		}
	}
}

// lentToSendOwned reports whether the LiveSegments call's result becomes
// the Segs of a message that body passes to transport.SendOwned.
func lentToSendOwned(info *types.Info, body *ast.BlockStmt, call *ast.CallExpr) bool {
	var lhs ast.Expr
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Rhs) == 1 && ast.Unparen(as.Rhs[0]) == call && len(as.Lhs) > 0 {
			lhs = as.Lhs[0]
		}
		return lhs == nil
	})
	msg := segsOwner(info, lhs)
	if msg == nil {
		// Through a local: segs, err := s.LiveSegments(...); m.Segs = segs.
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return false
		}
		local := identObj(info, id)
		if local == nil {
			return false
		}
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return msg == nil
			}
			for i, r := range as.Rhs {
				if rid, ok := ast.Unparen(r).(*ast.Ident); ok && identObj(info, rid) == local {
					if m := segsOwner(info, as.Lhs[i]); m != nil {
						msg = m
					}
				}
			}
			return msg == nil
		})
	}
	if msg == nil {
		return false
	}
	sent := false
	ast.Inspect(body, func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if ok && isPkgCall(info, c, "internal/transport", "SendOwned") && len(c.Args) == 2 {
			if id, ok := ast.Unparen(c.Args[1]).(*ast.Ident); ok && identObj(info, id) == msg {
				sent = true
			}
		}
		return !sent
	})
	return sent
}

// segsOwner returns the message variable m when e is m.Segs for a local
// *transport.Message m, else nil.
func segsOwner(info *types.Info, e ast.Expr) types.Object {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Segs" {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	if tv, ok := info.Types[id]; !ok || !isMessagePtr(tv.Type) {
		return nil
	}
	return identObj(info, id)
}

// identObj resolves an identifier to the object it defines or uses.
func identObj(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}
