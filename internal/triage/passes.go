package triage

// AST-level reduction passes. Every pass is an *edit enumerator*: a
// function that, given a program tree of its own and an edit index k,
// applies the k-th edit of that pass in place and reports whether it
// existed. The reducer hands every candidate a fresh clone of the
// current best program's tree, so edits mutate destructively and a
// rejected candidate costs nothing to undo. Edits never have to be semantically safe on
// their own — the printed candidate must re-parse, pass sema, and
// reproduce the divergence fingerprint before it is accepted, so an
// edit that breaks a use-def chain or a type is simply rejected.
//
// Termination does not rely on the enumeration being stable; it
// relies on every edit being *monotone*: each one strictly shrinks
// the program under the measure (AST node count, then total literal
// magnitude, then total string-literal length), so no sequence of
// accepted edits can cycle.

import (
	"compdiff/internal/minic/ast"
)

// pass is one family of candidate edits.
type pass struct {
	name  string
	apply func(p *ast.Program, k int) bool
}

// reductionPasses is the round-robin order a reduction round runs.
var reductionPasses = []pass{
	{"drop-toplevel", dropTopLevelEdit},
	{"drop-stmt", dropStmtEdit},
	{"collapse-stmt", collapseStmtEdit},
	{"inline-local", inlineLocalEdit},
	{"simplify-expr", simplifyExprEdit},
}

// dropTopLevelEdit deletes one top-level declaration: a non-main
// function, a global, or a struct.
func dropTopLevelEdit(p *ast.Program, k int) bool {
	idx := 0
	for i, f := range p.Funcs {
		if f.Name == "main" {
			continue
		}
		if idx == k {
			p.Funcs = append(p.Funcs[:i], p.Funcs[i+1:]...)
			return true
		}
		idx++
	}
	for i := range p.Globals {
		if idx == k {
			p.Globals = append(p.Globals[:i], p.Globals[i+1:]...)
			return true
		}
		idx++
	}
	for i := range p.Structs {
		if idx == k {
			p.Structs = append(p.Structs[:i], p.Structs[i+1:]...)
			return true
		}
		idx++
	}
	return false
}

// blocksOf collects every statement list in a function body, in
// source order.
func blocksOf(f *ast.FuncDecl) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	ast.Walk(f.Body, func(s ast.Stmt) bool {
		if b, ok := s.(*ast.BlockStmt); ok {
			out = append(out, b)
		}
		return true
	})
	return out
}

// dropStmtEdit deletes one statement from one block.
func dropStmtEdit(p *ast.Program, k int) bool {
	idx := 0
	for _, f := range p.Funcs {
		for _, b := range blocksOf(f) {
			for i := range b.Stmts {
				if idx == k {
					b.Stmts = append(b.Stmts[:i], b.Stmts[i+1:]...)
					return true
				}
				idx++
			}
		}
	}
	return false
}

// collapseStmtEdit replaces one compound statement with one of its
// branches: if → then / else, while/for → body. The condition (and
// any init/post) disappears with the wrapper.
func collapseStmtEdit(p *ast.Program, k int) bool {
	idx := 0
	for _, f := range p.Funcs {
		for _, b := range blocksOf(f) {
			for i, s := range b.Stmts {
				var variants []ast.Stmt
				switch s := s.(type) {
				case *ast.IfStmt:
					variants = append(variants, s.Then)
					if s.Else != nil {
						variants = append(variants, s.Else)
					}
				case *ast.WhileStmt:
					variants = append(variants, s.Body)
				case *ast.ForStmt:
					variants = append(variants, s.Body)
				}
				if k < idx+len(variants) {
					// Clone on accept: the surviving branch must not
					// alias the wrapper's children (see exprVariants).
					b.Stmts[i] = ast.CloneStmt(variants[k-idx])
					return true
				}
				idx += len(variants)
			}
		}
	}
	return false
}

// useInfo summarizes how a name is used inside a function body.
type useInfo struct {
	uses   int
	unsafe bool       // written, address-taken, or inc/dec'd
	only   *ast.Ident // the single use when uses == 1
}

// usesOf counts reads of name in body and flags uses that make
// inlining unsound (writes, address-taking, increment/decrement).
// Name-based matching over-counts shadowed locals; that only makes
// the pass more conservative.
func usesOf(body ast.Stmt, name string) useInfo {
	var info useInfo
	var unsafeRoots func(e ast.Expr)
	unsafeRoots = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.Ident:
			if e.Name == name {
				info.unsafe = true
			}
		case *ast.Index:
			unsafeRoots(e.X)
		case *ast.Member:
			unsafeRoots(e.X)
		case *ast.Unary:
			if e.Op == ast.Deref {
				unsafeRoots(e.X)
			}
		case *ast.CastExpr:
			unsafeRoots(e.X)
		}
	}
	ast.WalkExprs(body, func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.Ident:
			if e.Name == name {
				info.uses++
				info.only = e
			}
		case *ast.Assign:
			unsafeRoots(e.LHS)
		case *ast.Unary:
			switch e.Op {
			case ast.AddrOf, ast.PreInc, ast.PreDec, ast.PostInc, ast.PostDec:
				unsafeRoots(e.X)
			}
		}
	})
	return info
}

// inlineLocalEdit substitutes a single-use, never-written local's
// initializer for its one read and deletes the declaration.
func inlineLocalEdit(p *ast.Program, k int) bool {
	idx := 0
	for _, f := range p.Funcs {
		for _, b := range blocksOf(f) {
			for i, s := range b.Stmts {
				ds, ok := s.(*ast.DeclStmt)
				if !ok {
					continue
				}
				for di, d := range ds.Decls {
					if d.Init == nil || d.Storage != ast.Auto {
						continue
					}
					info := usesOf(f.Body, d.Name)
					if info.unsafe || info.uses != 1 {
						continue
					}
					if idx != k {
						idx++
						continue
					}
					// Replace the read with the initializer, then drop
					// the declaration (and its DeclStmt if now empty).
					// The substituted initializer is a clone, never the
					// declaration's own node (see exprVariants).
					target, repl := info.only, ast.CloneExpr(d.Init)
					for _, fn := range p.Funcs {
						ast.EditExprs(fn.Body, func(e ast.Expr) (ast.Expr, bool) {
							if e == ast.Expr(target) {
								return repl, false
							}
							return e, true
						})
					}
					ds.Decls = append(ds.Decls[:di], ds.Decls[di+1:]...)
					if len(ds.Decls) == 0 {
						b.Stmts = append(b.Stmts[:i], b.Stmts[i+1:]...)
					}
					return true
				}
			}
		}
	}
	return false
}

// exprVariants lists the monotone simplifications of one expression
// node: replace an operator node by one operand, strip a cast, or
// shrink a literal toward zero / the empty string.
//
// Every variant is a deep clone, never a child pointer of e, so an
// edited tree shares no node with the one it was edited from: whoever
// still holds e, or the tree before the edit, cannot reach into the
// edited tree through it.
func exprVariants(e ast.Expr) []ast.Expr {
	switch e := e.(type) {
	case *ast.Binary:
		return []ast.Expr{ast.CloneExpr(e.X), ast.CloneExpr(e.Y)}
	case *ast.Cond:
		return []ast.Expr{ast.CloneExpr(e.X), ast.CloneExpr(e.Y)}
	case *ast.Unary:
		switch e.Op {
		case ast.Neg, ast.LogicalNot, ast.BitNot:
			return []ast.Expr{ast.CloneExpr(e.X)}
		}
	case *ast.CastExpr:
		return []ast.Expr{ast.CloneExpr(e.X)}
	case *ast.IntLit:
		if e.Value != 0 && e.Value != 1 {
			zero := &ast.IntLit{Value: 0, LitPos: e.LitPos}
			half := &ast.IntLit{Value: e.Value / 2, LitPos: e.LitPos}
			return []ast.Expr{zero, half}
		}
	case *ast.StrLit:
		if len(e.Value) > 0 {
			empty := &ast.StrLit{Value: "", LitPos: e.LitPos}
			half := &ast.StrLit{Value: e.Value[:len(e.Value)/2], LitPos: e.LitPos}
			return []ast.Expr{empty, half}
		}
	}
	return nil
}

// simplifyExprEdit applies the k-th expression simplification in the
// program: expression nodes are visited in pre-order across all
// function bodies and global initializers, and each node contributes
// its exprVariants.
func simplifyExprEdit(p *ast.Program, k int) bool {
	idx := 0
	applied := false
	visit := func(e ast.Expr) (ast.Expr, bool) {
		if applied {
			return e, false
		}
		variants := exprVariants(e)
		if k < idx+len(variants) {
			applied = true
			return variants[k-idx], false
		}
		idx += len(variants)
		return e, true
	}
	for _, g := range p.Globals {
		ast.EditExpr(&g.Init, visit)
		if applied {
			return true
		}
	}
	for _, f := range p.Funcs {
		ast.EditExprs(f.Body, visit)
		if applied {
			return true
		}
	}
	return false
}
