package compiler

import (
	"compdiff/internal/minic/ast"
	"compdiff/internal/minic/types"
)

// decisions records the UB-exploiting transformations an
// implementation decided to apply to one function. The shared AST is
// never mutated — the same program object is compiled under many
// configurations concurrently — so lowering consults these side
// tables instead.
type decisions struct {
	// fold maps an expression to the constant (0 or 1) that replaces
	// it: eliminated overflow checks and null checks. Every fold here
	// is sound under the standard's "UB never happens" licence.
	fold map[ast.Expr]uint64
	// dead marks statements the optimizer drops (dead loads).
	dead map[ast.Stmt]bool
	// fired is the pass-coverage bitmap for this function: which
	// rewrite kinds the side tables above record. The lowerer unions it
	// (plus the lowering-time passes) into the per-compilation bitmap.
	fired PassBits
}

// noDecisions is the empty side table: what analyzeFunc decides for a
// pass set that exploits no UB. Lowering only reads decisions, and
// reads of nil maps are empty, so every function of every such
// configuration shares it.
var noDecisions = &decisions{}

// analysisKey packs the three pass bits analyzeFunc reads. It is the
// whole of a configuration the analysis depends on, so lowerings whose
// pass sets share a key share the analysis (see analysis.decisions).
type analysisKey uint8

const (
	keyFoldOverflow analysisKey = 1 << iota
	keyFoldNull
	keyDeadLoad
	numAnalysisKeys = 1 << 3
)

func (ps passSet) analysisKey() analysisKey {
	var k analysisKey
	if ps.FoldOverflowChecks {
		k |= keyFoldOverflow
	}
	if ps.FoldNullChecks {
		k |= keyFoldNull
	}
	if ps.DeadLoadElim {
		k |= keyDeadLoad
	}
	return k
}

// analyzeFunc runs the flow-sensitive UB-exploitation analysis over a
// function for the passes in k.
func analyzeFunc(k analysisKey, fn *ast.FuncDecl) *decisions {
	if k == 0 {
		return noDecisions
	}
	dec := &decisions{fold: map[ast.Expr]uint64{}, dead: map[ast.Stmt]bool{}}
	a := &analyzer{k: k, dec: dec, writes: map[ast.Stmt][]*ast.Symbol{}}
	a.stmts(fn.Body.Stmts, newFacts())
	return dec
}

// facts is the per-program-point dataflow state: which symbols are
// known non-negative (established by earlier guards) and which
// pointers have already been dereferenced on every path here.
type facts struct {
	nonneg  map[*ast.Symbol]bool
	derefed map[*ast.Symbol]bool
}

func newFacts() *facts {
	return &facts{nonneg: map[*ast.Symbol]bool{}, derefed: map[*ast.Symbol]bool{}}
}

func (f *facts) clone() *facts {
	c := newFacts()
	for k := range f.nonneg {
		c.nonneg[k] = true
	}
	for k := range f.derefed {
		c.derefed[k] = true
	}
	return c
}

func (f *facts) kill(sym *ast.Symbol) {
	delete(f.nonneg, sym)
	delete(f.derefed, sym)
}

type analyzer struct {
	k   analysisKey
	dec *decisions
	// writes memoises writeSet per statement: a loop body's write set
	// is needed at every enclosing loop and twice at its own.
	writes map[ast.Stmt][]*ast.Symbol
}

// stmts processes a statement list, threading facts forward.
func (a *analyzer) stmts(list []ast.Stmt, f *facts) {
	for _, s := range list {
		a.stmt(s, f)
	}
}

func (a *analyzer) stmt(s ast.Stmt, f *facts) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		a.stmts(s.Stmts, f)
	case *ast.DeclStmt:
		for _, d := range s.Decls {
			if d.Init != nil {
				a.applyFolds(d.Init, f)
				a.recordDerefs(d.Init, f)
			}
			if d.Sym != nil {
				f.kill(d.Sym)
			}
		}
	case *ast.ExprStmt:
		a.applyFolds(s.X, f)
		if a.k&keyDeadLoad != 0 && pureExpr(s.X) {
			a.dec.dead[s] = true
			a.dec.fired |= PassDeadLoad
			return // the optimizer never executes it: no facts from it
		}
		a.recordDerefs(s.X, f)
		killAssigned(s.X, f)
	case *ast.ReturnStmt:
		if s.Value != nil {
			a.applyFolds(s.Value, f)
			a.recordDerefs(s.Value, f)
		}
	case *ast.IfStmt:
		a.applyFolds(s.Cond, f)
		a.recordDerefs(s.Cond, f)
		tf := f.clone()
		a.stmt(s.Then, tf)
		if s.Else != nil {
			ef := f.clone()
			a.stmt(s.Else, ef)
		}
		// Anything either branch may write is unknown afterwards.
		a.killWrites(s.Then, f)
		if s.Else != nil {
			a.killWrites(s.Else, f)
		}
		// A guard of the form `if (... || x < 0 || ...) return;`
		// establishes x >= 0 afterwards (the branch not taken means
		// every disjunct was false).
		if s.Else == nil && terminates(s.Then) {
			for _, sym := range nonnegGuards(s.Cond) {
				if !assignedIn(s.Then, sym) {
					f.nonneg[sym] = true
				}
			}
		}
	case *ast.WhileStmt:
		a.applyFolds(s.Cond, f)
		bf := f.clone()
		a.killWrites(s.Body, bf)
		a.stmt(s.Body, bf)
		a.killWrites(s.Body, f)
	case *ast.ForStmt:
		if s.Init != nil {
			a.stmt(s.Init, f)
		}
		if s.Cond != nil {
			a.applyFolds(s.Cond, f)
		}
		bf := f.clone()
		a.killWrites(s.Body, bf)
		if s.Post != nil {
			killAssigned(s.Post, bf)
		}
		a.stmt(s.Body, bf)
		if s.Post != nil {
			a.applyFolds(s.Post, bf)
		}
		a.killWrites(s.Body, f)
		if s.Post != nil {
			killAssigned(s.Post, f)
		}
	}
}

// applyFolds walks the expression tree and records every fold the pass
// set licenses under the current facts.
func (a *analyzer) applyFolds(e ast.Expr, f *facts) {
	walk(e, func(x ast.Expr) {
		if a.k&keyFoldOverflow != 0 {
			if v, ok := matchOverflowCheck(x, f); ok {
				a.dec.fold[x] = v
				a.dec.fired |= PassFoldOverflow
			}
		}
		if a.k&keyFoldNull != 0 {
			if sym, eqZero, ok := matchNullCheck(x); ok && f.derefed[sym] {
				if eqZero {
					a.dec.fold[x] = 0 // p was dereferenced: p == 0 is "never" true
				} else {
					a.dec.fold[x] = 1
				}
				a.dec.fired |= PassFoldNull
			}
		}
	})
}

// recordDerefs adds pointers unconditionally dereferenced by e.
func (a *analyzer) recordDerefs(e ast.Expr, f *facts) {
	for _, sym := range derefSyms(e) {
		f.derefed[sym] = true
	}
}

func walk(e ast.Expr, fn func(ast.Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch e := e.(type) {
	case *ast.Unary:
		walk(e.X, fn)
	case *ast.Binary:
		walk(e.X, fn)
		walk(e.Y, fn)
	case *ast.Assign:
		walk(e.LHS, fn)
		walk(e.RHS, fn)
	case *ast.Cond:
		walk(e.C, fn)
		walk(e.X, fn)
		walk(e.Y, fn)
	case *ast.Call:
		for _, x := range e.Args {
			walk(x, fn)
		}
	case *ast.Index:
		walk(e.X, fn)
		walk(e.Idx, fn)
	case *ast.Member:
		walk(e.X, fn)
	case *ast.CastExpr:
		walk(e.X, fn)
	}
}

// matchOverflowCheck recognizes the signed-overflow guard idioms the
// paper's Listing 1 exemplifies. With b known non-negative and signed
// overflow assumed impossible:
//
//	a + b <  a  -> 0        a + b >= a  -> 1
//	a >  a + b  -> 0        a <= a + b  -> 1
//
// (and symmetrically with the roles of a and b swapped).
func matchOverflowCheck(e ast.Expr, f *facts) (uint64, bool) {
	bin, ok := e.(*ast.Binary)
	if !ok || bin.CommonType == nil || !bin.CommonType.IsSigned() || !bin.CommonType.IsInteger() {
		return 0, false
	}
	var sum *ast.Binary
	var other ast.Expr
	var val uint64
	switch bin.Op {
	case ast.Lt, ast.Ge: // sum on the left
		s, ok := bin.X.(*ast.Binary)
		if !ok || s.Op != ast.Add {
			return 0, false
		}
		sum, other = s, bin.Y
		if bin.Op == ast.Lt {
			val = 0
		} else {
			val = 1
		}
	case ast.Gt, ast.Le: // sum on the right
		s, ok := bin.Y.(*ast.Binary)
		if !ok || s.Op != ast.Add {
			return 0, false
		}
		sum, other = s, bin.X
		if bin.Op == ast.Gt {
			val = 0
		} else {
			val = 1
		}
	default:
		return 0, false
	}
	if sum.CommonType == nil || !sum.CommonType.IsSigned() {
		return 0, false
	}
	if !pureExpr(sum.X) || !pureExpr(sum.Y) || !pureExpr(other) {
		return 0, false
	}
	// other must equal one addend; the remaining addend must be known
	// non-negative.
	var addend ast.Expr
	switch {
	case exprEqual(other, sum.X):
		addend = sum.Y
	case exprEqual(other, sum.Y):
		addend = sum.X
	default:
		return 0, false
	}
	if !knownNonneg(addend, f) {
		return 0, false
	}
	return val, true
}

func knownNonneg(e ast.Expr, f *facts) bool {
	switch e := e.(type) {
	case *ast.IntLit:
		return e.Value >= 0
	case *ast.Ident:
		return e.Sym != nil && f.nonneg[e.Sym]
	}
	return false
}

// matchNullCheck recognizes `p == 0`, `0 == p`, `p != 0`, `!p` over a
// plain pointer variable.
func matchNullCheck(e ast.Expr) (*ast.Symbol, bool, bool) {
	switch e := e.(type) {
	case *ast.Binary:
		if e.Op != ast.Eq && e.Op != ast.Ne {
			return nil, false, false
		}
		var id *ast.Ident
		if i, ok := e.X.(*ast.Ident); ok && isZeroLit(e.Y) {
			id = i
		} else if i, ok := e.Y.(*ast.Ident); ok && isZeroLit(e.X) {
			id = i
		}
		if id == nil || id.Sym == nil || id.Sym.Type == nil || !id.Sym.Type.IsPtr() {
			return nil, false, false
		}
		return id.Sym, e.Op == ast.Eq, true
	case *ast.Unary:
		if e.Op != ast.LogicalNot {
			return nil, false, false
		}
		id, ok := e.X.(*ast.Ident)
		if !ok || id.Sym == nil || id.Sym.Type == nil || !id.Sym.Type.IsPtr() {
			return nil, false, false
		}
		return id.Sym, true, true
	}
	return nil, false, false
}

func isZeroLit(e ast.Expr) bool {
	lit, ok := e.(*ast.IntLit)
	return ok && lit.Value == 0
}

// derefSyms collects pointer variables unconditionally dereferenced by
// e: *p, p[i], p->f. Short-circuit right-hand sides and conditional
// arms are skipped — they may not execute.
func derefSyms(e ast.Expr) []*ast.Symbol {
	var out []*ast.Symbol
	var visit func(ast.Expr)
	add := func(x ast.Expr) {
		if id, ok := x.(*ast.Ident); ok && id.Sym != nil && id.Sym.Type != nil && id.Sym.Type.IsPtr() {
			out = append(out, id.Sym)
		}
	}
	visit = func(x ast.Expr) {
		switch x := x.(type) {
		case *ast.Unary:
			if x.Op == ast.Deref {
				add(x.X)
			}
			visit(x.X)
		case *ast.Index:
			add(x.X)
			visit(x.X)
			visit(x.Idx)
		case *ast.Member:
			if x.Arrow {
				add(x.X)
			}
			visit(x.X)
		case *ast.Binary:
			visit(x.X)
			if x.Op != ast.LogAnd && x.Op != ast.LogOr {
				visit(x.Y)
			}
		case *ast.Assign:
			visit(x.LHS)
			visit(x.RHS)
		case *ast.Call:
			for _, a := range x.Args {
				visit(a)
			}
		case *ast.Cond:
			visit(x.C)
		case *ast.CastExpr:
			visit(x.X)
		}
	}
	visit(e)
	return out
}

// pureExpr reports whether evaluating e has no side effects (no calls,
// assignments, or increments). Loads are considered pure; the dead
// load they perform is exactly what DeadLoadElim removes.
func pureExpr(e ast.Expr) bool {
	pure := true
	walk(e, func(x ast.Expr) {
		switch x := x.(type) {
		case *ast.Call, *ast.Assign:
			pure = false
		case *ast.Unary:
			switch x.Op {
			case ast.PreInc, ast.PreDec, ast.PostInc, ast.PostDec:
				pure = false
			}
		}
	})
	return pure
}

// exprEqual is syntactic expression equality over resolved ASTs.
func exprEqual(a, b ast.Expr) bool {
	switch a := a.(type) {
	case *ast.Ident:
		b, ok := b.(*ast.Ident)
		return ok && a.Sym != nil && a.Sym == b.Sym
	case *ast.IntLit:
		b, ok := b.(*ast.IntLit)
		return ok && a.Value == b.Value
	case *ast.Unary:
		b, ok := b.(*ast.Unary)
		return ok && a.Op == b.Op && exprEqual(a.X, b.X)
	case *ast.Binary:
		b, ok := b.(*ast.Binary)
		return ok && a.Op == b.Op && exprEqual(a.X, b.X) && exprEqual(a.Y, b.Y)
	case *ast.Member:
		b, ok := b.(*ast.Member)
		return ok && a.Name == b.Name && a.Arrow == b.Arrow && exprEqual(a.X, b.X)
	case *ast.Index:
		b, ok := b.(*ast.Index)
		return ok && exprEqual(a.X, b.X) && exprEqual(a.Idx, b.Idx)
	case *ast.CastExpr:
		b, ok := b.(*ast.CastExpr)
		return ok && types.Equal(a.To, b.To) && exprEqual(a.X, b.X)
	}
	return false
}

// nonnegGuards extracts symbols x for which a false guard condition
// implies x >= 0: the disjuncts of the form `x < 0` (or `x < 0 || ...`).
func nonnegGuards(cond ast.Expr) []*ast.Symbol {
	var out []*ast.Symbol
	var split func(ast.Expr)
	split = func(e ast.Expr) {
		if bin, ok := e.(*ast.Binary); ok {
			if bin.Op == ast.LogOr {
				split(bin.X)
				split(bin.Y)
				return
			}
			if bin.Op == ast.Lt && isZeroLit(bin.Y) {
				if id, ok := bin.X.(*ast.Ident); ok && id.Sym != nil &&
					id.Sym.Type != nil && id.Sym.Type.IsSigned() {
					out = append(out, id.Sym)
				}
			}
			if bin.Op == ast.Gt && isZeroLit(bin.X) {
				if id, ok := bin.Y.(*ast.Ident); ok && id.Sym != nil &&
					id.Sym.Type != nil && id.Sym.Type.IsSigned() {
					out = append(out, id.Sym)
				}
			}
		}
	}
	split(cond)
	return out
}

// terminates reports whether control cannot flow past s.
func terminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BreakStmt, *ast.ContinueStmt:
		return true
	case *ast.BlockStmt:
		if len(s.Stmts) == 0 {
			return false
		}
		return terminates(s.Stmts[len(s.Stmts)-1])
	case *ast.IfStmt:
		return s.Else != nil && terminates(s.Then) && terminates(s.Else)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.Call); ok {
			return call.Fun.Name == "exit"
		}
	}
	return false
}

// killAssigned removes facts about every symbol e may write (assigned,
// incremented, or address-taken).
func killAssigned(e ast.Expr, f *facts) {
	for _, sym := range assignedSyms(e) {
		f.kill(sym)
	}
}

// killWrites removes facts about every symbol statement s may write:
// assigned, incremented or address-taken anywhere in it, or declared in
// it.
func (a *analyzer) killWrites(s ast.Stmt, f *facts) {
	for _, sym := range a.writeSet(s) {
		f.kill(sym)
	}
}

// writeSet lists the symbols s may write, possibly with repeats. It is
// built from the children's memoised sets, so every statement is walked
// once however deep it nests.
func (a *analyzer) writeSet(s ast.Stmt) []*ast.Symbol {
	if s == nil {
		return nil
	}
	if w, ok := a.writes[s]; ok {
		return w
	}
	var w []*ast.Symbol
	exprs := func(e ast.Expr) {
		if e != nil {
			w = append(w, assignedSyms(e)...)
		}
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, c := range s.Stmts {
			w = append(w, a.writeSet(c)...)
		}
	case *ast.DeclStmt:
		for _, d := range s.Decls {
			exprs(d.Init)
		}
		for _, d := range s.Decls {
			if d.Sym != nil {
				w = append(w, d.Sym)
			}
		}
	case *ast.ExprStmt:
		exprs(s.X)
	case *ast.ReturnStmt:
		exprs(s.Value)
	case *ast.IfStmt:
		exprs(s.Cond)
		w = append(w, a.writeSet(s.Then)...)
		w = append(w, a.writeSet(s.Else)...)
	case *ast.WhileStmt:
		exprs(s.Cond)
		w = append(w, a.writeSet(s.Body)...)
	case *ast.ForStmt:
		w = append(w, a.writeSet(s.Init)...)
		exprs(s.Cond)
		exprs(s.Post)
		w = append(w, a.writeSet(s.Body)...)
	}
	a.writes[s] = w
	return w
}

func assignedIn(s ast.Stmt, sym *ast.Symbol) bool {
	found := false
	ast.WalkExprs(s, func(e ast.Expr) {
		for _, w := range assignedSyms(e) {
			if w == sym {
				found = true
			}
		}
	})
	return found
}

// assignedSyms lists symbols e writes or exposes to writes.
func assignedSyms(e ast.Expr) []*ast.Symbol {
	var out []*ast.Symbol
	walk(e, func(x ast.Expr) {
		switch x := x.(type) {
		case *ast.Assign:
			if id, ok := x.LHS.(*ast.Ident); ok && id.Sym != nil {
				out = append(out, id.Sym)
			}
		case *ast.Unary:
			switch x.Op {
			case ast.PreInc, ast.PreDec, ast.PostInc, ast.PostDec, ast.AddrOf:
				if id, ok := x.X.(*ast.Ident); ok && id.Sym != nil {
					out = append(out, id.Sym)
				}
			}
		}
	})
	return out
}
