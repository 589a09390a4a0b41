package compiler

import (
	"compdiff/internal/minic/ast"
	"compdiff/internal/minic/sema"
	"compdiff/internal/minic/types"
)

// decisions records the UB-exploiting transformations an
// implementation decided to apply to one function. The shared AST is
// never mutated — the same program object is compiled under many
// configurations concurrently — so lowering consults these side
// tables instead. Both are indexed by the function's dense node ids
// (sema.FuncIDs) less the range's start.
type decisions struct {
	ids sema.FuncIDs
	// fold holds, per expression, the constant (0 or 1) that replaces
	// it plus one, or 0 for none: eliminated overflow checks and null
	// checks. Every fold here is sound under the standard's "UB never
	// happens" licence.
	fold []uint8
	// dead marks statements the optimizer drops (dead loads).
	dead []bool
	// fired is the pass-coverage bitmap for this function: which
	// rewrite kinds the side tables above record. The lowerer unions it
	// (plus the lowering-time passes) into the per-compilation bitmap.
	fired PassBits
}

// noDecisions is the empty side table: what analyzeFunc decides for a
// pass set that exploits no UB. Its tables are empty, so every lookup
// misses, and every function of every such configuration shares it.
var noDecisions = &decisions{}

// folded returns the constant the analysis replaced e with, if any.
func (d *decisions) folded(e ast.Expr) (uint64, bool) {
	i := uint32(e.ID() - d.ids.Exprs.Lo)
	if i >= uint32(len(d.fold)) || d.fold[i] == 0 {
		return 0, false
	}
	return uint64(d.fold[i] - 1), true
}

// isDead reports whether the optimizer drops statement s.
func (d *decisions) isDead(s ast.Stmt) bool {
	i := uint32(s.ID() - d.ids.Stmts.Lo)
	return i < uint32(len(d.dead)) && d.dead[i]
}

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
// function, whose checked nodes have the dense ids in ids, for the
// passes in k.
func analyzeFunc(k analysisKey, fn *ast.FuncDecl, ids sema.FuncIDs) *decisions {
	if k == 0 {
		return noDecisions
	}
	dec := &decisions{ids: ids, fold: make([]uint8, ids.Exprs.Len()), dead: make([]bool, ids.Stmts.Len())}
	a := &analyzer{k: k, dec: dec, writes: make([]writeSpan, ids.Stmts.Len())}
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
	// writes memoises writeSet per statement, indexed like dec.dead: a
	// loop body's write set is needed at every enclosing loop and twice
	// at its own. The sets themselves live in arena.
	writes []writeSpan
	arena  []*ast.Symbol
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
			a.dec.dead[s.ID()-a.dec.ids.Stmts.Lo] = true
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
	ast.WalkExpr(e, func(x ast.Expr) {
		if a.k&keyFoldOverflow != 0 {
			if v, ok := matchOverflowCheck(x, f); ok {
				a.fold(x, v)
				a.dec.fired |= PassFoldOverflow
			}
		}
		if a.k&keyFoldNull != 0 {
			if sym, eqZero, ok := matchNullCheck(x); ok && f.derefed[sym] {
				if eqZero {
					a.fold(x, 0) // p was dereferenced: p == 0 is "never" true
				} else {
					a.fold(x, 1)
				}
				a.dec.fired |= PassFoldNull
			}
		}
	})
}

// fold records that e is replaced by the constant v (0 or 1).
func (a *analyzer) fold(e ast.Expr, v uint64) {
	a.dec.fold[e.ID()-a.dec.ids.Exprs.Lo] = uint8(v) + 1
}

// recordDerefs adds pointers unconditionally dereferenced by e.
func (a *analyzer) recordDerefs(e ast.Expr, f *facts) {
	for _, sym := range derefSyms(e) {
		f.derefed[sym] = true
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
	ast.WalkExpr(e, func(x ast.Expr) {
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
	forAssigned(e, f.kill)
}

// killWrites removes facts about every symbol statement s may write:
// assigned, incremented or address-taken anywhere in it, or declared in
// it.
func (a *analyzer) killWrites(s ast.Stmt, f *facts) {
	for _, sym := range a.writeSet(s) {
		f.kill(sym)
	}
}

// writeSet lists the symbols s may write, possibly with repeats and in
// no particular order (killWrites only deletes facts). It is built
// from the children's memoised sets, so every statement is walked once
// however deep it nests. Every set is a span of one arena, so the
// children's sets are memoised before s's own span starts.
func (a *analyzer) writeSet(s ast.Stmt) []*ast.Symbol {
	if s == nil {
		return nil
	}
	i := s.ID() - a.dec.ids.Stmts.Lo
	if w := a.writes[i]; w.done {
		return a.arena[w.lo:w.hi]
	}
	var children []ast.Stmt
	switch s := s.(type) {
	case *ast.BlockStmt:
		children = s.Stmts
	case *ast.IfStmt:
		children = []ast.Stmt{s.Then, s.Else}
	case *ast.WhileStmt:
		children = []ast.Stmt{s.Body}
	case *ast.ForStmt:
		children = []ast.Stmt{s.Init, s.Body}
	}
	for _, c := range children {
		a.writeSet(c)
	}
	lo := len(a.arena)
	exprs := func(es ...ast.Expr) {
		for _, e := range es {
			if e != nil {
				forAssigned(e, func(sym *ast.Symbol) { a.arena = append(a.arena, sym) })
			}
		}
	}
	switch s := s.(type) {
	case *ast.DeclStmt:
		for _, d := range s.Decls {
			exprs(d.Init)
			if d.Sym != nil {
				a.arena = append(a.arena, d.Sym)
			}
		}
	case *ast.ExprStmt:
		exprs(s.X)
	case *ast.ReturnStmt:
		exprs(s.Value)
	case *ast.IfStmt:
		exprs(s.Cond)
	case *ast.WhileStmt:
		exprs(s.Cond)
	case *ast.ForStmt:
		exprs(s.Cond, s.Post)
	}
	for _, c := range children {
		a.arena = append(a.arena, a.writeSet(c)...)
	}
	a.writes[i] = writeSpan{lo: int32(lo), hi: int32(len(a.arena)), done: true}
	return a.arena[lo:]
}

// writeSpan locates a memoised write set in analyzer.arena.
type writeSpan struct {
	lo, hi int32
	done   bool
}

func assignedIn(s ast.Stmt, sym *ast.Symbol) bool {
	found := false
	ast.WalkExprs(s, func(e ast.Expr) {
		forAssigned(e, func(w *ast.Symbol) {
			if w == sym {
				found = true
			}
		})
	})
	return found
}

// forAssigned calls fn for each symbol e writes or exposes to writes.
func forAssigned(e ast.Expr, fn func(*ast.Symbol)) {
	ast.WalkExpr(e, func(x ast.Expr) {
		switch x := x.(type) {
		case *ast.Assign:
			if id, ok := x.LHS.(*ast.Ident); ok && id.Sym != nil {
				fn(id.Sym)
			}
		case *ast.Unary:
			switch x.Op {
			case ast.PreInc, ast.PreDec, ast.PostInc, ast.PostDec, ast.AddrOf:
				if id, ok := x.X.(*ast.Ident); ok && id.Sym != nil {
					fn(id.Sym)
				}
			}
		}
	})
}
