// Package sema performs semantic analysis of MiniC programs: name
// resolution, type checking, struct layout, and the bookkeeping the
// compilers and static analyzers build on (symbol tables, per-function
// local lists, statement-line attribution for __LINE__).
package sema

import (
	"errors"
	"fmt"

	"compdiff/internal/minic/ast"
	"compdiff/internal/minic/token"
	"compdiff/internal/minic/types"
)

// Error is a semantic error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Info is the result of checking a program. It owns the symbol tables
// the back ends consume.
type Info struct {
	Prog *ast.Program

	// Funcs maps function names to their declarations.
	Funcs map[string]*ast.FuncDecl

	// Globals lists global variables and static locals, in allocation
	// order. Static locals are appended after true globals.
	Globals []*ast.Symbol

	// Locals maps each function to its local variable symbols (not
	// including params), in declaration order.
	Locals map[*ast.FuncDecl][]*ast.Symbol

	// Params maps each function to its parameter symbols.
	Params map[*ast.FuncDecl][]*ast.Symbol

	// Warnings are non-fatal findings (arity mismatches, suspicious
	// pointer conversions) in a stable order; the static analyzers and
	// some Juliet ground-truth checks read them.
	Warnings []string

	// NumExprs and NumStmts count the dense ids Check gave the
	// expression and statement nodes it checked (ast.Expr.ID,
	// ast.Stmt.ID): ids run from 1 in checking order, so a side table
	// indexed by id has NumExprs+1 (NumStmts+1) slots.
	NumExprs, NumStmts int32

	// FuncIDs holds each function's id ranges, indexed like Prog.Funcs:
	// a function's body is checked in one go, so its nodes' ids are
	// contiguous.
	FuncIDs []FuncIDs
}

// IDRange is the half-open range [Lo, Hi) of dense node ids.
type IDRange struct{ Lo, Hi int32 }

// Len is the number of ids in r.
func (r IDRange) Len() int { return int(r.Hi - r.Lo) }

// FuncIDs are the id ranges of one function's checked expressions and
// statements, its body block included.
type FuncIDs struct{ Exprs, Stmts IDRange }

// Check type-checks prog, mutating the AST in place (resolving symbols
// and assigning types). It returns the analysis Info, or an error
// joining every semantic problem found.
func Check(prog *ast.Program) (*Info, error) {
	c := &checker{
		info: &Info{
			Prog:   prog,
			Funcs:  map[string]*ast.FuncDecl{},
			Locals: map[*ast.FuncDecl][]*ast.Symbol{},
			Params: map[*ast.FuncDecl][]*ast.Symbol{},
		},
		globalScope: newScope(nil),
	}
	c.program(prog)
	if len(c.errs) > 0 {
		errs := make([]error, len(c.errs))
		for i, e := range c.errs {
			errs[i] = e
		}
		return c.info, errors.Join(errs...)
	}
	return c.info, nil
}

// MustCheck checks a known-good program, panicking on error. Used by
// the generated corpora.
func MustCheck(prog *ast.Program) *Info {
	info, err := Check(prog)
	if err != nil {
		panic(fmt.Sprintf("minic: check of known-good program failed: %v", err))
	}
	return info
}

type scope struct {
	parent *scope
	syms   map[string]*ast.Symbol
}

func newScope(parent *scope) *scope {
	return &scope{parent: parent, syms: map[string]*ast.Symbol{}}
}

func (s *scope) lookup(name string) *ast.Symbol {
	for sc := s; sc != nil; sc = sc.parent {
		if sym, ok := sc.syms[name]; ok {
			return sym
		}
	}
	return nil
}

type checker struct {
	info        *Info
	errs        []*Error
	globalScope *scope

	fn        *ast.FuncDecl // current function
	scope     *scope
	loopDepth int
	stmtLine  int // line of the statement being checked (__LINE__)
	nextLocal int
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	if len(c.errs) < 50 {
		c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

func (c *checker) warnf(pos token.Pos, format string, args ...any) {
	c.info.Warnings = append(c.info.Warnings, fmt.Sprintf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (c *checker) program(prog *ast.Program) {
	// Pass 1: struct bodies.
	seen := map[string]bool{}
	for _, sd := range prog.Structs {
		if seen[sd.Name] {
			c.errorf(sd.NamePos, "duplicate struct %s", sd.Name)
			continue
		}
		seen[sd.Name] = true
	}
	for _, sd := range prog.Structs {
		var fields []types.Field
		for _, f := range sd.Fields {
			if f.DeclType.Kind == types.Struct && len(f.DeclType.Fields) == 0 {
				c.errorf(f.NamePos, "field %s has incomplete struct type %s", f.Name, f.DeclType)
				continue
			}
			fields = append(fields, types.Field{Name: f.Name, Type: f.DeclType})
		}
		// Find the placeholder type used by the parser for this name, via
		// any field/global referencing it; simplest is: the StructDecl's
		// own placeholder is reachable through decl type uses. We rebuild
		// by locating the shared placeholder through a registry pass.
		t := c.findStructPlaceholder(prog, sd.Name)
		if t == nil {
			t = &types.Type{Kind: types.Struct, Name: sd.Name}
		}
		t.SetStructBody(fields)
		sd.Type = t
	}

	// Pass 2: function signatures (so calls resolve regardless of order).
	for _, f := range prog.Funcs {
		if _, dup := c.info.Funcs[f.Name]; dup {
			c.errorf(f.NamePos, "duplicate function %s", f.Name)
			continue
		}
		if _, isBuiltin := builtinByName[f.Name]; isBuiltin {
			c.errorf(f.NamePos, "function %s shadows a builtin", f.Name)
			continue
		}
		if f.Result.Kind == types.Struct {
			c.errorf(f.NamePos, "function %s returns a struct by value (unsupported; return a pointer)", f.Name)
		}
		for _, p := range f.Params {
			if p.DeclType.Kind == types.Struct {
				c.errorf(p.NamePos, "parameter %s passes a struct by value (unsupported; pass a pointer)", p.Name)
			}
		}
		var params []*types.Type
		for _, p := range f.Params {
			params = append(params, p.DeclType)
		}
		f.Type = types.NewFunc(f.Result, params)
		c.info.Funcs[f.Name] = f
		sym := &ast.Symbol{Kind: ast.SymFunc, Name: f.Name, Type: f.Type, Func: f}
		c.globalScope.syms[f.Name] = sym
	}

	// Pass 3: globals.
	for _, g := range prog.Globals {
		c.declareGlobal(g, ast.SymGlobal)
	}

	// Pass 4: function bodies.
	c.info.FuncIDs = make([]FuncIDs, len(prog.Funcs))
	for i, f := range prog.Funcs {
		ids := &c.info.FuncIDs[i]
		ids.Exprs.Lo, ids.Stmts.Lo = c.info.NumExprs+1, c.info.NumStmts+1
		c.checkFunc(f)
		ids.Exprs.Hi, ids.Stmts.Hi = c.info.NumExprs+1, c.info.NumStmts+1
	}
}

// findStructPlaceholder locates the parser-interned struct type object
// for name by scanning declared types in the program.
func (c *checker) findStructPlaceholder(prog *ast.Program, name string) *types.Type {
	var found *types.Type
	visit := func(t *types.Type) {
		for t != nil {
			if t.Kind == types.Struct && t.Name == name {
				found = t
				return
			}
			t = t.Elem
		}
	}
	for _, sd := range prog.Structs {
		for _, f := range sd.Fields {
			visit(f.DeclType)
		}
	}
	for _, g := range prog.Globals {
		visit(g.DeclType)
	}
	for _, f := range prog.Funcs {
		visit(f.Result)
		for _, p := range f.Params {
			visit(p.DeclType)
		}
		ast.Walk(f.Body, func(s ast.Stmt) bool {
			if ds, ok := s.(*ast.DeclStmt); ok {
				for _, d := range ds.Decls {
					visit(d.DeclType)
				}
			}
			return true
		})
		ast.WalkExprs(f.Body, func(e ast.Expr) {
			if ce, ok := e.(*ast.CastExpr); ok {
				visit(ce.To)
			}
		})
	}
	return found
}

func (c *checker) declareGlobal(g *ast.VarDecl, kind ast.SymbolKind) {
	if g.DeclType.IsVoid() {
		c.errorf(g.NamePos, "variable %s has void type", g.Name)
		return
	}
	if kind == ast.SymGlobal {
		if _, exists := c.globalScope.syms[g.Name]; exists {
			c.errorf(g.NamePos, "duplicate global %s", g.Name)
			return
		}
	}
	sym := &ast.Symbol{Kind: kind, Name: g.Name, Type: g.DeclType, Index: len(c.info.Globals)}
	g.Sym = sym
	c.info.Globals = append(c.info.Globals, sym)
	if kind == ast.SymGlobal {
		c.globalScope.syms[g.Name] = sym
		if g.Init != nil {
			t := c.expr(g.Init)
			c.checkAssignable(g.NamePos, g.DeclType, t, "global initializer")
			if !isConstExpr(g.Init) {
				c.errorf(g.NamePos, "global initializer for %s must be constant", g.Name)
			}
		}
	}
}

func isConstExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.IntLit, *ast.FloatLit, *ast.StrLit, *ast.SizeofExpr:
		return true
	case *ast.Unary:
		return (e.Op == ast.Neg || e.Op == ast.BitNot || e.Op == ast.LogicalNot) && isConstExpr(e.X)
	case *ast.Binary:
		return isConstExpr(e.X) && isConstExpr(e.Y)
	case *ast.CastExpr:
		return isConstExpr(e.X)
	}
	return false
}

func (c *checker) checkFunc(f *ast.FuncDecl) {
	c.fn = f
	c.nextLocal = 0
	c.scope = newScope(c.globalScope)
	for _, p := range f.Params {
		if p.DeclType.IsVoid() {
			c.errorf(p.NamePos, "parameter %s has void type", p.Name)
			continue
		}
		sym := &ast.Symbol{Kind: ast.SymParam, Name: p.Name, Type: p.DeclType, Index: len(c.info.Params[f])}
		p.Sym = sym
		c.info.Params[f] = append(c.info.Params[f], sym)
		if _, dup := c.scope.syms[p.Name]; dup {
			c.errorf(p.NamePos, "duplicate parameter %s", p.Name)
		}
		c.scope.syms[p.Name] = sym
	}
	c.stmtID(f.Body)
	c.block(f.Body, false)
	c.fn = nil
	c.scope = nil
}

func (c *checker) block(b *ast.BlockStmt, newScope_ bool) {
	if newScope_ {
		c.scope = newScope(c.scope)
		defer func() { c.scope = c.scope.parent }()
	}
	for _, s := range b.Stmts {
		c.stmt(s)
	}
}

// stmtID gives s the next statement id.
func (c *checker) stmtID(s ast.Stmt) {
	c.info.NumStmts++
	s.(interface{ SetID(int32) }).SetID(c.info.NumStmts)
}

func (c *checker) stmt(s ast.Stmt) {
	if s == nil {
		return
	}
	c.stmtID(s)
	if line := s.Pos().Line; line > 0 {
		c.stmtLine = line
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		c.block(s, true)
	case *ast.DeclStmt:
		for _, d := range s.Decls {
			c.declareLocal(d)
		}
	case *ast.ExprStmt:
		c.expr(s.X)
	case *ast.IfStmt:
		t := c.expr(s.Cond)
		c.requireScalar(s.Cond.Pos(), t, "if condition")
		c.stmt(s.Then)
		c.stmt(s.Else)
	case *ast.WhileStmt:
		t := c.expr(s.Cond)
		c.requireScalar(s.Cond.Pos(), t, "while condition")
		c.loopDepth++
		c.stmt(s.Body)
		c.loopDepth--
	case *ast.ForStmt:
		c.scope = newScope(c.scope)
		c.stmt(s.Init)
		if s.Cond != nil {
			t := c.expr(s.Cond)
			c.requireScalar(s.Cond.Pos(), t, "for condition")
		}
		if s.Post != nil {
			c.expr(s.Post)
		}
		c.loopDepth++
		c.stmt(s.Body)
		c.loopDepth--
		c.scope = c.scope.parent
	case *ast.ReturnStmt:
		want := c.fn.Result
		if s.Value == nil {
			if !want.IsVoid() {
				c.errorf(s.RetPos, "missing return value in %s (returns %s)", c.fn.Name, want)
			}
			return
		}
		if want.IsVoid() {
			c.errorf(s.RetPos, "returning a value from void function %s", c.fn.Name)
			return
		}
		got := c.expr(s.Value)
		c.checkAssignable(s.RetPos, want, got, "return value")
	case *ast.BreakStmt:
		if c.loopDepth == 0 {
			c.errorf(s.KwPos, "break outside loop")
		}
	case *ast.ContinueStmt:
		if c.loopDepth == 0 {
			c.errorf(s.KwPos, "continue outside loop")
		}
	}
}

func (c *checker) declareLocal(d *ast.VarDecl) {
	if d.DeclType.IsVoid() {
		c.errorf(d.NamePos, "variable %s has void type", d.Name)
		return
	}
	var sym *ast.Symbol
	if d.Storage == ast.Static {
		// A C static local: one shared instance, allocated with globals.
		sym = &ast.Symbol{Kind: ast.SymStaticLocal, Name: c.fn.Name + "." + d.Name,
			Type: d.DeclType, Index: len(c.info.Globals)}
		c.info.Globals = append(c.info.Globals, sym)
	} else {
		sym = &ast.Symbol{Kind: ast.SymLocal, Name: d.Name, Type: d.DeclType, Index: c.nextLocal}
		c.nextLocal++
		c.info.Locals[c.fn] = append(c.info.Locals[c.fn], sym)
	}
	d.Sym = sym
	if _, dup := c.scope.syms[d.Name]; dup {
		c.errorf(d.NamePos, "redeclaration of %s in the same scope", d.Name)
	}
	c.scope.syms[d.Name] = sym
	if d.Init != nil {
		t := c.expr(d.Init)
		c.checkAssignable(d.NamePos, d.DeclType, t, "initializer")
		if d.Storage == ast.Static && !isConstExpr(d.Init) {
			c.errorf(d.NamePos, "static local initializer for %s must be constant", d.Name)
		}
	}
}

// ---------------------------------------------------------------------------
// Expressions

// expr type-checks e and returns its (decayed) type.
func (c *checker) expr(e ast.Expr) *types.Type {
	t := c.exprNoDecay(e)
	if t.Kind == types.Array {
		t = types.PointerTo(t.Elem)
		setType(e, t)
	}
	return t
}

func setType(e ast.Expr, t *types.Type) {
	type setter interface{ SetType(*types.Type) }
	if s, ok := e.(setter); ok {
		s.SetType(t)
	}
}

var invalid = &types.Type{Kind: types.Invalid}

func (c *checker) exprNoDecay(e ast.Expr) *types.Type {
	c.info.NumExprs++
	e.(interface{ SetID(int32) }).SetID(c.info.NumExprs)
	switch e := e.(type) {
	case *ast.IntLit, *ast.FloatLit, *ast.StrLit:
		return e.Type()
	case *ast.LineExpr:
		e.StmtLine = c.stmtLine
		if e.StmtLine == 0 {
			e.StmtLine = e.KwPos.Line
		}
		return e.Type()
	case *ast.Ident:
		sym := c.scope.lookup(e.Name)
		if sym == nil {
			c.errorf(e.NamePos, "undefined: %s", e.Name)
			setType(e, invalid)
			return invalid
		}
		if sym.Kind == ast.SymFunc {
			c.errorf(e.NamePos, "function %s used as value", e.Name)
			setType(e, invalid)
			return invalid
		}
		e.Sym = sym
		setType(e, sym.Type)
		return sym.Type
	case *ast.Unary:
		return c.unary(e)
	case *ast.Binary:
		return c.binary(e)
	case *ast.Assign:
		return c.assign(e)
	case *ast.Cond:
		ct := c.expr(e.C)
		c.requireScalar(e.C.Pos(), ct, "?: condition")
		xt := c.expr(e.X)
		yt := c.expr(e.Y)
		var t *types.Type
		switch {
		case xt.IsArithmetic() && yt.IsArithmetic():
			t = types.Common(xt, yt)
		case xt.IsPtr() && yt.IsPtr():
			t = xt
		case xt.IsPtr() && yt.IsInteger():
			t = xt
		case yt.IsPtr() && xt.IsInteger():
			t = yt
		default:
			if xt.Kind != types.Invalid && yt.Kind != types.Invalid {
				c.errorf(e.Pos(), "incompatible ?: operands %s and %s", xt, yt)
			}
			t = invalid
		}
		setType(e, t)
		return t
	case *ast.Call:
		return c.call(e)
	case *ast.Index:
		xt := c.expr(e.X)
		it := c.expr(e.Idx)
		if !it.IsInteger() {
			c.errorf(e.Idx.Pos(), "array index must be integer, got %s", it)
		}
		if !xt.IsPtr() {
			if xt.Kind != types.Invalid {
				c.errorf(e.X.Pos(), "indexing non-pointer type %s", xt)
			}
			setType(e, invalid)
			return invalid
		}
		if xt.Elem.IsVoid() {
			c.errorf(e.X.Pos(), "indexing void pointer")
			setType(e, invalid)
			return invalid
		}
		setType(e, xt.Elem)
		return xt.Elem
	case *ast.Member:
		return c.member(e)
	case *ast.CastExpr:
		xt := c.expr(e.X)
		to := e.To
		if to.Kind == types.Struct {
			c.errorf(e.Pos(), "cannot cast to struct type %s by value", to)
		}
		// Int<->ptr, ptr<->ptr, arithmetic conversions are all permitted
		// by explicit cast, as in C. Flag the ones analyzers care about.
		if xt.IsPtr() && to.IsPtr() && to.Elem.Kind == types.Struct && xt.Elem.Kind != types.Struct && !xt.Elem.IsVoid() {
			c.warnf(e.Pos(), "cast of %s to %s may access a child of a non-struct object", xt, to)
		}
		setType(e, to)
		return to
	case *ast.SizeofExpr:
		setType(e, types.LongType)
		return types.LongType
	}
	c.errorf(e.Pos(), "unexpected expression %T", e)
	return invalid
}

func (c *checker) unary(e *ast.Unary) *types.Type {
	switch e.Op {
	case ast.Neg, ast.BitNot:
		t := c.expr(e.X)
		if !t.IsArithmetic() || (e.Op == ast.BitNot && !t.IsInteger()) {
			if t.Kind != types.Invalid {
				c.errorf(e.OpPos, "invalid operand type %s for unary %s", t, e.Op)
			}
			setType(e, invalid)
			return invalid
		}
		r := types.Promote(t)
		setType(e, r)
		return r
	case ast.LogicalNot:
		t := c.expr(e.X)
		c.requireScalar(e.OpPos, t, "operand of !")
		setType(e, types.IntType)
		return types.IntType
	case ast.Deref:
		t := c.expr(e.X)
		if !t.IsPtr() {
			if t.Kind != types.Invalid {
				c.errorf(e.OpPos, "dereference of non-pointer type %s", t)
			}
			setType(e, invalid)
			return invalid
		}
		if t.Elem.IsVoid() {
			c.errorf(e.OpPos, "dereference of void pointer")
			setType(e, invalid)
			return invalid
		}
		setType(e, t.Elem)
		return t.Elem
	case ast.AddrOf:
		t := c.exprNoDecay(e.X)
		if !c.isLvalue(e.X) {
			c.errorf(e.OpPos, "cannot take address of non-lvalue")
			setType(e, invalid)
			return invalid
		}
		var r *types.Type
		if t.Kind == types.Array {
			r = types.PointerTo(t.Elem) // &arr == &arr[0] in MiniC
		} else {
			r = types.PointerTo(t)
		}
		setType(e, r)
		return r
	case ast.PreInc, ast.PreDec, ast.PostInc, ast.PostDec:
		t := c.expr(e.X)
		if !c.isLvalue(e.X) {
			c.errorf(e.OpPos, "%s requires an lvalue", e.Op)
		}
		if !t.IsArithmetic() && !t.IsPtr() {
			if t.Kind != types.Invalid {
				c.errorf(e.OpPos, "invalid operand type %s for %s", t, e.Op)
			}
			setType(e, invalid)
			return invalid
		}
		setType(e, t)
		return t
	}
	setType(e, invalid)
	return invalid
}

func (c *checker) isLvalue(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Sym != nil && e.Sym.Kind != ast.SymFunc
	case *ast.Unary:
		return e.Op == ast.Deref
	case *ast.Index:
		return true
	case *ast.Member:
		if e.Arrow {
			return true
		}
		return c.isLvalue(e.X)
	}
	return false
}

func (c *checker) binary(e *ast.Binary) *types.Type {
	xt := c.expr(e.X)
	yt := c.expr(e.Y)
	if xt.Kind == types.Invalid || yt.Kind == types.Invalid {
		setType(e, invalid)
		return invalid
	}
	switch e.Op {
	case ast.LogAnd, ast.LogOr:
		c.requireScalar(e.X.Pos(), xt, "logical operand")
		c.requireScalar(e.Y.Pos(), yt, "logical operand")
		setType(e, types.IntType)
		return types.IntType
	case ast.Eq, ast.Ne, ast.Lt, ast.Le, ast.Gt, ast.Ge:
		switch {
		case xt.IsArithmetic() && yt.IsArithmetic():
			e.CommonType = types.Common(xt, yt)
		case xt.IsPtr() && yt.IsPtr():
			e.CommonType = xt // pointer comparison: relational ones may be UB
		case xt.IsPtr() && yt.IsInteger(), yt.IsPtr() && xt.IsInteger():
			// Comparison against 0 (NULL) is the common well-formed case.
			e.CommonType = types.ULongType
		default:
			c.errorf(e.OpPos, "invalid comparison between %s and %s", xt, yt)
			setType(e, invalid)
			return invalid
		}
		setType(e, types.IntType)
		return types.IntType
	case ast.Add:
		if xt.IsPtr() && yt.IsInteger() {
			setType(e, xt)
			return xt
		}
		if yt.IsPtr() && xt.IsInteger() {
			setType(e, yt)
			return yt
		}
	case ast.Sub:
		if xt.IsPtr() && yt.IsInteger() {
			setType(e, xt)
			return xt
		}
		if xt.IsPtr() && yt.IsPtr() {
			// Pointer difference; UB if pointers address different objects
			// (CWE-469 material).
			e.CommonType = types.LongType
			setType(e, types.LongType)
			return types.LongType
		}
	}
	// Remaining cases are plain arithmetic/bitwise operations.
	if !xt.IsArithmetic() || !yt.IsArithmetic() {
		c.errorf(e.OpPos, "invalid operands %s and %s for %s", xt, yt, e.Op)
		setType(e, invalid)
		return invalid
	}
	switch e.Op {
	case ast.Mod, ast.Shl, ast.Shr, ast.BitAnd, ast.BitOr, ast.BitXor:
		if !xt.IsInteger() || !yt.IsInteger() {
			c.errorf(e.OpPos, "operator %s requires integers, got %s and %s", e.Op, xt, yt)
			setType(e, invalid)
			return invalid
		}
	}
	var common *types.Type
	if e.Op == ast.Shl || e.Op == ast.Shr {
		// Shift result has the promoted type of the left operand only.
		common = types.Promote(xt)
	} else {
		common = types.Common(xt, yt)
	}
	e.CommonType = common
	setType(e, common)
	return common
}

func (c *checker) assign(e *ast.Assign) *types.Type {
	lt := c.expr(e.LHS)
	rt := c.expr(e.RHS)
	if !c.isLvalue(e.LHS) {
		c.errorf(e.OpPos, "assignment to non-lvalue")
	}
	if e.Op == ast.PlainAssign {
		c.checkAssignable(e.OpPos, lt, rt, "assignment")
	} else {
		// Compound assignment: LHS op RHS must be well-typed.
		if lt.IsPtr() && (e.Op == ast.Add || e.Op == ast.Sub) && rt.IsInteger() {
			// p += n is fine.
		} else if !lt.IsArithmetic() || !rt.IsArithmetic() {
			if lt.Kind != types.Invalid && rt.Kind != types.Invalid {
				c.errorf(e.OpPos, "invalid compound assignment %s= between %s and %s", e.Op, lt, rt)
			}
		}
	}
	setType(e, lt)
	return lt
}

func (c *checker) member(e *ast.Member) *types.Type {
	var st *types.Type
	if e.Arrow {
		xt := c.expr(e.X)
		if !xt.IsPtr() || xt.Elem.Kind != types.Struct {
			if xt.Kind != types.Invalid {
				c.errorf(e.DotPos, "-> on non-struct-pointer type %s", xt)
			}
			setType(e, invalid)
			return invalid
		}
		st = xt.Elem
	} else {
		xt := c.exprNoDecay(e.X)
		if xt.Kind != types.Struct {
			if xt.Kind != types.Invalid {
				c.errorf(e.DotPos, ". on non-struct type %s", xt)
			}
			setType(e, invalid)
			return invalid
		}
		st = xt
	}
	f, ok := st.FieldByName(e.Name)
	if !ok {
		c.errorf(e.DotPos, "struct %s has no field %s", st.Name, e.Name)
		setType(e, invalid)
		return invalid
	}
	e.Field = f
	setType(e, f.Type)
	return f.Type
}

func (c *checker) call(e *ast.Call) *types.Type {
	name := e.Fun.Name
	// Builtins take precedence (they cannot be shadowed).
	if id, ok := builtinByName[name]; ok {
		sig := Builtins[id]
		e.Fun.Sym = &ast.Symbol{Kind: ast.SymBuiltin, Name: name, Builtin: id}
		if len(e.Args) < len(sig.Params) || (!sig.Varargs && len(e.Args) > len(sig.Params)) {
			c.errorf(e.LParen, "builtin %s expects %d args, got %d", name, len(sig.Params), len(e.Args))
		}
		for i, a := range e.Args {
			at := c.expr(a)
			if i < len(sig.Params) {
				c.checkAssignable(a.Pos(), sig.Params[i], at, fmt.Sprintf("argument %d of %s", i+1, name))
			} else if !at.IsScalar() {
				c.errorf(a.Pos(), "vararg %d of %s must be scalar, got %s", i+1, name, at)
			}
		}
		setType(e, sig.Result)
		return sig.Result
	}
	fn, ok := c.info.Funcs[name]
	if !ok {
		c.errorf(e.Fun.NamePos, "call of undefined function %s", name)
		setType(e, invalid)
		return invalid
	}
	e.Fun.Sym = c.globalScope.syms[name]
	if len(e.Args) != len(fn.Params) {
		// Permitted, as with pre-C99 implicit declarations: missing
		// parameters are read from uninitialized stack memory at run
		// time (CWE-685, undefined behavior).
		e.ArityMismatch = true
		c.warnf(e.LParen, "call of %s with %d args but %d declared (undefined behavior)", name, len(e.Args), len(fn.Params))
	}
	for i, a := range e.Args {
		at := c.expr(a)
		if i < len(fn.Params) {
			c.checkAssignable(a.Pos(), fn.Params[i].DeclType, at, fmt.Sprintf("argument %d of %s", i+1, name))
		}
	}
	setType(e, fn.Result)
	return fn.Result
}

func (c *checker) requireScalar(pos token.Pos, t *types.Type, what string) {
	if t.Kind != types.Invalid && !t.IsScalar() {
		c.errorf(pos, "%s must be scalar, got %s", what, t)
	}
}

// checkAssignable validates that a value of type `from` can initialize
// a location of type `to`, with C-like permissiveness.
func (c *checker) checkAssignable(pos token.Pos, to, from *types.Type, what string) {
	if to == nil || from == nil || to.Kind == types.Invalid || from.Kind == types.Invalid {
		return
	}
	switch {
	case to.IsArithmetic() && from.IsArithmetic():
		return
	case to.IsPtr() && from.IsPtr():
		if to.Elem.IsVoid() || from.Elem.IsVoid() || types.Equal(to, from) {
			return
		}
		c.warnf(pos, "%s converts %s to %s without a cast", what, from, to)
		return
	case to.IsPtr() && from.IsInteger():
		if lit, ok := literalZero(from, pos); ok {
			_ = lit // NULL constant
			return
		}
		c.warnf(pos, "%s makes pointer from integer without a cast", what)
		return
	case to.IsInteger() && from.IsPtr():
		c.warnf(pos, "%s makes integer from pointer without a cast", what)
		return
	}
	c.errorf(pos, "%s: cannot use %s as %s", what, from, to)
}

// literalZero is a loose NULL-constant check; MiniC treats any integer
// expression assigned to a pointer as acceptable, warning otherwise.
func literalZero(t *types.Type, _ token.Pos) (bool, bool) {
	return t.IsInteger(), t.IsInteger()
}
