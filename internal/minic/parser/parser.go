// Package parser implements a recursive-descent parser for MiniC,
// producing the AST consumed by sema, the compilers, and the static
// analyzers.
package parser

import (
	"errors"
	"fmt"
	"strings"

	"compdiff/internal/minic/ast"
	"compdiff/internal/minic/lexer"
	"compdiff/internal/minic/token"
	"compdiff/internal/minic/types"
)

// Error is a syntax error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Parse parses a MiniC translation unit. It returns the program and an
// error joining all syntax problems, if any.
func Parse(src string) (*ast.Program, error) {
	lx := lexer.New(src)
	toks := lx.All()
	p := &parser{toks: toks, structs: map[string]*types.Type{}}
	prog := p.parseProgram()
	var errs []error
	for _, e := range lx.Errors() {
		errs = append(errs, e)
	}
	for _, e := range p.errs {
		errs = append(errs, e)
	}
	if len(errs) > 0 {
		return prog, errors.Join(errs...)
	}
	return prog, nil
}

// MustParse parses src and panics on error; intended for generated
// corpora and tests where the source is known-good.
func MustParse(src string) *ast.Program {
	prog, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("minic: parse of known-good source failed: %v\nsource:\n%s", err, numbered(src)))
	}
	return prog
}

func numbered(src string) string {
	lines := strings.Split(src, "\n")
	var b strings.Builder
	for i, l := range lines {
		fmt.Fprintf(&b, "%4d | %s\n", i+1, l)
	}
	return b.String()
}

// parser reads the lexer's token slice in place: cur, peek, next and
// expect hand out pointers into it, and it is never resized once
// parsing starts.
type parser struct {
	toks    []token.Token
	pos     int
	errs    []*Error
	structs map[string]*types.Type // forward-declared struct types
}

func (p *parser) cur() *token.Token { return &p.toks[p.pos] }
func (p *parser) peek() *token.Token {
	if p.pos+1 < len(p.toks) {
		return &p.toks[p.pos+1]
	}
	return &p.toks[len(p.toks)-1]
}

func (p *parser) next() *token.Token {
	t := &p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) at(k token.Kind) bool { return p.toks[p.pos].Kind == k }

func (p *parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

// expect consumes a token of kind k. When the current token is
// another kind it records an error and returns a stand-in token of
// kind k at the current position, consuming nothing.
func (p *parser) expect(k token.Kind) *token.Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf(p.cur().Pos, "expected %s, found %s", k, p.cur())
	return &token.Token{Kind: k, Pos: p.cur().Pos}
}

func (p *parser) errorf(pos token.Pos, format string, args ...any) {
	if len(p.errs) < lexer.MaxErrors {
		p.errs = append(p.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

// sync skips tokens until a likely statement/declaration boundary.
func (p *parser) sync() {
	for !p.at(token.EOF) {
		k := p.next().Kind
		if k == token.Semicolon || k == token.RBrace {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Declarations

func (p *parser) parseProgram() *ast.Program {
	prog := &ast.Program{}
	for !p.at(token.EOF) {
		start := p.pos
		switch {
		case p.at(token.KwStruct) && p.peek().Kind == token.Ident && p.peekAfterStructIsBrace():
			prog.Structs = append(prog.Structs, p.parseStructDecl())
		default:
			p.parseTopLevel(prog)
		}
		if p.pos == start { // no progress; skip a token to avoid looping
			p.errorf(p.cur().Pos, "unexpected %s", p.cur())
			p.next()
		}
	}
	return prog
}

// peekAfterStructIsBrace distinguishes `struct S { ... };` (declaration)
// from `struct S x;` / `struct S* f() {}` (uses).
func (p *parser) peekAfterStructIsBrace() bool {
	if p.pos+2 < len(p.toks) {
		return p.toks[p.pos+2].Kind == token.LBrace
	}
	return false
}

func (p *parser) parseStructDecl() *ast.StructDecl {
	p.expect(token.KwStruct)
	name := p.expect(token.Ident)
	d := &ast.StructDecl{Name: name.Text, NamePos: name.Pos}
	// Pre-register so that fields and later decls can use pointers to it.
	if _, ok := p.structs[name.Text]; !ok {
		p.structs[name.Text] = &types.Type{Kind: types.Struct, Name: name.Text}
	}
	p.expect(token.LBrace)
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		base, ok := p.parseTypePrefix()
		if !ok {
			p.errorf(p.cur().Pos, "expected field type, found %s", p.cur())
			p.sync()
			continue
		}
		fname := p.expect(token.Ident)
		ftype := p.parseArraySuffix(base)
		d.Fields = append(d.Fields, &ast.VarDecl{Name: fname.Text, DeclType: ftype, NamePos: fname.Pos})
		p.expect(token.Semicolon)
	}
	p.expect(token.RBrace)
	p.expect(token.Semicolon)
	return d
}

// parseTopLevel parses either a global variable or a function.
func (p *parser) parseTopLevel(prog *ast.Program) {
	storage := ast.Auto
	if p.accept(token.KwStatic) {
		storage = ast.Static
	}
	base, ok := p.parseTypePrefix()
	if !ok {
		p.errorf(p.cur().Pos, "expected declaration, found %s", p.cur())
		p.sync()
		return
	}
	name := p.expect(token.Ident)
	if p.at(token.LParen) {
		prog.Funcs = append(prog.Funcs, p.parseFuncRest(base, name))
		return
	}
	// Global variable(s).
	for {
		t := p.parseArraySuffix(base)
		d := &ast.VarDecl{Name: name.Text, DeclType: t, NamePos: name.Pos, Storage: storage}
		if p.accept(token.Assign) {
			d.Init = p.parseAssignExpr()
		}
		prog.Globals = append(prog.Globals, d)
		if !p.accept(token.Comma) {
			break
		}
		name = p.expect(token.Ident)
	}
	p.expect(token.Semicolon)
}

func (p *parser) parseFuncRest(result *types.Type, name *token.Token) *ast.FuncDecl {
	f := &ast.FuncDecl{Name: name.Text, Result: result, NamePos: name.Pos}
	p.expect(token.LParen)
	if !p.at(token.RParen) {
		if p.at(token.KwVoid) && p.peek().Kind == token.RParen {
			p.next() // f(void)
		} else {
			for {
				base, ok := p.parseTypePrefix()
				if !ok {
					p.errorf(p.cur().Pos, "expected parameter type, found %s", p.cur())
					break
				}
				pn := p.expect(token.Ident)
				pt := p.parseArraySuffix(base)
				if pt.Kind == types.Array { // arrays decay in parameters
					pt = types.PointerTo(pt.Elem)
				}
				f.Params = append(f.Params, &ast.VarDecl{Name: pn.Text, DeclType: pt, NamePos: pn.Pos})
				if !p.accept(token.Comma) {
					break
				}
			}
		}
	}
	p.expect(token.RParen)
	f.Body = p.parseBlock()
	return f
}

// ---------------------------------------------------------------------------
// Types

// parseTypePrefix parses a base type with pointer stars:
// [unsigned] (char|int|long) '*'* | float | double | void '*'* |
// struct Name '*'*. Returns ok=false without consuming input if the
// current token cannot start a type.
func (p *parser) parseTypePrefix() (*types.Type, bool) {
	var t *types.Type
	switch p.cur().Kind {
	case token.KwConst:
		p.next()
		return p.parseTypePrefix()
	case token.KwUnsigned:
		p.next()
		switch p.cur().Kind {
		case token.KwChar:
			p.next()
			t = types.UCharType
		case token.KwLong:
			p.next()
			t = types.ULongType
		case token.KwInt:
			p.next()
			t = types.UIntType
		default:
			t = types.UIntType // bare `unsigned`
		}
	case token.KwChar:
		p.next()
		t = types.CharType
	case token.KwInt:
		p.next()
		t = types.IntType
	case token.KwLong:
		p.next()
		t = types.LongType
	case token.KwFloat:
		p.next()
		t = types.FloatType
	case token.KwDouble:
		p.next()
		t = types.DoubleType
	case token.KwVoid:
		p.next()
		t = types.VoidType
	case token.KwStruct:
		p.next()
		name := p.expect(token.Ident)
		st, ok := p.structs[name.Text]
		if !ok {
			st = &types.Type{Kind: types.Struct, Name: name.Text}
			p.structs[name.Text] = st
		}
		t = st
	default:
		return nil, false
	}
	for p.accept(token.Star) {
		t = types.PointerTo(t)
	}
	return t, true
}

// parseArraySuffix parses trailing `[N]` dimensions.
func (p *parser) parseArraySuffix(base *types.Type) *types.Type {
	var dims []int64
	for p.accept(token.LBracket) {
		n := p.expect(token.IntLit)
		dims = append(dims, n.IntVal)
		p.expect(token.RBracket)
	}
	t := base
	for i := len(dims) - 1; i >= 0; i-- {
		t = types.ArrayOf(t, dims[i])
	}
	return t
}

// startsType reports whether the current token can begin a type.
func (p *parser) startsType() bool {
	switch p.cur().Kind {
	case token.KwVoid, token.KwChar, token.KwInt, token.KwLong,
		token.KwFloat, token.KwDouble, token.KwUnsigned, token.KwStruct,
		token.KwConst:
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Statements

func (p *parser) parseBlock() *ast.BlockStmt {
	lb := p.expect(token.LBrace)
	b := &ast.BlockStmt{LBrace: lb.Pos}
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		start := p.pos
		b.Stmts = append(b.Stmts, p.parseStmt())
		if p.pos == start {
			p.next()
		}
	}
	p.expect(token.RBrace)
	return b
}

func (p *parser) parseStmt() ast.Stmt {
	switch p.cur().Kind {
	case token.LBrace:
		return p.parseBlock()
	case token.KwIf:
		return p.parseIf()
	case token.KwWhile:
		return p.parseWhile()
	case token.KwFor:
		return p.parseFor()
	case token.KwReturn:
		kw := p.next()
		s := &ast.ReturnStmt{RetPos: kw.Pos}
		if !p.at(token.Semicolon) {
			s.Value = p.parseExpr()
		}
		p.expect(token.Semicolon)
		return s
	case token.KwBreak:
		kw := p.next()
		p.expect(token.Semicolon)
		return &ast.BreakStmt{KwPos: kw.Pos}
	case token.KwContinue:
		kw := p.next()
		p.expect(token.Semicolon)
		return &ast.ContinueStmt{KwPos: kw.Pos}
	case token.Semicolon:
		pos := p.next().Pos
		return &ast.BlockStmt{LBrace: pos} // empty statement
	case token.KwStatic:
		return p.parseDeclStmt()
	default:
		if p.startsType() {
			return p.parseDeclStmt()
		}
		x := p.parseExpr()
		p.expect(token.Semicolon)
		return &ast.ExprStmt{X: x}
	}
}

func (p *parser) parseDeclStmt() ast.Stmt {
	storage := ast.Auto
	if p.accept(token.KwStatic) {
		storage = ast.Static
	}
	base, ok := p.parseTypePrefix()
	if !ok {
		p.errorf(p.cur().Pos, "expected type in declaration")
		p.sync()
		return &ast.DeclStmt{}
	}
	ds := &ast.DeclStmt{}
	for {
		// Allow extra stars per declarator: `int *a, **b;`
		t := base
		for p.accept(token.Star) {
			t = types.PointerTo(t)
		}
		name := p.expect(token.Ident)
		t = p.parseArraySuffix(t)
		d := &ast.VarDecl{Name: name.Text, DeclType: t, NamePos: name.Pos, Storage: storage}
		if p.accept(token.Assign) {
			d.Init = p.parseAssignExpr()
		}
		ds.Decls = append(ds.Decls, d)
		if !p.accept(token.Comma) {
			break
		}
	}
	p.expect(token.Semicolon)
	return ds
}

func (p *parser) parseIf() ast.Stmt {
	kw := p.expect(token.KwIf)
	p.expect(token.LParen)
	cond := p.parseExpr()
	p.expect(token.RParen)
	then := p.parseStmt()
	var els ast.Stmt
	if p.accept(token.KwElse) {
		els = p.parseStmt()
	}
	return &ast.IfStmt{IfPos: kw.Pos, Cond: cond, Then: then, Else: els}
}

func (p *parser) parseWhile() ast.Stmt {
	kw := p.expect(token.KwWhile)
	p.expect(token.LParen)
	cond := p.parseExpr()
	p.expect(token.RParen)
	body := p.parseStmt()
	return &ast.WhileStmt{WhilePos: kw.Pos, Cond: cond, Body: body}
}

func (p *parser) parseFor() ast.Stmt {
	kw := p.expect(token.KwFor)
	p.expect(token.LParen)
	s := &ast.ForStmt{ForPos: kw.Pos}
	if !p.at(token.Semicolon) {
		if p.startsType() {
			s.Init = p.parseDeclStmt() // consumes ';'
		} else {
			s.Init = &ast.ExprStmt{X: p.parseExpr()}
			p.expect(token.Semicolon)
		}
	} else {
		p.expect(token.Semicolon)
	}
	if !p.at(token.Semicolon) {
		s.Cond = p.parseExpr()
	}
	p.expect(token.Semicolon)
	if !p.at(token.RParen) {
		s.Post = p.parseExpr()
	}
	p.expect(token.RParen)
	s.Body = p.parseStmt()
	return s
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

func (p *parser) parseExpr() ast.Expr { return p.parseAssignExpr() }

func (p *parser) parseAssignExpr() ast.Expr {
	lhs := p.parseCondExpr()
	var op ast.BinOp
	switch p.cur().Kind {
	case token.Assign:
		op = ast.PlainAssign
	case token.AddAssign:
		op = ast.Add
	case token.SubAssign:
		op = ast.Sub
	case token.MulAssign:
		op = ast.Mul
	case token.DivAssign:
		op = ast.Div
	case token.ModAssign:
		op = ast.Mod
	case token.ShlAssign:
		op = ast.Shl
	case token.ShrAssign:
		op = ast.Shr
	case token.AndAssign:
		op = ast.BitAnd
	case token.OrAssign:
		op = ast.BitOr
	case token.XorAssign:
		op = ast.BitXor
	default:
		return lhs
	}
	opTok := p.next()
	rhs := p.parseAssignExpr()
	return &ast.Assign{Op: op, LHS: lhs, RHS: rhs, OpPos: opTok.Pos}
}

func (p *parser) parseCondExpr() ast.Expr {
	c := p.parseBinaryExpr(1)
	if !p.accept(token.Question) {
		return c
	}
	x := p.parseExpr()
	p.expect(token.Colon)
	y := p.parseCondExpr()
	return &ast.Cond{C: c, X: x, Y: y}
}

// binPrec returns the precedence of the binary operator at the current
// token, or 0 if it is not a binary operator. Higher binds tighter.
func binPrec(k token.Kind) (ast.BinOp, int) {
	switch k {
	case token.LOr:
		return ast.LogOr, 1
	case token.LAnd:
		return ast.LogAnd, 2
	case token.Or:
		return ast.BitOr, 3
	case token.Xor:
		return ast.BitXor, 4
	case token.Amp:
		return ast.BitAnd, 5
	case token.EqEq:
		return ast.Eq, 6
	case token.NotEq:
		return ast.Ne, 6
	case token.Lt:
		return ast.Lt, 7
	case token.Le:
		return ast.Le, 7
	case token.Gt:
		return ast.Gt, 7
	case token.Ge:
		return ast.Ge, 7
	case token.Shl:
		return ast.Shl, 8
	case token.Shr:
		return ast.Shr, 8
	case token.Add:
		return ast.Add, 9
	case token.Sub:
		return ast.Sub, 9
	case token.Star:
		return ast.Mul, 10
	case token.Div:
		return ast.Div, 10
	case token.Mod:
		return ast.Mod, 10
	}
	return 0, 0
}

func (p *parser) parseBinaryExpr(minPrec int) ast.Expr {
	lhs := p.parseUnary()
	for {
		op, prec := binPrec(p.cur().Kind)
		if prec < minPrec || prec == 0 {
			return lhs
		}
		opTok := p.next()
		rhs := p.parseBinaryExpr(prec + 1)
		lhs = &ast.Binary{Op: op, X: lhs, Y: rhs, OpPos: opTok.Pos}
	}
}

func (p *parser) parseUnary() ast.Expr {
	switch p.cur().Kind {
	case token.Sub:
		t := p.next()
		return &ast.Unary{Op: ast.Neg, X: p.parseUnary(), OpPos: t.Pos}
	case token.Not:
		t := p.next()
		return &ast.Unary{Op: ast.LogicalNot, X: p.parseUnary(), OpPos: t.Pos}
	case token.Tilde:
		t := p.next()
		return &ast.Unary{Op: ast.BitNot, X: p.parseUnary(), OpPos: t.Pos}
	case token.Star:
		t := p.next()
		return &ast.Unary{Op: ast.Deref, X: p.parseUnary(), OpPos: t.Pos}
	case token.Amp:
		t := p.next()
		return &ast.Unary{Op: ast.AddrOf, X: p.parseUnary(), OpPos: t.Pos}
	case token.Inc:
		t := p.next()
		return &ast.Unary{Op: ast.PreInc, X: p.parseUnary(), OpPos: t.Pos}
	case token.Dec:
		t := p.next()
		return &ast.Unary{Op: ast.PreDec, X: p.parseUnary(), OpPos: t.Pos}
	case token.KwSizeof:
		t := p.next()
		p.expect(token.LParen)
		st, ok := p.parseTypePrefix()
		if !ok {
			p.errorf(p.cur().Pos, "sizeof requires a type")
			st = types.IntType
		}
		st = p.parseArraySuffix(st)
		p.expect(token.RParen)
		return &ast.SizeofExpr{Of: st, KwPos: t.Pos}
	case token.LParen:
		// Cast `(type)expr` vs parenthesized expression.
		if p.isCastStart() {
			lp := p.next() // '('
			ct, _ := p.parseTypePrefix()
			p.expect(token.RParen)
			return &ast.CastExpr{To: ct, X: p.parseUnary(), LParen: lp.Pos}
		}
	}
	return p.parsePostfix()
}

// isCastStart looks ahead to distinguish `(int)x` from `(x)`.
func (p *parser) isCastStart() bool {
	if !p.at(token.LParen) {
		return false
	}
	switch p.peek().Kind {
	case token.KwVoid, token.KwChar, token.KwInt, token.KwLong,
		token.KwFloat, token.KwDouble, token.KwUnsigned, token.KwStruct,
		token.KwConst:
		return true
	}
	return false
}

func (p *parser) parsePostfix() ast.Expr {
	x := p.parsePrimary()
	for {
		switch p.cur().Kind {
		case token.LParen:
			id, ok := x.(*ast.Ident)
			if !ok {
				p.errorf(p.cur().Pos, "call of non-identifier expression")
				id = &ast.Ident{Name: "<bad>", NamePos: x.Pos()}
			}
			lp := p.next()
			call := &ast.Call{Fun: id, LParen: lp.Pos}
			if !p.at(token.RParen) {
				for {
					call.Args = append(call.Args, p.parseAssignExpr())
					if !p.accept(token.Comma) {
						break
					}
				}
			}
			p.expect(token.RParen)
			x = call
		case token.LBracket:
			lb := p.next()
			idx := p.parseExpr()
			p.expect(token.RBracket)
			x = &ast.Index{X: x, Idx: idx, LBracket: lb.Pos}
		case token.Dot:
			d := p.next()
			name := p.expect(token.Ident)
			x = &ast.Member{X: x, Name: name.Text, DotPos: d.Pos}
		case token.Arrow:
			d := p.next()
			name := p.expect(token.Ident)
			x = &ast.Member{X: x, Name: name.Text, Arrow: true, DotPos: d.Pos}
		case token.Inc:
			t := p.next()
			x = &ast.Unary{Op: ast.PostInc, X: x, OpPos: t.Pos}
		case token.Dec:
			t := p.next()
			x = &ast.Unary{Op: ast.PostDec, X: x, OpPos: t.Pos}
		default:
			return x
		}
	}
}

func (p *parser) parsePrimary() ast.Expr {
	t := p.cur()
	switch t.Kind {
	case token.IntLit:
		p.next()
		lit := &ast.IntLit{Value: t.IntVal, LitPos: t.Pos}
		switch {
		case t.Unsigned && t.Long:
			lit.SetType(types.ULongType)
		case t.Long:
			lit.SetType(types.LongType)
		case t.Unsigned:
			lit.SetType(types.UIntType)
		default:
			// Plain decimal literals too large for int become long,
			// matching C's rules closely enough for our corpus.
			if t.IntVal > 0x7fffffff || t.IntVal < -0x80000000 {
				lit.SetType(types.LongType)
			} else {
				lit.SetType(types.IntType)
			}
		}
		return lit
	case token.CharLit:
		p.next()
		lit := &ast.IntLit{Value: t.IntVal, LitPos: t.Pos}
		lit.SetType(types.IntType) // char literals have type int in C
		return lit
	case token.FloatLit:
		p.next()
		lit := &ast.FloatLit{Value: t.FloatVal, LitPos: t.Pos}
		lit.SetType(types.DoubleType)
		return lit
	case token.StrLit:
		p.next()
		lit := &ast.StrLit{Value: t.StrVal, LitPos: t.Pos}
		lit.SetType(types.PointerTo(types.CharType))
		return lit
	case token.KwLine:
		p.next()
		e := &ast.LineExpr{KwPos: t.Pos}
		e.SetType(types.IntType)
		return e
	case token.Ident:
		p.next()
		return &ast.Ident{Name: t.Text, NamePos: t.Pos}
	case token.LParen:
		p.next()
		x := p.parseExpr()
		p.expect(token.RParen)
		return x
	}
	p.errorf(t.Pos, "expected expression, found %s", t)
	p.next()
	bad := &ast.IntLit{Value: 0, LitPos: t.Pos}
	bad.SetType(types.IntType)
	return bad
}
