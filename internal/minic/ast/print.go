package ast

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"compdiff/internal/minic/types"
)

// Print renders a program back to MiniC source. The output reparses to
// an equivalent AST (modulo positions), which the round-trip tests rely
// on. It is also used by the Juliet and target generators to dump the
// generated corpus for inspection.
func Print(p *Program) string {
	var pr printer
	pr.buf.Grow(printSizeHint(p))
	for _, s := range p.Structs {
		pr.structDecl(s)
	}
	for _, g := range p.Globals {
		pr.varDecl(g, true)
		pr.buf.WriteString(";\n")
	}
	for _, f := range p.Funcs {
		pr.funcDecl(f)
	}
	out := pr.buf.String()
	if pr.buf.Cap() > len(out) {
		// Printed programs live long (reductions, genomes): keep an
		// exact-size copy, not the builder's slack.
		out = strings.Clone(out)
	}
	return out
}

// PrintExpr renders a single expression (diagnostics, analyzer output).
func PrintExpr(e Expr) string {
	var pr printer
	pr.expr(e)
	return pr.buf.String()
}

// PrintStmt renders a single statement at indent 0.
func PrintStmt(s Stmt) string {
	var pr printer
	pr.stmt(s)
	return pr.buf.String()
}

// printSizeHint estimates Print's output size so the builder grows
// once. Print writes one statement per line, so in a tree parsed from
// printed text the last function's last statement sits on about the
// last line, and no corpus program averages over 47 bytes a line.
// Trees without usable positions get a small start and grow as usual.
func printSizeHint(p *Program) int {
	const lineBytes, minHint = 48, 256
	if len(p.Funcs) == 0 {
		return minHint
	}
	f := p.Funcs[len(p.Funcs)-1]
	line := f.NamePos.Line
	if f.Body != nil && len(f.Body.Stmts) > 0 {
		line = max(line, f.Body.Stmts[len(f.Body.Stmts)-1].Pos().Line)
	}
	return max(minHint, (line+2)*lineBytes)
}

type printer struct {
	buf    strings.Builder
	indent int
}

func (p *printer) in() {
	for i := 0; i < p.indent; i++ {
		p.buf.WriteString("    ")
	}
}

// int writes v in decimal without allocating.
func (p *printer) int(v int64) {
	var tmp [24]byte
	p.buf.Write(strconv.AppendInt(tmp[:0], v, 10))
}

func (p *printer) structDecl(s *StructDecl) {
	p.buf.WriteString("struct ")
	p.buf.WriteString(s.Name)
	p.buf.WriteString(" {\n")
	for _, f := range s.Fields {
		p.buf.WriteString("    ")
		p.typeAndName(f.DeclType, f.Name)
		p.buf.WriteString(";\n")
	}
	p.buf.WriteString("};\n")
}

// typeAndName prints a declaration like "int x", "char buf[10]",
// "struct S* p".
func (p *printer) typeAndName(t *types.Type, name string) {
	p.buf.WriteString(stripArrays(t).String())
	p.buf.WriteByte(' ')
	p.declarator(t, name)
}

// declarator prints name followed by t's array dimensions.
func (p *printer) declarator(t *types.Type, name string) {
	p.buf.WriteString(name)
	for ; t.Kind == types.Array; t = t.Elem {
		p.buf.WriteByte('[')
		p.int(t.Len)
		p.buf.WriteByte(']')
	}
}

func (p *printer) varDecl(d *VarDecl, topLevel bool) {
	if d.Storage == Static {
		p.buf.WriteString("static ")
	}
	p.typeAndName(d.DeclType, d.Name)
	if d.Init != nil {
		p.buf.WriteString(" = ")
		p.expr(d.Init)
	}
	_ = topLevel
}

// declStmt prints a declaration statement as the one declaration it
// was parsed from: `int* p = 0, **q`. The parser gives every
// declarator the shared base type plus its own extra stars and array
// suffix, so each later declarator prints only those.
func (p *printer) declStmt(s *DeclStmt) {
	for i, d := range s.Decls {
		if i == 0 {
			p.varDecl(d, false)
			continue
		}
		p.buf.WriteString(", ")
		for k := ptrDepth(stripArrays(d.DeclType)) - ptrDepth(stripArrays(s.Decls[0].DeclType)); k > 0; k-- {
			p.buf.WriteByte('*')
		}
		p.declarator(d.DeclType, d.Name)
		if d.Init != nil {
			p.buf.WriteString(" = ")
			p.expr(d.Init)
		}
	}
}

func stripArrays(t *types.Type) *types.Type {
	for t.Kind == types.Array {
		t = t.Elem
	}
	return t
}

func ptrDepth(t *types.Type) int {
	n := 0
	for ; t.Kind == types.Ptr; t = t.Elem {
		n++
	}
	return n
}

func (p *printer) funcDecl(f *FuncDecl) {
	p.buf.WriteString(f.Result.String())
	p.buf.WriteString(" ")
	p.buf.WriteString(f.Name)
	p.buf.WriteString("(")
	for i, prm := range f.Params {
		if i > 0 {
			p.buf.WriteString(", ")
		}
		p.typeAndName(prm.DeclType, prm.Name)
	}
	p.buf.WriteString(") ")
	p.block(f.Body)
	p.buf.WriteString("\n")
}

func (p *printer) block(b *BlockStmt) {
	p.buf.WriteString("{\n")
	p.indent++
	for _, s := range b.Stmts {
		p.in()
		p.stmt(s)
		p.buf.WriteString("\n")
	}
	p.indent--
	p.in()
	p.buf.WriteString("}")
}

func (p *printer) stmt(s Stmt) {
	switch s := s.(type) {
	case *BlockStmt:
		p.block(s)
	case *DeclStmt:
		p.declStmt(s)
		p.buf.WriteString(";")
	case *ExprStmt:
		p.expr(s.X)
		p.buf.WriteString(";")
	case *IfStmt:
		p.buf.WriteString("if (")
		p.expr(s.Cond)
		p.buf.WriteString(") ")
		p.stmtAsBlock(s.Then)
		if s.Else != nil {
			p.buf.WriteString(" else ")
			p.stmtAsBlock(s.Else)
		}
	case *WhileStmt:
		p.buf.WriteString("while (")
		p.expr(s.Cond)
		p.buf.WriteString(") ")
		p.stmtAsBlock(s.Body)
	case *ForStmt:
		p.buf.WriteString("for (")
		switch init := s.Init.(type) {
		case nil:
			p.buf.WriteString(";")
		case *DeclStmt:
			p.declStmt(init)
			p.buf.WriteString(";")
		case *ExprStmt:
			p.expr(init.X)
			p.buf.WriteString(";")
		}
		p.buf.WriteString(" ")
		if s.Cond != nil {
			p.expr(s.Cond)
		}
		p.buf.WriteString("; ")
		if s.Post != nil {
			p.expr(s.Post)
		}
		p.buf.WriteString(") ")
		p.stmtAsBlock(s.Body)
	case *ReturnStmt:
		p.buf.WriteString("return")
		if s.Value != nil {
			p.buf.WriteString(" ")
			p.expr(s.Value)
		}
		p.buf.WriteString(";")
	case *BreakStmt:
		p.buf.WriteString("break;")
	case *ContinueStmt:
		p.buf.WriteString("continue;")
	default:
		fmt.Fprintf(&p.buf, "/* unknown stmt %T */", s)
	}
}

func (p *printer) stmtAsBlock(s Stmt) {
	if b, ok := s.(*BlockStmt); ok {
		p.block(b)
		return
	}
	p.buf.WriteString("{\n")
	p.indent++
	p.in()
	p.stmt(s)
	p.buf.WriteString("\n")
	p.indent--
	p.in()
	p.buf.WriteString("}")
}

func (p *printer) expr(e Expr) {
	switch e := e.(type) {
	case *IntLit:
		// -2^63 has no spelling without a minus sign; its unsigned
		// digits lex back to it, as the unsigned literals' do.
		if isUnsignedLit(e) || e.Value == math.MinInt64 {
			var tmp [24]byte
			p.buf.Write(strconv.AppendUint(tmp[:0], uint64(e.Value), 10))
		} else {
			p.int(e.Value)
		}
		if isUnsignedLit(e) {
			p.buf.WriteByte('U')
		}
		if e.T != nil && (e.T.Kind == types.Long || e.T.Kind == types.ULong) {
			p.buf.WriteByte('L')
		}
	case *FloatLit:
		s := fmt.Sprintf("%g", e.Value)
		p.buf.WriteString(s)
		if !strings.ContainsAny(s, ".eE") {
			p.buf.WriteString(".0")
		}
	case *StrLit:
		p.buf.WriteString(quoteC(e.Value))
	case *LineExpr:
		p.buf.WriteString("__LINE__")
	case *Ident:
		p.buf.WriteString(e.Name)
	case *Unary:
		switch e.Op {
		case PostInc:
			p.parenExpr(e.X)
			p.buf.WriteString("++")
		case PostDec:
			p.parenExpr(e.X)
			p.buf.WriteString("--")
		default:
			p.buf.WriteString(e.Op.String())
			p.parenExpr(e.X)
		}
	case *Binary:
		p.parenExpr(e.X)
		p.buf.WriteByte(' ')
		p.buf.WriteString(e.Op.String())
		p.buf.WriteByte(' ')
		p.parenExpr(e.Y)
	case *Assign:
		p.parenExpr(e.LHS)
		if e.Op == PlainAssign {
			p.buf.WriteString(" = ")
		} else {
			p.buf.WriteByte(' ')
			p.buf.WriteString(e.Op.String())
			p.buf.WriteString("= ")
		}
		p.parenExpr(e.RHS)
	case *Cond:
		p.parenExpr(e.C)
		p.buf.WriteString(" ? ")
		p.parenExpr(e.X)
		p.buf.WriteString(" : ")
		p.parenExpr(e.Y)
	case *Call:
		p.buf.WriteString(e.Fun.Name)
		p.buf.WriteString("(")
		for i, a := range e.Args {
			if i > 0 {
				p.buf.WriteString(", ")
			}
			p.expr(a)
		}
		p.buf.WriteString(")")
	case *Index:
		p.parenExpr(e.X)
		p.buf.WriteString("[")
		p.expr(e.Idx)
		p.buf.WriteString("]")
	case *Member:
		p.parenExpr(e.X)
		if e.Arrow {
			p.buf.WriteString("->")
		} else {
			p.buf.WriteString(".")
		}
		p.buf.WriteString(e.Name)
	case *CastExpr:
		p.buf.WriteByte('(')
		p.buf.WriteString(e.To.String())
		p.buf.WriteByte(')')
		p.parenExpr(e.X)
	case *SizeofExpr:
		p.buf.WriteString("sizeof(")
		p.buf.WriteString(e.Of.String())
		p.buf.WriteByte(')')
	default:
		fmt.Fprintf(&p.buf, "/* unknown expr %T */", e)
	}
}

// isUnsignedLit reports whether an integer literal prints with a U
// suffix (and so never with a minus sign); an unsigned long one prints
// UL.
func isUnsignedLit(e *IntLit) bool {
	return e.T != nil && !e.T.IsSigned() && e.T.IsInteger()
}

// negativeLit reports whether e is a literal that prints with a
// leading minus sign: the lexer makes them from char literals past
// '\x7f' and from integers that wrap int64. As an operand such a
// literal is parenthesized like any other compound expression, or
// `-x` applied to it would print as a pre-decrement.
func negativeLit(e Expr) bool {
	switch e := e.(type) {
	case *IntLit:
		return e.Value < 0 && e.Value != math.MinInt64 && !isUnsignedLit(e)
	case *FloatLit:
		return math.Signbit(e.Value)
	}
	return false
}

// parenExpr prints sub-expressions with explicit parentheses so that
// printed output never depends on precedence subtleties.
func (p *printer) parenExpr(e Expr) {
	switch e.(type) {
	case *IntLit, *FloatLit, *StrLit, *Ident, *Call, *Index, *Member, *LineExpr, *SizeofExpr:
		if negativeLit(e) {
			p.buf.WriteByte('(')
			p.expr(e)
			p.buf.WriteByte(')')
			return
		}
		p.expr(e)
	default:
		p.buf.WriteString("(")
		p.expr(e)
		p.buf.WriteString(")")
	}
}

func quoteC(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch c {
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '\r':
			b.WriteString(`\r`)
		case 0:
			b.WriteString(`\0`)
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		default:
			if c < 32 || c >= 127 {
				fmt.Fprintf(&b, `\x%02x`, c)
			} else {
				b.WriteByte(c)
			}
		}
	}
	b.WriteByte('"')
	return b.String()
}

// Walk traverses the statement tree rooted at s, calling f for every
// statement. f returning false prunes the subtree.
func Walk(s Stmt, f func(Stmt) bool) {
	if s == nil || !f(s) {
		return
	}
	switch s := s.(type) {
	case *BlockStmt:
		for _, c := range s.Stmts {
			Walk(c, f)
		}
	case *IfStmt:
		Walk(s.Then, f)
		Walk(s.Else, f)
	case *WhileStmt:
		Walk(s.Body, f)
	case *ForStmt:
		Walk(s.Init, f)
		Walk(s.Body, f)
	}
}

// WalkExprs calls f for every expression contained in statement s,
// including nested sub-expressions, in EditExprs order. It never
// writes the tree.
func WalkExprs(s Stmt, f func(Expr)) {
	EditExprs(s, func(e Expr) (Expr, bool) {
		f(e)
		return e, true
	})
}

// WalkExpr calls f for e and every expression nested in it, in
// EditExpr order. It never writes the tree; a nil e is skipped.
func WalkExpr(e Expr, f func(Expr)) {
	EditExpr(&e, func(x Expr) (Expr, bool) {
		f(x)
		return x, true
	})
}

// EditExprs applies EditExpr to every expression slot of the
// statement tree rooted at s: statements in Walk order, and within a
// statement its declarators' initializers, or its expression,
// condition, for-loop condition then post, or return value.
func EditExprs(s Stmt, f func(Expr) (Expr, bool)) {
	Walk(s, func(st Stmt) bool {
		switch st := st.(type) {
		case *DeclStmt:
			for _, d := range st.Decls {
				EditExpr(&d.Init, f)
			}
		case *ExprStmt:
			EditExpr(&st.X, f)
		case *IfStmt:
			EditExpr(&st.Cond, f)
		case *WhileStmt:
			EditExpr(&st.Cond, f)
		case *ForStmt:
			EditExpr(&st.Cond, f)
			EditExpr(&st.Post, f)
		case *ReturnStmt:
			EditExpr(&st.Value, f)
		}
		return true
	})
}

// EditExpr is the one pre-order traversal of expression operands.
// It calls f on the expression in *slot (nothing if it is nil); f
// returns the expression to keep there and whether to visit the kept
// expression's operands, which are then edited the same way, left to
// right, an assignment's target before its value.
//
// The slot is written only when f returns a different expression, so
// with an f that replaces nothing EditExpr only reads the tree, and
// any number of goroutines may walk one shared tree at once.
func EditExpr(slot *Expr, f func(Expr) (Expr, bool)) {
	e := *slot
	if e == nil {
		return
	}
	r, descend := f(e)
	if r != e {
		*slot = r
	}
	if !descend {
		return
	}
	switch e := r.(type) {
	case *Unary:
		EditExpr(&e.X, f)
	case *Binary:
		EditExpr(&e.X, f)
		EditExpr(&e.Y, f)
	case *Assign:
		EditExpr(&e.LHS, f)
		EditExpr(&e.RHS, f)
	case *Cond:
		EditExpr(&e.C, f)
		EditExpr(&e.X, f)
		EditExpr(&e.Y, f)
	case *Call:
		for i := range e.Args {
			EditExpr(&e.Args[i], f)
		}
	case *Index:
		EditExpr(&e.X, f)
		EditExpr(&e.Idx, f)
	case *Member:
		EditExpr(&e.X, f)
	case *CastExpr:
		EditExpr(&e.X, f)
	}
}
