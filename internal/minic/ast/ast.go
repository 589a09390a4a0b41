// Package ast defines the abstract syntax tree of MiniC. Nodes carry
// source positions (needed for diagnostics and for the
// implementation-defined __LINE__ semantics) and, after semantic
// analysis, resolved types and symbols.
package ast

import (
	"compdiff/internal/minic/token"
	"compdiff/internal/minic/types"
)

// Node is the common interface of all AST nodes.
type Node interface {
	Pos() token.Pos
}

// Expr is an expression node. After sema, Type() returns the value
// type and ID() the node's dense id.
type Expr interface {
	Node
	Type() *types.Type
	ID() int32
	exprNode()
}

// Stmt is a statement node. After sema, ID() returns its dense id.
type Stmt interface {
	Node
	ID() int32
	stmtNode()
}

// nodeID is the dense id sema gives each expression and statement it
// checks (sema.Info.NumExprs, NumStmts): expressions and statements
// are numbered separately, from 1, in checking order. Zero marks a
// node no check has reached. Back ends index per-program and
// per-function side tables by it instead of hashing node pointers.
type nodeID struct {
	id int32
}

// ID returns the node's dense id (0 before sema).
func (n *nodeID) ID() int32 { return n.id }

// SetID records the node's dense id; sema calls it.
func (n *nodeID) SetID(id int32) { n.id = id }

// ---------------------------------------------------------------------------
// Program structure

// Program is a complete translation unit.
type Program struct {
	Structs []*StructDecl
	Globals []*VarDecl
	Funcs   []*FuncDecl
}

// StructDecl declares a struct type.
type StructDecl struct {
	Name    string
	Fields  []*VarDecl // only Name/DeclType used
	NamePos token.Pos
	Type    *types.Type // set by sema
}

func (d *StructDecl) Pos() token.Pos { return d.NamePos }

// StorageClass distinguishes ordinary locals from C 'static' locals,
// whose single shared instance is what makes the paper's Listing 3
// (tcpdump GET_LINKADDR_STRING) unstable.
type StorageClass int

const (
	Auto StorageClass = iota
	Static
)

// VarDecl declares a variable (global, local, param, or struct field).
type VarDecl struct {
	Name     string
	DeclType *types.Type
	Init     Expr // optional
	NamePos  token.Pos
	Storage  StorageClass

	// Set by sema/compiler.
	Sym *Symbol
}

func (d *VarDecl) Pos() token.Pos { return d.NamePos }

// FuncDecl declares (and defines) a function.
type FuncDecl struct {
	Name    string
	Result  *types.Type
	Params  []*VarDecl
	Body    *BlockStmt
	NamePos token.Pos

	Type *types.Type // set by sema
}

func (d *FuncDecl) Pos() token.Pos { return d.NamePos }

// SymbolKind classifies resolved symbols.
type SymbolKind int

const (
	SymGlobal SymbolKind = iota
	SymLocal
	SymParam
	SymStaticLocal
	SymFunc
	SymBuiltin
)

// Symbol is a resolved name: a variable, parameter, function, or builtin.
type Symbol struct {
	Kind SymbolKind
	Name string
	Type *types.Type

	// Identity used by the compiler's layout planner.
	Index int // per-kind index assigned by sema

	// For functions.
	Func *FuncDecl
	// For builtins.
	Builtin int
}

// ---------------------------------------------------------------------------
// Statements

// BlockStmt is `{ ... }`.
type BlockStmt struct {
	nodeID
	LBrace token.Pos
	Stmts  []Stmt
}

func (s *BlockStmt) Pos() token.Pos { return s.LBrace }
func (*BlockStmt) stmtNode()        {}

// DeclStmt wraps local variable declarations.
type DeclStmt struct {
	nodeID
	Decls []*VarDecl
}

func (s *DeclStmt) Pos() token.Pos {
	if len(s.Decls) > 0 {
		return s.Decls[0].NamePos
	}
	return token.Pos{}
}
func (*DeclStmt) stmtNode() {}

// ExprStmt is an expression evaluated for its side effects.
type ExprStmt struct {
	nodeID
	X Expr
}

func (s *ExprStmt) Pos() token.Pos { return s.X.Pos() }
func (*ExprStmt) stmtNode()        {}

// IfStmt is if/else.
type IfStmt struct {
	nodeID
	IfPos token.Pos
	Cond  Expr
	Then  Stmt
	Else  Stmt // may be nil
}

func (s *IfStmt) Pos() token.Pos { return s.IfPos }
func (*IfStmt) stmtNode()        {}

// WhileStmt is a while loop.
type WhileStmt struct {
	nodeID
	WhilePos token.Pos
	Cond     Expr
	Body     Stmt
}

func (s *WhileStmt) Pos() token.Pos { return s.WhilePos }
func (*WhileStmt) stmtNode()        {}

// ForStmt is a C-style for loop.
type ForStmt struct {
	nodeID
	ForPos token.Pos
	Init   Stmt // DeclStmt or ExprStmt, may be nil
	Cond   Expr // may be nil (infinite)
	Post   Expr // may be nil
	Body   Stmt
}

func (s *ForStmt) Pos() token.Pos { return s.ForPos }
func (*ForStmt) stmtNode()        {}

// ReturnStmt returns from the enclosing function.
type ReturnStmt struct {
	nodeID
	RetPos token.Pos
	Value  Expr // may be nil
}

func (s *ReturnStmt) Pos() token.Pos { return s.RetPos }
func (*ReturnStmt) stmtNode()        {}

// BreakStmt breaks the innermost loop.
type BreakStmt struct {
	nodeID
	KwPos token.Pos
}

func (s *BreakStmt) Pos() token.Pos { return s.KwPos }
func (*BreakStmt) stmtNode()        {}

// ContinueStmt continues the innermost loop.
type ContinueStmt struct {
	nodeID
	KwPos token.Pos
}

func (s *ContinueStmt) Pos() token.Pos { return s.KwPos }
func (*ContinueStmt) stmtNode()        {}

// ---------------------------------------------------------------------------
// Expressions

type typedExpr struct {
	nodeID
	T *types.Type
}

func (e *typedExpr) Type() *types.Type     { return e.T }
func (e *typedExpr) SetType(t *types.Type) { e.T = t }
func (*typedExpr) exprNode()               {}

// IntLit is an integer (or char) literal.
type IntLit struct {
	typedExpr
	Value  int64
	LitPos token.Pos
}

func (e *IntLit) Pos() token.Pos { return e.LitPos }

// FloatLit is a floating literal.
type FloatLit struct {
	typedExpr
	Value  float64
	LitPos token.Pos
}

func (e *FloatLit) Pos() token.Pos { return e.LitPos }

// StrLit is a string literal; its value is interned into rodata.
type StrLit struct {
	typedExpr
	Value  string
	LitPos token.Pos
}

func (e *StrLit) Pos() token.Pos { return e.LitPos }

// LineExpr is the __LINE__ construct. Its numeric value is chosen by
// the compiler implementation (token line vs. statement line), one of
// the paper's implementation-defined divergence categories.
type LineExpr struct {
	typedExpr
	KwPos    token.Pos
	StmtLine int // line of the enclosing statement, set by sema
}

func (e *LineExpr) Pos() token.Pos { return e.KwPos }

// Ident is a name use, resolved by sema.
type Ident struct {
	typedExpr
	Name    string
	NamePos token.Pos
	Sym     *Symbol // set by sema
}

func (e *Ident) Pos() token.Pos { return e.NamePos }

// UnaryOp enumerates unary operators.
type UnaryOp int

const (
	Neg        UnaryOp = iota // -x
	LogicalNot                // !x
	BitNot                    // ~x
	Deref                     // *p
	AddrOf                    // &x
	PreInc                    // ++x
	PreDec                    // --x
	PostInc                   // x++
	PostDec                   // x--
)

var unaryNames = [...]string{
	Neg: "-", LogicalNot: "!", BitNot: "~", Deref: "*", AddrOf: "&",
	PreInc: "++", PreDec: "--", PostInc: "++", PostDec: "--",
}

// String returns the operator spelling.
func (op UnaryOp) String() string {
	if uint(op) < uint(len(unaryNames)) {
		return unaryNames[op]
	}
	return ""
}

// Unary is a unary expression.
type Unary struct {
	typedExpr
	Op    UnaryOp
	X     Expr
	OpPos token.Pos
}

func (e *Unary) Pos() token.Pos { return e.OpPos }

// BinOp enumerates binary operators.
type BinOp int

const (
	Add BinOp = iota
	Sub
	Mul
	Div
	Mod
	Shl
	Shr
	Lt
	Le
	Gt
	Ge
	Eq
	Ne
	BitAnd
	BitOr
	BitXor
	LogAnd
	LogOr
)

var binNames = [...]string{
	Add: "+", Sub: "-", Mul: "*", Div: "/", Mod: "%", Shl: "<<", Shr: ">>",
	Lt: "<", Le: "<=", Gt: ">", Ge: ">=", Eq: "==", Ne: "!=",
	BitAnd: "&", BitOr: "|", BitXor: "^", LogAnd: "&&", LogOr: "||",
}

// String returns the operator spelling.
func (op BinOp) String() string {
	if uint(op) < uint(len(binNames)) {
		return binNames[op]
	}
	return ""
}

// IsComparison reports whether op yields a boolean int.
func (op BinOp) IsComparison() bool {
	switch op {
	case Lt, Le, Gt, Ge, Eq, Ne:
		return true
	}
	return false
}

// Binary is a binary expression. CommonType records the type in which
// the operation is performed after the usual arithmetic conversions;
// compiler implementations may legally widen it further (the paper's
// IntError example), which is one of the divergence axes.
type Binary struct {
	typedExpr
	Op         BinOp
	X, Y       Expr
	OpPos      token.Pos
	CommonType *types.Type // set by sema for arithmetic ops
}

func (e *Binary) Pos() token.Pos { return e.X.Pos() }

// Assign is an assignment, possibly compound (+=, <<=, ...).
// For compound assignments Op holds the arithmetic operator; for plain
// `=` Op is -1.
type Assign struct {
	typedExpr
	Op    BinOp // -1 for plain '='
	LHS   Expr
	RHS   Expr
	OpPos token.Pos
}

// PlainAssign marks a non-compound assignment.
const PlainAssign BinOp = -1

func (e *Assign) Pos() token.Pos { return e.LHS.Pos() }

// Cond is the ternary ?: operator.
type Cond struct {
	typedExpr
	C, X, Y Expr
}

func (e *Cond) Pos() token.Pos { return e.C.Pos() }

// Call is a function or builtin call. Argument evaluation order is
// unspecified in C; each compiler implementation picks one — the axis
// behind the paper's EvalOrder bug category (Listing 3).
type Call struct {
	typedExpr
	Fun    *Ident
	Args   []Expr
	LParen token.Pos

	// ArityMismatch is set by sema when the call passes a different
	// number of arguments than the callee declares (permitted, as with
	// pre-C99 implicit declarations; CWE-685 material).
	ArityMismatch bool
}

func (e *Call) Pos() token.Pos { return e.Fun.Pos() }

// Index is array/pointer subscripting a[i].
type Index struct {
	typedExpr
	X, Idx   Expr
	LBracket token.Pos
}

func (e *Index) Pos() token.Pos { return e.X.Pos() }

// Member is struct member access: x.f or p->f.
type Member struct {
	typedExpr
	X      Expr
	Name   string
	Arrow  bool
	DotPos token.Pos

	Field types.Field // set by sema
}

func (e *Member) Pos() token.Pos { return e.X.Pos() }

// CastExpr is an explicit conversion `(type)x`.
type CastExpr struct {
	typedExpr
	To     *types.Type
	X      Expr
	LParen token.Pos
}

func (e *CastExpr) Pos() token.Pos { return e.LParen }

// SizeofExpr is sizeof(type).
type SizeofExpr struct {
	typedExpr
	Of    *types.Type
	KwPos token.Pos
}

func (e *SizeofExpr) Pos() token.Pos { return e.KwPos }
