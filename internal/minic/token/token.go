// Package token defines the lexical tokens of MiniC and source
// positions used across the front end for diagnostics and for the
// implementation-defined __LINE__ semantics studied by CompDiff.
package token

import "fmt"

// Kind identifies a lexical token class. It is a byte, so a Token
// packs it beside its two flags.
type Kind uint8

const (
	EOF Kind = iota
	Illegal

	Ident
	IntLit   // 123, 0x7f, 'a'
	FloatLit // 1.5, 2e9
	StrLit   // "..."
	CharLit  // 'a'

	// Keywords.
	KwVoid
	KwChar
	KwInt
	KwLong
	KwFloat
	KwDouble
	KwUnsigned
	KwStruct
	KwIf
	KwElse
	KwWhile
	KwFor
	KwReturn
	KwBreak
	KwContinue
	KwSizeof
	KwStatic
	KwConst
	KwLine // __LINE__

	// Punctuation and operators.
	LParen
	RParen
	LBrace
	RBrace
	LBracket
	RBracket
	Semicolon
	Comma
	Dot
	Arrow // ->
	Question
	Colon

	Assign    // =
	AddAssign // +=
	SubAssign // -=
	MulAssign // *=
	DivAssign // /=
	ModAssign // %=
	ShlAssign // <<=
	ShrAssign // >>=
	AndAssign // &=
	OrAssign  // |=
	XorAssign // ^=

	Add
	Sub
	Star
	Div
	Mod
	Shl
	Shr
	Lt
	Le
	Gt
	Ge
	EqEq
	NotEq
	Amp
	Or
	Xor
	LAnd // &&
	LOr  // ||
	Not  // !
	Tilde
	Inc // ++
	Dec // --
)

// names spells each kind, indexed by Kind.
var names = [...]string{
	EOF: "EOF", Illegal: "ILLEGAL", Ident: "identifier",
	IntLit: "integer literal", FloatLit: "float literal",
	StrLit: "string literal", CharLit: "char literal",
	KwVoid: "void", KwChar: "char", KwInt: "int", KwLong: "long",
	KwFloat: "float", KwDouble: "double", KwUnsigned: "unsigned",
	KwStruct: "struct", KwIf: "if", KwElse: "else", KwWhile: "while",
	KwFor: "for", KwReturn: "return", KwBreak: "break",
	KwContinue: "continue", KwSizeof: "sizeof", KwStatic: "static",
	KwConst: "const", KwLine: "__LINE__",
	LParen: "(", RParen: ")", LBrace: "{", RBrace: "}",
	LBracket: "[", RBracket: "]", Semicolon: ";", Comma: ",",
	Dot: ".", Arrow: "->", Question: "?", Colon: ":",
	Assign: "=", AddAssign: "+=", SubAssign: "-=", MulAssign: "*=",
	DivAssign: "/=", ModAssign: "%=", ShlAssign: "<<=", ShrAssign: ">>=",
	AndAssign: "&=", OrAssign: "|=", XorAssign: "^=",
	Add: "+", Sub: "-", Star: "*", Div: "/", Mod: "%",
	Shl: "<<", Shr: ">>", Lt: "<", Le: "<=", Gt: ">", Ge: ">=",
	EqEq: "==", NotEq: "!=", Amp: "&", Or: "|", Xor: "^",
	LAnd: "&&", LOr: "||", Not: "!", Tilde: "~", Inc: "++", Dec: "--",
}

// String returns a human-readable name for the token kind.
func (k Kind) String() string {
	if int(k) < len(names) && names[k] != "" {
		return names[k]
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// Lookup returns the keyword kind spelled ident, or Ident when ident
// is not a keyword. The lexer calls it for every identifier.
func Lookup(ident string) Kind {
	switch ident {
	case "void":
		return KwVoid
	case "char":
		return KwChar
	case "int":
		return KwInt
	case "long":
		return KwLong
	case "float":
		return KwFloat
	case "double":
		return KwDouble
	case "unsigned":
		return KwUnsigned
	case "struct":
		return KwStruct
	case "if":
		return KwIf
	case "else":
		return KwElse
	case "while":
		return KwWhile
	case "for":
		return KwFor
	case "return":
		return KwReturn
	case "break":
		return KwBreak
	case "continue":
		return KwContinue
	case "sizeof":
		return KwSizeof
	case "static":
		return KwStatic
	case "const":
		return KwConst
	case "__LINE__":
		return KwLine
	}
	return Ident
}

// Pos is a source position. Line and Col are 1-based.
type Pos struct {
	Line int
	Col  int
}

// String renders the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// IsValid reports whether the position has been set.
func (p Pos) IsValid() bool { return p.Line > 0 }

// Token is one lexical token with its source text and position. Kind
// sits with the two flags, so the three share one word.
type Token struct {
	Text string // raw text (identifiers, literals)
	Pos  Pos

	IntVal   int64   // IntLit, CharLit: decoded value
	FloatVal float64 // FloatLit
	StrVal   string  // StrLit: decoded (unescaped) value
	Kind     Kind
	Unsigned bool // IntLit had a 'U' suffix
	Long     bool // IntLit had an 'L' suffix
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case Ident, IntLit, FloatLit, StrLit, CharLit:
		return fmt.Sprintf("%s %q", t.Kind, t.Text)
	default:
		return t.Kind.String()
	}
}
