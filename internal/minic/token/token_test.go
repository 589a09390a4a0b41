package token

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		EOF: "EOF", Ident: "identifier", KwIf: "if", KwLine: "__LINE__",
		Arrow: "->", ShlAssign: "<<=", LAnd: "&&", Tilde: "~",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(250).String(); !strings.Contains(got, "250") {
		t.Errorf("unknown kind = %q", got)
	}
}

// TestEveryKindString pins the spelling of every kind, and of the
// values past the last one, to the names the lexer's diagnostics have
// always printed.
func TestEveryKindString(t *testing.T) {
	want := map[Kind]string{
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
	for k := 0; k < 256; k++ {
		w, ok := want[Kind(k)]
		if !ok {
			w = fmt.Sprintf("token(%d)", k)
		}
		if got := Kind(k).String(); got != w {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, w)
		}
	}
}

func TestKeywordsComplete(t *testing.T) {
	kinds := map[Kind]bool{}
	for _, kw := range []string{"void", "char", "int", "long", "float",
		"double", "unsigned", "struct", "if", "else", "while", "for",
		"return", "break", "continue", "sizeof", "static", "const", "__LINE__"} {
		k := Lookup(kw)
		if k == Ident {
			t.Errorf("missing keyword %q", kw)
		}
		if k.String() != kw {
			t.Errorf("Lookup(%q) = %s", kw, k)
		}
		kinds[k] = true
	}
	if len(kinds) != 19 {
		t.Errorf("keywords = %d, want 19", len(kinds))
	}
	for _, id := range []string{"", "x", "main", "Int", "in", "ints", "__LINE", "_"} {
		if got := Lookup(id); got != Ident {
			t.Errorf("Lookup(%q) = %s, want identifier", id, got)
		}
	}
}

func TestPos(t *testing.T) {
	p := Pos{Line: 3, Col: 14}
	if p.String() != "3:14" {
		t.Errorf("String = %q", p.String())
	}
	if !p.IsValid() || (Pos{}).IsValid() {
		t.Error("IsValid")
	}
}

func TestTokenString(t *testing.T) {
	id := Token{Kind: Ident, Text: "foo"}
	if got := id.String(); !strings.Contains(got, "foo") {
		t.Errorf("ident token = %q", got)
	}
	op := Token{Kind: Add}
	if op.String() != "+" {
		t.Errorf("op token = %q", op.String())
	}
}

// TestTokenPacked: Kind shares a word with the two flags, so a token is
// nine words (72 bytes on 64-bit), not ten.
func TestTokenPacked(t *testing.T) {
	if got, want := unsafe.Sizeof(Token{}), 9*unsafe.Sizeof(uintptr(0)); got != want {
		t.Errorf("token.Token is %d bytes, want %d", got, want)
	}
}
