package lexer

import (
	"strings"
	"testing"

	"compdiff/internal/minic/token"
)

func kinds(src string) []token.Kind {
	var ks []token.Kind
	for _, t := range New(src).All() {
		ks = append(ks, t.Kind)
	}
	return ks
}

// first scans the first token of src.
func first(src string) token.Token {
	var t token.Token
	New(src).Next(&t)
	return t
}

func TestBasicTokens(t *testing.T) {
	got := kinds("int main() { return 0; }")
	want := []token.Kind{token.KwInt, token.Ident, token.LParen, token.RParen,
		token.LBrace, token.KwReturn, token.IntLit, token.Semicolon,
		token.RBrace, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestOperators(t *testing.T) {
	src := "+ - * / % << >> <= >= < > == != && || & | ^ ! ~ ++ -- -> . ? : += -= *= /= %= <<= >>= &= |= ^= ="
	want := []token.Kind{
		token.Add, token.Sub, token.Star, token.Div, token.Mod,
		token.Shl, token.Shr, token.Le, token.Ge, token.Lt, token.Gt,
		token.EqEq, token.NotEq, token.LAnd, token.LOr, token.Amp,
		token.Or, token.Xor, token.Not, token.Tilde, token.Inc, token.Dec,
		token.Arrow, token.Dot, token.Question, token.Colon,
		token.AddAssign, token.SubAssign, token.MulAssign, token.DivAssign,
		token.ModAssign, token.ShlAssign, token.ShrAssign, token.AndAssign,
		token.OrAssign, token.XorAssign, token.Assign, token.EOF,
	}
	got := kinds(src)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestIntLiterals(t *testing.T) {
	cases := []struct {
		src      string
		val      int64
		unsigned bool
		long     bool
	}{
		{"0", 0, false, false},
		{"42", 42, false, false},
		{"0x7fffffff", 0x7fffffff, false, false},
		{"0xFF", 255, false, false},
		{"10L", 10, false, true},
		{"10U", 10, true, false},
		{"10UL", 10, true, true},
		{"10LU", 10, true, true},
	}
	for _, c := range cases {
		tok := first(c.src)
		if tok.Kind != token.IntLit {
			t.Errorf("%q: kind = %s, want IntLit", c.src, tok.Kind)
			continue
		}
		if tok.IntVal != c.val || tok.Unsigned != c.unsigned || tok.Long != c.long {
			t.Errorf("%q: got (%d,U=%v,L=%v), want (%d,U=%v,L=%v)",
				c.src, tok.IntVal, tok.Unsigned, tok.Long, c.val, c.unsigned, c.long)
		}
	}
}

func TestFloatLiterals(t *testing.T) {
	cases := []struct {
		src string
		val float64
	}{
		{"1.5", 1.5}, {"0.25", 0.25}, {"2e3", 2000}, {"1.5e-2", 0.015}, {"3.0f", 3.0},
	}
	for _, c := range cases {
		tok := first(c.src)
		if tok.Kind != token.FloatLit || tok.FloatVal != c.val {
			t.Errorf("%q: got %s %v, want FloatLit %v", c.src, tok.Kind, tok.FloatVal, c.val)
		}
	}
}

func TestStringLiteralEscapes(t *testing.T) {
	tok := first(`"a\nb\t\\\"\x41\0"`)
	if tok.Kind != token.StrLit {
		t.Fatalf("kind = %s", tok.Kind)
	}
	want := "a\nb\t\\\"A\x00"
	if tok.StrVal != want {
		t.Fatalf("StrVal = %q, want %q", tok.StrVal, want)
	}
}

func TestCharLiterals(t *testing.T) {
	cases := []struct {
		src string
		val int64
	}{
		{"'a'", 'a'}, {"'\\n'", '\n'}, {"'\\0'", 0}, {"'\\xff'", -1},
	}
	for _, c := range cases {
		tok := first(c.src)
		if tok.Kind != token.CharLit || tok.IntVal != c.val {
			t.Errorf("%q: got %s %d, want CharLit %d", c.src, tok.Kind, tok.IntVal, c.val)
		}
	}
}

func TestComments(t *testing.T) {
	got := kinds("a // line comment\n b /* block\ncomment */ c")
	want := []token.Kind{token.Ident, token.Ident, token.Ident, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
}

func TestPositions(t *testing.T) {
	lx := New("int\n  x;")
	var t1, t2 token.Token
	lx.Next(&t1)
	lx.Next(&t2)
	if t1.Pos.Line != 1 || t1.Pos.Col != 1 {
		t.Errorf("int at %s, want 1:1", t1.Pos)
	}
	if t2.Pos.Line != 2 || t2.Pos.Col != 3 {
		t.Errorf("x at %s, want 2:3", t2.Pos)
	}
}

func TestLineKeyword(t *testing.T) {
	tok := first("__LINE__")
	if tok.Kind != token.KwLine {
		t.Fatalf("kind = %s, want __LINE__", tok.Kind)
	}
}

func TestIllegalCharacterReported(t *testing.T) {
	lx := New("int @ x")
	lx.All()
	if len(lx.Errors()) == 0 {
		t.Fatal("expected lexical error for '@'")
	}
}

func TestUnterminatedString(t *testing.T) {
	lx := New(`"abc`)
	lx.All()
	if len(lx.Errors()) == 0 {
		t.Fatal("expected unterminated string error")
	}
}

// TestErrorsCapped feeds a mebibyte of illegal characters: the lexer
// keeps scanning to the end but records only MaxErrors errors.
func TestErrorsCapped(t *testing.T) {
	lx := New(strings.Repeat("@", 1<<20))
	toks := lx.All()
	if len(toks) != 1<<20+1 || toks[len(toks)-1].Kind != token.EOF {
		t.Fatalf("got %d tokens, want one per byte plus EOF", len(toks))
	}
	if n := len(lx.Errors()); n != MaxErrors {
		t.Fatalf("%d errors recorded, want %d", n, MaxErrors)
	}
}
