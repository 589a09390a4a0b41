package token

import (
	"strings"
	"testing"
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
	if got := Kind(9999).String(); !strings.Contains(got, "9999") {
		t.Errorf("unknown kind = %q", got)
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
