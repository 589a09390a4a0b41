package parser_test

import (
	"testing"

	"compdiff/internal/minic/ast"
	"compdiff/internal/minic/parser"
)

// fuzzParseSeeds seed FuzzParse; TestParseMatchesParent pins their
// parses too.
var fuzzParseSeeds = []string{
	"",
	"int main() { return 0; }",
	"int main() { int x; printf(\"%d\\n\", x); return 0; }",
	`int f(int a, int b) { return a + b; }
int main() {
    char buf[8];
    long n = read_input(buf, 8L);
    if (n < 8) { return 0; }
    printf("%d\n", f(buf[0], buf[1]));
    return 0;
}`,
	"int g = 42; int main() { for (;;) { break; } return g; }",
	"struct p { int x; int y; }; int main() { struct p q; q.x = 1; return q.x; }",
	"int main() { char* s = (char*)malloc(8L); strcpy(s, \"hi\"); free(s); return 0; }",
	"int main() { int a[4]; a[9] = 1; return a[9]; }",
	"int main() { return 1 << 40; }",
	"/* unterminated",
	"int main( {",
	"\"string at top level\"",
	"int main() { double d = pow(2.0, 10.0); printf(\"%f\\n\", d); return 0; }",
	`int A(){0%'\x80';}`,
	`int main(){return -'\x80';}`,
	"int main(){int a = 1, *b, c[2]; for (int i = 0, j = 1; i < j; i++) {} return a;}",
}

// FuzzParse drives the MiniC front end (lexer + parser) with
// arbitrary byte strings: whatever the bytes are, Parse must either
// return a program or an error — never panic, never return both
// nil. A program that parses must survive the printer: its printed
// text reparses and prints identically, which is what lets the
// reducer and the evolve gate work on printed trees. Run as a smoke
// test in CI (`make fuzz-smoke`) and at length with
// `go test -fuzz=FuzzParse ./internal/minic/parser`.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzParseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Parse may return a partial AST alongside an error; the only
		// hard invariants are "no panic" and "success implies a
		// program".
		prog, err := parser.Parse(src)
		if err == nil && prog == nil {
			t.Fatal("Parse returned nil program and nil error")
		}
		if err != nil {
			return
		}
		out := ast.Print(prog)
		again, err := parser.Parse(out)
		if err != nil {
			t.Fatalf("printed program does not reparse: %v\n%s", err, out)
		}
		if got := ast.Print(again); got != out {
			t.Fatalf("print of the reparse differs:\n%s\nvs\n%s", out, got)
		}
	})
}
