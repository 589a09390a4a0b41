package parser_test

import (
	"math"
	"slices"
	"testing"

	"compdiff/internal/minic/ast"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
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
// reducer and the evolve gate work on printed trees. A program that
// also passes sema must keep its types: every expression of the
// reparse has the type its counterpart had, so a reduced or evolved
// program never silently changes a literal's type. Run as a smoke
// test in CI (`make fuzz-smoke`) and at length with
// `go test -fuzz=FuzzParse ./internal/minic/parser`.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzParseSeeds {
		f.Add(s)
	}
	// Kept out of fuzzParseSeeds, whose parses the parse digest pins.
	f.Add("unsigned long x = 10UL; int main() { unsigned u = 7U; long l = 5L; return (int)(x + 3UL + u + l); }")
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
		if _, err := sema.Check(prog); err != nil {
			return
		}
		if _, err := sema.Check(again); err != nil {
			t.Fatalf("printed program fails sema: %v\n%s", err, out)
		}
		if want, got := exprTypes(prog), exprTypes(again); !slices.Equal(want, got) {
			t.Fatalf("printing changed expression types:\n%v\nvs\n%v\n%s", want, got, out)
		}
	})
}

// exprTypes lists the type of every expression in a checked program,
// globals' initializers first, in source order. A negative literal
// prints as the negation of its magnitude, so a negation of a
// non-negative literal counts as one expression, as the literal it
// may have been printed from does.
func exprTypes(prog *ast.Program) []string {
	var out []string
	magnitude := map[ast.Expr]bool{}
	add := func(e ast.Expr) {
		if magnitude[e] {
			return
		}
		if u, ok := e.(*ast.Unary); ok && u.Op == ast.Neg {
			switch x := u.X.(type) {
			case *ast.IntLit:
				magnitude[x] = x.Value >= 0
			case *ast.FloatLit:
				magnitude[x] = !math.Signbit(x.Value)
			}
		}
		out = append(out, e.Type().String())
	}
	ast.WalkExprs(&ast.DeclStmt{Decls: prog.Globals}, add)
	for _, fn := range prog.Funcs {
		ast.WalkExprs(fn.Body, add)
	}
	return out
}
