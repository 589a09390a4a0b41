package ast_test

import (
	"strings"
	"testing"

	"compdiff/internal/minic/ast"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
)

const sample = `
struct Pair {
    int a;
    int b;
};
int total;
int accumulate(int v) {
    total += v;
    return total;
}
int main() {
    struct Pair p;
    p.a = 1;
    p.b = 2;
    int* q = &p.a;
    for (int i = 0; i < 3; i++) {
        accumulate(p.a + p.b + *q);
        if (i == 1) { continue; }
        while (total > 100) { total /= 2; break; }
    }
    printf("%d\n", total > 0 ? total : -total);
    return 0;
}
`

func TestPrintContainsEveryConstruct(t *testing.T) {
	prog := parser.MustParse(sample)
	out := ast.Print(prog)
	for _, want := range []string{
		"struct Pair", "int total", "accumulate", "for (", "while (",
		"continue;", "break;", "? ", "&", "printf",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printed output missing %q", want)
		}
	}
}

func TestWalkVisitsAllStatements(t *testing.T) {
	prog := parser.MustParse(sample)
	var kinds = map[string]int{}
	for _, f := range prog.Funcs {
		ast.Walk(f.Body, func(s ast.Stmt) bool {
			switch s.(type) {
			case *ast.ForStmt:
				kinds["for"]++
			case *ast.WhileStmt:
				kinds["while"]++
			case *ast.IfStmt:
				kinds["if"]++
			case *ast.ContinueStmt:
				kinds["continue"]++
			case *ast.BreakStmt:
				kinds["break"]++
			case *ast.ReturnStmt:
				kinds["return"]++
			}
			return true
		})
	}
	want := map[string]int{"for": 1, "while": 1, "if": 1, "continue": 1, "break": 1, "return": 2}
	for k, n := range want {
		if kinds[k] != n {
			t.Errorf("%s statements = %d, want %d", k, kinds[k], n)
		}
	}
}

func TestWalkPrune(t *testing.T) {
	prog := parser.MustParse(sample)
	visited := 0
	for _, f := range prog.Funcs {
		ast.Walk(f.Body, func(s ast.Stmt) bool {
			visited++
			_, isBlock := s.(*ast.BlockStmt)
			return isBlock // prune below non-blocks
		})
	}
	// Only each function's top block plus its direct children.
	if visited == 0 {
		t.Fatal("walk visited nothing")
	}
	full := 0
	for _, f := range prog.Funcs {
		ast.Walk(f.Body, func(ast.Stmt) bool { full++; return true })
	}
	if visited >= full {
		t.Fatalf("pruned walk (%d) should visit fewer than full walk (%d)", visited, full)
	}
}

func TestWalkExprsFindsCallsAndMembers(t *testing.T) {
	prog := parser.MustParse(sample)
	calls, members, derefs := 0, 0, 0
	for _, f := range prog.Funcs {
		ast.WalkExprs(f.Body, func(e ast.Expr) {
			switch x := e.(type) {
			case *ast.Call:
				calls++
			case *ast.Member:
				members++
			case *ast.Unary:
				if x.Op == ast.Deref {
					derefs++
				}
			}
		})
	}
	if calls < 2 { // accumulate + printf
		t.Errorf("calls = %d", calls)
	}
	if members < 4 {
		t.Errorf("members = %d", members)
	}
	if derefs != 1 {
		t.Errorf("derefs = %d", derefs)
	}
}

func TestPrintExprAndStmt(t *testing.T) {
	prog := parser.MustParse(`int main() { int x = (1 + 2) * 3; return x; }`)
	ds := prog.Funcs[0].Body.Stmts[0].(*ast.DeclStmt)
	if got := ast.PrintExpr(ds.Decls[0].Init); got != "((1 + 2)) * 3" && !strings.Contains(got, "1 + 2") {
		t.Errorf("PrintExpr = %q", got)
	}
	if got := ast.PrintStmt(prog.Funcs[0].Body.Stmts[1]); !strings.Contains(got, "return x;") {
		t.Errorf("PrintStmt = %q", got)
	}
}

func TestOperatorStrings(t *testing.T) {
	if ast.Add.String() != "+" || ast.Shl.String() != "<<" || ast.LogAnd.String() != "&&" {
		t.Error("binary operator spellings")
	}
	if ast.Deref.String() != "*" || ast.AddrOf.String() != "&" {
		t.Error("unary operator spellings")
	}
	if !ast.Lt.IsComparison() || ast.Add.IsComparison() {
		t.Error("IsComparison")
	}
}

func TestStringEscapingRoundTrip(t *testing.T) {
	src := `int main() { printf("tab\t nl\n quote\" hex\x01 zero\0 back\\ "); return 0; }`
	p1 := parser.MustParse(src)
	out1 := ast.Print(p1)
	p2 := parser.MustParse(out1)
	if out2 := ast.Print(p2); out1 != out2 {
		t.Fatalf("escape round trip unstable:\n%s\nvs\n%s", out1, out2)
	}
}

// TestPrintMultiDeclarators holds a declaration statement with several
// declarators to one printed declaration that reparses to the same
// statement, in a block and in a for-init.
func TestPrintMultiDeclarators(t *testing.T) {
	src := `int main() { int a = 1, *b, c[2][3]; static int s, t; for (int i = 0, j = 1; i < j; i++) { } return a; }`
	out := ast.Print(parser.MustParse(src))
	for _, want := range []string{"int a = 1, *b, c[2][3];", "static int s, t;", "for (int i = 0, j = 1; "} {
		if !strings.Contains(out, want) {
			t.Errorf("printed output missing %q:\n%s", want, out)
		}
	}
	if again := ast.Print(parser.MustParse(out)); again != out {
		t.Errorf("print not stable:\n%s\nvs\n%s", out, again)
	}
}

// TestPrintNegativeLiteralOperands covers literals that carry a
// negative value: '\x80' lexes to -128, and a decimal past int64
// wraps. Under a unary minus or as a binary operand each must print
// so that it reparses, passes sema, and prints the same again —
// `--128` would reparse as a pre-decrement of a non-lvalue.
func TestPrintNegativeLiteralOperands(t *testing.T) {
	for _, src := range []string{
		`int main() { return -'\x80'; }`,
		`int main() { return 0 % '\x80'; }`,
		`int main() { return -(-'\xff' - '\x80'); }`,
		`int main() { return (int)(-18446744073709551615 + 1); }`,
		`int main() { long x = -9223372036854775808L; return (int)(x + 1L); }`,
		`int main() { double d = -(-1.5); return (int)d; }`,
	} {
		out := ast.Print(parser.MustParse(src))
		prog, err := parser.Parse(out)
		if err != nil {
			t.Errorf("%s: printed %q does not reparse: %v", src, out, err)
			continue
		}
		if _, err := sema.Check(prog); err != nil {
			t.Errorf("%s: printed %q fails sema: %v", src, out, err)
			continue
		}
		if again := ast.Print(parser.MustParse(out)); again != out {
			t.Errorf("%s: print not stable:\n%s\nvs\n%s", src, out, again)
		}
	}
	out := ast.Print(parser.MustParse(`int main() { return -'\x80'; }`))
	if !strings.Contains(out, "return -(-128);") {
		t.Errorf("negated char literal printed as %q", out)
	}
}
