package parser

import (
	"strings"
	"testing"

	"compdiff/internal/minic/ast"
	"compdiff/internal/minic/lexer"
	"compdiff/internal/minic/types"
)

func TestParseSimpleFunction(t *testing.T) {
	prog, err := Parse(`
int add(int a, int b) {
    return a + b;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Funcs) != 1 {
		t.Fatalf("got %d funcs", len(prog.Funcs))
	}
	f := prog.Funcs[0]
	if f.Name != "add" || len(f.Params) != 2 || f.Result != types.IntType {
		t.Fatalf("bad func decl: %+v", f)
	}
	ret, ok := f.Body.Stmts[0].(*ast.ReturnStmt)
	if !ok {
		t.Fatalf("stmt[0] is %T", f.Body.Stmts[0])
	}
	bin, ok := ret.Value.(*ast.Binary)
	if !ok || bin.Op != ast.Add {
		t.Fatalf("return value is %T", ret.Value)
	}
}

func TestPrecedence(t *testing.T) {
	prog := MustParse(`int f() { return 1 + 2 * 3 == 7 && 4 < 5; }`)
	ret := prog.Funcs[0].Body.Stmts[0].(*ast.ReturnStmt)
	top, ok := ret.Value.(*ast.Binary)
	if !ok || top.Op != ast.LogAnd {
		t.Fatalf("top op = %v", top.Op)
	}
	eq := top.X.(*ast.Binary)
	if eq.Op != ast.Eq {
		t.Fatalf("left of && = %v, want ==", eq.Op)
	}
	add := eq.X.(*ast.Binary)
	if add.Op != ast.Add {
		t.Fatalf("left of == = %v, want +", add.Op)
	}
	mul := add.Y.(*ast.Binary)
	if mul.Op != ast.Mul {
		t.Fatalf("right of + = %v, want *", mul.Op)
	}
}

func TestPointerAndArrayDecls(t *testing.T) {
	prog := MustParse(`
int g[10];
char* s;
int** pp;
struct P { int x; int y; };
struct P pts[4];
int f(char* buf, int n) { return 0; }
`)
	if len(prog.Globals) != 4 {
		t.Fatalf("globals = %d", len(prog.Globals))
	}
	if prog.Globals[0].DeclType.Kind != types.Array || prog.Globals[0].DeclType.Len != 10 {
		t.Fatalf("g type = %s", prog.Globals[0].DeclType)
	}
	if prog.Globals[1].DeclType.Kind != types.Ptr {
		t.Fatalf("s type = %s", prog.Globals[1].DeclType)
	}
	pp := prog.Globals[2].DeclType
	if pp.Kind != types.Ptr || pp.Elem.Kind != types.Ptr {
		t.Fatalf("pp type = %s", pp)
	}
	pts := prog.Globals[3].DeclType
	if pts.Kind != types.Array || pts.Elem.Kind != types.Struct || pts.Elem.Name != "P" {
		t.Fatalf("pts type = %s", pts)
	}
}

func TestCastVsParen(t *testing.T) {
	prog := MustParse(`
long f(int x) {
    long a = (long)x;
    long b = (x) + 1;
    char* p = (char*)0;
    return a + b;
}
`)
	body := prog.Funcs[0].Body.Stmts
	d0 := body[0].(*ast.DeclStmt).Decls[0]
	if _, ok := d0.Init.(*ast.CastExpr); !ok {
		t.Fatalf("a init is %T, want cast", d0.Init)
	}
	d1 := body[1].(*ast.DeclStmt).Decls[0]
	if _, ok := d1.Init.(*ast.Binary); !ok {
		t.Fatalf("b init is %T, want binary", d1.Init)
	}
	d2 := body[2].(*ast.DeclStmt).Decls[0]
	cast, ok := d2.Init.(*ast.CastExpr)
	if !ok || cast.To.Kind != types.Ptr {
		t.Fatalf("p init is %T", d2.Init)
	}
}

func TestControlFlow(t *testing.T) {
	prog := MustParse(`
int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        if (i % 2 == 0) { s += i; } else { continue; }
        while (s > 100) { s -= 10; break; }
    }
    return s;
}
`)
	var fors, ifs, whiles int
	ast.Walk(prog.Funcs[0].Body, func(s ast.Stmt) bool {
		switch s.(type) {
		case *ast.ForStmt:
			fors++
		case *ast.IfStmt:
			ifs++
		case *ast.WhileStmt:
			whiles++
		}
		return true
	})
	if fors != 1 || ifs != 1 || whiles != 1 {
		t.Fatalf("fors=%d ifs=%d whiles=%d", fors, ifs, whiles)
	}
}

func TestStructMemberAccess(t *testing.T) {
	prog := MustParse(`
struct S { int a; char b; };
int f(struct S* p, struct S v) {
    return p->a + v.a;
}
`)
	ret := prog.Funcs[0].Body.Stmts[0].(*ast.ReturnStmt)
	bin := ret.Value.(*ast.Binary)
	m1 := bin.X.(*ast.Member)
	if !m1.Arrow || m1.Name != "a" {
		t.Fatalf("left member: arrow=%v name=%s", m1.Arrow, m1.Name)
	}
	m2 := bin.Y.(*ast.Member)
	if m2.Arrow || m2.Name != "a" {
		t.Fatalf("right member: arrow=%v name=%s", m2.Arrow, m2.Name)
	}
}

func TestTernaryAndCompoundAssign(t *testing.T) {
	prog := MustParse(`int f(int a) { a += a > 0 ? 1 : 2; a <<= 3; return a; }`)
	s0 := prog.Funcs[0].Body.Stmts[0].(*ast.ExprStmt)
	as := s0.X.(*ast.Assign)
	if as.Op != ast.Add {
		t.Fatalf("op = %v", as.Op)
	}
	if _, ok := as.RHS.(*ast.Cond); !ok {
		t.Fatalf("rhs = %T", as.RHS)
	}
	s1 := prog.Funcs[0].Body.Stmts[1].(*ast.ExprStmt)
	if s1.X.(*ast.Assign).Op != ast.Shl {
		t.Fatal("second assign not <<=")
	}
}

func TestSizeofAndLine(t *testing.T) {
	prog := MustParse(`long f() { return sizeof(int) + sizeof(char*) + __LINE__; }`)
	var sizeofs, lines int
	ast.WalkExprs(prog.Funcs[0].Body, func(e ast.Expr) {
		switch e.(type) {
		case *ast.SizeofExpr:
			sizeofs++
		case *ast.LineExpr:
			lines++
		}
	})
	if sizeofs != 2 || lines != 1 {
		t.Fatalf("sizeofs=%d lines=%d", sizeofs, lines)
	}
}

func TestStaticLocal(t *testing.T) {
	prog := MustParse(`char* f() { static char buf[16]; return buf; }`)
	ds := prog.Funcs[0].Body.Stmts[0].(*ast.DeclStmt)
	if ds.Decls[0].Storage != ast.Static {
		t.Fatal("buf should be static")
	}
}

func TestUnaryOperators(t *testing.T) {
	prog := MustParse(`int f(int x, int* p) { return -x + !x + ~x + *p + (&x == p) + x++ + ++x; }`)
	ops := map[ast.UnaryOp]int{}
	ast.WalkExprs(prog.Funcs[0].Body, func(e ast.Expr) {
		if u, ok := e.(*ast.Unary); ok {
			ops[u.Op]++
		}
	})
	for _, op := range []ast.UnaryOp{ast.Neg, ast.LogicalNot, ast.BitNot, ast.Deref, ast.AddrOf, ast.PostInc, ast.PreInc} {
		if ops[op] != 1 {
			t.Errorf("op %v count = %d, want 1", op, ops[op])
		}
	}
}

func TestSyntaxErrorsReported(t *testing.T) {
	cases := []string{
		"int f( { }",
		"int f() { return 1 }",
		"int f() { if x { } }",
		"struct { int x; };",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// Round trip: print(parse(src)) must reparse to a program that prints
// identically (a fixed point after one iteration).
func TestPrintRoundTrip(t *testing.T) {
	src := `
struct Pkt {
    int len;
    char data[16];
};
int counter;
char* label = "hi\n";
int sum(int a, int b) {
    return a + b;
}
int main() {
    struct Pkt p;
    p.len = sum(1, 2) * 3;
    int i = 0;
    for (int j = 0; j < 4; j++) {
        p.data[j] = (char)(j + 48);
        i += j > 1 ? j : -j;
    }
    while (i > 0) {
        i--;
        if (i == 2) { break; }
    }
    printf("%d %d\n", p.len, i);
    return 0;
}
`
	p1 := MustParse(src)
	out1 := ast.Print(p1)
	p2, err := Parse(out1)
	if err != nil {
		t.Fatalf("reparse failed: %v\nprinted:\n%s", err, out1)
	}
	out2 := ast.Print(p2)
	if out1 != out2 {
		t.Fatalf("print not a fixed point:\n--- first\n%s\n--- second\n%s", out1, out2)
	}
	if !strings.Contains(out1, "struct Pkt") {
		t.Fatal("printed output lost struct decl")
	}
}

func TestEvalOrderExampleParses(t *testing.T) {
	// The paper's Listing 3 shape: two calls with conflicting side
	// effects as arguments of the same call.
	MustParse(`
static char buffer[32];
char* get_str(int v) {
    buffer[0] = (char)(48 + v);
    buffer[1] = '\0';
    return buffer;
}
int main() {
    printf("who-is %s tell %s\n", get_str(1), get_str(2));
    return 0;
}
`)
}

// TestErrorTextBounded: each of the lexer and the parser records at
// most lexer.MaxErrors errors, so a mebibyte of illegal characters
// yields a few kilobytes of error text, not tens of megabytes.
func TestErrorTextBounded(t *testing.T) {
	_, err := Parse(strings.Repeat("@", 1<<20))
	if err == nil {
		t.Fatal("garbage source parsed")
	}
	if n := len(err.Error()); n > 8<<10 {
		t.Fatalf("error text is %d bytes, want at most 8 KiB", n)
	}
	if n := strings.Count(err.Error(), "\n") + 1; n > 2*lexer.MaxErrors {
		t.Fatalf("%d errors joined, want at most %d", n, 2*lexer.MaxErrors)
	}
}
