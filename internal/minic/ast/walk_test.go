package ast_test

import (
	"sync"
	"testing"

	"compdiff/internal/minic/ast"
	"compdiff/internal/minic/parser"
)

// walkSrc holds every expression kind in the slots of every statement
// kind that has one: declarators with and without an initializer, an
// expression statement, if and while conditions, a for loop's init,
// condition and post, and a return value.
const walkSrc = `
struct S { int f; };
int main() {
  int a = 1, b[2];
  struct S s;
  b[a] = s.f + 2;
  if (a < 3) { a += -a; }
  while (!a) { a = (int)1.5; }
  for (int i = 0; i < 2; i++) { printf("%d", __LINE__); }
  return a ? sizeof(int) : 0;
}`

// visitOrder prints every expression EditExprs hands f, in order.
func visitOrder(body ast.Stmt, f func(ast.Expr) (ast.Expr, bool)) []string {
	var got []string
	ast.EditExprs(body, func(e ast.Expr) (ast.Expr, bool) {
		got = append(got, ast.PrintExpr(e))
		return f(e)
	})
	return got
}

func keep(e ast.Expr) (ast.Expr, bool) { return e, true }

func sameOrder(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("visited %d expressions, want %d:\n got %q\nwant %q", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("visit %d is %q, want %q:\n got %q\nwant %q", i, got[i], want[i], got, want)
		}
	}
}

// TestEditExprsOrder pins the one expression order: statements in
// Walk order (a for loop's condition and post before its init and
// body), operands left to right, an assignment's target before its
// value. WalkExprs and WalkExpr visit the same order.
func TestEditExprsOrder(t *testing.T) {
	body := parser.MustParse(walkSrc).Funcs[0].Body
	want := []string{
		"1",
		"b[a] = (s.f + 2)", "b[a]", "b", "a", "s.f + 2", "s.f", "s", "2",
		"a < 3", "a", "3",
		"a += (-a)", "a", "-a", "a",
		"!a", "a",
		"a = ((int)1.5)", "a", "(int)1.5", "1.5",
		"i < 2", "i", "2", "i++", "i",
		"0",
		`printf("%d", __LINE__)`, `"%d"`, "__LINE__",
		"a ? sizeof(int) : 0", "a", "sizeof(int)", "0",
	}
	sameOrder(t, visitOrder(body, keep), want)

	var walked []string
	ast.WalkExprs(body, func(e ast.Expr) { walked = append(walked, ast.PrintExpr(e)) })
	sameOrder(t, walked, want)

	assign := body.Stmts[2].(*ast.ExprStmt).X
	walked = walked[:0]
	ast.WalkExpr(assign, func(e ast.Expr) { walked = append(walked, ast.PrintExpr(e)) })
	sameOrder(t, walked, want[1:9])
	ast.WalkExpr(nil, func(ast.Expr) { t.Fatal("WalkExpr visited a nil expression") })
}

// TestEditExprPrunes: descend=false skips the operands of the
// expression f keeps, and the operands of a replaced expression are
// never visited; the replacement's are when f asks for them.
func TestEditExprPrunes(t *testing.T) {
	body := parser.MustParse(walkSrc).Funcs[0].Body
	got := visitOrder(body, func(e ast.Expr) (ast.Expr, bool) {
		_, isAssign := e.(*ast.Assign)
		return e, !isAssign
	})
	sameOrder(t, got, []string{
		"1", "b[a] = (s.f + 2)",
		"a < 3", "a", "3",
		"a += (-a)",
		"!a", "a",
		"a = ((int)1.5)",
		"i < 2", "i", "2", "i++", "i",
		"0",
		`printf("%d", __LINE__)`, `"%d"`, "__LINE__",
		"a ? sizeof(int) : 0", "a", "sizeof(int)", "0",
	})

	stmt := body.Stmts[2].(*ast.ExprStmt)
	sum := stmt.X.(*ast.Assign).RHS
	repl := &ast.Unary{Op: ast.Neg, X: &ast.Ident{Name: "z"}}
	var seen []string
	ast.EditExpr(&stmt.X, func(e ast.Expr) (ast.Expr, bool) {
		seen = append(seen, ast.PrintExpr(e))
		if e == sum {
			return repl, true
		}
		return e, true
	})
	sameOrder(t, seen, []string{"b[a] = (s.f + 2)", "b[a]", "b", "a", "s.f + 2", "z"})
	if got := ast.PrintExpr(stmt.X); got != "b[a] = (-z)" {
		t.Fatalf("edited assignment prints %q, want %q", got, "b[a] = (-z)")
	}
}

// TestEditExprsReadOnly: an f that replaces nothing leaves every node
// where it was, and because EditExprs then writes no slot, goroutines
// may walk one tree at once (run with -race).
func TestEditExprsReadOnly(t *testing.T) {
	prog := parser.MustParse(walkSrc)
	body := prog.Funcs[0].Body
	before := collectNodes(prog)
	text := ast.Print(prog)
	want := visitOrder(body, keep)

	var wg sync.WaitGroup
	counts := make([]int, 4)
	for g := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 8 {
				ast.EditExprs(body, func(e ast.Expr) (ast.Expr, bool) {
					counts[g]++
					return e, true
				})
			}
		}()
	}
	wg.Wait()
	for g, n := range counts {
		if n != 8*len(want) {
			t.Errorf("goroutine %d visited %d expressions, want %d", g, n, 8*len(want))
		}
	}
	after := collectNodes(prog)
	if len(after) != len(before) {
		t.Fatalf("tree holds %d nodes after the walks, %d before", len(after), len(before))
	}
	for n := range before {
		if !after[n] {
			t.Fatalf("node %T left the tree", n)
		}
	}
	if got := ast.Print(prog); got != text {
		t.Fatalf("tree prints differently after the walks:\n%s\nwant\n%s", got, text)
	}
}
