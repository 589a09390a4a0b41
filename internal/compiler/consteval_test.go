package compiler

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"compdiff/internal/minic/ast"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
	"compdiff/internal/progen"
	"compdiff/internal/targets"
)

// evalConst is constant evaluation as it was before the per-program
// table: evalNode recursing into the operands from every node that
// asks.
func evalConst(e ast.Expr) (constVal, bool) { return evalNode(e, recursive{}) }

// recursive supplies operand values by evaluating them again.
type recursive struct{}

func (recursive) value(e ast.Expr) (constVal, bool) { return evalConst(e) }

// TestConstTableMatchesEvalConst: the constant table of a program
// holds evalConst's answer and Pos's line for every expression node,
// over the golden programs, every built-in target and progen seeds
// 1–120. It also holds sema's dense ids to their contract: every
// checked expression and statement has a distinct id, the ids cover
// 1..NumExprs (NumStmts), and each function's fall in its FuncIDs
// ranges.
func TestConstTableMatchesEvalConst(t *testing.T) {
	type program struct{ name, src string }
	var corpus []program
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.mc"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("golden corpus: %v (%d files)", err, len(paths))
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, program{"golden/" + filepath.Base(p), string(b)})
	}
	for _, tg := range targets.All() {
		corpus = append(corpus, program{"target/" + tg.Name, tg.Src})
	}
	for seed := int64(1); seed <= 120; seed++ {
		corpus = append(corpus, program{fmt.Sprintf("progen/%d", seed), progen.Generate(seed).Src})
	}
	var exprs, consts int
	for _, p := range corpus {
		prog, err := parser.Parse(p.src)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		info, err := sema.Check(prog)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		table := newConstTable(info)
		exprIDs, stmtIDs := map[int32]bool{}, map[int32]bool{}
		check := func(e ast.Expr, in sema.IDRange) {
			id := e.ID()
			if id < in.Lo || id >= in.Hi || exprIDs[id] {
				t.Fatalf("%s: expression %s has id %d, outside [%d, %d) or taken", p.name, ast.PrintExpr(e), id, in.Lo, in.Hi)
			}
			exprIDs[id] = true
			want, wantOK := evalConst(e)
			got, gotOK := table.value(e)
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s: table holds %+v (%v), evalConst %+v (%v)", p.name, ast.PrintExpr(e), got, gotOK, want, wantOK)
			}
			if got, want := table.line[id], int32(e.Pos().Line); got != want {
				t.Fatalf("%s: %s: table holds line %d, Pos line %d", p.name, ast.PrintExpr(e), got, want)
			}
			exprs++
			if wantOK {
				consts++
			}
		}
		all := sema.IDRange{Lo: 1, Hi: info.NumExprs + 1}
		for _, g := range info.Prog.Globals {
			if g.Init != nil {
				ast.WalkExpr(g.Init, func(e ast.Expr) { check(e, all) })
			}
		}
		for i, f := range info.Prog.Funcs {
			ids := info.FuncIDs[i]
			ast.WalkExprs(f.Body, func(e ast.Expr) { check(e, ids.Exprs) })
			ast.Walk(f.Body, func(s ast.Stmt) bool {
				if id := s.ID(); id < ids.Stmts.Lo || id >= ids.Stmts.Hi || stmtIDs[id] {
					t.Fatalf("%s: %s: statement id %d outside [%d, %d) or taken", p.name, f.Name, id, ids.Stmts.Lo, ids.Stmts.Hi)
				}
				stmtIDs[s.ID()] = true
				return true
			})
		}
		if len(exprIDs) != int(info.NumExprs) || len(stmtIDs) != int(info.NumStmts) {
			t.Fatalf("%s: walked %d expressions and %d statements, sema numbered %d and %d",
				p.name, len(exprIDs), len(stmtIDs), info.NumExprs, info.NumStmts)
		}
	}
	if consts == 0 || consts == exprs {
		t.Fatalf("%d of %d expressions constant: the corpus does not exercise the table", consts, exprs)
	}
	t.Logf("%d programs, %d expressions, %d constant", len(corpus), exprs, consts)
}
