package evolve

// Mutation operators. Each is the inverse of a triage reduction pass
// (internal/triage/passes.go): where reduction deletes statements,
// inlines locals, and collapses expressions to shrink a reproducer,
// mutation inserts statements, outlines expressions into fresh
// locals, clones declarations, and widens expressions to grow the
// population toward the optimizer idioms the unstable-code rewrites
// key on. Every offspring is gated: the mutated AST is printed,
// re-parsed, and re-checked, and only a candidate the shared front
// end accepts becomes a genome — an offspring can be useless, never
// invalid.

import (
	"fmt"
	"math/rand"

	"compdiff/internal/minic/ast"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
)

// idiomTemplates are self-contained braced blocks, each built to fire
// one of the instrumented optimizer passes (compiler.PassBits) when
// spliced into a program — the shapes matchOverflowCheck,
// matchNullCheck, the dead-load rule, the multiply widener, and the
// FMA contractor recognize. The first three are deliberately
// *unstable code* in the paper's sense: implementations that apply
// the rewrite and implementations that don't produce observably
// different programs, so inserting them steers the campaign straight
// at the divergence oracles. Every declared name is renamed fresh at
// splice time, so a template never captures or shadows program state.
var idiomTemplates = []string{
	// Signed-overflow guard: folding implementations (the rewrite the
	// paper's Figure 1 is about) decide the guard is always false and
	// drop the print; wrapping implementations print. Fires
	// PassFoldOverflow and diverges at runtime.
	`{ int ua = 2147483600; if (((ua + 99) < ua)) { printf("ovf\n"); } }`,
	// Deref-then-null-check: the deref lets the optimizer assume the
	// pointer is non-null and fold the check. Fires PassFoldNull;
	// behavior stays defined (the pointer really is non-null).
	`{ int ua = 7; int* ub = &ua; int uc = *ub; if ((ub == 0)) { uc = 0; } ua = ua + uc; }`,
	// Dead null load: eliminated as dead at O1+, crashes at O0. Fires
	// PassDeadLoad and diverges (crash class vs ok).
	`{ int* ua = 0; *ua; }`,
	// Wrapping multiply under a widening cast: implementations that
	// widen the multiply into long keep the full product, the rest
	// wrap at int. Fires PassWidenMul and diverges.
	`{ int ua = 100000; long ub = (long)(ua * ua); printf("%ld\n", ub); }`,
	// Float multiply-add in contraction shape. Fires PassContractFMA;
	// exact in these operands, so defined and stable.
	`{ double ua = 1.5; double ub = 2.5; double uc = 3.5; int ud = (int)(ua * ub + uc); if (ud > 100) { printf("fma\n"); } }`,
	// Constant arithmetic: the benign filler idiom. Fires
	// PassConstFold only.
	`{ int ua = (3 + 4); ua = ua + 1; }`,
}

// mutator carries the per-offspring state: the RNG stream and a
// fresh-name allocator seeded with every identifier already used by
// the program, so spliced code can never collide or capture.
type mutator struct {
	rng  *rand.Rand
	used map[string]bool
	seq  int
}

func (m *mutator) fresh() string {
	for {
		m.seq++
		name := fmt.Sprintf("ev%d", m.seq)
		if !m.used[name] {
			m.used[name] = true
			return name
		}
	}
}

// usedNames collects every identifier the program mentions —
// declarations and uses — so fresh names are guaranteed collision-free.
func usedNames(p *ast.Program) map[string]bool {
	used := map[string]bool{}
	for _, s := range p.Structs {
		used[s.Name] = true
	}
	for _, g := range p.Globals {
		used[g.Name] = true
	}
	note := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			used[id.Name] = true
		}
	}
	for _, f := range p.Funcs {
		used[f.Name] = true
		for _, prm := range f.Params {
			used[prm.Name] = true
		}
		ast.Walk(f.Body, func(s ast.Stmt) bool {
			if ds, ok := s.(*ast.DeclStmt); ok {
				for _, d := range ds.Decls {
					used[d.Name] = true
				}
			}
			return true
		})
		ast.WalkExprs(f.Body, note)
	}
	return used
}

// Mutate derives one offspring from parent: apply one random operator
// to a clone of the parent's tree, print, and gate through parse+sema.
// Up to a few attempts are made before giving up (ok=false) — the
// caller keeps the parent in that case. The returned genome's source
// is the canonical reprint, so equal programs always hash equal. The
// gate's parse is the child's: a clone taken before sema becomes its
// unchecked tree, and sema's result its Checked front end.
func Mutate(parent *Genome, rng *rand.Rand, gen int) (*Genome, bool) {
	prog, err := parent.tree()
	if err != nil {
		return nil, false
	}
	m := &mutator{rng: rng, used: usedNames(prog)}
	for try := 0; try < 4; try++ {
		work := ast.CloneProgram(prog)
		if !m.apply(work) {
			continue
		}
		src := ast.Print(work)
		reparsed, err := parser.Parse(src)
		if err != nil {
			continue
		}
		tree := ast.CloneProgram(reparsed)
		info, err := sema.Check(reparsed)
		if err != nil {
			continue
		}
		return &Genome{Src: src, Seed: parent.Seed, Gen: gen, Ops: parent.Ops + 1,
			prog: tree, checked: info}, true
	}
	return nil, false
}

// apply runs one randomly chosen operator in place. Idiom insertion
// is weighted heavily: it is the operator that reaches new pass
// coverage; the rest maintain structural diversity.
func (m *mutator) apply(p *ast.Program) bool {
	main := mainOf(p)
	if main == nil {
		return false
	}
	switch m.rng.Intn(6) {
	case 0, 1, 2:
		return m.insertIdiom(main)
	case 3:
		return m.outlineExpr(main)
	case 4:
		return m.cloneDecl(main)
	default:
		return m.widenExpr(main)
	}
}

func mainOf(p *ast.Program) *ast.FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == "main" {
			return f
		}
	}
	return nil
}

// insertIdiom splices one renamed idiom template block at a random
// position in main's body — the inverse of drop-stmt.
func (m *mutator) insertIdiom(main *ast.FuncDecl) bool {
	tmpl := idiomTemplates[m.rng.Intn(len(idiomTemplates))]
	block := m.parseTemplate(tmpl)
	if block == nil {
		return false
	}
	stmts := main.Body.Stmts
	pos := m.rng.Intn(len(stmts) + 1)
	main.Body.Stmts = append(stmts[:pos:pos], append([]ast.Stmt{block}, stmts[pos:]...)...)
	return true
}

// parseTemplate parses a braced template block and renames every name
// it declares to a fresh one. Names the template does not declare
// (printf) are left alone.
func (m *mutator) parseTemplate(tmpl string) ast.Stmt {
	prog, err := parser.Parse("int main() { " + tmpl + " }")
	if err != nil || len(prog.Funcs) == 0 || len(prog.Funcs[0].Body.Stmts) != 1 {
		return nil
	}
	block := prog.Funcs[0].Body.Stmts[0]
	rename := map[string]string{}
	ast.Walk(block, func(s ast.Stmt) bool {
		if ds, ok := s.(*ast.DeclStmt); ok {
			for _, d := range ds.Decls {
				if _, done := rename[d.Name]; !done {
					rename[d.Name] = m.fresh()
				}
				d.Name = rename[d.Name]
			}
		}
		return true
	})
	ast.WalkExprs(block, func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if to, ok := rename[id.Name]; ok {
				id.Name = to
			}
		}
	})
	return block
}

// outlineExpr hoists one integer literal into a fresh local declared
// at the top of main and replaces the literal with a read of it — the
// inverse of inline-local. Literals inside static initializers fail
// sema afterwards and are rejected by the gate, which is the intended
// filter.
func (m *mutator) outlineExpr(main *ast.FuncDecl) bool {
	lits := countExprs(main.Body, isOutlinable)
	if lits == 0 {
		return false
	}
	k := m.rng.Intn(lits)
	name := m.fresh()
	var value int64
	found := false
	mapBodyExprs(main.Body, func(e ast.Expr) ast.Expr {
		if found || !isOutlinable(e) {
			return e
		}
		if k > 0 {
			k--
			return e
		}
		found = true
		value = e.(*ast.IntLit).Value
		return &ast.Ident{Name: name}
	})
	if !found {
		return false
	}
	decl := m.parseDecl(fmt.Sprintf("int %s = %d;", name, value))
	if decl == nil {
		return false
	}
	main.Body.Stmts = append([]ast.Stmt{decl}, main.Body.Stmts...)
	return true
}

func isOutlinable(e ast.Expr) bool {
	lit, ok := e.(*ast.IntLit)
	return ok && lit.Value > 1
}

// parseDecl parses one declaration statement.
func (m *mutator) parseDecl(src string) ast.Stmt {
	prog, err := parser.Parse("int main() { " + src + " }")
	if err != nil || len(prog.Funcs) == 0 || len(prog.Funcs[0].Body.Stmts) != 1 {
		return nil
	}
	return prog.Funcs[0].Body.Stmts[0]
}

// cloneDecl duplicates one initialized auto local under a fresh name,
// right after the original — the inverse of drop-toplevel/drop-stmt
// on declarations.
func (m *mutator) cloneDecl(main *ast.FuncDecl) bool {
	type site struct {
		block *ast.BlockStmt
		stmt  int
		decl  int
	}
	var sites []site
	ast.Walk(main.Body, func(s ast.Stmt) bool {
		b, ok := s.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, st := range b.Stmts {
			if ds, ok := st.(*ast.DeclStmt); ok {
				for di, d := range ds.Decls {
					if d.Storage == ast.Auto && d.Init != nil {
						sites = append(sites, site{b, i, di})
					}
				}
			}
		}
		return true
	})
	if len(sites) == 0 {
		return false
	}
	s := sites[m.rng.Intn(len(sites))]
	orig := s.block.Stmts[s.stmt].(*ast.DeclStmt).Decls[s.decl]
	dup := ast.CloneVarDecl(orig)
	dup.Name = m.fresh()
	ins := &ast.DeclStmt{Decls: []*ast.VarDecl{dup}}
	stmts := s.block.Stmts
	pos := s.stmt + 1
	s.block.Stmts = append(stmts[:pos:pos], append([]ast.Stmt{ins}, stmts[pos:]...)...)
	return true
}

// widenExpr grows one integer literal read into `(lit + 0)` — the
// inverse of simplify-expr's operand collapse. Semantically inert,
// structurally diversifying, and a seed for later folds.
func (m *mutator) widenExpr(main *ast.FuncDecl) bool {
	lits := countExprs(main.Body, isOutlinable)
	if lits == 0 {
		return false
	}
	k := m.rng.Intn(lits)
	found := false
	mapBodyExprs(main.Body, func(e ast.Expr) ast.Expr {
		if found || !isOutlinable(e) {
			return e
		}
		if k > 0 {
			k--
			return e
		}
		found = true
		return &ast.Binary{Op: ast.Add, X: e, Y: &ast.IntLit{Value: 0}}
	})
	return found
}

// countExprs counts expression nodes matching pred using the same
// traversal mapBodyExprs rewrites with, so an index drawn against the
// count addresses exactly one node of a later mapBodyExprs pass.
func countExprs(body ast.Stmt, pred func(ast.Expr) bool) int {
	n := 0
	mapBodyExprs(body, func(e ast.Expr) ast.Expr {
		if pred(e) {
			n++
		}
		return e
	})
	return n
}

// mapBodyExprs rewrites every expression held by the statement tree
// through f, pre-order; children of a replaced node are not visited.
// The evolve-local analogue of triage's mapStmtExprs.
func mapBodyExprs(s ast.Stmt, f func(ast.Expr) ast.Expr) {
	ast.Walk(s, func(st ast.Stmt) bool {
		switch st := st.(type) {
		case *ast.DeclStmt:
			for _, d := range st.Decls {
				if d.Init != nil {
					d.Init = mapExpr(d.Init, f)
				}
			}
		case *ast.ExprStmt:
			st.X = mapExpr(st.X, f)
		case *ast.IfStmt:
			st.Cond = mapExpr(st.Cond, f)
		case *ast.WhileStmt:
			st.Cond = mapExpr(st.Cond, f)
		case *ast.ForStmt:
			if st.Cond != nil {
				st.Cond = mapExpr(st.Cond, f)
			}
			if st.Post != nil {
				st.Post = mapExpr(st.Post, f)
			}
		case *ast.ReturnStmt:
			if st.Value != nil {
				st.Value = mapExpr(st.Value, f)
			}
		}
		return true
	})
}

func mapExpr(e ast.Expr, f func(ast.Expr) ast.Expr) ast.Expr {
	if e == nil {
		return nil
	}
	if r := f(e); r != e {
		return r
	}
	switch e := e.(type) {
	case *ast.Unary:
		e.X = mapExpr(e.X, f)
	case *ast.Binary:
		e.X = mapExpr(e.X, f)
		e.Y = mapExpr(e.Y, f)
	case *ast.Assign:
		// Only the RHS: wrapping an lvalue breaks assignability.
		e.RHS = mapExpr(e.RHS, f)
	case *ast.Cond:
		e.C = mapExpr(e.C, f)
		e.X = mapExpr(e.X, f)
		e.Y = mapExpr(e.Y, f)
	case *ast.Call:
		for i := range e.Args {
			e.Args[i] = mapExpr(e.Args[i], f)
		}
	case *ast.Index:
		e.X = mapExpr(e.X, f)
		e.Idx = mapExpr(e.Idx, f)
	case *ast.Member:
		e.X = mapExpr(e.X, f)
	case *ast.CastExpr:
		e.X = mapExpr(e.X, f)
	}
	return e
}
