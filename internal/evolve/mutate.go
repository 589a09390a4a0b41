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
	"sync"

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

// idiom is a parsed template block and the names its declarations
// introduce, in the order a splice renames them.
type idiom struct {
	block ast.Stmt
	decls []string
}

// idioms returns idiomTemplates parsed, parsing them on first use so
// that a process that never mutates holds none of them.
var idioms = sync.OnceValue(func() []idiom {
	out := make([]idiom, len(idiomTemplates))
	for i, tmpl := range idiomTemplates {
		prog := parser.MustParse("int main() { " + tmpl + " }")
		out[i].block = prog.Funcs[0].Body.Stmts[0]
		seen := map[string]bool{}
		ast.Walk(out[i].block, func(s ast.Stmt) bool {
			if ds, ok := s.(*ast.DeclStmt); ok {
				for _, d := range ds.Decls {
					if !seen[d.Name] {
						seen[d.Name] = true
						out[i].decls = append(out[i].decls, d.Name)
					}
				}
			}
			return true
		})
	}
	return out
})

// Operators, as an edit records them.
const (
	opIdiom = iota
	opOutline
	opCloneDecl
	opWiden
)

// maxTries bounds the operators Mutate draws for one offspring.
const maxTries = 4

// edit is one mutation as drawn against a parent's tree: the operator
// and every choice it made. Applying it to a clone of that tree
// consumes no randomness, so edits drawn in order can be applied and
// gated in any order, on any goroutine.
type edit struct {
	op int // opIdiom, opOutline, opCloneDecl or opWiden
	// index is the template (idiom), the k-th outlinable literal
	// (outline, widen) or the declaration site (clone).
	index int
	// pos is the idiom's insertion point in main's body.
	pos int
	// names are the fresh names: the template's declarations in order,
	// or the one new local.
	names []string
}

// mutator draws the edits of one offspring: the RNG stream, a
// fresh-name allocator over every identifier the parent's program
// already uses (read-only: the allocator's sequence never repeats a
// name), and the tries made so far.
type mutator struct {
	rng   *rand.Rand
	used  map[string]bool
	seq   int
	tries int
}

func (m *mutator) fresh() string {
	for {
		m.seq++
		name := fmt.Sprintf("ev%d", m.seq)
		if !m.used[name] {
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

// Mutate derives one offspring from parent: draw one random operator
// against the parent's tree, apply it to a clone, print, and gate
// through parse+sema. Up to a few attempts are made before giving up
// (ok=false) — the caller keeps the parent in that case. The returned
// genome's source is the canonical reprint, so equal programs always
// hash equal. The gate's parse is the child's: a clone taken before
// sema becomes its unchecked tree, and sema's result its Checked front
// end.
func Mutate(parent *Genome, rng *rand.Rand, gen int) (*Genome, bool) {
	prog, m, err := newMutator(parent, rng)
	if err != nil {
		return nil, false
	}
	for {
		e, ok := m.next(prog)
		if !ok {
			return nil, false
		}
		if child, ok := breed(parent, prog, e, gen); ok {
			return child, true
		}
	}
}

// newMutator returns parent's tree and a mutator for one offspring of
// it. It parses the tree and collects its names on first use, so it
// edits parent and must not run concurrently with anything reading it.
func newMutator(parent *Genome, rng *rand.Rand) (*ast.Program, *mutator, error) {
	prog, err := parent.tree()
	if err != nil {
		return nil, nil, err
	}
	if parent.used == nil {
		parent.used = usedNames(prog)
	}
	return prog, &mutator{rng: rng, used: parent.used}, nil
}

// next draws operators until one applies to prog, within Mutate's
// budget of tries; false when the budget is spent.
func (m *mutator) next(prog *ast.Program) (edit, bool) {
	for m.tries < maxTries {
		m.tries++
		if e, ok := m.draw(prog); ok {
			return e, true
		}
	}
	return edit{}, false
}

// breed applies e to a clone of the parent's tree prog and gates the
// result: print, parse, clone the parse as the child's tree, sema. It
// reads prog and parent without editing them and draws no randomness.
// The child's used names are collected here, for when it is a parent.
func breed(parent *Genome, prog *ast.Program, e edit, gen int) (*Genome, bool) {
	work := ast.CloneProgram(prog)
	if !e.apply(work) {
		return nil, false
	}
	src := ast.Print(work)
	reparsed, err := parser.Parse(src)
	if err != nil {
		return nil, false
	}
	tree := ast.CloneProgram(reparsed)
	info, err := sema.Check(reparsed)
	if err != nil {
		return nil, false
	}
	return &Genome{Src: src, Seed: parent.Seed, Gen: gen, Ops: parent.Ops + 1,
		prog: tree, checked: info, used: usedNames(tree)}, true
}

// draw chooses one operator and its choices against prog, which it
// only reads. Idiom insertion is weighted heavily: it is the operator
// that reaches new pass coverage; the rest maintain structural
// diversity. False means the operator does not apply to prog; the
// draws made so far still count.
func (m *mutator) draw(prog *ast.Program) (edit, bool) {
	main := mainOf(prog)
	if main == nil {
		return edit{}, false
	}
	switch m.rng.Intn(6) {
	case 0, 1, 2:
		// Insert a renamed idiom at a random position of main's body —
		// the inverse of drop-stmt.
		t := m.rng.Intn(len(idiomTemplates))
		names := make([]string, len(idioms()[t].decls))
		for i := range names {
			names[i] = m.fresh()
		}
		pos := m.rng.Intn(len(main.Body.Stmts) + 1)
		return edit{op: opIdiom, index: t, pos: pos, names: names}, true
	case 3:
		lits := countExprs(main.Body, isOutlinable)
		if lits == 0 {
			return edit{}, false
		}
		k := m.rng.Intn(lits)
		return edit{op: opOutline, index: k, names: []string{m.fresh()}}, true
	case 4:
		sites := declSites(main)
		if len(sites) == 0 {
			return edit{}, false
		}
		k := m.rng.Intn(len(sites))
		return edit{op: opCloneDecl, index: k, names: []string{m.fresh()}}, true
	default:
		lits := countExprs(main.Body, isOutlinable)
		if lits == 0 {
			return edit{}, false
		}
		return edit{op: opWiden, index: m.rng.Intn(lits)}, true
	}
}

// apply performs e on p, a clone of the tree it was drawn against.
func (e edit) apply(p *ast.Program) bool {
	main := mainOf(p)
	switch e.op {
	case opIdiom:
		block := instantiate(idioms()[e.index], e.names)
		stmts := main.Body.Stmts
		main.Body.Stmts = append(stmts[:e.pos:e.pos], append([]ast.Stmt{block}, stmts[e.pos:]...)...)
		return true
	case opOutline:
		return outlineExpr(main, e.index, e.names[0])
	case opCloneDecl:
		cloneDecl(main, e.index, e.names[0])
		return true
	default:
		widenExpr(main, e.index)
		return true
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

// instantiate clones an idiom's block with its declared names renamed
// to names, in order. Names the template does not declare (printf) are
// left alone.
func instantiate(id idiom, names []string) ast.Stmt {
	block := ast.CloneStmt(id.block)
	rename := make(map[string]string, len(names))
	for i, from := range id.decls {
		rename[from] = names[i]
	}
	ast.Walk(block, func(s ast.Stmt) bool {
		if ds, ok := s.(*ast.DeclStmt); ok {
			for _, d := range ds.Decls {
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

// outlineExpr hoists the k-th outlinable integer literal into a local
// named name, declared at the top of main, and replaces the literal
// with a read of it — the inverse of inline-local. Literals inside
// static initializers fail sema afterwards and are rejected by the
// gate, which is the intended filter.
func outlineExpr(main *ast.FuncDecl, k int, name string) bool {
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
	decl := parseDecl(fmt.Sprintf("int %s = %d;", name, value))
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
func parseDecl(src string) ast.Stmt {
	prog, err := parser.Parse("int main() { " + src + " }")
	if err != nil || len(prog.Funcs) == 0 || len(prog.Funcs[0].Body.Stmts) != 1 {
		return nil
	}
	return prog.Funcs[0].Body.Stmts[0]
}

// declSite is an initialized auto local: the block holding it, its
// statement there, and its place in that statement.
type declSite struct {
	block *ast.BlockStmt
	stmt  int
	decl  int
}

// declSites lists main's initialized auto locals in walk order.
func declSites(main *ast.FuncDecl) []declSite {
	var sites []declSite
	ast.Walk(main.Body, func(s ast.Stmt) bool {
		b, ok := s.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, st := range b.Stmts {
			if ds, ok := st.(*ast.DeclStmt); ok {
				for di, d := range ds.Decls {
					if d.Storage == ast.Auto && d.Init != nil {
						sites = append(sites, declSite{b, i, di})
					}
				}
			}
		}
		return true
	})
	return sites
}

// cloneDecl duplicates the k-th initialized auto local under name,
// right after the original — the inverse of drop-toplevel/drop-stmt
// on declarations.
func cloneDecl(main *ast.FuncDecl, k int, name string) {
	s := declSites(main)[k]
	orig := s.block.Stmts[s.stmt].(*ast.DeclStmt).Decls[s.decl]
	dup := ast.CloneVarDecl(orig)
	dup.Name = name
	ins := &ast.DeclStmt{Decls: []*ast.VarDecl{dup}}
	stmts := s.block.Stmts
	pos := s.stmt + 1
	s.block.Stmts = append(stmts[:pos:pos], append([]ast.Stmt{ins}, stmts[pos:]...)...)
}

// widenExpr grows the k-th outlinable integer literal read into
// `(lit + 0)` — the inverse of simplify-expr's operand collapse.
// Semantically inert, structurally diversifying, and a seed for later
// folds.
func widenExpr(main *ast.FuncDecl, k int) {
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
// It writes only where f replaces a node, so with an f that replaces
// nothing it only reads the tree. The evolve-local analogue of
// triage's mapStmtExprs.
func mapBodyExprs(s ast.Stmt, f func(ast.Expr) ast.Expr) {
	ast.Walk(s, func(st ast.Stmt) bool {
		switch st := st.(type) {
		case *ast.DeclStmt:
			for _, d := range st.Decls {
				remap(&d.Init, f)
			}
		case *ast.ExprStmt:
			remap(&st.X, f)
		case *ast.IfStmt:
			remap(&st.Cond, f)
		case *ast.WhileStmt:
			remap(&st.Cond, f)
		case *ast.ForStmt:
			remap(&st.Cond, f)
			remap(&st.Post, f)
		case *ast.ReturnStmt:
			remap(&st.Value, f)
		}
		return true
	})
}

// remap rewrites the expression at slot through f, storing the result
// only when it differs.
func remap(slot *ast.Expr, f func(ast.Expr) ast.Expr) {
	if *slot == nil {
		return
	}
	if r := mapExpr(*slot, f); r != *slot {
		*slot = r
	}
}

func mapExpr(e ast.Expr, f func(ast.Expr) ast.Expr) ast.Expr {
	if r := f(e); r != e {
		return r
	}
	switch e := e.(type) {
	case *ast.Unary:
		remap(&e.X, f)
	case *ast.Binary:
		remap(&e.X, f)
		remap(&e.Y, f)
	case *ast.Assign:
		// Only the RHS: wrapping an lvalue breaks assignability.
		remap(&e.RHS, f)
	case *ast.Cond:
		remap(&e.C, f)
		remap(&e.X, f)
		remap(&e.Y, f)
	case *ast.Call:
		for i := range e.Args {
			remap(&e.Args[i], f)
		}
	case *ast.Index:
		remap(&e.X, f)
		remap(&e.Idx, f)
	case *ast.Member:
		remap(&e.X, f)
	case *ast.CastExpr:
		remap(&e.X, f)
	}
	return e
}
