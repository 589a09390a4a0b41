package evolve

import (
	"math/rand"
	"reflect"
	"testing"

	"compdiff/internal/minic/ast"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
)

// TestMutateTreesMatchParse holds the trees Mutate keeps to the ones
// it used to re-derive: an offspring's tree is the parse of its source
// (struct types laid out by sema, as the gate shares them), its
// checked front end is sema's result for that source, and mutating
// never edits the parent's tree.
func TestMutateTreesMatchParse(t *testing.T) {
	pop := SeedPopulation(40, 6)
	rng := rand.New(rand.NewSource(9))
	children := 0
	for round := 0; round < 60; round++ {
		parent := pop[round%len(pop)]
		tree, err := parent.tree()
		if err != nil {
			t.Fatal(err)
		}
		before := ast.Print(tree)
		child, ok := Mutate(parent, rng, round+1)
		if got := ast.Print(parent.prog); parent.prog != tree || got != before {
			t.Fatalf("round %d: mutation edited the parent's tree", round)
		}
		if !ok {
			continue
		}
		children++
		fresh := parser.MustParse(child.Src)
		want := ast.CloneProgram(fresh)
		info := sema.MustCheck(fresh)
		if !reflect.DeepEqual(child.prog, want) {
			t.Fatalf("round %d: offspring tree differs from the parse of its source", round)
		}
		if child.Checked() == nil || !reflect.DeepEqual(child.Checked().Prog, info.Prog) {
			t.Fatalf("round %d: offspring's checked front end differs from sema's", round)
		}
		child.ReleaseChecked()
		if child.Checked() != nil {
			t.Fatal("ReleaseChecked kept the checked front end")
		}
		pop[round%len(pop)] = child
	}
	if children < 40 {
		t.Fatalf("only %d/60 mutations accepted", children)
	}
}
