package evolve

import (
	"math/rand"
	"testing"

	"compdiff/internal/compiler"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
)

// valid reports whether src passes the shared front end.
func valid(src string) bool {
	p, err := parser.Parse(src)
	if err != nil {
		return false
	}
	_, err = sema.Check(p)
	return err == nil
}

func TestSeedPopulationValid(t *testing.T) {
	pop := SeedPopulation(42, 8)
	if len(pop) != 8 {
		t.Fatalf("population size %d, want 8", len(pop))
	}
	for i, g := range pop {
		if !valid(g.Src) {
			t.Fatalf("founder %d (seed %d) fails the front end", i, g.Seed)
		}
		if g.Gen != 0 || g.Ops != 0 {
			t.Fatalf("founder %d has lineage %d/%d, want 0/0", i, g.Gen, g.Ops)
		}
	}
}

func TestMutateOffspringAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	parent := SeedPopulation(1, 1)[0]
	accepted := 0
	for i := 0; i < 60; i++ {
		child, ok := Mutate(parent, rng, 1)
		if !ok {
			continue
		}
		accepted++
		if !valid(child.Src) {
			t.Fatalf("accepted offspring %d fails the front end:\n%s", i, child.Src)
		}
		if child.Ops != parent.Ops+1 || child.Seed != parent.Seed {
			t.Fatalf("offspring lineage Ops=%d Seed=%d, want %d/%d",
				child.Ops, child.Seed, parent.Ops+1, parent.Seed)
		}
		parent = child // walk the chain: mutations compose
	}
	if accepted < 40 {
		t.Fatalf("only %d/60 mutations accepted; the gate is rejecting too much", accepted)
	}
}

// TestIdiomTemplatesCoverAllPasses pins the point of the idiom set:
// spliced into a program and compiled across the default
// implementation set, the templates reach every instrumented
// optimizer pass — coverage blind progen sampling cannot reach (it is
// UB-free by construction and never emits these shapes).
func TestIdiomTemplatesCoverAllPasses(t *testing.T) {
	var union compiler.PassBits
	for ti, tmpl := range idiomTemplates {
		src := "int main() { " + tmpl + " return 0; }"
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("template %d does not parse: %v", ti, err)
		}
		info, err := sema.Check(prog)
		if err != nil {
			t.Fatalf("template %d fails sema: %v", ti, err)
		}
		for _, cfg := range compiler.DefaultSet() {
			union |= compiler.CompileGuarded(info, cfg).PassBits
		}
	}
	for i := 0; i < compiler.NumPassKinds; i++ {
		if union&(1<<i) == 0 {
			t.Errorf("no template fires pass %s", compiler.PassName(i))
		}
	}
}

func TestFitnessOrdering(t *testing.T) {
	g := &Genome{Src: "int main() { return 0; }"}
	base := Fitness(g, Eval{}, Options{})
	bits := Fitness(g, Eval{ImplBits: []compiler.PassBits{compiler.PassConstFold, 0}}, Options{})
	if bits <= base {
		t.Fatalf("firing a pass did not raise fitness: %v <= %v", bits, base)
	}
	finding := Fitness(g, Eval{Findings: 1}, Options{})
	if finding <= bits {
		t.Fatalf("a finding did not outrank coverage: %v <= %v", finding, bits)
	}
	bucket := Fitness(g, Eval{Findings: 1, NewBuckets: 1}, Options{})
	if bucket <= finding {
		t.Fatalf("a new bucket did not outrank a duplicate finding: %v <= %v", bucket, finding)
	}
	reject := Fitness(g, Eval{FrontendReject: true, NewBuckets: 3}, Options{})
	if reject >= base {
		t.Fatalf("a front-end reject scored %v, above the empty eval %v", reject, base)
	}
	// Disagreement (divergence proximity) beats uniform coverage of
	// the same bit.
	uniform := Fitness(g, Eval{ImplBits: []compiler.PassBits{compiler.PassFoldNull, compiler.PassFoldNull}}, Options{})
	split := Fitness(g, Eval{ImplBits: []compiler.PassBits{compiler.PassFoldNull, 0}}, Options{})
	if split <= uniform {
		t.Fatalf("a partitioning pass did not outrank a uniform one: %v <= %v", split, uniform)
	}
}

func TestParsimonyPenalizesDrift(t *testing.T) {
	onTarget := Fitness(&Genome{Src: string(make([]byte, targetLen))}, Eval{}, Options{})
	if big := Fitness(&Genome{Src: string(make([]byte, targetLen+1<<16))}, Eval{}, Options{}); big >= onTarget {
		t.Fatal("a 64KiB-oversized genome was not penalized against an on-target one")
	}
	if small := Fitness(&Genome{Src: "int main() { return 0; }"}, Eval{}, Options{}); small >= onTarget {
		t.Fatal("a 24-byte genome was not penalized against an on-target one")
	}
}

func TestNextGenerationDeterministic(t *testing.T) {
	pop := SeedPopulation(5, 10)
	fits := make([]float64, len(pop))
	for i := range fits {
		fits[i] = float64(i % 4)
	}
	a := NextGeneration(pop, fits, 0, Options{Seed: 99})
	b := NextGeneration(pop, fits, 0, Options{Seed: 99})
	if Signature(a) != Signature(b) {
		t.Fatal("two NextGeneration calls with equal inputs produced different populations")
	}
	if len(a) != len(pop) {
		t.Fatalf("population size changed: %d -> %d", len(pop), len(a))
	}
	for i, g := range a {
		if !valid(g.Src) {
			t.Fatalf("next-generation genome %d fails the front end", i)
		}
	}
	c := NextGeneration(pop, fits, 0, Options{Seed: 100})
	if Signature(a) == Signature(c) {
		t.Fatal("different seeds produced identical generations (RNG not seed-derived?)")
	}
}

func TestSignatureOrderIndependent(t *testing.T) {
	pop := SeedPopulation(3, 6)
	rev := make([]*Genome, len(pop))
	for i, g := range pop {
		rev[len(pop)-1-i] = g
	}
	if Signature(pop) != Signature(rev) {
		t.Fatal("signature depends on population order")
	}
	if Signature(pop) == Signature(pop[:5]) {
		t.Fatal("signature ignores a dropped genome")
	}
}

// FuzzEvolveMutate is the gate property under adversarial RNG streams
// and parent choice: an accepted offspring always parses and passes
// sema (so rejected candidates can never enter a population), and the
// mutation is deterministic in its RNG seed.
func FuzzEvolveMutate(f *testing.F) {
	f.Add(int64(1), int64(2))
	f.Add(int64(-7), int64(0))
	f.Add(int64(1<<40), int64(99))
	f.Fuzz(func(t *testing.T, progenSeed, rngSeed int64) {
		parent := &Genome{Src: SeedPopulation(progenSeed, 1)[0].Src, Seed: progenSeed}
		child, ok := Mutate(parent, rand.New(rand.NewSource(rngSeed)), 1)
		child2, ok2 := Mutate(parent, rand.New(rand.NewSource(rngSeed)), 1)
		if ok != ok2 || (ok && child.Src != child2.Src) {
			t.Fatal("Mutate is not deterministic in its RNG seed")
		}
		if !ok {
			return
		}
		if !valid(child.Src) {
			t.Fatalf("accepted offspring fails the front end:\n%s", child.Src)
		}
	})
}
