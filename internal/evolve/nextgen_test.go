package evolve

import (
	"fmt"
	"runtime"
	"testing"

	"compdiff/internal/hash"
)

// serialNextGeneration is NextGeneration as it was before breeding
// moved off the calling goroutine: one generation RNG, and Mutate for
// each offspring slot in turn.
func serialNextGeneration(pop []*Genome, fits []float64, gen int, opts Options) []*Genome {
	r := genRNG(opts.Seed, gen)
	next := make([]*Genome, 0, len(pop))
	for range pop {
		parent := pop[tournament(r, fits)]
		if child, ok := Mutate(parent, r, gen+1); ok {
			next = append(next, child)
		} else {
			next = append(next, parent)
		}
	}
	return next
}

// gateFailingSrc is a program whose main holds literals in static
// initializers: outlining one of them fails sema, so a good share of
// its offspring's first edits fail the gate.
func gateFailingSrc(k int) string {
	return fmt.Sprintf(`int g = %d;
int main() {
    static int s = 7;
    static int t = %d;
    static int u = 11;
    static int v = 13;
    int a = 3;
    a = a + s + t + u + v + g;
    printf("%%d\n", a);
    return 0;
}
`, 40+k, 9+k)
}

// fitsOf is a fitness that depends on the sources alone, so both sides
// of a comparison rank alike: parsimony plus a hashed jitter.
func fitsOf(pop []*Genome, gen int, opts Options) []float64 {
	fits := make([]float64, len(pop))
	for i, g := range pop {
		h, _ := hash.Sum128([]byte(g.Src), uint32(gen))
		fits[i] = Fitness(g, Eval{}, opts) + float64(h%7)
	}
	return fits
}

// gateFailures counts the slots of one generation whose first edit
// fails the gate, over the first-pass draws.
func gateFailures(pop []*Genome, fits []float64, gen int, opts Options) int {
	r := genRNG(opts.Seed, gen)
	n := 0
	for range pop {
		s := drawSlot(r, pop, fits)
		if _, ok := breed(s.parent, s.prog, s.edit, gen+1); s.ok && !ok {
			n++
		}
	}
	return n
}

// TestNextGenerationMatchesSerial holds NextGeneration to the serial
// loop it replaced, slot by slot, at one and at four goroutines: on
// progen populations, where the gate passes nearly every edit, and on
// populations seeded with programs whose edits often fail it, so the
// serial replay from the first failing slot runs in most generations.
func TestNextGenerationMatchesSerial(t *testing.T) {
	founders := map[string]func() []*Genome{
		"progen": func() []*Genome { return SeedPopulation(300, 16) },
		"gate-failing": func() []*Genome {
			pop := make([]*Genome, 16)
			for i := range pop {
				pop[i] = &Genome{Src: gateFailingSrc(i), Seed: int64(i)}
			}
			return pop
		},
	}
	optsSet := []Options{{Seed: 11}, {Seed: 12}}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for name, found := range founders {
			for _, opts := range optsSet {
				failed := 0
				// Separate genomes on each side: each side parses and
				// caches its own parents' trees.
				a, b := found(), found()
				for gen := 0; gen < 8; gen++ {
					fits := fitsOf(a, gen, opts)
					if name == "gate-failing" {
						failed += gateFailures(a, fits, gen, opts)
					}
					got := NextGeneration(a, fits, gen, opts)
					want := serialNextGeneration(b, fits, gen, opts)
					if len(got) != len(want) {
						t.Fatalf("GOMAXPROCS %d %s %+v gen %d: %d genomes, want %d", procs, name, opts, gen, len(got), len(want))
					}
					for i := range want {
						g, w := got[i], want[i]
						if g.Src != w.Src || g.Seed != w.Seed || g.Gen != w.Gen || g.Ops != w.Ops {
							t.Fatalf("GOMAXPROCS %d %s %+v gen %d slot %d: got seed %d gen %d ops %d, want %d %d %d; sources equal: %v",
								procs, name, opts, gen, i, g.Seed, g.Gen, g.Ops, w.Seed, w.Gen, w.Ops, g.Src == w.Src)
						}
					}
					a, b = got, want
				}
				if name == "gate-failing" && failed == 0 {
					t.Fatalf("GOMAXPROCS %d %+v: no first edit failed the gate, so the replay never ran", procs, opts)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// BenchmarkNextGeneration breeds one generation of a mid-campaign
// population: 32 genomes grown from progen founders over 15
// generations under the parsimony fitness. The parents keep their
// trees and names across iterations, as in a campaign, where every
// parent is an offspring bred with them.
func BenchmarkNextGeneration(b *testing.B) {
	opts := Options{Seed: 7}
	pop := SeedPopulation(900, 32)
	const gen = 15
	for g := 0; g < gen; g++ {
		pop = NextGeneration(pop, fitsOf(pop, g, opts), g, opts)
	}
	fits := fitsOf(pop, gen, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NextGeneration(pop, fits, gen, opts)
	}
}
