// Package evolve implements evolutionary coverage-directed program
// generation: a population of MiniC programs evolved under a composite
// fitness of optimizer-pass coverage (which unstable-code rewrites
// fired, per implementation — compiler.PassBits), divergence proximity
// (how close the implementations' outputs are to disagreeing), and
// structural diversity (a PonyGE2-style expected-length parsimony
// term). Where blind progen sampling is conservative by construction —
// it never emits the overflow-guard, deref-then-null-check, or
// wrapping-multiply idioms the paper's unstable-code rewrites key on —
// the evolve mutators insert exactly those idioms, steering the
// campaign toward the regions of program space where implementations
// can disagree.
//
// The package is deliberately pure: it knows genomes, mutation,
// fitness, and selection. Evaluation (compiling a genome under every
// implementation and running the differential oracles) lives in the
// campaign layer (internal/difffuzz), which fills in an Eval per
// genome; NextGeneration then turns (population, fitnesses) into the
// next population deterministically. All randomness is derived from
// (Options.Seed, generation), so no RNG state needs checkpointing: a
// campaign resumed at a generation barrier replays the identical
// sequence of populations.
package evolve

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"compdiff/internal/compiler"
	"compdiff/internal/hash"
	"compdiff/internal/minic/ast"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
	"compdiff/internal/progen"
)

// Genome is one population member. The canonical identity is the
// printed source text; only that text is serialized. In memory a
// genome also keeps the unchecked parse of its text, which its
// mutations clone and never edit, so offspring never alias their
// parent's nodes (see internal/triage's clone-on-accept), the
// identifiers that parse mentions, and, until its first evaluation,
// the checked front-end result of Mutate's gate.
type Genome struct {
	// Src is the program text. Always parses and passes sema: founders
	// come from progen, offspring are gated by Mutate.
	Src string `json:"src"`
	// Seed is the progen seed of the founding ancestor (lineage).
	Seed int64 `json:"seed"`
	// Gen is the generation this genome was created in (0 = founder).
	Gen int `json:"gen"`
	// Ops counts mutations applied since the founder.
	Ops int `json:"ops,omitempty"`

	// prog is the unchecked parse of Src, read-only. Founders and
	// genomes restored from a checkpoint parse it the first time they
	// are mutated.
	prog *ast.Program
	// checked is sema's result for Src from Mutate's gate; nil for
	// other genomes and once ReleaseChecked has run.
	checked *sema.Info
	// used holds every identifier prog mentions, read-only: the names
	// fresh names in its offspring must avoid. Offspring get it from
	// their gate; other genomes the first time they are mutated.
	used map[string]bool
}

// Checked returns the front-end result Mutate's gate computed for Src,
// which a compile of Src may use instead of parsing and checking it
// again; nil when there is none. The result belongs to the genome's
// first evaluation: nothing may edit it.
func (g *Genome) Checked() *sema.Info { return g.checked }

// ReleaseChecked drops the gate's front-end result once the genome has
// been evaluated.
func (g *Genome) ReleaseChecked() { g.checked = nil }

// tree returns the unchecked parse of Src, parsing it on first use.
func (g *Genome) tree() (*ast.Program, error) {
	if g.prog == nil {
		prog, err := parser.Parse(g.Src)
		if err != nil {
			return nil, err
		}
		g.prog = prog
	}
	return g.prog, nil
}

// Options configure the evolution. Everything here determines the
// population sequence and therefore belongs in the campaign hash.
type Options struct {
	// Seed derives every per-generation RNG.
	Seed int64
}

// targetLen is the expected source length (bytes) the parsimony term
// pulls toward: PonyGE2's expected-length penalty, which keeps
// selection from rewarding bloat and from collapsing onto trivial
// programs.
const targetLen = 4096

// tournamentSize is the number of uniform draws a selection
// tournament takes.
const tournamentSize = 3

// Eval is the campaign layer's measurement of one genome: everything
// fitness needs, filled in after the k-way compile and the oracle
// runs. The zero value is a genome that compiled everywhere, fired
// nothing, and diverged nowhere.
type Eval struct {
	// FrontendReject marks a genome the shared front end refused.
	// Gated mutation should make this impossible; it is scored
	// punitively rather than trusted to be.
	FrontendReject bool
	// ImplBits is the per-implementation fired-rewrite bitmap, suite
	// order.
	ImplBits []compiler.PassBits
	// NewBits counts (impl, pass) pairs this genome fired that the
	// campaign's cumulative coverage had not seen before it.
	NewBits int
	// Classes is the largest number of distinct output-checksum
	// partition classes observed across the runtime inputs (1 = all
	// implementations agreed everywhere). Divergence proximity: more
	// classes means closer to (or at) a runtime divergence.
	Classes int
	// Findings counts oracle hits (compile-stage findings plus
	// diverged runtime executions) before dedup.
	Findings int
	// NewBuckets counts findings that opened a new triage bucket.
	NewBuckets int
}

// UnionBits is the set of passes fired by at least one implementation.
func (e Eval) UnionBits() compiler.PassBits {
	var u compiler.PassBits
	for _, b := range e.ImplBits {
		u |= b
	}
	return u
}

// DisagreeBits is the set of passes fired by some implementations but
// not others — exactly the rewrites whose presence partitions the
// implementation set, the precondition for unstable-code divergence.
func (e Eval) DisagreeBits() compiler.PassBits {
	if len(e.ImplBits) == 0 {
		return 0
	}
	union, inter := compiler.PassBits(0), ^compiler.PassBits(0)
	for _, b := range e.ImplBits {
		union |= b
		inter &= b
	}
	return union &^ inter
}

// Fitness weights. Buckets dominate findings dominate coverage: a
// genome that opened a new dedup bucket outranks any amount of mere
// bit coverage, and disagreement (divergence proximity) outranks
// uniform coverage.
const (
	wUnionBit    = 2.0
	wDisagreeBit = 5.0
	wNewBit      = 10.0
	wClass       = 4.0
	wFinding     = 25.0
	wNewBucket   = 100.0
	// rejectPenalty scores a front-end reject below any valid genome.
	rejectPenalty = -1000.0
)

// Fitness scores one evaluated genome. Deterministic and pure. The
// Options argument is unread, since no option changes the score; it
// stays so that callers hand the campaign's Options to Fitness and
// NextGeneration alike.
func Fitness(g *Genome, e Eval, _ Options) float64 {
	if e.FrontendReject {
		return rejectPenalty
	}
	f := wUnionBit * float64(e.UnionBits().Count())
	f += wDisagreeBit * float64(e.DisagreeBits().Count())
	f += wNewBit * float64(e.NewBits)
	if e.Classes > 1 {
		f += wClass * float64(e.Classes-1)
	}
	f += wFinding * float64(e.Findings)
	f += wNewBucket * float64(e.NewBuckets)
	// PonyGE2-style parsimony: linear penalty on distance from the
	// expected length, normalized so one target-length of drift costs
	// about one union bit.
	dist := len(g.Src) - targetLen
	if dist < 0 {
		dist = -dist
	}
	f -= wUnionBit * float64(dist) / targetLen
	return f
}

// SeedPopulation founds a population of n progen programs on
// consecutive seeds starting at seed.
func SeedPopulation(seed int64, n int) []*Genome {
	pop := make([]*Genome, 0, n)
	for i := 0; i < n; i++ {
		p := progen.Generate(seed + int64(i))
		pop = append(pop, &Genome{Src: p.Src, Seed: p.Seed})
	}
	return pop
}

// Signature folds a population into an order-independent 64-bit
// identity: the hash of the sorted source texts. Two campaigns with
// equal signatures at every generation evolved identically — the
// property the shard-count and kill/resume determinism tests pin.
func Signature(pop []*Genome) uint64 {
	srcs := make([]string, len(pop))
	for i, g := range pop {
		srcs[i] = g.Src
	}
	sort.Strings(srcs)
	d := hash.New128(0x516e)
	for _, s := range srcs {
		d.Write([]byte(s))
		d.Write([]byte{0xfe})
	}
	h1, _ := d.Sum128()
	return h1
}

// genRNG derives the generation's private RNG stream from the
// campaign seed. The multiplier is the usual 64-bit golden-ratio
// constant; any bijective mix would do — what matters is that the
// stream is a pure function of (seed, gen), so resume needs no RNG
// state.
func genRNG(seed int64, gen int) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ (int64(gen+1) * -0x61c8864680b583eb)))
}

// tournament picks one parent index: the best of tournamentSize
// uniform draws (ties to the lower index).
func tournament(r *rand.Rand, fits []float64) int {
	best := r.Intn(len(fits))
	for i := 1; i < tournamentSize; i++ {
		c := r.Intn(len(fits))
		if fits[c] > fits[best] || (fits[c] == fits[best] && c < best) {
			best = c
		}
	}
	return best
}

// NextGeneration produces generation gen+1 from the evaluated
// population: every slot is an offspring of a tournament-selected
// parent. Offspring are produced as by Mutate, which gates every
// candidate through parse+sema; a parent whose mutations all fail the
// gate survives unchanged rather than admitting an invalid genome.
// The result is deterministic in (pop, fits, gen, opts) and equal to
// calling Mutate for each slot in turn on one generation RNG.
//
// The campaign layer calls it at its synchronization barrier, where
// the shards are idle, so the work is split by what consumes the RNG.
// In slot order and on the calling goroutine it draws each slot's
// parent and the first edit Mutate would gate. On
// runtime.GOMAXPROCS(0) goroutines it then applies and gates the
// edits; that part reads the parents and draws nothing. Slots are
// committed in order. A slot whose edit fails the gate means Mutate
// would have drawn again, so every later draw is void: the generation
// is then finished serially through Mutate from that slot. pop's
// genomes must not be in use elsewhere during the call: drawing
// parses and caches the trees of parents that have none.
func NextGeneration(pop []*Genome, fits []float64, gen int, opts Options) []*Genome {
	n := len(pop)
	if n == 0 {
		return nil
	}
	r := genRNG(opts.Seed, gen)
	slots := make([]slot, n)
	for i := range slots {
		slots[i] = drawSlot(r, pop, fits)
	}
	children := breedAll(slots, gen+1)
	next := make([]*Genome, 0, n)
	for i, s := range slots {
		switch {
		case !s.ok:
			next = append(next, s.parent)
		case children[i] != nil:
			next = append(next, children[i])
		default:
			// Replay the draws of the slots before i on a fresh
			// generation RNG, then breed the rest as Mutate does.
			r = genRNG(opts.Seed, gen)
			for range slots[:i] {
				drawSlot(r, pop, fits)
			}
			for len(next) < n {
				parent := pop[tournament(r, fits)]
				if child, ok := Mutate(parent, r, gen+1); ok {
					next = append(next, child)
				} else {
					next = append(next, parent)
				}
			}
			return next
		}
	}
	return next
}

// slot is one offspring as drawn: its parent and the parent's tree,
// and the first edit Mutate would gate. ok is false when no operator
// applied within Mutate's tries, so the parent survives ungated.
type slot struct {
	parent *Genome
	prog   *ast.Program
	edit   edit
	ok     bool
}

// drawSlot selects a parent and draws its first applicable edit,
// consuming from r what the slot consumes when that edit passes the
// gate.
func drawSlot(r *rand.Rand, pop []*Genome, fits []float64) slot {
	parent := pop[tournament(r, fits)]
	prog, m, err := newMutator(parent, r)
	if err != nil {
		return slot{parent: parent}
	}
	e, ok := m.next(prog)
	return slot{parent: parent, prog: prog, edit: e, ok: ok}
}

// breedAll applies and gates every drawn edit on runtime.GOMAXPROCS(0)
// goroutines; an entry is nil where the slot drew no edit or its edit
// failed the gate. A panic in a worker is raised again on the caller.
func breedAll(slots []slot, gen int) []*Genome {
	out := make([]*Genome, len(slots))
	var next atomic.Int64
	var panicked atomic.Pointer[any]
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(slots)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicked.CompareAndSwap(nil, &p)
				}
			}()
			for i := int(next.Add(1) - 1); i < len(slots); i = int(next.Add(1) - 1) {
				if s := &slots[i]; s.ok {
					out[i], _ = breed(s.parent, s.prog, s.edit, gen)
				}
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
	return out
}
