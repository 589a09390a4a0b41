package difffuzz

// EvolvePool drives the evolutionary coverage-directed campaign on the
// campaign engine: a population of MiniC genomes (internal/evolve) is
// evaluated through the compile-stage and runtime differential oracles
// each generation, scored by the composite fitness (pass coverage,
// divergence proximity, parsimony), and bred into the next generation
// at the single-threaded barrier. Evaluation is sharded — genome i is
// owned by shard i mod Shards — but every fitness input is merged at
// the barrier in genome-index order, so the population sequence is
// invariant under the shard count. Checkpoints are taken only at
// generation barriers; a generation cut short by cancellation or a
// shard panic is dropped unmerged, and resume re-evaluates the
// checkpointed population, which is deterministic, so resume is
// indistinguishable from an uninterrupted run.

import (
	"context"
	"fmt"
	"math/bits"
	"sync/atomic"

	"compdiff/internal/checkpoint"
	"compdiff/internal/compiler"
	"compdiff/internal/evolve"
	"compdiff/internal/telemetry"
)

// EvolvePoolOptions configures an evolutionary campaign.
type EvolvePoolOptions struct {
	// Configs are the implementations to cross-check. Defaults to the
	// paper's ten.
	Configs []compiler.Config
	// Pop is the population size (default 24, minimum 2).
	Pop int
	// Generations is the number of generations to evaluate (default
	// 20). The campaign's program budget is Pop × Generations k-way
	// compiles, before cache hits.
	Generations int
	// Seed derives the founder population and every per-generation
	// RNG stream.
	Seed int64
	// Shards is the number of evaluation worker shards (default 1).
	// Scheduling only at the evaluation level, but part of the
	// campaign hash for consistency with the other pools.
	Shards int
	// StepLimit bounds each runtime oracle execution.
	StepLimit int64
	// Parallelism is the per-genome compile and suite parallelism.
	Parallelism int
	// RuntimeInputs are run differentially on every genome all
	// implementations accept. Default: just the empty input.
	RuntimeInputs [][]byte
	// CacheBudget bounds the shared compiled-program cache. Like the
	// compile pool's, the budget cannot change findings and stays out
	// of the hash. Evolve seldom revisits a program: -evolve -pop 32
	// -generations 50 -seed 1 -shards 2 makes 2 hits, 1,598 misses
	// and 1,322 evictions. The cache stays because its resident
	// programs act as GC ballast: on the benchmark's evolve workload
	// (2-core VM), compiling around it cut the live heap from about
	// 82 to 4.4 MiB but throughput from about 1,300 to 990 programs/s,
	// as the collector ran more often (1,472 without the cache at
	// GOGC=2000).
	CacheBudget int64
	// StatsDir, when set, streams one telemetry snapshot per
	// generation to <dir>/plot.jsonl.
	StatsDir string
	// CheckpointDir enables durable snapshots; CheckpointEvery is the
	// number of generation barriers between them (default 1).
	CheckpointDir   string
	CheckpointEvery int64
}

func (o EvolvePoolOptions) withDefaults() EvolvePoolOptions {
	if o.Pop == 0 {
		o.Pop = 24
	}
	if o.Generations == 0 {
		o.Generations = 20
	}
	o.Shards = max(o.Shards, 1)
	return o
}

// EvolvePoolStats is the campaign summary.
type EvolvePoolStats struct {
	Shards int
	// Generation is the number of fully evaluated generations;
	// Generations the configured total.
	Generation  int
	Generations int
	Pop         int
	// Programs counts genome evaluations (one k-way compile each,
	// before cache hits).
	Programs int64
	// FrontendRejects counts genomes the shared front end refused plus
	// uniform-diagnostic rejects; gated mutation keeps this at zero in
	// practice.
	FrontendRejects int64
	// Findings counts oracle hits before dedup.
	Findings int64
	// UniqueBuckets is the deduplicated finding count, broken down by
	// kind below.
	UniqueBuckets      int
	CompileDivergences int
	ICEs               int
	DiagMismatches     int
	RuntimeBuckets     int
	// PassCoverage counts distinct (implementation, pass) pairs fired.
	PassCoverage int
	// BestFitness and MeanFitness are from the last evaluated
	// generation.
	BestFitness float64
	MeanFitness float64
	// PopulationSignature is the order-independent identity of the
	// current population — the cross-shard/cross-resume determinism
	// fingerprint.
	PopulationSignature uint64
	// ShardErrors has one entry per shard; non-nil marks a shard that
	// panicked during an evaluation.
	ShardErrors []error
	// PlotWriteErrors counts telemetry snapshots that did not reach
	// plot.jsonl and failed flushes of it.
	PlotWriteErrors int64
	// CheckpointErrors counts barrier checkpoints that failed to save.
	// The campaign continues on the last durable checkpoint, so a resume
	// would repeat the work since then.
	CheckpointErrors int64
}

// EvolvePool is the sharded evolutionary campaign.
type EvolvePool struct {
	engine
	*programOracle
	opts EvolvePoolOptions

	pop        []*evolve.Genome
	generation int
	// evals holds the generation's raw measurements, positional.
	evals []verdict
	// claimed counts the genomes the shards have claimed this
	// generation; each shard claims the next unclaimed one.
	claimed atomic.Int64
	// cum is the cumulative per-implementation fired-rewrite bitmap —
	// the base the NewBits fitness term is scored against.
	cum []compiler.PassBits

	programCounts
	lastBest, lastMean float64

	// evalHook runs before each genome evaluation (test seam).
	evalHook func(gen, genome int)
}

// EvolveCampaignHash fingerprints everything that determines an
// evolutionary campaign's population sequence and findings:
// implementations, population size, generations, seed, sharding,
// step limit, and runtime inputs. Parallelism and the observability
// and cache knobs are excluded, as in the other campaign hashes.
func EvolveCampaignHash(opts EvolvePoolOptions) uint64 {
	opts = opts.withDefaults()
	d := optionsDigest(0xe701, opts.Configs)
	fmt.Fprintf(d, "pop:%d gens:%d seed:%d shards:%d step:%d\n",
		opts.Pop, opts.Generations, opts.Seed, opts.Shards, opts.StepLimit)
	writeBlobs(d, "input", defaultInputs(opts.RuntimeInputs))
	h1, _ := d.Sum128()
	return h1
}

// NewEvolvePool builds a fresh evolutionary campaign: the founder
// population is progen on consecutive seeds from opts.Seed.
func NewEvolvePool(opts EvolvePoolOptions) (*EvolvePool, error) {
	return newEvolvePool(opts, false)
}

func newEvolvePool(opts EvolvePoolOptions, resume bool) (*EvolvePool, error) {
	opts = opts.withDefaults()
	if opts.Pop < 2 {
		return nil, fmt.Errorf("difffuzz: evolve population must be at least 2, got %d", opts.Pop)
	}
	if opts.Generations < 1 {
		return nil, fmt.Errorf("difffuzz: evolve needs at least 1 generation, got %d", opts.Generations)
	}
	oracle, err := newProgramOracle(opts.Configs, opts.RuntimeInputs, opts.CacheBudget, opts.StepLimit, opts.Parallelism)
	if err != nil {
		return nil, err
	}
	p := &EvolvePool{
		programOracle: oracle,
		opts:          opts,
		pop:           evolve.SeedPopulation(opts.Seed, opts.Pop),
		cum:           make([]compiler.PassBits, len(oracle.cfgs)),
	}
	err = p.open(p, engineConfig{
		shards: opts.Shards, names: implNames(oracle.cfgs), hash: EvolveCampaignHash(opts),
		ckptDir: opts.CheckpointDir, ckptEvery: opts.CheckpointEvery,
		stats: opts.StatsDir != "", statsDir: opts.StatsDir, resume: resume,
		dropOnPanic: true,
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// ResumeEvolvePool rebuilds an evolve pool from the checkpoint in
// opts.CheckpointDir. Error classification matches the other pools:
// ErrNoCheckpoint, ErrMismatch, ErrCorrupt.
func ResumeEvolvePool(opts EvolvePoolOptions) (*EvolvePool, error) {
	return resume(opts.CheckpointDir, EvolveCampaignHash(opts), func() (*EvolvePool, error) {
		return newEvolvePool(opts, true)
	})
}

// Run evolves from the current generation to the configured total (or
// until ctx is cancelled), evaluating each generation sharded and
// breeding at the barrier. Safe to call again after cancellation.
func (p *EvolvePool) Run(ctx context.Context) EvolvePoolStats {
	p.run(ctx)
	return p.Stats()
}

func (p *EvolvePool) next() bool {
	p.evals = make([]verdict, len(p.pop))
	p.claimed.Store(0)
	return p.generation < p.opts.Generations
}

// epoch measures genomes through the oracles, claiming them one at a
// time, so a shard that drew short programs takes more of them and
// the shards reach the barrier together. Verdicts are positional, so
// which shard measured a genome does not show. It stops early,
// dropping the generation, when ctx is cancelled.
func (p *EvolvePool) epoch(ctx context.Context, si int) bool {
	for i := int(p.claimed.Add(1) - 1); i < len(p.pop); i = int(p.claimed.Add(1) - 1) {
		if p.evalHook != nil {
			p.evalHook(p.generation, i)
		}
		if ctx.Err() != nil {
			return false
		}
		g := p.pop[i]
		p.evals[i] = p.check(g.Src, g.Checked(), p.spares[si])
	}
	return true
}

// merge folds the generation's raw measurements into the global
// bucket store, cumulative coverage, and fitness — single-threaded,
// in genome-index order, so the result is independent of how
// evaluation was sharded — then breeds the next generation. Evaluated
// genomes drop the gate's checked front end here: a survivor's next
// evaluation is a cache hit, or a miss that parses its source.
func (p *EvolvePool) merge() {
	eopts := evolve.Options{Seed: p.opts.Seed}
	cumStart := append([]compiler.PassBits(nil), p.cum...)
	fits := make([]float64, len(p.evals))
	var sum float64
	best := 0.0
	for i, v := range p.evals {
		ev := evolve.Eval{FrontendReject: v.reject, ImplBits: v.bits, Classes: v.classes}
		ev.Findings, ev.NewBuckets = p.tally(p.buckets, v)
		for k, b := range v.bits {
			ev.NewBits += bits.OnesCount32(uint32(b &^ cumStart[k]))
			p.cum[k] |= b
		}
		fits[i] = evolve.Fitness(p.pop[i], ev, eopts)
		p.pop[i].ReleaseChecked()
		sum += fits[i]
		if i == 0 || fits[i] > best {
			best = fits[i]
		}
	}
	// The population is never empty (Pop >= 2).
	p.lastBest, p.lastMean = best, sum/float64(len(p.evals))
	p.pop = evolve.NextGeneration(p.pop, fits, p.generation, eopts)
	p.generation++
}

// passCoverage counts distinct (implementation, pass) pairs fired.
func (p *EvolvePool) passCoverage() int {
	n := 0
	for _, b := range p.cum {
		n += b.Count()
	}
	return n
}

// export fills in the durable snapshot: the population, generation,
// cumulative coverage, and counters.
func (p *EvolvePool) export(st *checkpoint.State) {
	st.SpentExecs = p.programs
	es := &checkpoint.EvolveCampaignState{
		Generation:      p.generation,
		CumBits:         make([]uint32, len(p.cum)),
		Programs:        p.programs,
		FrontendRejects: p.frontendRejects,
		Findings:        p.findings,
		BestFitness:     p.lastBest,
		MeanFitness:     p.lastMean,
	}
	for i, b := range p.cum {
		es.CumBits[i] = uint32(b)
	}
	for _, g := range p.pop {
		es.Genomes = append(es.Genomes, evolve.Genome{Src: g.Src, Seed: g.Seed, Gen: g.Gen, Ops: g.Ops})
	}
	st.Evolve = es
}

// restore rebuilds pool state from a loaded snapshot.
func (p *EvolvePool) restore(st *checkpoint.State) error {
	es := st.Evolve
	switch {
	case es == nil:
		return fmt.Errorf("checkpoint does not hold an evolutionary campaign")
	case len(es.Genomes) != p.opts.Pop:
		return fmt.Errorf("checkpoint population %d != %d", len(es.Genomes), p.opts.Pop)
	case es.Generation < 0 || es.Generation > p.opts.Generations:
		return fmt.Errorf("checkpoint generation %d out of range", es.Generation)
	case len(es.CumBits) != len(p.cfgs):
		return fmt.Errorf("checkpoint has %d coverage maps, %d implementations", len(es.CumBits), len(p.cfgs))
	}
	p.generation = es.Generation
	p.pop = p.pop[:0]
	for i := range es.Genomes {
		p.pop = append(p.pop, &es.Genomes[i])
	}
	for i, b := range es.CumBits {
		p.cum[i] = compiler.PassBits(b)
	}
	p.programCounts = programCounts{programs: es.Programs, frontendRejects: es.FrontendRejects, findings: es.Findings}
	p.lastBest, p.lastMean = es.BestFitness, es.MeanFitness
	return nil
}

// snapshot aggregates the campaign into a telemetry record. Execs
// counts genome evaluations (each is one k-way compile).
func (p *EvolvePool) snapshot() telemetry.Snapshot {
	s := p.snapshotBase()
	s.Programs = p.programs
	s.Execs = p.programs
	s.Generation = p.generation
	s.BestFitness = p.lastBest
	s.MeanFitness = p.lastMean
	s.PassCoverage = p.passCoverage()
	return s
}

// Stats summarizes the campaign so far.
func (p *EvolvePool) Stats() EvolvePoolStats {
	st := EvolvePoolStats{
		Shards:              p.opts.Shards,
		Generation:          p.generation,
		Generations:         p.opts.Generations,
		Pop:                 p.opts.Pop,
		Programs:            p.programs,
		FrontendRejects:     p.frontendRejects,
		Findings:            p.findings,
		PassCoverage:        p.passCoverage(),
		BestFitness:         p.lastBest,
		MeanFitness:         p.lastMean,
		PopulationSignature: evolve.Signature(p.pop),
		ShardErrors:         p.shardErrors(),
		PlotWriteErrors:     p.plotWriteErrors(),
		CheckpointErrors:    p.ckptErrs.Load(),
	}
	st.UniqueBuckets, st.CompileDivergences, st.ICEs, st.DiagMismatches, st.RuntimeBuckets = bucketCounts(p.buckets)
	return st
}

// PassCoverageBits returns the cumulative per-implementation
// fired-rewrite bitmaps (suite order) — the coverage the campaign has
// reached so far.
func (p *EvolvePool) PassCoverageBits() []compiler.PassBits {
	return append([]compiler.PassBits(nil), p.cum...)
}
