package difffuzz

// CompilePool drives the compile-stage differential oracle over a
// *program* corpus, the way Pool drives the runtime oracle over an
// input corpus, on the same campaign engine. Every program is compiled
// under all k implementations behind recover boundaries; accept/reject
// splits, ICEs, and diagnostic mismatches land in triage buckets (a
// crashing compiler is a finding, never a dead shard), and programs
// every implementation accepts are additionally run through the
// runtime differential on a configurable input set. Shards partition
// the corpus round-robin by index, and the durable state is a corpus
// cursor, so kill-9/resume reproduces an uninterrupted run's buckets
// exactly. A shard that panics (a harness bug) is retired, and the
// programs it owned are skipped.

import (
	"context"
	"fmt"

	"compdiff/internal/checkpoint"
	"compdiff/internal/compiler"
	"compdiff/internal/telemetry"
	"compdiff/internal/triage"
)

// CompilePoolOptions configures a compile-oracle campaign.
type CompilePoolOptions struct {
	// Configs are the implementations to cross-check. Defaults to the
	// paper's ten.
	Configs []compiler.Config
	// Shards is the number of worker shards (default 1). Program i is
	// owned by shard i mod Shards, independent of progress, so the
	// assignment is stable across resume.
	Shards int
	// SyncEvery is the number of corpus programs processed between
	// barriers, across all shards. Zero processes the whole corpus in
	// one epoch. Barriers are the merge and checkpoint points.
	SyncEvery int
	// StepLimit bounds each runtime cross-check execution.
	StepLimit int64
	// Parallelism is the per-program compile and suite parallelism.
	// Scheduling only — results are positional and deterministic.
	Parallelism int
	// RuntimeInputs are run differentially on every program all
	// implementations accept, so a program corpus feeds the runtime
	// oracle too. Default: just the empty input.
	RuntimeInputs [][]byte
	// CacheBudget is the byte budget of the shared compiled-program
	// cache (internal/progcache): every corpus program is compiled at
	// most once per distinct source text, and revisits — duplicate
	// corpus entries, or the future -evolve progen revisit path — cost
	// one hash and a map probe. 0 selects progcache.DefaultBudget, a
	// negative budget disables bounding, and setting it has no effect
	// on findings (a cached record is a pure function of the source),
	// which is why it stays out of CompileCampaignHash.
	CacheBudget int64
	// StatsDir, when set, streams one telemetry snapshot per barrier
	// to <dir>/plot.jsonl.
	StatsDir string
	// CheckpointDir enables durable snapshots; CheckpointEvery is the
	// number of barriers between them (default 1).
	CheckpointDir   string
	CheckpointEvery int64
}

// CompilePoolStats is the campaign summary.
type CompilePoolStats struct {
	Shards int
	// Programs is the number of corpus programs processed (a dead
	// shard's unprocessed programs are not counted).
	Programs int64
	// Accepted counts programs every implementation compiled.
	Accepted int64
	// FrontendRejects counts programs rejected uniformly — parse and
	// sema failures plus identical-diagnostic rejects. Not findings.
	FrontendRejects int64
	// Findings counts finding-producing programs before dedup
	// (compile-stage findings plus runtime divergences).
	Findings int64
	// UniqueBuckets is the deduplicated finding count, broken down by
	// kind below (RuntimeBuckets counts the runtime-oracle remainder).
	UniqueBuckets      int
	CompileDivergences int
	ICEs               int
	DiagMismatches     int
	RuntimeBuckets     int
	// Cursor is the number of corpus programs consumed (processed or
	// skipped by a retired shard); CorpusLen the corpus size.
	Cursor    int
	CorpusLen int
	// ShardErrors has one entry per shard; non-nil marks a retired
	// shard. ICEs never retire a shard — only a harness bug does.
	ShardErrors []error
	// PlotWriteErrors counts telemetry snapshots that did not reach
	// plot.jsonl and failed flushes of it.
	PlotWriteErrors int64
	// CheckpointErrors counts barrier checkpoints that failed to save.
	// The campaign continues on the last durable checkpoint, so a resume
	// would repeat the work since then.
	CheckpointErrors int64
}

// compileShard is one worker's slice of the campaign. Its counters
// and store are written only by the shard goroutine during an epoch
// and read only at barriers.
type compileShard struct {
	programCounts
	buckets       *triage.BucketStore
	bucketsSynced int
}

// CompilePool is the sharded compile-oracle campaign.
type CompilePool struct {
	engine
	*programOracle
	opts   CompilePoolOptions
	corpus []string
	// cursor is the merged corpus prefix; end bounds the prepared epoch.
	cursor, end int
	shards      []*compileShard
}

// CompileCampaignHash fingerprints everything that determines a
// compile-oracle campaign's findings: implementations, sharding,
// barrier cadence, runtime cross-check inputs, and the corpus itself.
// Parallelism and the observability knobs are excluded, as in
// CampaignHash.
func CompileCampaignHash(corpus []string, opts CompilePoolOptions) uint64 {
	d := optionsDigest(0xcc01, opts.Configs)
	fmt.Fprintf(d, "step:%d shards:%d sync:%d\n", opts.StepLimit, max(opts.Shards, 1), opts.SyncEvery)
	writeBlobs(d, "input", defaultInputs(opts.RuntimeInputs))
	for _, src := range corpus {
		fmt.Fprintf(d, "prog:%d:%s", len(src), src)
	}
	h1, _ := d.Sum128()
	return h1
}

// NewCompilePool builds a compile-oracle campaign over corpus.
func NewCompilePool(corpus []string, opts CompilePoolOptions) (*CompilePool, error) {
	return newCompilePool(corpus, opts, false)
}

func newCompilePool(corpus []string, opts CompilePoolOptions, resume bool) (*CompilePool, error) {
	if len(corpus) == 0 {
		return nil, fmt.Errorf("difffuzz: compile pool needs a non-empty program corpus")
	}
	oracle, err := newProgramOracle(opts.Configs, opts.RuntimeInputs, opts.CacheBudget, opts.StepLimit, opts.Parallelism)
	if err != nil {
		return nil, err
	}
	p := &CompilePool{programOracle: oracle, opts: opts, corpus: append([]string(nil), corpus...)}
	n := max(opts.Shards, 1)
	for i := 0; i < n; i++ {
		p.shards = append(p.shards, &compileShard{buckets: triage.NewBucketStore()})
	}
	err = p.open(p, engineConfig{
		shards: n, names: implNames(oracle.cfgs), hash: CompileCampaignHash(corpus, opts),
		ckptDir: opts.CheckpointDir, ckptEvery: opts.CheckpointEvery,
		stats: opts.StatsDir != "", statsDir: opts.StatsDir, resume: resume,
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// ResumeCompilePool rebuilds a compile pool from the checkpoint in
// opts.CheckpointDir. Error classification matches ResumePool:
// ErrNoCheckpoint, ErrMismatch, ErrCorrupt.
func ResumeCompilePool(corpus []string, opts CompilePoolOptions) (*CompilePool, error) {
	return resume(opts.CheckpointDir, CompileCampaignHash(corpus, opts), func() (*CompilePool, error) {
		return newCompilePool(corpus, opts, true)
	})
}

// Run processes the corpus from the current cursor to the end (or
// until ctx is cancelled), merging and checkpointing at barriers.
// Safe to call again after cancellation to finish the remainder.
func (p *CompilePool) Run(ctx context.Context) CompilePoolStats {
	p.run(ctx)
	return p.Stats()
}

func (p *CompilePool) next() bool {
	chunk := p.opts.SyncEvery
	if chunk <= 0 {
		chunk = len(p.corpus)
	}
	p.end = min(p.cursor+chunk, len(p.corpus))
	return p.cursor < len(p.corpus)
}

func (p *CompilePool) epoch(_ context.Context, si int) bool {
	sh := p.shards[si]
	for i := p.cursor; i < p.end; i++ {
		if i%len(p.shards) == si {
			sh.tally(sh.buckets, p.check(p.corpus[i], nil, p.spares[si]))
		}
	}
	return true
}

// merge advances the cursor past the epoch (a retired shard's programs
// count as consumed) and merges the shard-local bucket stores.
func (p *CompilePool) merge() {
	p.cursor = p.end
	mergeBuckets(p.buckets, len(p.shards), func(si int) (*triage.BucketStore, *int) {
		return p.shards[si].buckets, &p.shards[si].bucketsSynced
	})
}

// export fills in the durable snapshot: shard buckets as skeletons,
// per-shard counters, and the corpus cursor.
func (p *CompilePool) export(st *checkpoint.State) {
	st.SpentExecs = int64(p.cursor)
	cs := &checkpoint.CompileCampaignState{Cursor: p.cursor, CorpusLen: len(p.corpus)}
	for si, sh := range p.shards {
		ss := checkpoint.CompileShardState{
			Index:           si,
			Dead:            p.dead[si],
			Programs:        sh.programs,
			Accepted:        sh.accepted,
			FrontendRejects: sh.frontendRejects,
			Findings:        sh.findings,
		}
		ss.Buckets, ss.BucketTotal = skeleton(sh.buckets)
		cs.Shards = append(cs.Shards, ss)
	}
	st.Compile = cs
}

// restore rebuilds pool state from a loaded snapshot.
func (p *CompilePool) restore(st *checkpoint.State) error {
	cs := st.Compile
	switch {
	case cs == nil:
		return fmt.Errorf("checkpoint holds an input-fuzzing campaign, not a compile-oracle one")
	case cs.CorpusLen != len(p.corpus):
		return fmt.Errorf("checkpoint corpus length %d != %d", cs.CorpusLen, len(p.corpus))
	case len(cs.Shards) != len(p.shards):
		return fmt.Errorf("checkpoint has %d shards, pool has %d", len(cs.Shards), len(p.shards))
	case cs.Cursor < 0 || cs.Cursor > len(p.corpus):
		return fmt.Errorf("checkpoint cursor %d out of range", cs.Cursor)
	}
	p.cursor = cs.Cursor
	for i, ss := range cs.Shards {
		p.dead[i] = ss.Dead
		p.shards[i] = &compileShard{
			programCounts: programCounts{ss.Programs, ss.Accepted, ss.FrontendRejects, ss.Findings},
			buckets:       triage.RestoreBucketStore(ss.Buckets, ss.BucketTotal),
			bucketsSynced: len(ss.Buckets),
		}
	}
	return nil
}

// snapshot aggregates shard counters into a telemetry record. Execs
// counts processed programs (each is one k-way compile).
func (p *CompilePool) snapshot() telemetry.Snapshot {
	s := p.snapshotBase()
	for _, sh := range p.shards {
		s.Programs += sh.programs
	}
	s.Execs = s.Programs
	return s
}

// Stats summarizes the campaign so far.
func (p *CompilePool) Stats() CompilePoolStats {
	st := CompilePoolStats{
		Shards:      len(p.shards),
		Cursor:      p.cursor,
		CorpusLen:   len(p.corpus),
		ShardErrors: p.shardErrors(),
	}
	for _, sh := range p.shards {
		st.Programs += sh.programs
		st.Accepted += sh.accepted
		st.FrontendRejects += sh.frontendRejects
		st.Findings += sh.findings
	}
	st.UniqueBuckets, st.CompileDivergences, st.ICEs, st.DiagMismatches, st.RuntimeBuckets = bucketCounts(p.buckets)
	st.PlotWriteErrors = p.plotWriteErrors()
	st.CheckpointErrors = p.ckptErrs.Load()
	return st
}
