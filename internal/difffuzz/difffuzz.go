// Package difffuzz implements CompDiff-AFL++ (paper §3.2, Algorithm
// 1): the AFL++-style fuzzer drives input generation against an
// instrumented binary B_fuzz, and every generated input is
// additionally executed on the k CompDiff binaries, whose outputs are
// cross-checked; diverging inputs land in the diffs/ store. The fuzzer
// core is untouched — CompDiff rides the execution hook — so any other
// fuzzing enhancement (sanitizers on B_fuzz included) composes with it,
// exactly as the paper argues.
package difffuzz

import (
	"sync/atomic"

	"compdiff/internal/compiler"
	"compdiff/internal/core"
	"compdiff/internal/fuzz"
	"compdiff/internal/minic/sema"
	"compdiff/internal/telemetry"
	"compdiff/internal/triage"
	"compdiff/internal/vm"
)

// Options configures a campaign.
type Options struct {
	// Configs are the CompDiff compiler implementations (defaults to
	// the paper's ten).
	Configs []compiler.Config
	// FuzzSeed seeds the fuzzer RNG.
	FuzzSeed int64
	// StepLimit is the per-run budget for every binary.
	StepLimit int64
	// MaxInputLen caps generated inputs.
	MaxInputLen int
	// Sanitizer optionally instruments B_fuzz with a sanitizer, as
	// AFL++ users commonly do; CompDiff composes with it.
	Sanitizer vm.SanMode
	// Normalizer post-processes outputs before comparison (RQ5).
	Normalizer *core.Normalizer
	// DiffDir, when set, persists bug-triggering inputs under
	// DiffDir/diffs/.
	DiffDir string

	// SkipDeterministic disables the fuzzer's deterministic stage
	// (AFL's -d), trading systematic shallow exploration for havoc
	// throughput.
	SkipDeterministic bool

	// DivergenceFeedback adds inputs that trigger *new* discrepancy
	// signatures to the fuzzer's queue even when they contribute no
	// new coverage — the NEZHA-style behavioral-asymmetry feedback the
	// paper proposes as future work (§5). Because CompDiff's binaries
	// share one source, the signature partition is a cheap, stable
	// asymmetry fingerprint.
	DivergenceFeedback bool

	// Parallelism fans each differential cross-check across this many
	// worker goroutines (core.Options.Parallelism). <= 1 keeps the
	// sequential path.
	Parallelism int

	// BatchSize buffers this many generated inputs and cross-checks
	// them in one core.Suite.RunBatch call — one warm machine-set
	// borrow per batch instead of per exec. Values <= 1 cross-check
	// each input as it is generated. Batching is throughput-only: the
	// differential verdicts are byte-identical at any batch size (the
	// self-test layer pins this), so BatchSize is excluded from
	// CampaignHash and a checkpoint may be resumed under a different
	// batch size.
	// Ignored (clamped to 1) when DivergenceFeedback is on: feedback
	// must see each verdict before the next input is generated, which
	// is inherently per-exec.
	BatchSize int

	// Shards is the number of parallel fuzzer instances a pool runs,
	// mirroring AFL++'s -M/-S multi-instance setup: shard 0 is the
	// main (deterministic stage enabled), secondaries run havoc-only,
	// and every shard derives a distinct RNG seed from FuzzSeed.
	// Values <= 1 mean a single shard.
	Shards int

	// SyncEvery is the per-shard execution count a pool runs between
	// corpus/diff synchronization barriers. Zero picks budget/8. A
	// single-shard pool without a checkpoint runs its whole budget in
	// one chunk: it has no siblings to synchronize with.
	SyncEvery int64

	// Stats enables the telemetry layer: outcome classification of
	// every generated input, per-implementation latency histograms, and
	// AFL-plot-style progress snapshots. Off by default — the campaign
	// then runs with zero instrumentation on the hot path.
	Stats bool
	// StatsDir, when set (implies Stats), receives plot.jsonl: one JSON
	// snapshot per line, append-only, AFL plot_data style.
	StatsDir string
	// StatsEvery makes a single-shard pool emit a snapshot every N
	// generated inputs, besides the per-barrier ones (implies Stats).
	// Pools with Shards > 1 ignore it: they snapshot at every barrier.
	StatsEvery int64

	// CheckpointDir, when set, makes the pool write a crash-safe
	// campaign snapshot (internal/checkpoint) at its synchronization
	// barriers, so a killed campaign resumes via ResumePool with the
	// findings and determinism of an uninterrupted run; the options hash
	// guards against resuming under different settings. A single-shard
	// pool with checkpointing runs in SyncEvery-sized chunks (it needs
	// barriers to snapshot at), so enable it on the fresh run too when
	// comparing runs bit-for-bit.
	CheckpointDir string
	// CheckpointEvery is the number of synchronization barriers between
	// snapshots; <= 0 means every barrier.
	CheckpointEvery int64

	// BarrierHook, when set, runs at the end of every pool
	// synchronization barrier — single-threaded, after the merge, the
	// telemetry snapshot, and any checkpoint save — with the pool's
	// barrier-consistent stats. Worker processes under a supervisor use
	// it to publish an atomic heartbeat file per barrier. Observability
	// only: excluded from CampaignHash.
	BarrierHook func(PoolStats)
}

// statsEnabled reports whether any stats option asks for telemetry.
func (o Options) statsEnabled() bool {
	return o.Stats || o.StatsDir != "" || o.StatsEvery > 0
}

// campaign is one pool shard: a CompDiff-AFL++ fuzzer on one target
// whose every generated input is cross-checked over the CompDiff
// binaries. A campaign is single-goroutine (the pool gives each shard
// its own); only diffExecs may be read concurrently, via atomic load.
type campaign struct {
	fuzzer *fuzz.Fuzzer
	suite  *core.Suite
	// diffs is the shard-local, in-memory signature store; evidence
	// files are written only by the pool's shared store.
	diffs *core.DiffStore
	// buckets deduplicates the diverging outcomes by divergence
	// fingerprint (the triage layer). The signature-keyed DiffStore
	// stays authoritative for persistence and DivergenceFeedback;
	// buckets is the reporting view.
	buckets *triage.BucketStore

	// diffExecs counts executions spent on the CompDiff binaries
	// (k per generated input) — the overhead the paper discusses.
	// Updated atomically so pool-level progress reporting can read it
	// while the shard runs.
	diffExecs int64

	// metrics is nil unless Options ask for stats; every instrumented
	// branch on the hot path is a single nil check.
	metrics *telemetry.CampaignMetrics
	// statsTick, when set, runs after every counted input with the
	// running exec count; a single-shard pool uses it for StatsEvery.
	statsTick func(execs int64)

	// Batch executor state. Every generated input is queued in
	// batchIn and cross-checked batchSize at a time through
	// Suite.RunBatch; batchCls holds the per-input B_fuzz class when
	// stats are on, and batchOuts is flush-time scratch. The fuzzer
	// hands OnExec a fresh slice it never writes again, so a queued
	// input needs no copy. feedback is Options.DivergenceFeedback,
	// which forces batchSize to 1.
	batchSize int
	feedback  bool
	batchIn   [][]byte
	batchCls  []telemetry.Class
	batchOuts []*core.Outcome
}

// newCampaign builds a pool shard from an already-checked program.
func newCampaign(info *sema.Info, seeds [][]byte, opts Options) (*campaign, error) {
	cfgs := defaultConfigs(opts.Configs)

	// B_fuzz: the fuzzer-configured binary with coverage
	// instrumentation (and optionally a sanitizer), compiled exactly
	// as in normal AFL++.
	fuzzCfg := compiler.Config{
		Family:     compiler.Clang,
		Opt:        O1ForSan(opts.Sanitizer),
		Instrument: true,
		ASan:       opts.Sanitizer == vm.SanASan,
		Sanitize:   opts.Sanitizer != vm.SanNone,
	}
	bfuzz, err := compiler.Compile(info, fuzzCfg)
	if err != nil {
		return nil, err
	}
	machine := vm.New(bfuzz, vm.Options{
		Coverage:  true,
		StepLimit: opts.StepLimit,
		San:       opts.Sanitizer,
	})

	var metrics *telemetry.CampaignMetrics
	if opts.statsEnabled() {
		metrics = telemetry.NewCampaignMetrics(implNames(cfgs))
	}

	copts := core.Options{
		StepLimit:   opts.StepLimit,
		Normalizer:  opts.Normalizer,
		Parallelism: opts.Parallelism,
	}
	if metrics != nil {
		copts.Metrics = metrics.Suite
	}
	suite, err := core.Build(info, cfgs, copts)
	if err != nil {
		return nil, err
	}

	batch := opts.BatchSize
	if batch < 1 || opts.DivergenceFeedback {
		// Feedback consumes each verdict before the next mutation;
		// deferring verdicts would starve it, so clamp to per-exec.
		batch = 1
	}
	c := &campaign{
		suite:     suite,
		diffs:     core.NewDiffStore(""),
		buckets:   triage.NewBucketStore(),
		metrics:   metrics,
		batchSize: batch,
		feedback:  opts.DivergenceFeedback,
	}
	c.fuzzer = fuzz.New(machine, seeds, fuzz.Options{
		Seed:              opts.FuzzSeed,
		MaxInputLen:       opts.MaxInputLen,
		SkipDeterministic: opts.SkipDeterministic,
		// Algorithm 1, lines 9-12: run every generated input through
		// the CompDiff binaries and save it on output discrepancy.
		OnExec: c.enqueue,
	})
	// Seed verdicts are complete the moment newCampaign returns,
	// batched or not.
	c.flushBatch()
	return c, nil
}

// enqueue queues one generated input and flushes the pending batch
// when it reaches batchSize.
func (c *campaign) enqueue(input []byte, res *vm.Result) {
	c.batchIn = append(c.batchIn, input)
	if c.metrics != nil {
		// Classify against the live B_fuzz result now; it is
		// machine-owned and invalid by flush time.
		c.batchCls = append(c.batchCls, core.ClassifyResult(res))
	}
	if len(c.batchIn) >= c.batchSize {
		c.flushBatch()
	}
}

// flushBatch cross-checks every pending input in one RunBatch call
// and observes the outcomes in the order the fuzzer generated them.
// Outputs are checksummed in machine-owned buffers; o.Results is
// materialized only on divergence, which is exactly when diffs.Add
// needs the bytes.
func (c *campaign) flushBatch() {
	if len(c.batchIn) == 0 {
		return
	}
	c.batchOuts = c.suite.RunBatch(c.batchIn, c.batchOuts[:0])
	for i, o := range c.batchOuts {
		var cls telemetry.Class
		if c.metrics != nil {
			cls = c.batchCls[i]
		}
		c.observe(o, cls)
		c.batchOuts[i] = nil
	}
	clear(c.batchIn)
	c.batchIn = c.batchIn[:0]
	c.batchCls = c.batchCls[:0]
}

// observe records one cross-checked input: divergence bookkeeping,
// optional fuzzer feedback, and telemetry.
func (c *campaign) observe(o *core.Outcome, cls telemetry.Class) {
	atomic.AddInt64(&c.diffExecs, int64(len(c.suite.Impls)))
	if o.Diverged {
		fresh, err := c.diffs.Add(o)
		if err != nil {
			// The shard store has no directory, so Add cannot fail;
			// if it ever does, the pool's per-shard recover retires
			// the shard with this error.
			panic(err)
		}
		c.buckets.Add(o)
		// c.fuzzer is nil while the initial corpus is being
		// ingested inside fuzz.New; those seeds are already
		// queued.
		if fresh && c.feedback && c.fuzzer != nil {
			c.fuzzer.ForceSeed(o.Input)
		}
	}
	if m := c.metrics; m != nil {
		execs := m.Execs.Inc()
		m.DiffExecs.Add(int64(len(c.suite.Impls)))
		// Each generated input lands in exactly one class:
		// divergence dominates, otherwise the input is classed
		// by its B_fuzz result. The per-class counts therefore
		// always sum to Execs.
		if o.Diverged {
			cls = telemetry.ClassDiff
		}
		m.Classes.Inc(cls)
		if c.statsTick != nil {
			c.statsTick(execs)
		}
	}
}

// O1ForSan picks the conventional optimization level for a sanitizer
// build (-O1), or -O2 for a plain fuzzing binary.
func O1ForSan(san vm.SanMode) compiler.OptLevel {
	if san != vm.SanNone {
		return compiler.O1
	}
	return compiler.O2
}

// run fuzzes for the given number of executions on B_fuzz.
func (c *campaign) run(budget int64) {
	c.fuzzer.Run(budget)
	// Drain any partial batch so the campaign's observable state
	// (diffs, buckets, counters) is complete at every run boundary —
	// this is what makes pool barriers, checkpoints, and end-of-budget
	// reporting batch-size-invariant.
	c.flushBatch()
}

// snapshot assembles the shard's live progress record. Called on the
// shard goroutine: every source is either atomic or owned by it.
func (c *campaign) snapshot() telemetry.Snapshot {
	m := c.metrics
	st := c.fuzzer.Stats()
	s := telemetry.Snapshot{
		Execs:           m.Execs.Load(),
		DiffExecs:       m.DiffExecs.Load(),
		Queue:           st.Seeds,
		UniqueDiffs:     c.diffs.Len(),
		TotalDiffInputs: c.diffs.Total(),
		UniqueBuckets:   c.buckets.Len(),
		UniqueCrashes:   st.UniqueCrashes,
		PlateauExecs:    st.Execs - st.LastNewPath,
	}
	s.SetClasses(m.Classes.Snapshot())
	return s
}
