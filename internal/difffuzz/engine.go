package difffuzz

// The campaign engine: the one sharded-barrier loop every campaign
// mode runs on, modeled on AFL's -M/-S instances, which meet at
// periodic sync points. A mode plugs in as a workload — the per-shard epoch body,
// the barrier merge, export/restore of its state, and its telemetry
// snapshot — and the engine owns everything else:
//
//   - construction: refuse to overwrite an existing checkpoint, open
//     the checkpoint saver and the telemetry recorder;
//   - resume: load, compare the options hash (ErrMismatch), build,
//     restore (ErrCorrupt), closing what it built on failure;
//   - fan-out: one goroutine per live shard, each behind its own panic
//     recovery boundary;
//   - the barrier, in this order: merge (shard order), telemetry
//     snapshot, checkpoint on its cadence, BarrierHook; then the final
//     checkpoint, and on cancellation a last snapshot and a flushed
//     plot.jsonl;
//   - the accessors every mode shares.

import (
	"context"
	"fmt"
	"log"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"compdiff/internal/checkpoint"
	"compdiff/internal/compiler"
	"compdiff/internal/core"
	"compdiff/internal/hash"
	"compdiff/internal/minic/sema"
	"compdiff/internal/progcache"
	"compdiff/internal/telemetry"
	"compdiff/internal/triage"
)

// workload is one campaign mode as the engine drives it. Every method
// runs single-threaded except epoch, which runs once per live shard,
// concurrently.
type workload interface {
	// next prepares the next epoch and reports whether there is one.
	next() bool
	// epoch runs shard si's share of the prepared epoch. False means it
	// stopped early on cancellation; the engine then drops the epoch
	// unmerged and stops.
	epoch(ctx context.Context, si int) bool
	// merge folds the epoch's shard-local results into the shared
	// state, in shard order.
	merge()
	// export fills the mode's part of a checkpoint; restore reads it
	// back, validating what it reads.
	export(st *checkpoint.State)
	restore(st *checkpoint.State) error
	// snapshot is the mode's telemetry record at a barrier.
	snapshot() telemetry.Snapshot
}

// engineConfig is what a mode hands the engine at construction.
type engineConfig struct {
	shards    int
	names     []string // implementation names, suite order
	hash      uint64   // options hash guarding resume
	ckptDir   string
	ckptEvery int64
	// stats records one telemetry snapshot per barrier, appending each
	// to <statsDir>/plot.jsonl when statsDir is set.
	stats    bool
	statsDir string
	// resume lets ckptDir already hold a checkpoint. dropOnPanic is
	// the panic policy: a panicking shard drops the whole epoch (and
	// stays live) instead of being retired.
	resume, dropOnPanic bool
}

// engine is the state every mode shares; modes embed it.
type engine struct {
	w           workload
	names       []string
	dropOnPanic bool
	// buckets is the pool-wide triage store.
	buckets *triage.BucketStore

	// mu guards dead and errs, which a panicking shard goroutine writes
	// mid-epoch while a concurrent Stats reader may look.
	mu   sync.Mutex
	dead []bool
	errs []error

	saver       *checkpoint.Saver
	optionsHash uint64
	ckptEvery   int64
	sinceCkpt   int64
	// ckptErrs counts failed saves; Stats may read it mid-run.
	ckptErrs atomic.Int64
	// recorder is nil when stats are disabled.
	recorder *telemetry.Recorder
	// spares holds each shard's released machine sets for one run:
	// shard si builds its suites from spares[si] in every epoch, so a
	// shard builds one set per run, not one per epoch. run drops them
	// on return, so no machine outlives the Run that used it.
	spares []*core.Spares

	// barrierHook, when set, runs last at every barrier.
	barrierHook func()
	// hook is a test seam: it runs at the top of every epoch with shard
	// -1, then at the start of each shard's epoch, inside its
	// panic-recovery scope, with the shard index.
	hook func(epoch, shard int)
}

// open finishes a mode's construction: it refuses to overwrite an
// existing checkpoint unless resuming, then opens the checkpoint saver
// and the telemetry recorder. It is the last constructor step, so a
// failure leaves nothing open.
func (e *engine) open(w workload, c engineConfig) error {
	e.w, e.names, e.dropOnPanic = w, c.names, c.dropOnPanic
	e.buckets = triage.NewBucketStore()
	e.dead, e.errs = make([]bool, c.shards), make([]error, c.shards)
	if c.ckptDir != "" {
		if !c.resume && checkpoint.Exists(c.ckptDir) {
			return fmt.Errorf("difffuzz: %s already holds a checkpoint; resume it or pick a fresh directory", c.ckptDir)
		}
		saver, err := checkpoint.NewSaver(c.ckptDir)
		if err != nil {
			return fmt.Errorf("difffuzz: %w", err)
		}
		e.saver, e.optionsHash, e.ckptEvery = saver, c.hash, max(c.ckptEvery, 1)
	}
	if c.stats {
		rec, err := telemetry.NewRecorder(c.statsDir)
		if err != nil {
			return fmt.Errorf("difffuzz: stats: %w", err)
		}
		e.recorder = rec
	}
	return nil
}

// resume is the resume sequence of every mode: load the checkpoint in
// dir, compare its options hash, build the campaign (over an existing
// checkpoint), and restore the loaded state into it. Errors are
// classified for callers: checkpoint.ErrNoCheckpoint (nothing to
// resume — start fresh), checkpoint.ErrMismatch (different campaign
// options — a user error), checkpoint.ErrCorrupt (damaged files).
func resume[P interface {
	load(*checkpoint.State) error
	Close() error
}](dir string, hash uint64, build func() (P, error)) (P, error) {
	var zero P
	if dir == "" {
		return zero, fmt.Errorf("difffuzz: resume requires CheckpointDir")
	}
	st, _, err := checkpoint.Load(dir)
	if err != nil {
		return zero, err
	}
	if st.OptionsHash != hash {
		return zero, fmt.Errorf("%w: checkpoint options hash %016x, this campaign hashes to %016x (same inputs and campaign options required)",
			checkpoint.ErrMismatch, st.OptionsHash, hash)
	}
	p, err := build()
	if err != nil {
		return zero, err
	}
	if err := p.load(st); err != nil {
		p.Close()
		return zero, fmt.Errorf("%w: %v", checkpoint.ErrCorrupt, err)
	}
	return p, nil
}

// run drives epochs until the workload has no more, ctx is cancelled
// (checked between epochs; epochs are bounded, so a cancelled campaign
// stops at the next barrier), an epoch is dropped, or every shard is
// retired.
func (e *engine) run(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.spares = make([]*core.Spares, len(e.dead))
	for si := range e.spares {
		e.spares[si] = core.NewSpares()
	}
	defer func() { e.spares = nil }()
	for epoch := 0; ctx.Err() == nil && e.w.next(); epoch++ {
		if e.hook != nil {
			e.hook(epoch, -1)
		}
		if ctx.Err() != nil || !e.fanOut(ctx, epoch) {
			break
		}
		e.w.merge()
		if e.recorder != nil {
			e.recorder.Record(e.w.snapshot())
		}
		if e.sinceCkpt++; e.saver != nil && e.sinceCkpt >= e.ckptEvery {
			e.save()
		}
		if e.barrierHook != nil {
			// Last, so a heartbeat written here never claims progress the
			// durable checkpoint does not hold beyond one interval.
			e.barrierHook()
		}
		if len(e.live()) == 0 {
			break
		}
	}
	// The last barrier may not have been checkpoint-due; make the final
	// state durable so a follow-up resume loses nothing.
	if e.saver != nil && e.sinceCkpt > 0 {
		e.save()
	}
	if e.recorder == nil {
		return
	}
	if ctx.Err() != nil {
		// A cancelled campaign records its final merged state and closes
		// the plot file outright: a signal-driven exit may never call
		// Close (which stays a no-op afterwards).
		e.recorder.Record(e.w.snapshot())
		defer e.recorder.Close()
	}
	_ = e.recorder.Sync() // a failure is counted in plotWriteErrors
}

// fanOut runs one epoch, a goroutine per live shard. It reports false
// when the epoch must be dropped: a shard stopped on cancellation, or
// panicked under the drop-the-epoch policy.
func (e *engine) fanOut(ctx context.Context, epoch int) bool {
	var wg sync.WaitGroup
	var dropped atomic.Bool
	for _, si := range e.live() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					e.mu.Lock()
					e.errs[si] = fmt.Errorf("difffuzz: shard %d panicked: %v\n%s", si, r, debug.Stack())
					e.dead[si] = !e.dropOnPanic
					e.mu.Unlock()
					if e.dropOnPanic {
						dropped.Store(true)
					}
				}
			}()
			if e.hook != nil {
				e.hook(epoch, si)
			}
			if !e.w.epoch(ctx, si) {
				dropped.Store(true)
			}
		}()
	}
	wg.Wait()
	return !dropped.Load()
}

// live lists the shards not retired. Called only between epochs.
func (e *engine) live() []int {
	var out []int
	for si, d := range e.dead {
		if !d {
			out = append(out, si)
		}
	}
	return out
}

// save checkpoints at a barrier. Failures never stop the campaign —
// the previous checkpoint stays loadable — but each is counted and the
// first is logged.
func (e *engine) save() {
	e.sinceCkpt = 0
	if err := e.saver.Save(e.state()); err != nil && e.ckptErrs.Add(1) == 1 {
		log.Printf("difffuzz: checkpoint save failed (campaign continues on the previous checkpoint): %v", err)
	}
}

// state assembles the complete checkpoint: the engine's header and
// pool-wide buckets plus the workload's part.
func (e *engine) state() *checkpoint.State {
	st := &checkpoint.State{Version: checkpoint.Version, OptionsHash: e.optionsHash}
	st.Buckets, st.BucketTotal = e.buckets.Export()
	e.w.export(st)
	return st
}

// load overwrites the campaign's state with a loaded checkpoint.
func (e *engine) load(st *checkpoint.State) error {
	e.buckets = triage.RestoreBucketStore(st.Buckets, st.BucketTotal)
	return e.w.restore(st)
}

// snapshotBase is a telemetry record holding the pool-wide bucket
// counts; workloads add their own fields.
func (e *engine) snapshotBase() telemetry.Snapshot {
	var s telemetry.Snapshot
	s.UniqueBuckets, s.CompileDivergences, s.ICEs, s.DiagMismatches, _ = bucketCounts(e.buckets)
	return s
}

// shardErrors has one entry per shard; non-nil marks a shard that
// panicked.
func (e *engine) shardErrors() []error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]error(nil), e.errs...)
}

// CheckpointSeq is the sequence number of the last durable checkpoint
// (0 when checkpointing is off or nothing has been saved).
func (e *engine) CheckpointSeq() int {
	if e.saver == nil {
		return 0
	}
	return e.saver.Seq()
}

// Snapshots returns the recorded progress series (empty when stats are
// disabled). A pool records one entry per barrier, plus the final
// post-cancel snapshot when a run was cancelled; a single-shard input
// pool with StatsEvery adds its periodic ones.
func (e *engine) Snapshots() []telemetry.Snapshot {
	if e.recorder == nil {
		return nil
	}
	return e.recorder.Snapshots()
}

// plotWriteErrors counts the plot.jsonl lines and flushes the stats
// recorder failed to write; zero when stats are disabled.
func (e *engine) plotWriteErrors() int64 {
	if e.recorder == nil {
		return 0
	}
	return e.recorder.WriteErrors()
}

// Close releases the stats recorder's plot file, if any. A no-op when
// a cancelled pool run already closed it.
func (e *engine) Close() error {
	if e.recorder == nil {
		return nil
	}
	return e.recorder.Close()
}

// BucketStore exposes the pool-wide triage store (reports, tables).
func (e *engine) BucketStore() *triage.BucketStore { return e.buckets }

// Buckets returns the pool-wide fingerprint-deduplicated findings in
// merge order.
func (e *engine) Buckets() []*triage.Bucket { return e.buckets.Buckets() }

// BucketKeys is the sorted bucket-key set — the order-independent
// fingerprint of a campaign's findings, stable across shard counts and
// scheduling.
func (e *engine) BucketKeys() []uint64 { return e.buckets.Keys() }

// ImplNames lists the implementation names, suite order.
func (e *engine) ImplNames() []string { return append([]string(nil), e.names...) }

// mergeBuckets is the barrier's bucket merge-then-recount: each shard
// store's new buckets are absorbed into shared in shard order, then the
// per-bucket hit counts become the exact sum over the shard stores.
// shard returns shard si's store and its merge cursor.
func mergeBuckets(shared *triage.BucketStore, n int, shard func(si int) (*triage.BucketStore, *int)) {
	totals := map[uint64]int{}
	for si := 0; si < n; si++ {
		local, synced := shard(si)
		delta := local.Since(*synced)
		*synced += len(delta)
		shared.Absorb(delta)
		for key, c := range local.Counts() {
			totals[key] += c
		}
	}
	shared.Recount(totals)
}

// skeleton exports a shard-local bucket store without representative
// outcomes: keys, counts, and signatures keep dedup freshness and
// barrier recounts exact across a resume, and the pool-wide store
// already carries the outcomes.
func skeleton(bs *triage.BucketStore) ([]triage.BucketSnapshot, int) {
	snaps, total := bs.Export()
	for i := range snaps {
		snaps[i].Outcome, snaps[i].Compile = nil, nil
	}
	return snaps, total
}

// bucketCounts is a store's bucket count and its breakdown by finding
// kind, in stats-field order.
func bucketCounts(bs *triage.BucketStore) (total, divergences, ices, diags, runtime int) {
	k := bs.KindCounts()
	return bs.Len(), k[triage.KindCompileDivergence], k[triage.KindICE], k[triage.KindDiagMismatch], k[triage.KindRuntime]
}

// optionsDigest starts a campaign-options hash with the
// implementation names; the mode then writes its own fields.
func optionsDigest(seed uint32, cfgs []compiler.Config) *hash.Digest {
	d := hash.New128(seed)
	for _, cfg := range defaultConfigs(cfgs) {
		fmt.Fprintf(d, "cfg:%s\n", cfg.Name())
	}
	return d
}

// writeBlobs hashes length-prefixed byte strings.
func writeBlobs(d *hash.Digest, tag string, blobs [][]byte) {
	for _, b := range blobs {
		fmt.Fprintf(d, "%s:%d:", tag, len(b))
		d.Write(b)
	}
}

// defaultConfigs is cfgs, or the paper's ten implementations.
func defaultConfigs(cfgs []compiler.Config) []compiler.Config {
	if len(cfgs) > 0 {
		return cfgs
	}
	return compiler.DefaultSet()
}

// defaultInputs is inputs, or just the empty input.
func defaultInputs(inputs [][]byte) [][]byte {
	if len(inputs) > 0 {
		return inputs
	}
	return [][]byte{nil}
}

func implNames(cfgs []compiler.Config) []string {
	names := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		names[i] = cfg.Name()
	}
	return names
}

// programOracle is the per-program differential check the compile and
// evolve modes share: a cached k-way compile, then, when every
// implementation accepts, the runtime cross-check on every input.
type programOracle struct {
	cfgs   []compiler.Config
	inputs [][]byte
	cache  *progcache.Cache
	copts  core.Options
}

func newProgramOracle(cfgs []compiler.Config, inputs [][]byte, cacheBudget, stepLimit int64, parallelism int) (*programOracle, error) {
	cfgs = defaultConfigs(cfgs)
	if len(cfgs) < 2 {
		return nil, fmt.Errorf("difffuzz: need at least 2 compiler implementations, got %d", len(cfgs))
	}
	copts := core.Options{StepLimit: stepLimit, Parallelism: parallelism}
	return &programOracle{cfgs, defaultInputs(inputs), progcache.New(cacheBudget), copts}, nil
}

// verdict is one program's raw oracle measurements.
type verdict struct {
	// reject marks a front-end failure (no finding).
	reject bool
	// bits is each implementation's fired-rewrite bitmap, set whenever
	// the front end accepted.
	bits []compiler.PassBits
	// co is non-nil when some implementation rejected or crashed.
	co *core.CompileOutcome
	// classes is the most output-checksum classes any input produced
	// (0 unless every implementation accepted); outcomes are the
	// diverged runtime outcomes.
	classes  int
	outcomes []*core.Outcome
}

// check runs src through the oracle. The cache serves revisits of an
// already-seen source without re-running the front end or the k
// lowerings; the record is a pure function of the source, so hits and
// misses produce identical verdicts. info, when non-nil, is the
// caller's checked front end for src, which a miss lowers directly.
// The suite's machines come from the caller's spares and go back to
// them after the verdict: each shard keeps its own spares for the
// whole Run (engine.spares), so shards share compiled programs
// read-only, never execution state, and a rebound machine runs exactly
// as a new one would.
func (o *programOracle) check(src string, info *sema.Info, spares *core.Spares) verdict {
	var v verdict
	comp := o.cache.GetChecked(src, info, o.cfgs, o.copts.Parallelism)
	if comp.FrontendErr != nil {
		v.reject = true
		return v
	}
	v.bits = make([]compiler.PassBits, len(comp.Results))
	for i := range comp.Results {
		v.bits[i] = comp.Results[i].PassBits
	}
	suite, co, err := spares.AssembleDifferential(comp.Results, o.cfgs, o.copts)
	if err != nil {
		v.reject = true
		return v
	}
	if suite == nil {
		v.co = co
		return v
	}
	v.classes = 1
	for _, in := range o.inputs {
		r := suite.Run(in)
		if r == nil {
			continue
		}
		v.classes = max(v.classes, distinctHashes(r.Hashes))
		if r.Diverged {
			v.outcomes = append(v.outcomes, r)
		}
	}
	spares.Release(suite)
	return v
}

// distinctHashes counts output-checksum partition classes.
func distinctHashes(hs []uint64) int {
	n := 0
	for i, h := range hs {
		if !slices.Contains(hs[:i], h) {
			n++
		}
	}
	return n
}

// programCounts are the per-program counters the compile and evolve
// modes keep.
type programCounts struct {
	programs, accepted, frontendRejects, findings int64
}

// tally counts one program's verdict and files its findings into bs.
// It returns the number of findings and how many opened a new bucket.
func (c *programCounts) tally(bs *triage.BucketStore, v verdict) (findings, fresh int) {
	c.programs++
	switch {
	case v.reject:
		c.frontendRejects++
	case v.co != nil:
		// Some implementation rejected or crashed: a finding exactly
		// when the partition or the normalized messages differ.
		b, isNew := bs.AddCompile(v.co)
		if b == nil {
			c.frontendRejects++ // uniform reject: not a finding
			return 0, 0
		}
		findings = 1
		if isNew {
			fresh = 1
		}
	default:
		c.accepted++
		for _, o := range v.outcomes {
			if _, isNew := bs.Add(o); isNew {
				fresh++
			}
			findings++
		}
	}
	c.findings += int64(findings)
	return findings, fresh
}

// CacheStats exposes the compiled-program cache counters: hits are
// revisits served without recompiling. Process-local (a resumed pool
// starts cold), so deliberately not part of the mode's Stats, which is
// the cross-resume determinism fingerprint.
func (o *programOracle) CacheStats() progcache.Stats { return o.cache.Stats() }
