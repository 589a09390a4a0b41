package difffuzz

// The sharded campaign orchestrator: the AFL++ -M/-S topology the
// paper's evaluation used on its 64-core server (§4, Tables 5-6),
// reproduced as a pool of N in-process fuzzer shards on the campaign
// engine. Shard 0 is the main instance (deterministic stage enabled,
// like -M); secondaries run havoc-only (like -S). Each shard owns its
// fuzzer, its B_fuzz machine, its CompDiff suite, and a shard-local
// DiffStore, so the shards never contend mid-epoch and a fixed
// FuzzSeed yields the same findings regardless of goroutine
// scheduling.
//
// Shards meet at synchronization barriers every SyncEvery executions.
// The barrier merge, run single-threaded in shard-index order, does
// what AFL's periodic queue-directory scans do: it merges each shard's
// new discrepancies into the shared mutex-guarded DiffStore, recounts
// the shared totals, and cross-pollinates both the diff-triggering
// inputs and the coverage-fresh queue entries into every sibling
// shard. Because barriers are the only cross-shard channel, the set of
// discrepancy signatures a pool finds is a deterministic function of
// (source, seeds, options) — discovery *order* inside an epoch is the
// only thing scheduling can vary, and the shared store absorbs in
// shard order, so even that is stable. A panicking shard is retired;
// the others keep fuzzing.

import (
	"context"
	"fmt"
	"log"
	"sort"
	"sync/atomic"

	"compdiff/internal/core"
	"compdiff/internal/fuzz"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
	"compdiff/internal/telemetry"
	"compdiff/internal/triage"
)

// Pool runs N campaign shards over one target.
type Pool struct {
	engine
	opts   Options
	shards []*shard
	store  *core.DiffStore // shared; shard stores merge into it at barriers

	// statShards / statCrashes are barrier-consistent copies of the
	// per-shard fuzzer stats and the content-deduplicated crash count,
	// guarded by engine.mu. Shard fuzzers are goroutine-confined, so a
	// live Stats call (the control plane) must not touch them mid-epoch;
	// these caches are refreshed at every barrier (and at
	// construction/restore), which is also the only moment the numbers
	// are mutually consistent.
	statShards  []fuzz.Stats
	statCrashes int

	// The current Run call's budget, the part of it spent, the epoch
	// chunk, and the prepared epoch's step, all per shard.
	budget, spent, chunk, step int64
	// spentTotal accumulates the per-shard budget across Run calls
	// (restored on resume, so it spans process lifetimes). Atomic so a
	// concurrent Stats reader sees a coherent value mid-campaign.
	spentTotal atomic.Int64
	// persistErrs counts shared-store persistence failures observed at
	// barriers. Atomic: the control plane reads stats while the
	// campaign runs.
	persistErrs atomic.Int64
}

// shard is one fuzzer instance plus its synchronization bookkeeping.
type shard struct {
	c *campaign

	diffsSynced   int             // shard-local store entries already merged
	bucketsSynced int             // shard-local buckets already merged
	queueSeen     map[uint64]bool // queue entry hashes already cross-pollinated
}

// PoolStats summarizes a pool run.
type PoolStats struct {
	Shards int
	// Execs is the total number of B_fuzz executions across shards.
	Execs int64
	// DiffExecs is the total spent on the CompDiff binaries.
	DiffExecs int64
	// UniqueDiffs and TotalDiffInputs mirror the shared store.
	UniqueDiffs     int
	TotalDiffInputs int
	// UniqueBuckets is the pool-wide count of fingerprint-deduplicated
	// findings — the triage layer's view of UniqueDiffs.
	UniqueBuckets int
	// CompileDivergences, ICEs, and DiagMismatches break UniqueBuckets
	// down by compile-stage finding kind. All zero in input-fuzzing
	// pools, whose findings are runtime-kind by construction; the
	// compile-oracle pool shares this stats shape.
	CompileDivergences int
	ICEs               int
	DiagMismatches     int
	// UniqueCrashes counts content-distinct B_fuzz crashes pool-wide.
	UniqueCrashes int
	// ShardStats holds each shard's fuzzer statistics.
	ShardStats []fuzz.Stats
	// ShardErrors has one entry per shard; non-nil marks a shard that
	// panicked and was retired. The campaign itself keeps running.
	ShardErrors []error
	// PersistErrors counts shared-store persistence failures. Non-zero
	// means the campaign completed but DiffDir is missing evidence files.
	PersistErrors int64
	// PlotWriteErrors counts telemetry snapshots that did not reach
	// plot.jsonl and failed flushes of it.
	PlotWriteErrors int64
	// CheckpointErrors counts barrier checkpoints that failed to save.
	// The campaign continues on the last durable checkpoint, so a resume
	// would repeat the work since then.
	CheckpointErrors int64
	// SpentExecs is the cumulative per-shard budget across Run calls,
	// including runs before a resume.
	SpentExecs int64
}

// NewPool parses and checks src once, then builds opts.Shards
// campaign shards with AFL -M/-S roles and ShardSeed-derived RNG
// seeds. Bug-triggering inputs persist (when opts.DiffDir is set)
// only through the shared store, so shards never contend on files.
func NewPool(src string, seeds [][]byte, opts Options) (*Pool, error) {
	return newPool(src, seeds, opts, false)
}

func newPool(src string, seeds [][]byte, opts Options, resume bool) (*Pool, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("difffuzz: parse: %w", err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		return nil, fmt.Errorf("difffuzz: check: %w", err)
	}
	p := &Pool{opts: opts, store: core.NewDiffStore(opts.DiffDir)}
	n := max(opts.Shards, 1)
	for si := 0; si < n; si++ {
		sopts := opts
		sopts.FuzzSeed = ShardSeed(opts.FuzzSeed, si)
		if si > 0 {
			// Secondaries skip the deterministic stage, AFL -S style:
			// systematic shallow exploration is the main's job.
			sopts.SkipDeterministic = true
		}
		c, err := newCampaign(info, seeds, sopts)
		if err != nil {
			return nil, fmt.Errorf("difffuzz: shard %d: %w", si, err)
		}
		p.shards = append(p.shards, &shard{c: c, queueSeen: map[uint64]bool{}})
	}
	if every := opts.StatsEvery; n == 1 && every > 0 {
		// A single shard may run its whole budget as one epoch, so its
		// periodic records come from inside the shard, AFL plot_data
		// style, into the pool's mutex-guarded recorder.
		c := p.shards[0].c
		c.statsTick = func(execs int64) {
			if execs%every == 0 {
				s := c.snapshot()
				s.PersistErrors = p.persistErrs.Load()
				p.recorder.Record(s)
			}
		}
	}
	p.refreshStatCache()
	if opts.BarrierHook != nil {
		p.barrierHook = func() { opts.BarrierHook(p.Stats()) }
	}
	err = p.open(p, engineConfig{
		shards: n, names: implNames(defaultConfigs(opts.Configs)), hash: CampaignHash(src, seeds, opts),
		ckptDir: opts.CheckpointDir, ckptEvery: opts.CheckpointEvery,
		stats: opts.statsEnabled(), statsDir: opts.StatsDir, resume: resume,
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// refreshStatCache recomputes the barrier-consistent shard-stat and
// crash-set caches that a concurrent Stats reader consumes. Called
// only when no shard goroutine is running: at construction, at every
// synchronization barrier, and after a checkpoint restore.
func (p *Pool) refreshStatCache() {
	stats := make([]fuzz.Stats, len(p.shards))
	for si, s := range p.shards {
		stats[si] = s.c.fuzzer.Stats()
	}
	crashes := len(p.Crashes())
	p.mu.Lock()
	p.statShards, p.statCrashes = stats, crashes
	p.mu.Unlock()
}

// ShardSeed derives shard si's fuzzer RNG seed from the base seed.
// Shard 0 keeps the base seed verbatim, so a single-shard pool fuzzes
// with the seed it was given; the rest get splitmix64-mixed values,
// distinct even for adjacent bases.
func ShardSeed(base int64, si int) int64 {
	if si == 0 {
		return base
	}
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(si)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Run fuzzes every live shard for budget executions (per shard),
// pausing at synchronization barriers. Cancellation is checked at
// every barrier: on ctx.Done the current epoch finishes (epochs are
// bounded by SyncEvery, and every VM run is step-limited, so a shard
// cannot wedge an epoch open), findings so far are merged, and Run
// returns. A shard that panics is retired with its error recorded;
// the remaining shards keep fuzzing.
func (p *Pool) Run(ctx context.Context, budget int64) PoolStats {
	p.budget, p.spent = budget, 0
	p.chunk = p.opts.SyncEvery
	if p.chunk <= 0 {
		p.chunk = budget / 8
	}
	// A single shard needs no barriers, so the whole budget runs in one
	// chunk. With checkpointing on, barriers are the snapshot points, so
	// the shard chunks like a multi-shard pool; fresh and resumed runs
	// then share the same chunking, which is what makes resume
	// execution-equivalent.
	if len(p.shards) == 1 && p.saver == nil || p.chunk < 1 {
		p.chunk = budget
	}
	p.run(ctx)
	return p.Stats()
}

func (p *Pool) next() bool {
	p.step = min(p.chunk, p.budget-p.spent)
	return p.spent < p.budget
}

func (p *Pool) epoch(_ context.Context, si int) bool {
	p.shards[si].c.run(p.step)
	return true
}

// snapshot aggregates the shard counters into one pool-wide progress
// record. Called only between epochs (barrier or after Run), when no
// shard goroutine is running.
func (p *Pool) snapshot() telemetry.Snapshot {
	s := p.snapshotBase()
	var classes [telemetry.NumClasses]int64
	plateau := int64(-1)
	for si, sh := range p.shards {
		m := sh.c.metrics
		st := sh.c.fuzzer.Stats()
		s.Execs += m.Execs.Load()
		s.DiffExecs += m.DiffExecs.Load()
		for k, n := range m.Classes.Snapshot() {
			classes[k] += n
		}
		s.Queue += st.Seeds
		age := st.Execs - st.LastNewPath
		if !p.dead[si] && (plateau < 0 || age < plateau) {
			plateau = age
		}
		role := "main"
		if si > 0 {
			role = "secondary"
		}
		s.Shards = append(s.Shards, telemetry.ShardSnapshot{
			Shard:         si,
			Role:          role,
			Execs:         m.Execs.Load(),
			Queue:         st.Seeds,
			UniqueDiffs:   sh.c.diffs.Len(),
			UniqueBuckets: sh.c.buckets.Len(),
			PlateauExecs:  age,
			Retired:       p.dead[si],
		})
	}
	s.SetClasses(classes)
	s.UniqueDiffs = p.store.Len()
	s.TotalDiffInputs = p.store.Total()
	s.UniqueCrashes = len(p.Crashes())
	s.PersistErrors = p.persistErrs.Load()
	if plateau > 0 {
		s.PlateauExecs = plateau
	}
	return s
}

// merge is the barrier body. It runs single-threaded (all shard
// goroutines have joined), in shard-index order, which keeps the
// shared store's discovery order deterministic.
func (p *Pool) merge() {
	p.spent += p.step
	p.spentTotal.Add(p.step)

	// 1. Merge each shard's new discrepancies into the shared store
	// and remember the diff-triggering inputs that were new pool-wide.
	var freshInputs [][]byte
	for _, s := range p.shards {
		delta := s.c.diffs.Since(s.diffsSynced)
		s.diffsSynced += len(delta)
		// A persistence error must not stop the campaign (the
		// in-memory merge always completes), but dropping it on the
		// floor hid incomplete DiffDir evidence from every report:
		// count it and log the first occurrence.
		fresh, err := p.store.Absorb(delta)
		if err != nil && p.persistErrs.Add(1) == 1 {
			log.Printf("difffuzz: diff persistence failed (campaign continues, on-disk evidence incomplete): %v", err)
		}
		for _, d := range fresh {
			freshInputs = append(freshInputs, d.Outcome.Input)
		}
	}

	// 2. Recount: the shared store's per-signature counts become the
	// exact sum over shard-local stores; the triage buckets get the
	// same merge-then-recount.
	totals := map[uint64]int{}
	for _, s := range p.shards {
		for sig, c := range s.c.diffs.Counts() {
			totals[sig] += c
		}
	}
	p.store.Recount(totals)
	mergeBuckets(p.buckets, len(p.shards), func(si int) (*triage.BucketStore, *int) {
		return p.shards[si].c.buckets, &p.shards[si].bucketsSynced
	})

	// 3. Cross-pollinate, AFL -M/-S style: every sibling imports the
	// coverage-fresh queue entries and new diff inputs it has not
	// seen. ForceSeed content-deduplicates on the receiving side.
	for _, s := range p.shards {
		var newSeeds [][]byte
		for _, q := range s.c.fuzzer.Queue() {
			if !s.queueSeen[q.Hash] {
				s.queueSeen[q.Hash] = true
				newSeeds = append(newSeeds, q.Data)
			}
		}
		for oi, other := range p.shards {
			if other == s || p.dead[oi] {
				continue
			}
			for _, data := range newSeeds {
				other.c.fuzzer.ForceSeed(data)
			}
		}
	}
	for _, si := range p.live() {
		for _, data := range freshInputs {
			p.shards[si].c.fuzzer.ForceSeed(data)
		}
	}

	// 4. Refresh the barrier-consistent caches a concurrent Stats
	// reader (the control plane) consumes while the next epoch runs.
	p.refreshStatCache()
}

// Stats aggregates pool-wide statistics. Safe to call concurrently
// with Run — the control plane polls it while a campaign executes.
// Per-shard fuzzer numbers and the crash count are barrier-consistent
// (refreshed at every synchronization barrier, so a mid-epoch read
// reports the last barrier's state); the shared stores and the atomic
// counters are read live. After Run returns the last barrier has run,
// so every field is exact.
func (p *Pool) Stats() PoolStats {
	st := PoolStats{Shards: len(p.shards), ShardErrors: p.shardErrors()}
	p.mu.Lock()
	st.ShardStats = append([]fuzz.Stats(nil), p.statShards...)
	st.UniqueCrashes = p.statCrashes
	p.mu.Unlock()
	for _, fs := range st.ShardStats {
		st.Execs += fs.Execs
	}
	for _, s := range p.shards {
		st.DiffExecs += atomic.LoadInt64(&s.c.diffExecs)
	}
	st.UniqueDiffs = p.store.Len()
	st.TotalDiffInputs = p.store.Total()
	st.UniqueBuckets, st.CompileDivergences, st.ICEs, st.DiagMismatches, _ = bucketCounts(p.buckets)
	st.PersistErrors = p.persistErrs.Load()
	st.PlotWriteErrors = p.plotWriteErrors()
	st.CheckpointErrors = p.ckptErrs.Load()
	st.SpentExecs = p.spentTotal.Load()
	return st
}

// Diffs returns the pool-wide unique discrepancies (shared store,
// merge order).
func (p *Pool) Diffs() []*core.StoredDiff { return p.store.Unique() }

// TotalDiffInputs is the pool-wide count of diverging inputs seen.
func (p *Pool) TotalDiffInputs() int { return p.store.Total() }

// Signatures returns the sorted discrepancy-signature set — the
// stable, order-independent fingerprint of a campaign's findings that
// the determinism tests compare.
func (p *Pool) Signatures() []uint64 {
	diffs := p.store.Unique()
	sigs := make([]uint64, 0, len(diffs))
	for _, d := range diffs {
		sigs = append(sigs, d.Signature)
	}
	sort.Slice(sigs, func(i, j int) bool { return sigs[i] < sigs[j] })
	return sigs
}

// Crashes returns every shard's B_fuzz crashes, content-deduplicated,
// in deterministic (shard, fuzzer) order.
func (p *Pool) Crashes() []*fuzz.Crash {
	seen := map[string]bool{}
	var out []*fuzz.Crash
	for _, s := range p.shards {
		for _, cr := range s.c.fuzzer.Crashes() {
			if !seen[string(cr.Input)] {
				seen[string(cr.Input)] = true
				out = append(out, cr)
			}
		}
	}
	return out
}

// ImplSummaries merges the per-implementation telemetry across shards
// (shards share the implementation set, so position identifies the
// implementation). Nil when stats are disabled.
func (p *Pool) ImplSummaries() []telemetry.ImplSummary {
	var out []telemetry.ImplSummary
	for _, s := range p.shards {
		if s.c.metrics == nil {
			return nil
		}
		out = telemetry.MergeImplSummaries(out, s.c.metrics.Suite.Summaries())
	}
	return out
}
