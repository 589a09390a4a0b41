package difffuzz

// Checkpoint/resume for the sharded campaign pool. The engine
// snapshots at synchronization barriers — the single-threaded moment
// when shard stores, the shared stores, and the telemetry counters are
// mutually consistent — and ResumePool rebuilds an equivalent pool: a
// campaign checkpointed after N executions and resumed for N more
// finds exactly the unique-signature and bucket-key sets an
// uninterrupted 2N-execution campaign finds.

import (
	"fmt"
	"sort"
	"sync/atomic"

	"compdiff/internal/checkpoint"
	"compdiff/internal/core"
	"compdiff/internal/triage"
)

// CampaignHash fingerprints everything that determines a campaign's
// behavior: the source, the seed corpus, and the determinism-relevant
// options. Resuming demands an exact match — a checkpoint replayed
// under different settings would silently diverge from both the
// original and a fresh run. Deliberately excluded: Parallelism and
// BatchSize (scheduling/throughput only — the differential verdicts
// are byte-identical at any batch size, see the self-test layer),
// DiffDir and the Stats/Checkpoint knobs (observability only) — a
// campaign may legitimately resume with more workers, a different
// batch size, or a different stats directory.
func CampaignHash(src string, seeds [][]byte, opts Options) uint64 {
	d := optionsDigest(0xca3b, opts.Configs)
	fmt.Fprintf(d, "seed:%d step:%d maxlen:%d san:%d skipdet:%t divfb:%t shards:%d sync:%d norm:%t\n",
		opts.FuzzSeed, opts.StepLimit, opts.MaxInputLen, opts.Sanitizer,
		opts.SkipDeterministic, opts.DivergenceFeedback, max(opts.Shards, 1), opts.SyncEvery,
		opts.Normalizer != nil)
	fmt.Fprintf(d, "src:%d:%s", len(src), src)
	writeBlobs(d, "corpus", seeds)
	h1, _ := d.Sum128()
	return h1
}

// ResumePool rebuilds a pool from the checkpoint in
// opts.CheckpointDir and restores its state, ready for further Run
// calls. Errors are classified as for every mode: ErrNoCheckpoint,
// ErrMismatch, ErrCorrupt.
func ResumePool(src string, seeds [][]byte, opts Options) (*Pool, error) {
	return resume(opts.CheckpointDir, CampaignHash(src, seeds, opts), func() (*Pool, error) {
		return newPool(src, seeds, opts, true)
	})
}

// SpentExecs is the cumulative per-shard execution budget consumed
// across all Run calls, including runs before a resume.
func (p *Pool) SpentExecs() int64 { return p.spentTotal.Load() }

// export fills in the pool's snapshot. Called only at barriers (and
// after Run), when no shard goroutine is running.
func (p *Pool) export(st *checkpoint.State) {
	st.SpentExecs = p.spentTotal.Load()
	st.PersistErrors = p.persistErrs.Load()
	for si, s := range p.shards {
		ss := checkpoint.ShardState{
			Index:     si,
			Dead:      p.dead[si],
			Fuzzer:    s.c.fuzzer.ExportState(),
			DiffExecs: atomic.LoadInt64(&s.c.diffExecs),
		}
		ss.QueueSeen = make([]uint64, 0, len(s.queueSeen))
		for h := range s.queueSeen {
			ss.QueueSeen = append(ss.QueueSeen, h)
		}
		sort.Slice(ss.QueueSeen, func(i, j int) bool { return ss.QueueSeen[i] < ss.QueueSeen[j] })
		// Shard-local stores travel as skeletons: signatures and counts
		// keep dedup freshness and barrier recounts exact after a
		// resume, while the representative outcomes (which the shared
		// store already carries for every pool-wide-fresh signature)
		// are shed.
		for _, d := range s.c.diffs.Unique() {
			ss.Diffs = append(ss.Diffs, &core.StoredDiff{Signature: d.Signature, Count: d.Count})
		}
		ss.DiffTotal = s.c.diffs.Total()
		ss.Buckets, ss.BucketTotal = skeleton(s.c.buckets)
		if m := s.c.metrics; m != nil {
			ss.Metrics = &checkpoint.MetricsState{
				Execs:     m.Execs.Load(),
				DiffExecs: m.DiffExecs.Load(),
				Classes:   m.Classes.Snapshot(),
				Impls:     m.Suite.Summaries(),
			}
		}
		st.Shards = append(st.Shards, ss)
	}
	st.Diffs = p.store.Unique()
	st.DiffTotal = p.store.Total()
}

// restore overwrites the pool's state with a loaded checkpoint. The
// pool must have been built from the same (source, seeds, options) —
// ResumePool enforces that via CampaignHash before calling.
func (p *Pool) restore(st *checkpoint.State) error {
	if len(st.Shards) != len(p.shards) {
		return fmt.Errorf("difffuzz: checkpoint has %d shards, pool has %d", len(st.Shards), len(p.shards))
	}
	// The shared store is replaced wholesale; the DiffDir files from
	// the original run are already on disk, so the restored store does
	// not rewrite them (and O_EXCL keeps any name collisions from new
	// findings non-destructive).
	p.store = core.RestoreDiffStore(p.opts.DiffDir, st.Diffs, st.DiffTotal)
	p.spentTotal.Store(st.SpentExecs)
	p.persistErrs.Store(st.PersistErrors)
	for i, s := range p.shards {
		ss := &st.Shards[i]
		if ss.Index != i {
			return fmt.Errorf("difffuzz: checkpoint shard %d carries index %d", i, ss.Index)
		}
		if err := s.c.restoreShard(ss); err != nil {
			return fmt.Errorf("difffuzz: shard %d: %w", i, err)
		}
		p.dead[i] = ss.Dead
		// Barrier cursors always equal the store lengths at a barrier,
		// which is when the snapshot was taken.
		s.diffsSynced = len(ss.Diffs)
		s.bucketsSynced = len(ss.Buckets)
		s.queueSeen = make(map[uint64]bool, len(ss.QueueSeen))
		for _, h := range ss.QueueSeen {
			s.queueSeen[h] = true
		}
	}
	// The caches a concurrent Stats reader sees must reflect the
	// restored shard state, not the discarded construction-time state.
	p.refreshStatCache()
	return nil
}

// restoreShard overwrites one shard campaign's state. Whatever seed
// ingestion the constructor performed is discarded: the fuzzer restore
// replaces the queue, the stores are replaced, and the counters are
// overwritten with checkpointed values (which already include the
// original run's construction-time ingestion).
func (c *campaign) restoreShard(ss *checkpoint.ShardState) error {
	if err := c.fuzzer.RestoreState(ss.Fuzzer); err != nil {
		return err
	}
	c.diffs = core.RestoreDiffStore("", ss.Diffs, ss.DiffTotal)
	c.buckets = triage.RestoreBucketStore(ss.Buckets, ss.BucketTotal)
	atomic.StoreInt64(&c.diffExecs, ss.DiffExecs)
	if m := c.metrics; m != nil && ss.Metrics != nil {
		m.Execs.Store(ss.Metrics.Execs)
		m.DiffExecs.Store(ss.Metrics.DiffExecs)
		m.Classes.Store(ss.Metrics.Classes)
		m.Suite.Restore(ss.Metrics.Impls)
	}
	return nil
}
