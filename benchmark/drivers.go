package main

// Benchmark-side drivers for the traced run. Each one makes the same
// public calls as the campaign code it stands in for — difffuzz.Pool
// (with its Campaign shards), difffuzz.CompilePool,
// difffuzz.EvolvePool and triage.Reduce — in the same order, and
// wraps each call in a span of the layer it enters. The equivalence
// tests in drivers_test.go pin their results to the real campaigns',
// which is what keeps the per-layer numbers honest.

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
	"weak"

	"compdiff/internal/checkpoint"
	"compdiff/internal/compiler"
	"compdiff/internal/core"
	"compdiff/internal/difffuzz"
	"compdiff/internal/evolve"
	"compdiff/internal/fuzz"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
	"compdiff/internal/progcache"
	"compdiff/internal/triage"
	"compdiff/internal/vm"
)

// Span names. Frames give threads their extent; every other name is a
// layer boundary (package.call).
const (
	spSetup = iota
	spRun
	spShard
	spNew
	spPoolRun
	spParse
	spSema
	spLower
	spBuild
	spFuzzNew
	spVMExec
	spCoreRun
	spAssemble
	spDiffAdd
	spBucketAdd
	spFuzzRun
	spForceSeed
	spEpoch
	spEpochWait
	spBarrier
	spCkptExport
	spCkptSave
	spCacheGet
	spCacheMiss
	spNextGen
	spReduce
)

var spanDefs = []SpanDef{
	spSetup:      {Name: "bench.setup", Frame: true, Always: true},
	spRun:        {Name: "bench.run", Frame: true, Always: true},
	spShard:      {Name: "bench.shard", Frame: true, Always: true},
	spNew:        {Name: "difffuzz.new", Always: true},
	spPoolRun:    {Name: "difffuzz.run", Always: true},
	spParse:      {Name: "minic.parse"},
	spSema:       {Name: "minic.sema"},
	spLower:      {Name: "compiler.lower"},
	spBuild:      {Name: "core.build"},
	spFuzzNew:    {Name: "fuzz.new", Always: true},
	spVMExec:     {Name: "vm.exec"},
	spCoreRun:    {Name: "core.run"},
	spAssemble:   {Name: "core.assemble"},
	spDiffAdd:    {Name: "core.diff_add"},
	spBucketAdd:  {Name: "triage.bucket_add"},
	spFuzzRun:    {Name: "fuzz.run", Always: true},
	spForceSeed:  {Name: "fuzz.force_seed"},
	spEpoch:      {Name: "difffuzz.epoch", Always: true},
	spEpochWait:  {Name: "difffuzz.epoch.wait"},
	spBarrier:    {Name: "difffuzz.barrier", Always: true},
	spCkptExport: {Name: "checkpoint.export", Always: true},
	spCkptSave:   {Name: "checkpoint.save", Always: true},
	spCacheGet:   {Name: "progcache.get"},
	spCacheMiss:  {Name: "progcache.get.miss"},
	spNextGen:    {Name: "evolve.next_generation", Always: true},
	spReduce:     {Name: "triage.reduce", Always: true},
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// reservoir keeps a uniform sample of up to cap items (Algorithm R),
// seeded so the same run samples the same items.
type reservoir[T any] struct {
	cap   int
	seen  int64
	items []T
	rng   *rand.Rand
}

func newReservoir[T any](cap int, seed int64) *reservoir[T] {
	return &reservoir[T]{cap: cap, rng: rand.New(rand.NewSource(seed))}
}

func (r *reservoir[T]) offer(item func() T) {
	r.seen++
	if len(r.items) < r.cap {
		r.items = append(r.items, item())
		return
	}
	if j := r.rng.Int63n(r.seen); j < int64(r.cap) {
		r.items[j] = item()
	}
}

// runShards runs body for every live shard on its own goroutine under a
// difffuzz.epoch fan-out span on main, like the pools' epochs, and
// records how long each shard idled before the slowest one finished.
// A panicking shard is marked dead with its error, as the pools do.
func runShards(tr *Tracer, main *Thread, n int, dead []bool, errs []error, body func(si int, th *Thread)) {
	fo := main.BeginFanout(spEpoch)
	ends := make([]int64, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for si := 0; si < n; si++ {
		if dead[si] {
			continue
		}
		th := tr.Thread(si + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					th.unwind()
					mu.Lock()
					dead[si] = true
					errs[si] = fmt.Errorf("shard %d panicked: %v", si, r)
					mu.Unlock()
				}
				ends[si] = tr.now()
			}()
			th.BeginUnder(spShard, fo)
			body(si, th)
			th.End()
		}()
	}
	wg.Wait()
	last := int64(0)
	for si := range ends {
		last = max(last, ends[si])
	}
	for si := range ends {
		if ends[si] > 0 {
			tr.Thread(si+1).AddTime(spEpochWait, time.Duration(last-ends[si]))
		}
	}
	main.End()
}

// ---------------------------------------------------------------
// Input fuzzing: difffuzz.Pool and its Campaign shards.

type fuzzDriver struct {
	opts difffuzz.Options
	tr   *Tracer
	main *Thread

	shards  []*fuzzShard
	dead    []bool
	errs    []error
	store   *core.DiffStore
	buckets *triage.BucketStore

	saver       *checkpoint.Saver
	optionsHash uint64
	ckptEvery   int64
	sinceCkpt   int64
	spent       int64
	persistErrs int64
	saveBytes   int64
}

type fuzzShard struct {
	fz    *fuzz.Fuzzer
	bfuzz *vm.Machine
	suite *core.Suite
	th    *Thread

	diffs   *core.DiffStore
	buckets *triage.BucketStore

	diffExecs   int64
	persistErrs int64
	execs       int64
	feedback    bool
	ready       bool

	batch     int
	batchBuf  []byte
	batchOffs []int
	batchIn   [][]byte
	batchOuts []*core.Outcome

	diffsSynced   int
	bucketsSynced int
	queueSeen     map[uint64]bool

	sample *reservoir[[]byte]
}

// timedExec is B_fuzz behind a fuzz.SharedExecutor that times every
// execution as a vm.exec span and starts a new unit per input.
type timedExec struct{ sh *fuzzShard }

func (t timedExec) Run(in []byte) *vm.Result { return t.sh.bfuzz.Run(in) }
func (t timedExec) Coverage() []byte         { return t.sh.bfuzz.Coverage() }

func (t timedExec) RunShared(in []byte) *vm.Result {
	th := t.sh.th
	th.SetUnit(t.sh.execs)
	t.sh.execs++
	th.Begin(spVMExec)
	r := t.sh.bfuzz.RunShared(in)
	th.End()
	return r
}

// newFuzzDriver mirrors difffuzz.NewPool: one front-end pass, then
// NewChecked per shard with ShardSeed-derived seeds and -S roles.
func newFuzzDriver(src string, seeds [][]byte, opts difffuzz.Options, tr *Tracer, sampleCap int) (*fuzzDriver, error) {
	d := &fuzzDriver{opts: opts, tr: tr, main: tr.Thread(0)}
	m := d.main
	m.Begin(spParse)
	prog, err := parser.Parse(src)
	m.End()
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	m.Begin(spSema)
	info, err := sema.Check(prog)
	m.End()
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	if opts.CheckpointDir != "" {
		if checkpoint.Exists(opts.CheckpointDir) {
			return nil, fmt.Errorf("%s already holds a checkpoint", opts.CheckpointDir)
		}
		if d.saver, err = checkpoint.NewSaver(opts.CheckpointDir); err != nil {
			return nil, err
		}
		d.optionsHash = difffuzz.CampaignHash(src, seeds, opts)
		d.ckptEvery = max(opts.CheckpointEvery, 1)
	}
	n := max(opts.Shards, 1)
	d.store = core.NewDiffStore(opts.DiffDir)
	d.buckets = triage.NewBucketStore()
	d.dead = make([]bool, n)
	d.errs = make([]error, n)
	for si := 0; si < n; si++ {
		sopts := opts
		sopts.FuzzSeed = difffuzz.ShardSeed(opts.FuzzSeed, si)
		if si > 0 {
			sopts.SkipDeterministic = true
		}
		sh, err := d.newShard(info, seeds, sopts, sampleCap/n)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", si, err)
		}
		d.shards = append(d.shards, sh)
	}
	return d, nil
}

// newShard mirrors difffuzz.NewChecked without telemetry.
func (d *fuzzDriver) newShard(info *sema.Info, seeds [][]byte, opts difffuzz.Options, sampleCap int) (*fuzzShard, error) {
	m := d.main
	cfgs := opts.Configs
	if len(cfgs) == 0 {
		cfgs = compiler.DefaultSet()
	}
	fuzzCfg := compiler.Config{
		Family:     compiler.Clang,
		Opt:        difffuzz.O1ForSan(opts.Sanitizer),
		Instrument: true,
		ASan:       opts.Sanitizer == vm.SanASan,
		Sanitize:   opts.Sanitizer != vm.SanNone,
	}
	m.Begin(spLower)
	bfuzz, err := compiler.Compile(info, fuzzCfg)
	m.End()
	if err != nil {
		return nil, err
	}
	m.Begin(spBuild)
	suite, err := core.Build(info, cfgs, core.Options{
		StepLimit:   opts.StepLimit,
		Normalizer:  opts.Normalizer,
		Parallelism: opts.Parallelism,
	})
	m.End()
	if err != nil {
		return nil, err
	}
	batch := opts.BatchSize
	if batch < 1 || opts.DivergenceFeedback {
		batch = 1
	}
	sh := &fuzzShard{
		bfuzz:     vm.New(bfuzz, vm.Options{Coverage: true, StepLimit: opts.StepLimit, San: opts.Sanitizer}),
		suite:     suite,
		th:        m,
		diffs:     core.NewDiffStore(""),
		buckets:   triage.NewBucketStore(),
		feedback:  opts.DivergenceFeedback,
		batch:     batch,
		queueSeen: map[uint64]bool{},
		sample:    newReservoir[[]byte](sampleCap, opts.FuzzSeed),
	}
	if batch > 1 {
		sh.batchOffs = make([]int, 1, batch+1)
	}
	m.Begin(spFuzzNew)
	sh.fz = fuzz.New(timedExec{sh}, seeds, fuzz.Options{
		Seed:              opts.FuzzSeed,
		MaxInputLen:       opts.MaxInputLen,
		SkipDeterministic: opts.SkipDeterministic,
		OnExec:            sh.onExec,
	})
	m.End()
	sh.ready = true
	return sh, nil
}

func (sh *fuzzShard) onExec(input []byte, _ *vm.Result) {
	if sh.th.sampled {
		sh.sample.offer(func() []byte { return append([]byte(nil), input...) })
	}
	if sh.batch > 1 && sh.ready {
		sh.batchBuf = append(sh.batchBuf, input...)
		sh.batchOffs = append(sh.batchOffs, len(sh.batchBuf))
		if len(sh.batchOffs)-1 >= sh.batch {
			sh.flushBatch()
		}
		return
	}
	th := sh.th
	th.Begin(spCoreRun)
	o := sh.suite.RunFast(input)
	th.End()
	th.Add(spCoreRun, 1, b2i(o.Diverged))
	sh.observe(input, o, sh.feedback)
}

func (sh *fuzzShard) flushBatch() {
	nb := len(sh.batchOffs) - 1
	if nb <= 0 {
		return
	}
	sh.batchIn = sh.batchIn[:0]
	for i := 0; i < nb; i++ {
		sh.batchIn = append(sh.batchIn, sh.batchBuf[sh.batchOffs[i]:sh.batchOffs[i+1]])
	}
	th := sh.th
	th.Begin(spCoreRun)
	sh.batchOuts = sh.suite.RunBatch(sh.batchIn, sh.batchOuts[:0])
	th.End()
	var div int64
	for i, o := range sh.batchOuts {
		if o.Diverged {
			div++
			o.Input = append([]byte(nil), o.Input...)
		}
		sh.observe(o.Input, o, false)
		sh.batchOuts[i] = nil
	}
	th.Add(spCoreRun, int64(nb), div)
	sh.batchBuf = sh.batchBuf[:0]
	sh.batchOffs = sh.batchOffs[:1]
}

// observe mirrors Campaign.observe: diff store, triage bucket, and
// divergence feedback.
func (sh *fuzzShard) observe(input []byte, o *core.Outcome, feedback bool) {
	sh.diffExecs += int64(len(sh.suite.Impls))
	if !o.Diverged {
		return
	}
	th := sh.th
	th.Begin(spDiffAdd)
	fresh, err := sh.diffs.Add(o)
	if err != nil {
		th.EndFail()
		sh.persistErrs++
	} else {
		th.End()
	}
	th.Add(spDiffAdd, 1, b2i(fresh))
	th.Begin(spBucketAdd)
	_, bfresh := sh.buckets.Add(o)
	th.End()
	th.Add(spBucketAdd, 1, b2i(bfresh))
	if fresh && feedback && sh.ready {
		th.Begin(spForceSeed)
		sh.fz.ForceSeed(input)
		th.End()
	}
}

// Run mirrors Pool.Run: epochs of SyncEvery executions per shard, a
// barrier after each, and a checkpoint every CheckpointEvery barriers.
func (d *fuzzDriver) Run(budget int64) {
	chunk := d.opts.SyncEvery
	if chunk <= 0 {
		chunk = budget / 8
	}
	if len(d.shards) == 1 && d.saver == nil {
		chunk = budget
	}
	if chunk < 1 {
		chunk = budget
	}
	var spent int64
	for spent < budget {
		step := min(chunk, budget-spent)
		runShards(d.tr, d.main, len(d.shards), d.dead, d.errs, func(si int, th *Thread) {
			s := d.shards[si]
			s.th = th
			th.Begin(spFuzzRun)
			s.fz.Run(step)
			th.End()
			s.flushBatch()
		})
		spent += step
		d.spent += step
		d.main.Begin(spBarrier)
		d.synchronize()
		d.main.End()
		if d.saver != nil {
			d.sinceCkpt++
			if d.sinceCkpt >= d.ckptEvery {
				d.saveCheckpoint()
			}
		}
		if live(d.dead) == 0 {
			break
		}
	}
	if d.saver != nil && d.sinceCkpt > 0 {
		d.saveCheckpoint()
	}
}

// live counts the shards not retired.
func live(dead []bool) int {
	n := 0
	for _, dd := range dead {
		if !dd {
			n++
		}
	}
	return n
}

// synchronize mirrors Pool.synchronize.
func (d *fuzzDriver) synchronize() {
	m := d.main
	var freshInputs [][]byte
	for _, s := range d.shards {
		delta := s.diffs.Since(s.diffsSynced)
		s.diffsSynced += len(delta)
		fresh, err := d.store.Absorb(delta)
		if err != nil {
			d.persistErrs++
		}
		for _, df := range fresh {
			freshInputs = append(freshInputs, df.Outcome.Input)
		}
	}
	totals := map[uint64]int{}
	for _, s := range d.shards {
		for sig, c := range s.diffs.Counts() {
			totals[sig] += c
		}
	}
	d.store.Recount(totals)
	for _, s := range d.shards {
		delta := s.buckets.Since(s.bucketsSynced)
		s.bucketsSynced += len(delta)
		d.buckets.Absorb(delta)
	}
	bucketTotals := map[uint64]int{}
	for _, s := range d.shards {
		for key, c := range s.buckets.Counts() {
			bucketTotals[key] += c
		}
	}
	d.buckets.Recount(bucketTotals)
	for i, s := range d.shards {
		var newSeeds [][]byte
		for _, q := range s.fz.Queue() {
			if !s.queueSeen[q.Hash] {
				s.queueSeen[q.Hash] = true
				newSeeds = append(newSeeds, q.Data)
			}
		}
		for j, other := range d.shards {
			if j == i || d.dead[j] {
				continue
			}
			for _, data := range newSeeds {
				m.Begin(spForceSeed)
				other.fz.ForceSeed(data)
				m.End()
			}
		}
	}
	for j, s := range d.shards {
		if d.dead[j] {
			continue
		}
		for _, data := range freshInputs {
			m.Begin(spForceSeed)
			s.fz.ForceSeed(data)
			m.End()
		}
	}
}

func (d *fuzzDriver) saveCheckpoint() {
	m := d.main
	d.sinceCkpt = 0
	m.Begin(spCkptExport)
	st := d.exportState()
	m.End()
	m.Begin(spCkptSave)
	err := d.saver.Save(st)
	if err != nil {
		m.EndFail()
		return
	}
	m.End()
	if man, err := readManifest(d.opts.CheckpointDir); err == nil {
		d.saveBytes += man.StateSize
	}
}

// readManifest reads the manifest a checkpoint save just wrote, for its
// state-file size.
func readManifest(dir string) (*checkpoint.Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	if err != nil {
		return nil, err
	}
	var man checkpoint.Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, err
	}
	return &man, nil
}

// exportState mirrors Pool.exportState without telemetry counters.
func (d *fuzzDriver) exportState() *checkpoint.State {
	st := &checkpoint.State{
		Version:       checkpoint.Version,
		OptionsHash:   d.optionsHash,
		SpentExecs:    d.spent,
		PersistErrors: d.persistErrs,
	}
	for si, s := range d.shards {
		ss := checkpoint.ShardState{
			Index:         si,
			Dead:          d.dead[si],
			Fuzzer:        s.fz.ExportState(),
			DiffExecs:     s.diffExecs,
			PersistErrors: s.persistErrs,
		}
		ss.QueueSeen = make([]uint64, 0, len(s.queueSeen))
		for h := range s.queueSeen {
			ss.QueueSeen = append(ss.QueueSeen, h)
		}
		sort.Slice(ss.QueueSeen, func(i, j int) bool { return ss.QueueSeen[i] < ss.QueueSeen[j] })
		for _, df := range s.diffs.Unique() {
			ss.Diffs = append(ss.Diffs, &core.StoredDiff{Signature: df.Signature, Count: df.Count})
		}
		ss.DiffTotal = s.diffs.Total()
		snaps, btotal := s.buckets.Export()
		for i := range snaps {
			snaps[i].Outcome = nil
		}
		ss.Buckets = snaps
		ss.BucketTotal = btotal
		st.Shards = append(st.Shards, ss)
	}
	st.Diffs = d.store.Unique()
	st.DiffTotal = d.store.Total()
	st.Buckets, st.BucketTotal = d.buckets.Export()
	return st
}

// fuzzResult is what the equivalence checks compare with difffuzz.Pool.
type fuzzResult struct {
	Keys          []uint64
	Execs         int64
	DiffExecs     int64
	CheckpointSeq int
	PersistErrors int64
}

func (d *fuzzDriver) result() fuzzResult {
	r := fuzzResult{Keys: d.buckets.Keys(), PersistErrors: d.persistErrs}
	for _, s := range d.shards {
		r.Execs += s.fz.Stats().Execs
		r.DiffExecs += s.diffExecs
		r.PersistErrors += s.persistErrs
	}
	if d.saver != nil {
		r.CheckpointSeq = d.saver.Seq()
	}
	return r
}

// inputs returns the sampled inputs of every shard.
func (d *fuzzDriver) inputs() [][]byte {
	var out [][]byte
	for _, s := range d.shards {
		out = append(out, s.sample.items...)
	}
	return out
}

// ---------------------------------------------------------------
// Program corpora: the progcache-backed evaluation shared by
// difffuzz.CompilePool and difffuzz.EvolvePool.

// cacheProbe tells a progcache hit from a miss without entering the
// cache: a hit returns the record the previous Get of that key
// returned. Weak pointers keep evicted records collectable, and a
// recompiled record never equals the weak pointer of the evicted one.
type cacheProbe struct {
	mu   sync.Mutex
	seen map[progcache.Key]weak.Pointer[progcache.Compiled]
}

// get wraps Cache.Get in a progcache.get span and books a miss's time
// under progcache.get.miss.
func (cp *cacheProbe) get(th *Thread, c *progcache.Cache, src string, cfgs []compiler.Config, par int) *progcache.Compiled {
	th.Begin(spCacheGet)
	comp := c.Get(src, cfgs, par)
	d := th.End()
	w := weak.Make(comp)
	k := progcache.KeyOf(src)
	cp.mu.Lock()
	prev, ok := cp.seen[k]
	cp.seen[k] = w
	cp.mu.Unlock()
	hit := ok && prev == w
	th.Add(spCacheGet, 1, b2i(hit))
	if !hit {
		th.AddTime(spCacheMiss, d)
	}
	return comp
}

type compileDriver struct {
	opts   difffuzz.CompilePoolOptions
	cfgs   []compiler.Config
	corpus []string
	cursor int

	tr    *Tracer
	main  *Thread
	probe cacheProbe

	shards  []*compileShard
	dead    []bool
	errs    []error
	buckets *triage.BucketStore
	cache   *progcache.Cache
}

type compileShard struct {
	index         int
	buckets       *triage.BucketStore
	bucketsSynced int
	programs      int64
	sample        *reservoir[string]
}

// newCompileDriver mirrors difffuzz.NewCompilePool without stats or
// checkpoints, which the compile-corpus workload does not use.
func newCompileDriver(corpus []string, opts difffuzz.CompilePoolOptions, tr *Tracer, sampleCap int, seed int64) *compileDriver {
	cfgs := opts.Configs
	if len(cfgs) == 0 {
		cfgs = compiler.DefaultSet()
	}
	n := max(opts.Shards, 1)
	d := &compileDriver{
		opts: opts, cfgs: cfgs, corpus: corpus, tr: tr, main: tr.Thread(0),
		probe:   cacheProbe{seen: map[progcache.Key]weak.Pointer[progcache.Compiled]{}},
		dead:    make([]bool, n),
		errs:    make([]error, n),
		buckets: triage.NewBucketStore(),
		cache:   progcache.New(opts.CacheBudget),
	}
	for i := 0; i < n; i++ {
		d.shards = append(d.shards, &compileShard{index: i, buckets: triage.NewBucketStore(),
			sample: newReservoir[string](sampleCap/n, seed+int64(i))})
	}
	return d
}

// Run mirrors CompilePool.Run.
func (d *compileDriver) Run() {
	chunk := d.opts.SyncEvery
	if chunk <= 0 {
		chunk = len(d.corpus)
	}
	for d.cursor < len(d.corpus) {
		start, end := d.cursor, min(d.cursor+chunk, len(d.corpus))
		runShards(d.tr, d.main, len(d.shards), d.dead, d.errs, func(si int, th *Thread) {
			sh := d.shards[si]
			for i := start; i < end; i++ {
				if i%len(d.shards) == sh.index {
					th.SetUnit(int64(i))
					d.processProgram(th, sh, d.corpus[i])
				}
			}
		})
		d.cursor = end
		d.main.Begin(spBarrier)
		mergeBuckets(d.buckets, len(d.shards), func(i int) (*triage.BucketStore, *int) {
			return d.shards[i].buckets, &d.shards[i].bucketsSynced
		})
		d.main.End()
	}
}

// mergeBuckets is the pools' merge-then-recount barrier body over
// shard-local bucket stores, in shard order.
func mergeBuckets(dst *triage.BucketStore, n int, shard func(i int) (*triage.BucketStore, *int)) {
	for i := 0; i < n; i++ {
		bs, synced := shard(i)
		delta := bs.Since(*synced)
		*synced += len(delta)
		dst.Absorb(delta)
	}
	totals := map[uint64]int{}
	for i := 0; i < n; i++ {
		bs, _ := shard(i)
		for key, c := range bs.Counts() {
			totals[key] += c
		}
	}
	dst.Recount(totals)
}

// processProgram mirrors CompilePool.processProgram.
func (d *compileDriver) processProgram(th *Thread, sh *compileShard, src string) {
	sh.programs++
	sh.sample.offer(func() string { return src })
	comp := d.probe.get(th, d.cache, src, d.cfgs, d.opts.Parallelism)
	if comp.FrontendErr != nil {
		return
	}
	th.Begin(spAssemble)
	suite, co, err := core.AssembleDifferential(comp.Results, d.cfgs, core.Options{
		StepLimit:   d.opts.StepLimit,
		Parallelism: d.opts.Parallelism,
	})
	th.End()
	if err != nil {
		return
	}
	if suite == nil {
		th.Begin(spBucketAdd)
		_, fresh := sh.buckets.AddCompile(co)
		th.End()
		th.Add(spBucketAdd, 1, b2i(fresh))
		return
	}
	inputs := d.opts.RuntimeInputs
	if len(inputs) == 0 {
		inputs = [][]byte{nil}
	}
	for _, in := range inputs {
		th.Begin(spCoreRun)
		o := suite.Run(in)
		th.End()
		th.Add(spCoreRun, 1, b2i(o.Diverged))
		if o.Diverged {
			th.Begin(spBucketAdd)
			_, fresh := sh.buckets.Add(o)
			th.End()
			th.Add(spBucketAdd, 1, b2i(fresh))
		}
	}
}

func (d *compileDriver) programs() int64 {
	var n int64
	for _, sh := range d.shards {
		n += sh.programs
	}
	return n
}

func (d *compileDriver) sampled() []string {
	var out []string
	for _, sh := range d.shards {
		out = append(out, sh.sample.items...)
	}
	return out
}

// ---------------------------------------------------------------
// Evolution: difffuzz.EvolvePool.

type evolveDriver struct {
	opts difffuzz.EvolvePoolOptions
	cfgs []compiler.Config

	tr    *Tracer
	main  *Thread
	probe cacheProbe

	pop        []*evolve.Genome
	generation int
	cum        []compiler.PassBits
	buckets    *triage.BucketStore
	cache      *progcache.Cache
	programs   int64
	dead       []bool
	errs       []error
	sample     *reservoir[string]
}

type genomeEval struct {
	eval     evolve.Eval
	co       *core.CompileOutcome
	outcomes []*core.Outcome
}

// newEvolveDriver mirrors difffuzz.NewEvolvePool for explicit Pop,
// Generations and Shards, without stats or checkpoints.
func newEvolveDriver(opts difffuzz.EvolvePoolOptions, tr *Tracer, sampleCap int) *evolveDriver {
	cfgs := opts.Configs
	if len(cfgs) == 0 {
		cfgs = compiler.DefaultSet()
	}
	n := max(opts.Shards, 1)
	return &evolveDriver{
		opts: opts, cfgs: cfgs, tr: tr, main: tr.Thread(0),
		probe:   cacheProbe{seen: map[progcache.Key]weak.Pointer[progcache.Compiled]{}},
		pop:     evolve.SeedPopulation(opts.Seed, opts.Pop),
		cum:     make([]compiler.PassBits, len(cfgs)),
		buckets: triage.NewBucketStore(),
		cache:   progcache.New(opts.CacheBudget),
		dead:    make([]bool, n),
		errs:    make([]error, n),
		sample:  newReservoir[string](sampleCap, opts.Seed),
	}
}

// Run mirrors EvolvePool.Run: evaluate sharded, fold at the barrier in
// genome order, breed.
func (d *evolveDriver) Run() {
	eo := evolve.Options{Seed: d.opts.Seed}
	n := len(d.dead)
	for d.generation < d.opts.Generations {
		evals := make([]genomeEval, len(d.pop))
		runShards(d.tr, d.main, n, d.dead, d.errs, func(si int, th *Thread) {
			for i := si; i < len(d.pop); i += n {
				th.SetUnit(int64(d.generation*len(d.pop) + i))
				evals[i] = d.evalGenome(th, d.pop[i])
			}
		})
		if live(d.dead) < n {
			return
		}
		d.main.Begin(spBarrier)
		fits := d.barrier(evals, eo)
		d.main.End()
		for _, g := range d.pop {
			d.sample.offer(func() string { return g.Src })
		}
		d.main.Begin(spNextGen)
		d.pop = evolve.NextGeneration(d.pop, fits, d.generation, eo)
		d.main.End()
		d.generation++
	}
}

// evalGenome mirrors EvolvePool.evalGenome.
func (d *evolveDriver) evalGenome(th *Thread, g *evolve.Genome) genomeEval {
	var ge genomeEval
	comp := d.probe.get(th, d.cache, g.Src, d.cfgs, d.opts.Parallelism)
	if comp.FrontendErr != nil {
		ge.eval.FrontendReject = true
		return ge
	}
	ge.eval.ImplBits = make([]compiler.PassBits, len(comp.Results))
	for i := range comp.Results {
		ge.eval.ImplBits[i] = comp.Results[i].PassBits
	}
	th.Begin(spAssemble)
	suite, co, err := core.AssembleDifferential(comp.Results, d.cfgs, core.Options{
		StepLimit:   d.opts.StepLimit,
		Parallelism: d.opts.Parallelism,
	})
	th.End()
	if err != nil {
		ge.eval.FrontendReject = true
		return ge
	}
	if suite == nil {
		ge.co = co
		return ge
	}
	ge.eval.Classes = 1
	inputs := d.opts.RuntimeInputs
	if len(inputs) == 0 {
		inputs = [][]byte{nil}
	}
	for _, in := range inputs {
		th.Begin(spCoreRun)
		o := suite.Run(in)
		th.End()
		th.Add(spCoreRun, 1, b2i(o.Diverged))
		if c := distinctHashes(o.Hashes); c > ge.eval.Classes {
			ge.eval.Classes = c
		}
		if o.Diverged {
			ge.outcomes = append(ge.outcomes, o)
		}
	}
	return ge
}

func distinctHashes(hs []uint64) int {
	seen := map[uint64]bool{}
	for _, h := range hs {
		seen[h] = true
	}
	return len(seen)
}

// barrier mirrors EvolvePool.barrier.
func (d *evolveDriver) barrier(evals []genomeEval, eo evolve.Options) []float64 {
	m := d.main
	cumStart := append([]compiler.PassBits(nil), d.cum...)
	fits := make([]float64, len(evals))
	for i := range evals {
		ge := &evals[i]
		d.programs++
		if ge.co != nil {
			m.Begin(spBucketAdd)
			b, fresh := d.buckets.AddCompile(ge.co)
			m.End()
			m.Add(spBucketAdd, 1, b2i(fresh))
			if b != nil {
				ge.eval.Findings++
				if fresh {
					ge.eval.NewBuckets++
				}
			}
		}
		for _, o := range ge.outcomes {
			m.Begin(spBucketAdd)
			_, fresh := d.buckets.Add(o)
			m.End()
			m.Add(spBucketAdd, 1, b2i(fresh))
			ge.eval.Findings++
			if fresh {
				ge.eval.NewBuckets++
			}
		}
		for k, b := range ge.eval.ImplBits {
			ge.eval.NewBits += bits.OnesCount32(uint32(b &^ cumStart[k]))
			d.cum[k] |= b
		}
		fits[i] = evolve.Fitness(d.pop[i], ge.eval, eo)
	}
	return fits
}

func (d *evolveDriver) passCoverage() int {
	n := 0
	for _, b := range d.cum {
		n += b.Count()
	}
	return n
}

// ---------------------------------------------------------------
// Reduction: triage.Reduce, one span per finding.

func reduceTraced(th *Thread, fs []finding) []reduceOut {
	out := make([]reduceOut, len(fs))
	for i, f := range fs {
		th.SetUnit(int64(i))
		th.Begin(spReduce)
		r, err := triage.Reduce(f.src, f.input, f.opts())
		if err != nil {
			th.EndFail()
		} else {
			th.End()
		}
		out[i] = reduceOut{r: r, err: err}
	}
	return out
}
