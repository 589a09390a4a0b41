package main

// The five workloads. Each derives its inputs from the seed, builds
// the real campaign object (the part timed as set-up), runs it (the
// timed part), and then checks its outputs. The traced variant runs
// the same inputs through the benchmark-side drivers.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"compdiff"
	"compdiff/internal/core"
	"compdiff/internal/difffuzz"
	"compdiff/internal/evolve"
	"compdiff/internal/hash"
	"compdiff/internal/progen"
	"compdiff/internal/targets"
	"compdiff/internal/triage"
)

// workload is one named input mix. Sizes are per round at scale 1.
type workload struct {
	name    string
	why     string
	prepare func(e *env, seed int64, scale float64) (job, error)
}

var workloads = []workload{
	{"fuzz-exec", "jq, batched, 20k execs per shard: about 6% of inputs diverge, so the fuzzer loop and VM execution do the work while triage, barriers and checkpoints idle", prepareFuzzExec},
	{"fuzz-triage", "curl, per-exec with divergence feedback, checkpoints and evidence files: most inputs diverge, so triage stores and checkpoint writes run beside the VM", prepareFuzzTriage},
	{"compile-corpus", "150 progen programs plus a quarter of the targets and golden files, 25% revisits: front end, ten lowerings and machine assembly dominate; revisits hit progcache", prepareCompileCorpus},
	{"evolve", "Pop 32, 50 generations, default 64 MiB cache: mutation, gated re-parsing and compilation of growing programs; the working set outgrows the cache, so gets miss and evict", prepareEvolve},
	{"reduce", "every bucket of a 1,500-exec campaign per target plus the 9 golden reproducers, about 70 findings, reduced in turn: candidate rebuilds and short suite runs", prepareReduce},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is where a run reads its fixed inputs and writes its scratch
// files.
type env struct {
	root string // repository root: testdata/golden lives here
	tmp  string // per-run scratch directory, removed at exit
}

// job is one round's inputs.
type job interface {
	// construct builds the real campaign object.
	construct() (campaign, error)
	// traced builds and runs the benchmark-side driver under tr and
	// returns its outcome and the wall time of its run phase.
	traced(tr *Tracer) (outcome, float64, error)
}

// campaign is a constructed, not yet run, campaign.
type campaign interface {
	run()
	// finish collects results, untimed, and with check set verifies
	// the outputs.
	finish(check bool) outcome
	close()
}

// outcome is one round's results.
type outcome struct {
	units     int64
	ident     string // what an equivalent run must reproduce exactly
	attempted int64
	failed    int64
	checks    []check
	extras    map[string]float64
	// Where units are timed singly: each unit's wall and CPU seconds.
	latencies []float64
	unitCPU   []float64
	replay    []replayProg
	layer     map[string]float64 // driver-side per-layer numbers
}

type check struct {
	name   string
	ok     bool
	detail string
}

// expect records one output check and reports whether it passed.
// Callers count the units a failed check fails.
func (o *outcome) expect(name string, ok bool, format string, args ...any) bool {
	c := check{name: name, ok: ok}
	if !ok {
		c.detail = fmt.Sprintf(format, args...)
	}
	o.checks = append(o.checks, c)
	return ok
}

func scaled(n int, scale float64) int {
	return max(1, int(math.Round(float64(n)*scale)))
}

func targetNormalizer(tg *targets.Target) *core.Normalizer {
	if tg.NeedsNormalizer {
		return core.DefaultNormalizer()
	}
	return nil
}

// ---------------------------------------------------------------
// fuzz-exec and fuzz-triage: a difffuzz.Pool on one target.

type fuzzJob struct {
	e      *env
	tg     *targets.Target
	opts   difffuzz.Options
	budget int64
	dirs   bool // checkpoint and evidence directories
}

func prepareFuzzExec(e *env, seed int64, scale float64) (job, error) {
	return &fuzzJob{e: e, tg: targets.ByName("jq"), budget: int64(scaled(20000, scale)),
		opts: difffuzz.Options{Shards: 2, BatchSize: 64, FuzzSeed: seed}}, nil
}

func prepareFuzzTriage(e *env, seed int64, scale float64) (job, error) {
	return &fuzzJob{e: e, tg: targets.ByName("curl"), budget: int64(scaled(10000, scale)), dirs: true,
		opts: difffuzz.Options{Shards: 2, DivergenceFeedback: true, SyncEvery: 1000, FuzzSeed: seed}}, nil
}

// options returns the campaign options with fresh directories.
func (j *fuzzJob) options() (difffuzz.Options, string, error) {
	opts := j.opts
	opts.Normalizer = targetNormalizer(j.tg)
	if !j.dirs {
		return opts, "", nil
	}
	dir, err := os.MkdirTemp(j.e.tmp, "fuzz-")
	if err != nil {
		return opts, "", err
	}
	opts.CheckpointDir = filepath.Join(dir, "ckpt")
	opts.DiffDir = filepath.Join(dir, "evidence")
	return opts, dir, nil
}

type fuzzCampaign struct {
	j        *fuzzJob
	p        *compdiff.CampaignPool
	dir      string
	barriers int
}

func (j *fuzzJob) construct() (campaign, error) {
	opts, dir, err := j.options()
	if err != nil {
		return nil, err
	}
	c := &fuzzCampaign{j: j, dir: dir}
	opts.BarrierHook = func(difffuzz.PoolStats) { c.barriers++ }
	if c.p, err = compdiff.NewCampaignPool(j.tg.Src, j.tg.Seeds, opts); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return c, nil
}

func (c *fuzzCampaign) run() { c.p.Run(context.Background(), c.j.budget) }

func (c *fuzzCampaign) close() {
	c.p.Close()
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}

func fuzzIdent(keys []uint64, execs, diffExecs int64, seq int, persist int64) string {
	return fmt.Sprintf("keys=%x execs=%d diff_execs=%d checkpoint_seq=%d persist_errors=%d", keys, execs, diffExecs, seq, persist)
}

func (c *fuzzCampaign) finish(check bool) outcome {
	st := c.p.Stats()
	o := outcome{units: st.Execs, attempted: st.Execs,
		ident:  fuzzIdent(c.p.BucketKeys(), st.Execs, st.DiffExecs, c.p.CheckpointSeq(), st.PersistErrors),
		extras: map[string]float64{"unique_buckets": float64(st.UniqueBuckets)}}
	for si, err := range st.ShardErrors {
		if err != nil {
			// A retired shard's unspent budget is failed work.
			lost := c.j.budget - st.ShardStats[si].Execs
			o.attempted += max(lost, 0)
			o.failed += max(lost, 0)
		}
	}
	o.expect("no shard retired", !slices.ContainsFunc(st.ShardErrors, func(e error) bool { return e != nil }), "%v", st.ShardErrors)
	// Every representative replays, on a fresh suite, into its bucket.
	for _, b := range c.p.Buckets() {
		if !check {
			break
		}
		o.attempted++
		suite, err := compdiff.New(c.j.tg.Src, compdiff.DefaultImplementations(), compdiff.Options{Normalizer: targetNormalizer(c.j.tg)})
		if err != nil {
			o.expect("bucket replays", false, "suite: %v", err)
			o.failed++
			continue
		}
		r := suite.Run(b.Outcome.Input)
		if !o.expect("bucket replays", r.Diverged && triage.Of(r).Key() == b.Key,
			"bucket %016x input %q replays diverged=%v", b.Key, b.Outcome.Input, r.Diverged) {
			o.failed++
		}
	}
	if c.j.dirs {
		// Checkpoint saves and evidence writes are units too.
		o.attempted += int64(c.barriers + st.UniqueDiffs)
		o.expect("checkpoint per barrier", c.p.CheckpointSeq() == c.barriers,
			"checkpoint seq %d after %d barriers", c.p.CheckpointSeq(), c.barriers)
		if c.p.CheckpointSeq() < c.barriers {
			o.failed += int64(c.barriers - c.p.CheckpointSeq())
		}
		o.failed += st.PersistErrors
		o.expect("no persist errors", st.PersistErrors == 0, "%d persist errors", st.PersistErrors)
		files, _ := os.ReadDir(filepath.Join(c.dir, "evidence", "diffs"))
		if !o.expect("evidence per unique diff", len(files) == st.UniqueDiffs,
			"%d evidence files for %d unique diffs", len(files), st.UniqueDiffs) {
			o.failed += int64(max(st.UniqueDiffs-len(files), 0))
		}
	}
	return o
}

func (j *fuzzJob) traced(tr *Tracer) (outcome, float64, error) {
	opts, dir, err := j.options()
	if err != nil {
		return outcome{}, 0, err
	}
	defer os.RemoveAll(dir)
	main := tr.Thread(0)
	main.Begin(spSetup)
	main.Begin(spNew)
	d, err := newFuzzDriver(j.tg.Src, j.tg.Seeds, opts, tr, replayInputs)
	main.End()
	main.End()
	if err != nil {
		return outcome{}, 0, err
	}
	runtime.GC() // as before the untraced run
	main.Begin(spPoolRun)
	d.Run(j.budget)
	wall := main.End().Seconds()
	r := d.result()
	o := outcome{units: r.Execs, ident: fuzzIdent(r.Keys, r.Execs, r.DiffExecs, r.CheckpointSeq, r.PersistErrors),
		replay: []replayProg{{src: j.tg.Src, inputs: d.inputs(), norm: opts.Normalizer}},
		layer:  map[string]float64{"checkpoint.save.bytes": float64(d.saveBytes)}}
	return o, wall, nil
}

// ---------------------------------------------------------------
// compile-corpus: a difffuzz.CompilePool over a program corpus.

type compileJob struct {
	corpus    []string
	nonProgen []string
	seed      int64
}

var compileOpts = difffuzz.CompilePoolOptions{Shards: 2, SyncEvery: 64}

func prepareCompileCorpus(e *env, seed int64, scale float64) (job, error) {
	r := rand.New(rand.NewSource(seed))
	var base, others []string
	for i := scaled(150, scale); i > 0; i-- {
		base = append(base, progen.Generate(r.Int63()).Src)
	}
	for _, tg := range targets.All() {
		others = append(others, tg.Src)
	}
	golden, err := goldenPrograms(e.root)
	if err != nil {
		return nil, err
	}
	for _, g := range golden {
		others = append(others, g.src)
	}
	// A seeded quarter of the target and golden programs, so progen
	// programs stay the bulk of the corpus as in a generated one.
	r.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
	nonProgen := others[:scaled(len(others)/4, scale)]
	base = append(base, nonProgen...)
	r.Shuffle(len(base), func(i, j int) { base[i], base[j] = base[j], base[i] })
	// About a quarter of the corpus revisits a program from the
	// previous 128 positions, as a generated corpus does.
	var corpus []string
	for len(base) > 0 {
		if len(corpus) > 0 && r.Intn(4) == 0 {
			corpus = append(corpus, corpus[len(corpus)-1-r.Intn(min(len(corpus), 128))])
			continue
		}
		corpus = append(corpus, base[0])
		base = base[1:]
	}
	return &compileJob{corpus: corpus, nonProgen: nonProgen, seed: seed}, nil
}

type compileCampaign struct {
	j *compileJob
	p *compdiff.CompileCampaign
}

func (j *compileJob) construct() (campaign, error) {
	p, err := compdiff.NewCompileCampaign(j.corpus, compileOpts)
	if err != nil {
		return nil, err
	}
	return &compileCampaign{j: j, p: p}, nil
}

func (c *compileCampaign) run()   { c.p.Run(context.Background()) }
func (c *compileCampaign) close() { c.p.Close() }

func compileIdent(keys []uint64, programs int64) string {
	return fmt.Sprintf("keys=%x programs=%d", keys, programs)
}

func (c *compileCampaign) finish(check bool) outcome {
	st := c.p.Stats()
	o := outcome{units: st.Programs, attempted: int64(len(c.j.corpus)),
		ident:  compileIdent(c.p.BucketKeys(), st.Programs),
		extras: map[string]float64{"unique_buckets": float64(st.UniqueBuckets)}}
	o.failed += int64(len(c.j.corpus)) - st.Programs
	o.expect("every program processed", st.Programs == int64(len(c.j.corpus)), "%d of %d programs", st.Programs, len(c.j.corpus))
	if !check {
		return o
	}
	// Programs defined by construction must never diverge: every
	// bucket must also be found without the progen programs.
	ref, err := compdiff.NewCompileCampaign(c.j.nonProgen, compileOpts)
	if err != nil {
		o.expect("no progen bucket", false, "reference campaign: %v", err)
		return o
	}
	ref.Run(context.Background())
	refKeys := ref.BucketKeys()
	var extra []uint64
	for _, k := range c.p.BucketKeys() {
		if _, found := slices.BinarySearch(refKeys, k); !found {
			extra = append(extra, k)
		}
	}
	o.expect("no progen bucket", len(extra) == 0, "buckets %x come from progen programs", extra)
	o.failed += int64(len(extra))
	return o
}

func (j *compileJob) traced(tr *Tracer) (outcome, float64, error) {
	main := tr.Thread(0)
	main.Begin(spSetup)
	main.Begin(spNew)
	d := newCompileDriver(j.corpus, compileOpts, tr, replayPrograms, j.seed)
	main.End()
	main.End()
	runtime.GC() // as before the untraced run
	main.Begin(spPoolRun)
	d.Run()
	wall := main.End().Seconds()
	cs := d.cache.Stats()
	o := outcome{units: d.programs(), ident: compileIdent(d.buckets.Keys(), d.programs()),
		replay: programReplay(d.sampled()),
		layer: map[string]float64{
			"progcache.hit_ratio": ratio(cs.Hits, cs.Hits+cs.Misses),
			"progcache.evictions": float64(cs.Evictions),
		}}
	return o, wall, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// ---------------------------------------------------------------
// evolve: a difffuzz.EvolvePool.

type evolveJob struct{ opts difffuzz.EvolvePoolOptions }

func prepareEvolve(e *env, seed int64, scale float64) (job, error) {
	return &evolveJob{opts: difffuzz.EvolvePoolOptions{Pop: 32, Generations: scaled(50, scale), Shards: 2, Seed: seed}}, nil
}

type evolveCampaign struct {
	j *evolveJob
	p *compdiff.EvolveCampaign
}

func (j *evolveJob) construct() (campaign, error) {
	p, err := compdiff.NewEvolveCampaign(j.opts)
	if err != nil {
		return nil, err
	}
	return &evolveCampaign{j: j, p: p}, nil
}

func (c *evolveCampaign) run()   { c.p.Run(context.Background()) }
func (c *evolveCampaign) close() { c.p.Close() }

func evolveIdent(keys []uint64, popSig uint64, programs int64) string {
	return fmt.Sprintf("keys=%x population=%016x programs=%d", keys, popSig, programs)
}

func (c *evolveCampaign) finish(check bool) outcome {
	st := c.p.Stats()
	o := outcome{units: st.Programs, attempted: int64(c.j.opts.Pop * c.j.opts.Generations),
		ident: evolveIdent(c.p.BucketKeys(), st.PopulationSignature, st.Programs),
		extras: map[string]float64{"unique_buckets": float64(st.UniqueBuckets),
			"pass_coverage": float64(st.PassCoverage)}}
	o.failed += o.attempted - st.Programs
	o.expect("every generation evaluated", st.Generation == c.j.opts.Generations, "%d of %d generations", st.Generation, c.j.opts.Generations)
	o.expect("no shard retired", !slices.ContainsFunc(st.ShardErrors, func(e error) bool { return e != nil }), "%v", st.ShardErrors)
	o.expect("pass coverage grows", st.PassCoverage > 0, "pass coverage %d", st.PassCoverage)
	return o
}

func (j *evolveJob) traced(tr *Tracer) (outcome, float64, error) {
	main := tr.Thread(0)
	main.Begin(spSetup)
	main.Begin(spNew)
	d := newEvolveDriver(j.opts, tr, replayPrograms)
	main.End()
	main.End()
	runtime.GC() // as before the untraced run
	main.Begin(spPoolRun)
	d.Run()
	wall := main.End().Seconds()
	cs := d.cache.Stats()
	o := outcome{units: d.programs, ident: evolveIdent(d.buckets.Keys(), evolve.Signature(d.pop), d.programs),
		replay: programReplay(d.sample.items),
		layer: map[string]float64{
			"progcache.hit_ratio": ratio(cs.Hits, cs.Hits+cs.Misses),
			"progcache.evictions": float64(cs.Evictions),
		}}
	return o, wall, nil
}

// ---------------------------------------------------------------
// reduce: triage.Reduce over a campaign's findings.

// finding is one diverging program and input to reduce.
type finding struct {
	name  string
	src   string
	input []byte
	norm  *core.Normalizer
}

func (f finding) opts() triage.ReduceOptions {
	return triage.ReduceOptions{Suite: core.Options{Normalizer: f.norm}}
}

type reduceOut struct {
	r   *triage.Reduction
	err error
}

type goldenProgram struct {
	name  string
	src   string
	input []byte
}

func goldenPrograms(root string) ([]goldenProgram, error) {
	paths, err := filepath.Glob(filepath.Join(root, "testdata", "golden", "*.mc"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no golden programs under %s", filepath.Join(root, "testdata", "golden"))
	}
	var out []goldenProgram
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		input, err := os.ReadFile(strings.TrimSuffix(p, ".mc") + ".input")
		if err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		out = append(out, goldenProgram{name: strings.TrimSuffix(filepath.Base(p), ".mc"), src: string(src), input: input})
	}
	return out, nil
}

type reduceJob struct{ findings []finding }

// prepareReduce runs an untimed single-shard campaign per target and
// takes the representative of every bucket it opened, then adds the
// golden triage and compile reproducers. Below scale 1 a seeded subset
// is kept.
func prepareReduce(e *env, seed int64, scale float64) (job, error) {
	var fs []finding
	for _, tg := range targets.All() {
		norm := targetNormalizer(tg)
		p, err := compdiff.NewCampaignPool(tg.Src, tg.Seeds, compdiff.CampaignOptions{FuzzSeed: seed, Normalizer: norm})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tg.Name, err)
		}
		p.Run(context.Background(), int64(scaled(1500, scale)))
		for i, b := range p.Buckets() {
			fs = append(fs, finding{name: fmt.Sprintf("%s/%d", tg.Name, i), src: tg.Src, input: b.Outcome.Input, norm: norm})
		}
		p.Close()
	}
	golden, err := goldenPrograms(e.root)
	if err != nil {
		return nil, err
	}
	for _, g := range golden {
		if strings.HasPrefix(g.name, "triage_") || strings.HasPrefix(g.name, "compile_") {
			fs = append(fs, finding{name: g.name, src: g.src, input: g.input})
		}
	}
	if scale < 1 {
		rand.New(rand.NewSource(seed)).Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
		fs = fs[:scaled(len(fs), scale)]
	}
	return &reduceJob{findings: fs}, nil
}

// baselineKey builds a finding's baseline differential suite and
// returns its fingerprint key: the compile-stage fingerprint when the
// implementations split at compile time, else the runtime one.
func baselineKey(f finding) (uint64, error) {
	suite, co, err := core.BuildSourceDifferential(f.src, compdiff.DefaultImplementations(), core.Options{Normalizer: f.norm})
	if err != nil {
		return 0, err
	}
	if fp, ok := triage.OfCompile(co); ok {
		return fp.Key(), nil
	}
	if suite == nil {
		return 0, fmt.Errorf("uniformly rejected")
	}
	o := suite.Run(f.input)
	if !o.Diverged {
		return 0, fmt.Errorf("does not diverge")
	}
	return triage.Of(o).Key(), nil
}

type reduceCampaign struct {
	j        *reduceJob
	keys     []uint64
	errs     []error
	outs     []reduceOut
	lat, cpu []float64
}

func (j *reduceJob) construct() (campaign, error) {
	c := &reduceCampaign{j: j}
	for _, f := range j.findings {
		k, err := baselineKey(f)
		c.keys = append(c.keys, k)
		c.errs = append(c.errs, err)
	}
	return c, nil
}

// run reduces the findings in turn, timing each one.
func (c *reduceCampaign) run() {
	for _, f := range c.j.findings {
		t, cpu0 := time.Now(), cpuTime()
		r, err := triage.Reduce(f.src, f.input, f.opts())
		c.lat = append(c.lat, time.Since(t).Seconds())
		c.cpu = append(c.cpu, (cpuTime() - cpu0).Seconds())
		c.outs = append(c.outs, reduceOut{r: r, err: err})
	}
}

func (c *reduceCampaign) close() {}

func reduceIdent(outs []reduceOut) string {
	d := hash.New128(0xbe7c)
	for _, o := range outs {
		if o.err != nil {
			fmt.Fprintf(d, "err:%v\n", o.err)
			continue
		}
		fmt.Fprintf(d, "%d:%s|%d:%x|%016x|%d|%d\n", len(o.r.Source), o.r.Source, len(o.r.Input), o.r.Input,
			o.r.Fingerprint.Key(), o.r.SuiteRuns, o.r.Builds)
	}
	h, _ := d.Sum128()
	return fmt.Sprintf("reductions=%d hash=%016x", len(outs), h)
}

func (c *reduceCampaign) finish(check bool) outcome {
	o := outcome{units: int64(len(c.outs)), attempted: int64(len(c.outs)), ident: reduceIdent(c.outs),
		latencies: c.lat, unitCPU: c.cpu, extras: map[string]float64{}}
	var shrink float64
	for i, out := range c.outs {
		f := c.j.findings[i]
		if !o.expect("reduction succeeds", c.errs[i] == nil && out.err == nil,
			"%s: baseline %v, reduce %v", f.name, c.errs[i], out.err) {
			o.failed++
			continue
		}
		shrink += out.r.SourceShrink()
		if !check {
			continue
		}
		got, err := baselineKey(finding{src: out.r.Source, input: out.r.Input, norm: f.norm})
		kept := o.expect("fingerprint kept", out.r.Fingerprint.Key() == c.keys[i],
			"%s: %016x became %016x", f.name, c.keys[i], out.r.Fingerprint.Key())
		if !o.expect("reduction replays into its bucket", err == nil && got == c.keys[i],
			"%s: replay %016x, %v; want %016x", f.name, got, err, c.keys[i]) || !kept {
			o.failed++
		}
	}
	if len(c.outs) > 0 {
		o.extras["shrink_ratio"] = shrink / float64(len(c.outs))
	}
	return o
}

func (j *reduceJob) traced(tr *Tracer) (outcome, float64, error) {
	main := tr.Thread(0)
	main.Begin(spSetup)
	for _, f := range j.findings {
		main.Begin(spBuild)
		_, err := baselineKey(f)
		main.End()
		if err != nil {
			return outcome{}, 0, fmt.Errorf("%s: baseline: %w", f.name, err)
		}
	}
	main.End()
	runtime.GC() // as before the untraced run
	main.Begin(spRun)
	outs := reduceTraced(main, j.findings)
	wall := main.End().Seconds()
	var runs, builds int64
	var progs []replayProg
	for i, out := range outs {
		if out.err == nil {
			runs += int64(out.r.SuiteRuns)
			builds += int64(out.r.Builds)
		}
		if i < replayPrograms {
			f := j.findings[i]
			progs = append(progs, replayProg{src: f.src, inputs: [][]byte{f.input}, norm: f.norm})
		}
	}
	o := outcome{units: int64(len(outs)), ident: reduceIdent(outs), replay: progs,
		layer: map[string]float64{"triage.reduce.suite_runs": float64(runs), "triage.reduce.builds": float64(builds)}}
	return o, wall, nil
}
