package compdiff_test

// One benchmark per table and figure of the paper's evaluation (§4),
// plus micro-benchmarks of the machinery. Each benchmark regenerates
// its artifact; `go run ./cmd/report -all` prints the same rows.
// Custom metrics surface the headline numbers (detection counts,
// unique bugs, overhead factors) next to the timings.

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compdiff"
	"compdiff/internal/bench"
	"compdiff/internal/checkpoint"
	"compdiff/internal/compiler"
	"compdiff/internal/fuzz"
	"compdiff/internal/ir"
	"compdiff/internal/juliet"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
	"compdiff/internal/progcache"
	"compdiff/internal/progen"
	"compdiff/internal/targets"
	"compdiff/internal/telemetry"
	"compdiff/internal/triage"
	"compdiff/internal/vm"
)

// ---------------------------------------------------------------------------
// Table 2: suite generation

func BenchmarkTable2SuiteGeneration(b *testing.B) {
	var cases int
	for i := 0; i < b.N; i++ {
		s := juliet.Generate()
		cases = len(s.Cases)
	}
	b.ReportMetric(float64(cases), "cases")
}

// ---------------------------------------------------------------------------
// Table 3: full tool comparison on the Juliet suite (reduced scale per
// iteration; the full-scale run is cmd/report's job)

func BenchmarkTable3Detection(b *testing.B) {
	suite := juliet.GenerateScaled(8)
	b.ResetTimer()
	var unique int
	for i := 0; i < b.N; i++ {
		t3, err := bench.ComputeTable3(suite, nil)
		if err != nil {
			b.Fatal(err)
		}
		unique = t3.TotalUnique
	}
	b.ReportMetric(float64(len(suite.Cases)), "cases")
	b.ReportMetric(float64(unique), "unique-bugs")
}

// ---------------------------------------------------------------------------
// Figure 1: subset sweep over the Juliet bug matrix

func BenchmarkFigure1Subsets(b *testing.B) {
	suite := juliet.GenerateScaled(8)
	t3, err := bench.ComputeTable3(suite, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var best int
	for i := 0; i < b.N; i++ {
		fig := bench.ComputeFigure1(t3.Matrix)
		_, best = fig.BestPair()
	}
	b.ReportMetric(float64(len(t3.Matrix.Rows)), "bugs")
	b.ReportMetric(float64(best), "best-pair-detects")
}

// ---------------------------------------------------------------------------
// Table 4: target projects

func BenchmarkTable4Targets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := len(targets.All()); got != 23 {
			b.Fatalf("targets = %d", got)
		}
	}
}

// ---------------------------------------------------------------------------
// Table 5: real-world bugs — CompDiff detection of all 78 planted bugs

func BenchmarkTable5RealWorld(b *testing.B) {
	var detected int
	for i := 0; i < b.N; i++ {
		rw, err := bench.ComputeRealWorld(nil)
		if err != nil {
			b.Fatal(err)
		}
		detected = len(rw.Matrix.Rows)
	}
	b.ReportMetric(float64(detected), "bugs-detected")
}

// ---------------------------------------------------------------------------
// Table 6: sanitizer overlap on the real-world bugs

func BenchmarkTable6Overlap(b *testing.B) {
	rw, err := bench.ComputeRealWorld(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var unique int
	for i := 0; i < b.N; i++ {
		t6 := bench.ComputeTable6(rw)
		unique = t6.AllTotal - t6.CaughtTotal
	}
	b.ReportMetric(float64(unique), "compdiff-only-bugs")
}

// ---------------------------------------------------------------------------
// Figure 2: subset sweep over the real-world bug matrix

func BenchmarkFigure2Subsets(b *testing.B) {
	rw, err := bench.ComputeRealWorld(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var pairBugs int
	for i := 0; i < b.N; i++ {
		fig := bench.ComputeFigure1(rw.Matrix)
		_, pairBugs = fig.BestPair()
	}
	b.ReportMetric(float64(pairBugs), "best-pair-detects")
}

// ---------------------------------------------------------------------------
// §5 overhead: per-input differential cost at 1, 2, and 10 binaries

func BenchmarkOverheadSingleBinary(b *testing.B)    { overheadBench(b, 1) }
func BenchmarkOverheadRecommendedPair(b *testing.B) { overheadBench(b, 2) }
func BenchmarkOverheadFullTen(b *testing.B)         { overheadBench(b, 10) }

func overheadBench(b *testing.B, k int) {
	tg := targets.ByName("readelf")
	input := tg.Seeds[0]

	if k == 1 {
		// A single binary, as in plain (non-differential) fuzzing.
		// Persistent-mode framing: the warm machine is reused and the
		// machine-owned result is consumed in place, exactly as the
		// campaign's batch executor drives it — Clone only happens on
		// the divergence path, never per exec.
		info := sema.MustCheck(parser.MustParse(tg.Src))
		bin := compiler.MustCompile(info, compiler.Config{Family: compiler.Clang, Opt: compiler.O2})
		m := vm.New(bin, vm.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.RunShared(input)
		}
		return
	}

	var impls []compdiff.Implementation
	if k == 2 {
		impls = compdiff.RecommendedPair()
	} else {
		impls = compdiff.DefaultImplementations()
	}
	suite, err := compdiff.New(tg.Src, impls, compdiff.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		suite.Run(input)
	}
}

// ---------------------------------------------------------------------------
// Parallel execution layer: the same differential run fanned across a
// worker pool. On a multi-core runner BenchmarkSuiteRunParallel
// should beat BenchmarkSuiteRunSequential by ~min(Parallelism, k,
// cores); on one core the pair bounds the pool's overhead instead.

func BenchmarkSuiteRunSequential(b *testing.B) { suiteRunBench(b, 1, false) }
func BenchmarkSuiteRunParallel(b *testing.B)   { suiteRunBench(b, 4, false) }

// BenchmarkSuiteRunFast is the fuzzing fast path over the same ten
// binaries: outputs checksummed in machine-owned buffers, results
// materialized only on divergence. The gap to SuiteRunSequential is
// what the zero-copy protocol buys per differential execution.
func BenchmarkSuiteRunFast(b *testing.B) {
	tg := targets.ByName("readelf")
	input := tg.Seeds[0]
	suite, err := compdiff.New(tg.Src, compdiff.DefaultImplementations(), compdiff.Options{})
	if err != nil {
		b.Fatal(err)
	}
	suite.Warm(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		suite.RunFast(input)
	}
}

// BenchmarkSuiteRunParallelTelemetry is BenchmarkSuiteRunParallel with
// the metrics sink attached — the pair bounds the telemetry overhead
// (two atomics and a histogram insert per VM run; budget: <= 5%).
func BenchmarkSuiteRunParallelTelemetry(b *testing.B) { suiteRunBench(b, 4, true) }

func suiteRunBench(b *testing.B, parallelism int, withMetrics bool) {
	tg := targets.ByName("readelf")
	input := tg.Seeds[0]
	impls := compdiff.DefaultImplementations()
	opts := compdiff.Options{Parallelism: parallelism}
	if withMetrics {
		names := make([]string, len(impls))
		for i, im := range impls {
			names[i] = im.Name()
		}
		opts.Metrics = telemetry.NewSuiteMetrics(names)
	}
	suite, err := compdiff.New(tg.Src, impls, opts)
	if err != nil {
		b.Fatal(err)
	}
	suite.Warm(parallelism)
	b.ReportMetric(float64(parallelism), "workers")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		suite.Run(input)
	}
}

// BenchmarkSuiteRunBatch64 drives the persistent-mode batch executor
// the way the campaign's BatchSize option does: 64 inputs per warm
// machine-set borrow, outcomes recycled across flushes. ns/op is per
// input, directly comparable with BenchmarkSuiteRunFast — the gap is
// the per-exec scratch borrow/park the batch hoists.
func BenchmarkSuiteRunBatch64(b *testing.B) {
	tg := targets.ByName("readelf")
	suite, err := compdiff.New(tg.Src, compdiff.DefaultImplementations(), compdiff.Options{})
	if err != nil {
		b.Fatal(err)
	}
	suite.Warm(1)
	batch := make([][]byte, 0, 64)
	var outs []*compdiff.Outcome
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch = append(batch, tg.Seeds[0])
		if len(batch) == cap(batch) || i == b.N-1 {
			outs = suite.RunBatch(batch, outs[:0])
			batch = batch[:0]
		}
	}
	_ = outs
}

// BenchmarkProgCacheHit is the compiled-program cache's hit path: one
// murmur3-128 of the source plus a map probe and an LRU relink,
// versus the ten lowerings a miss costs (BenchmarkCompileTenImplementations).
func BenchmarkProgCacheHit(b *testing.B) {
	tg := targets.ByName("readelf")
	cache := progcache.New(0)
	cfgs := compiler.DefaultSet()
	if c := cache.Get(tg.Src, cfgs, 1); c.FrontendErr != nil {
		b.Fatal(c.FrontendErr)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := cache.Get(tg.Src, cfgs, 1); c.FrontendErr != nil {
			b.Fatal(c.FrontendErr)
		}
	}
	st := cache.Stats()
	b.ReportMetric(float64(st.Misses), "misses")
}

// Sharded campaigns: one fuzzer instance vs. an AFL -M/-S-style pool
// of four at the same per-shard budget. Throughput (execs covered per
// wall-clock second) is the headline; unique diffs come along as a
// sanity metric.

func BenchmarkCampaignSingleShard(b *testing.B) { campaignShardBench(b, 1) }
func BenchmarkCampaignFourShards(b *testing.B)  { campaignShardBench(b, 4) }

func campaignShardBench(b *testing.B, shards int) {
	tg := targets.ByName("readelf")
	var execs int64
	var diffs int
	for i := 0; i < b.N; i++ {
		pool, err := compdiff.NewCampaignPool(tg.Src, tg.Seeds, compdiff.CampaignOptions{
			FuzzSeed: 7,
			Shards:   shards,
		})
		if err != nil {
			b.Fatal(err)
		}
		stats := pool.Run(context.Background(), 2_000)
		execs = stats.Execs
		diffs = stats.UniqueDiffs
	}
	b.ReportMetric(float64(execs), "execs")
	b.ReportMetric(float64(diffs), "unique-diffs")
}

// BenchmarkCheckpointSave times one steady-state barrier save of a real
// pool state: the fuzz-triage campaign shape (curl, two shards,
// divergence feedback) checkpointed after 10,000 execs per shard, about
// 185 KB of state. Warm-up saves first, so every timed save recycles
// the files the one before last retired, as a long campaign does.
func BenchmarkCheckpointSave(b *testing.B) {
	tg := targets.ByName("curl")
	dir := b.TempDir()
	pool, err := compdiff.NewCampaignPool(tg.Src, tg.Seeds, compdiff.CampaignOptions{
		FuzzSeed: 1, Shards: 2, DivergenceFeedback: true, SyncEvery: 1000, CheckpointDir: dir,
	})
	if err != nil {
		b.Fatal(err)
	}
	pool.Run(context.Background(), 10_000)
	pool.Close()
	st, man, err := checkpoint.Load(dir)
	if err != nil {
		b.Fatal(err)
	}
	saver, err := checkpoint.NewSaver(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := saver.Save(st); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := saver.Save(st); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(man.StateSize), "state-bytes")
}

// ---------------------------------------------------------------------------
// Machinery micro-benchmarks

func BenchmarkDifferentialRunListing1(b *testing.B) {
	src := `
int dump_data(int offset, int len, int size) {
    if (offset + len > size || offset < 0 || len < 0) { return -1; }
    if (offset + len < offset) { return -1; }
    return offset + len;
}
int main() {
    char buf[8];
    long n = read_input(buf, 8L);
    if (n < 8) { return 0; }
    int offset = 0;
    int len = 0;
    memcpy((char*)&offset, buf, 4L);
    memcpy((char*)&len, buf + 4, 4L);
    printf("%d\n", dump_data(offset & 2147483647, len & 2147483647, 2147483647));
    return 0;
}
`
	suite, err := compdiff.New(src, compdiff.DefaultImplementations(), compdiff.Options{})
	if err != nil {
		b.Fatal(err)
	}
	input := []byte{0x9b, 0xff, 0xff, 0x7f, 0x65, 0, 0, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if o := suite.Run(input); !o.Diverged {
			b.Fatal("lost the divergence")
		}
	}
}

// BenchmarkMachineNew is machine construction alone: vm.New of
// wireshark's ten compiled binaries. The compile, evolve and reduce
// modes pay it for each implementation once per epoch or reduction
// and rebind those machines afterwards (BenchmarkMachineRebind); the
// fuzzing modes pay it once per campaign.
func BenchmarkMachineNew(b *testing.B) {
	info := sema.MustCheck(parser.MustParse(targets.ByName("wireshark").Src))
	var bins []*ir.Program
	for _, cfg := range compiler.DefaultSet() {
		bins = append(bins, compiler.MustCompile(info, cfg))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bin := range bins {
			machineSink = vm.New(bin, vm.Options{})
		}
	}
}

// machineSink keeps BenchmarkMachineNew's constructions observable.
var machineSink *vm.Machine

// BenchmarkMachineRebind is the per-program machine cost of the
// compile, evolve and reduce modes: each of wireshark's ten machines
// is rebound, alternately, to its implementation's binary of one of
// two programs (wireshark and tcpdump). One op rebinds all ten, the
// counterpart of one BenchmarkMachineNew op.
func BenchmarkMachineRebind(b *testing.B) {
	var pair [2][]*ir.Program
	for i, name := range []string{"wireshark", "tcpdump"} {
		info := sema.MustCheck(parser.MustParse(targets.ByName(name).Src))
		for _, cfg := range compiler.DefaultSet() {
			pair[i] = append(pair[i], compiler.MustCompile(info, cfg))
		}
	}
	machines := make([]*vm.Machine, len(pair[0]))
	for j, bin := range pair[0] {
		machines[j] = vm.New(bin, vm.Options{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, m := range machines {
			m.Rebind(pair[(i+1)%2][j])
		}
	}
}

func BenchmarkCompileTenImplementations(b *testing.B) {
	tg := targets.ByName("wireshark")
	for i := 0; i < b.N; i++ {
		if _, err := compdiff.New(tg.Src, compdiff.DefaultImplementations(), compdiff.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLowerTenImplementations is lowering alone: one
// compiler.CompileAll of progen seed 13 (4.2 KB, the largest of the
// first 300 seeds) under the ten configurations, sequentially, with no
// front end and no vm.New. It is the per-program compile cost of the
// compile and evolve modes on a cache miss.
func BenchmarkLowerTenImplementations(b *testing.B) {
	info := sema.MustCheck(parser.MustParse(progen.Generate(13).Src))
	cfgs := compiler.DefaultSet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lowerSink = compiler.CompileAll(info, cfgs, 1)
	}
}

// lowerSink keeps BenchmarkLowerTenImplementations' results observable.
var lowerSink []compiler.Result

// BenchmarkParseSema is the shared front end alone: parser.Parse and
// sema.Check of progen seeds 1–40 (91 KB of source) per op. It is the
// per-program front-end cost every compile, evolve gate and reduction
// candidate pays once.
func BenchmarkParseSema(b *testing.B) {
	var srcs []string
	bytes := 0
	for seed := int64(1); seed <= 40; seed++ {
		srcs = append(srcs, progen.Generate(seed).Src)
		bytes += len(srcs[len(srcs)-1])
	}
	b.SetBytes(int64(bytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			prog, err := parser.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			if frontEndSink, err = sema.Check(prog); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// frontEndSink keeps BenchmarkParseSema's results observable.
var frontEndSink *sema.Info

// BenchmarkReduceGolden is the reducer alone: one op is triage.Reduce
// of each of the nine golden triage_* and compile_* reproducers, with
// default options, as compdiff-reduce runs them. Candidate rebuilds,
// candidate suite runs and the step cap on looping candidates are all
// inside it.
func BenchmarkReduceGolden(b *testing.B) {
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", "*.mc"))
	if err != nil {
		b.Fatal(err)
	}
	type finding struct {
		src   string
		input []byte
	}
	var findings []finding
	for _, p := range paths {
		name := filepath.Base(p)
		if !strings.HasPrefix(name, "triage_") && !strings.HasPrefix(name, "compile_") {
			continue
		}
		src, err := os.ReadFile(p)
		if err != nil {
			b.Fatal(err)
		}
		input, err := os.ReadFile(strings.TrimSuffix(p, ".mc") + ".input")
		if err != nil && !os.IsNotExist(err) {
			b.Fatal(err)
		}
		findings = append(findings, finding{string(src), input})
	}
	if len(findings) != 9 {
		b.Fatalf("%d golden reproducers, want 9", len(findings))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range findings {
			if reductionSink, err = triage.Reduce(f.src, f.input, triage.ReduceOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// reductionSink keeps BenchmarkReduceGolden's results observable.
var reductionSink *triage.Reduction

// BenchmarkFuzzerExec is the fuzzer loop alone on one B_fuzz machine:
// jq's instrumented binary under fuzz.New, b.N executions with no
// differential hook, so the per-exec cost is one VM run plus the
// fuzzer's coverage bookkeeping.
func BenchmarkFuzzerExec(b *testing.B) {
	tg := targets.ByName("jq")
	info := sema.MustCheck(parser.MustParse(tg.Src))
	bin := compiler.MustCompile(info, compiler.Config{Family: compiler.Clang, Opt: compiler.O2, Instrument: true})
	f := fuzz.New(vm.New(bin, vm.Options{Coverage: true}), tg.Seeds, fuzz.Options{Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	f.Run(int64(b.N))
}

func BenchmarkFuzzerCampaign(b *testing.B) {
	tg := targets.ByName("curl")
	for i := 0; i < b.N; i++ {
		c, err := compdiff.NewCampaignPool(tg.Src, tg.Seeds, compdiff.CampaignOptions{FuzzSeed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		c.Run(context.Background(), 500)
	}
}

// ---------------------------------------------------------------------------
// Ablations for the design choices DESIGN.md calls out

// Divergence-guided feedback (the §5 NEZHA-style extension) vs. plain
// coverage guidance, at a fixed budget on a real target.
func BenchmarkAblationDivergenceFeedbackOn(b *testing.B)  { feedbackAblation(b, true) }
func BenchmarkAblationDivergenceFeedbackOff(b *testing.B) { feedbackAblation(b, false) }

func feedbackAblation(b *testing.B, on bool) {
	tg := targets.ByName("readelf")
	var found int
	for i := 0; i < b.N; i++ {
		c, err := compdiff.NewCampaignPool(tg.Src, tg.Seeds, compdiff.CampaignOptions{
			FuzzSeed:           77,
			DivergenceFeedback: on,
		})
		if err != nil {
			b.Fatal(err)
		}
		c.Run(context.Background(), 4_000)
		found = len(c.Diffs())
	}
	b.ReportMetric(float64(found), "unique-diffs")
}

// The AFL deterministic stage vs. havoc-only, on bug discovery.
func BenchmarkAblationDeterministicStageOn(b *testing.B)  { detStageAblation(b, false) }
func BenchmarkAblationDeterministicStageOff(b *testing.B) { detStageAblation(b, true) }

func detStageAblation(b *testing.B, skip bool) {
	tg := targets.ByName("exiv2")
	var found int
	for i := 0; i < b.N; i++ {
		c, err := compdiff.NewCampaignPool(tg.Src, tg.Seeds, compdiff.CampaignOptions{
			FuzzSeed:          31,
			SkipDeterministic: skip,
		})
		if err != nil {
			b.Fatal(err)
		}
		c.Run(context.Background(), 4_000)
		found = len(c.Diffs())
	}
	b.ReportMetric(float64(found), "unique-diffs")
}

// Trace-diff fault localization cost per discrepancy (§5 extension).
func BenchmarkFaultLocalization(b *testing.B) {
	suite, err := compdiff.New(`
int check(int offset, int len) {
    if (offset < 0 || len < 0) { return -1; }
    if (offset + len < offset) { return -2; }
    return offset + len;
}
int main() {
    printf("%d\n", check(2147483647 - 100, 101));
    return 0;
}`, compdiff.DefaultImplementations(), compdiff.Options{})
	if err != nil {
		b.Fatal(err)
	}
	o := suite.Run(nil)
	if !o.Diverged {
		b.Fatal("no divergence")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := suite.Localize(o); err != nil {
			b.Fatal(err)
		}
	}
}
