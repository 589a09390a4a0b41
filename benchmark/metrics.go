package main

// The metric table: every metric the benchmark emits, with its unit,
// direction, regression bound and the workloads it applies to.
// BENCHMARK.json at the repository root declares the contract subset
// (Contract), which every run prints for every workload: the
// end-to-end metrics on an untraced run, the per-layer metrics on a
// traced one. The rest are printed and written to -json for -compare.

import (
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"compdiff/internal/compiler"
)

type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the baseline median by which the metric may
	// worsen before a change counts as a regression. Zero marks a
	// deterministic metric, which must repeat exactly.
	Bound    float64
	Layer    bool     // from the traced run
	Contract bool     // declared in BENCHMARK.json
	Only     []string // workloads it applies to; nil means all
}

func (m metricDef) appliesTo(w string) bool {
	return len(m.Only) == 0 || slices.Contains(m.Only, w)
}

// minP80Samples is the fewest findings reduce_s_p80 is reported from:
// ten samples beyond the percentile.
const minP80Samples = 50

var campaignWorkloads = []string{"fuzz-exec", "fuzz-triage", "compile-corpus", "evolve"}

// endToEnd lists the metrics of the untraced rounds; README.md says
// what each measures and why it was chosen. Each bound sits above the
// widest spread of that metric over the workloads in the seed-commit
// runs README.md lists; 0.25 is the largest BENCHMARK.json allows.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Contract: true},
	{Name: "units_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Contract: true},
	{Name: "cpu_us_per_unit", Unit: "us", Better: "lower", Bound: 0.25, Contract: true},
	{Name: "heap_live_mb", Unit: "MiB", Better: "lower", Bound: 0.15, Contract: true},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "reduce_s_p50", Unit: "s", Better: "lower", Bound: 0.25, Only: []string{"reduce"}},
	{Name: "reduce_s_p80", Unit: "s", Better: "lower", Bound: 0.25, Only: []string{"reduce"}},
	{Name: "reduce_total_s", Unit: "s", Better: "lower", Bound: 0.25, Only: []string{"reduce"}},
	{Name: "reduce_samples", Unit: "count", Better: "higher", Only: []string{"reduce"}},
	{Name: "unique_buckets", Unit: "count", Better: "higher", Only: campaignWorkloads},
	{Name: "pass_coverage", Unit: "count", Better: "higher", Only: []string{"evolve"}},
	{Name: "shrink_ratio", Unit: "fraction", Better: "higher", Only: []string{"reduce"}},
	{Name: "fail_ratio", Unit: "fraction", Better: "lower"},
}

// layerDefs lists the per-layer metrics. Times come only from the
// replay, which runs on every workload; campaign-layer costs are
// shares of traced thread time, so a layer a workload leaves idle
// reads 0 rather than a missing time.
func layerDefs() []metricDef {
	c := func(name string) metricDef { return metricDef{Name: name, Unit: "count", Better: "lower"} }
	sh := func(name string) metricDef { return metricDef{Name: name, Unit: "fraction", Better: "lower"} }
	var out []metricDef
	out = append(out, c("vm.exec.calls"), sh("vm.exec.share"))
	for _, cfg := range compiler.DefaultSet() {
		out = append(out, metricDef{Name: "vm.impl." + implMetricName(cfg) + ".ns_per_run", Unit: "ns", Better: "lower"})
	}
	out = append(out,
		c("core.run.calls"), sh("core.run.share"),
		metricDef{Name: "core.run.ns_per_input", Unit: "ns", Better: "lower"},
		metricDef{Name: "core.run.overhead_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "core.run.overhead_factor", Unit: "ratio", Better: "lower"},
		sh("core.run.diverged_ratio"),
		c("core.assemble.calls"), sh("core.assemble.share"),
		c("core.diff_add.calls"), sh("core.diff_add.share"), sh("core.diff_add.fresh_ratio"),
		c("fuzz.run.calls"), sh("fuzz.run.self_share"),
		c("fuzz.force_seed.calls"), sh("fuzz.force_seed.share"),
		c("triage.bucket_add.calls"), sh("triage.bucket_add.share"), sh("triage.bucket_add.fresh_ratio"),
		c("triage.reduce.calls"), sh("triage.reduce.share"), c("triage.reduce.suite_runs"), c("triage.reduce.builds"),
		c("difffuzz.barrier.calls"), sh("difffuzz.barrier.self_share"), sh("difffuzz.epoch.wait_share"),
		sh("checkpoint.export.share"), c("checkpoint.save.calls"), sh("checkpoint.save.share"),
		metricDef{Name: "checkpoint.save.bytes", Unit: "B", Better: "lower"},
		c("progcache.get.calls"), sh("progcache.get.share"), sh("progcache.get.miss_share"),
		metricDef{Name: "progcache.hit_ratio", Unit: "fraction", Better: "higher"},
		c("progcache.evictions"),
		metricDef{Name: "minic.parse.ns_per_byte", Unit: "ns/B", Better: "lower"},
		metricDef{Name: "minic.sema.ns_per_byte", Unit: "ns/B", Better: "lower"},
	)
	for _, cfg := range compiler.DefaultSet() {
		out = append(out, metricDef{Name: "compiler.lower." + implMetricName(cfg) + ".us_per_program", Unit: "us", Better: "lower"})
	}
	out = append(out,
		c("evolve.next_generation.calls"), sh("evolve.next_generation.share"),
		metricDef{Name: "trace.coverage", Unit: "fraction", Better: "higher"},
		metricDef{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	)
	for i := range out {
		out[i].Layer, out[i].Contract = true, true
	}
	return out
}

// allMetrics is the whole table.
func allMetrics() []metricDef { return append(append([]metricDef(nil), endToEnd...), layerDefs()...) }

func metricByName(name string) (metricDef, bool) {
	for _, m := range allMetrics() {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// implMetricName sanitises an implementation name for a metric name:
// "gcc -O2" becomes "gcc-O2".
func implMetricName(cfg compiler.Config) string {
	return strings.ReplaceAll(cfg.Name(), " ", "")
}

// layerMetrics derives the per-layer metrics of one traced round.
func layerMetrics(tr *Tracer, driver, replayed map[string]float64, overhead float64) map[string]float64 {
	aggs := tr.Aggs()
	threads := tr.ThreadStats()
	var total float64
	coverage := 1.0
	for _, t := range threads {
		total += float64(t.WallNs)
		coverage = math.Min(coverage, t.Coverage)
	}
	share := func(d time.Duration) float64 {
		if total == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / total
	}
	out := map[string]float64{}
	for _, name := range []string{"vm.exec", "core.run", "core.assemble", "core.diff_add", "fuzz.run",
		"fuzz.force_seed", "triage.bucket_add", "triage.reduce", "difffuzz.barrier", "checkpoint.save",
		"progcache.get", "evolve.next_generation"} {
		a := aggs[name]
		out[name+".calls"] = float64(a.Calls)
		out[name+".share"] = share(a.Busy)
		out[name+".self_share"] = share(a.Self)
	}
	out["core.run.diverged_ratio"] = ratio(aggs["core.run"].Hits, aggs["core.run"].Items)
	out["core.diff_add.fresh_ratio"] = ratio(aggs["core.diff_add"].Hits, aggs["core.diff_add"].Items)
	out["triage.bucket_add.fresh_ratio"] = ratio(aggs["triage.bucket_add"].Hits, aggs["triage.bucket_add"].Items)
	out["difffuzz.epoch.wait_share"] = share(aggs["difffuzz.epoch.wait"].Busy)
	out["checkpoint.export.share"] = share(aggs["checkpoint.export"].Busy)
	out["progcache.get.miss_share"] = ratio(int64(aggs["progcache.get.miss"].Busy), int64(aggs["progcache.get"].Busy))
	out["trace.coverage"] = coverage
	out["trace.overhead_ratio"] = overhead
	for _, k := range []string{"checkpoint.save.bytes", "progcache.hit_ratio", "progcache.evictions",
		"triage.reduce.suite_runs", "triage.reduce.builds"} {
		out[k] = driver[k]
	}
	maps.Copy(out, replayed)
	// Keep exactly the declared names.
	declared := map[string]float64{}
	for _, m := range layerDefs() {
		declared[m.Name] = out[m.Name]
	}
	return declared
}

// quartiles returns the first quartile, median and third quartile by
// the method of Python's statistics.quantiles(data, n=4) (exclusive).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile is the nearest-rank p-th percentile.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(i, 0)]
}
