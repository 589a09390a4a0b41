package main

// One workload in its own process. The load model is a closed loop:
// the campaign's two shard goroutines each generate their next unit
// only after the previous verdict, under GOMAXPROCS 2.

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupRepeats is how many times the campaign is constructed to time
// set-up before the first round, whose own construction is the last
// of them; every later round adds one more sample.
const setupRepeats = 5

type roundStat struct {
	units int64
	wall  time.Duration
	cpu   time.Duration
	slow  float64 // mean probe reading around the round over probeRef
	out   outcome
}

func childMain(c config) error {
	runtime.GOMAXPROCS(gomaxprocs)
	if err := resolveRoot(&c); err != nil {
		return err
	}
	w, ok := workloadByName(c.workload)
	if !ok {
		return fmt.Errorf("child needs -workload")
	}
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(c.workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	res, err := runWorkload(w, c, &env{root: c.root, tmp: tmp})
	if err != nil {
		return err
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func runWorkload(w workload, c config, e *env) (*workloadResult, error) {
	j, err := w.prepare(e, c.seed, c.scale)
	if err != nil {
		return nil, err
	}
	var setups []float64
	construct := func() (campaign, error) {
		runtime.GC()
		t := time.Now()
		camp, err := j.construct()
		setups = append(setups, time.Since(t).Seconds())
		return camp, err
	}
	for i := 0; i < setupRepeats-1; i++ {
		camp, err := construct()
		if err != nil {
			return nil, err
		}
		camp.close()
	}

	// Untimed warm-up at a tenth of the size on another seed: the first
	// run in a process is otherwise measurably slower.
	wj, err := w.prepare(e, c.seed+1, c.scale/10)
	if err != nil {
		return nil, err
	}
	wc, err := wj.construct()
	if err != nil {
		return nil, err
	}
	wc.run()
	wc.close()

	res := &workloadResult{Workload: w.name, Seed: c.seed, GOMAXPROCS: runtime.GOMAXPROCS(0),
		Correct: true, Metrics: map[string]metricValue{}}
	fail := func(format string, args ...any) {
		res.Correct = false
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}

	// Every round repeats the same inputs on a fresh campaign, between
	// two readings of the machine-speed probe (probe.go), whose mean
	// scales its times.
	var rounds []roundStat
	var heaps, probes []float64
	var tracedWalls []float64
	var firstTrace *Tracer
	var firstTraced outcome
	budget := time.Duration(c.seconds) * time.Second
	start := time.Now()
	var prev float64
	for r := 0; ; r++ {
		roundStart := time.Now()
		if r == 0 || c.trace {
			// A traced run stands between two rounds: read afresh.
			prev = probe()
			probes = append(probes, prev)
		}
		camp, err := construct()
		if err != nil {
			return nil, err
		}
		runtime.GC()
		cpu0 := cpuTime()
		t := time.Now()
		camp.run()
		wall := time.Since(t)
		cpu := cpuTime() - cpu0
		heaps = append(heaps, liveHeapMiB())
		// The first round checks every output; later ones must repeat
		// its results exactly.
		out := camp.finish(r == 0)
		camp.close()
		next := probe()
		probes = append(probes, next)
		slow := (prev + next) / 2 / probeRef
		prev = next
		rounds = append(rounds, roundStat{units: out.units, wall: wall, cpu: cpu, slow: slow, out: out})
		fmt.Fprintf(os.Stderr, "%s round %d: %d units in %.3fs wall, %.3fs cpu, slowdown %.3f\n",
			w.name, r, out.units, wall.Seconds(), cpu.Seconds(), slow)
		if r > 0 {
			res.Checks++
			if out.ident != rounds[0].out.ident {
				fail("round %d differs from round 0:\n     %s\n     %s", r, out.ident, rounds[0].out.ident)
			}
		}
		if c.trace {
			runtime.GC()
			tr := NewTracer(spanDefs, 256, 50000)
			tout, twall, err := j.traced(tr)
			if err != nil {
				return nil, fmt.Errorf("traced run: %w", err)
			}
			res.Checks++
			if tout.ident != out.ident {
				fail("traced driver differs from the campaign:\n     campaign %s\n     driver   %s", out.ident, tout.ident)
			}
			tracedWalls = append(tracedWalls, twall)
			if firstTrace == nil {
				firstTrace, firstTraced = tr, tout
			}
		}
		if time.Since(start)+time.Since(roundStart) > budget {
			break
		}
	}
	res.Rounds = len(rounds)
	res.Probe = median(probes)

	var walls []float64
	for _, rs := range rounds {
		walls = append(walls, rs.wall.Seconds())
		res.Attempted += rs.out.attempted
		res.Failed += rs.out.failed
		for _, ch := range rs.out.checks {
			res.Checks++
			if !ch.ok {
				fail("%s: %s", ch.name, ch.detail)
			}
		}
	}
	e2e := endToEndValues(rounds, setups, heaps, probes)
	e2e["fail_ratio"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	for _, m := range endToEnd {
		if v, ok := e2e[m.Name]; ok && m.appliesTo(w.name) {
			res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
	}

	if c.trace {
		// Each traced run follows its untraced round, so the median of
		// the per-round ratios cancels slow spells longer than a pair.
		var ratios []float64
		for i, tw := range tracedWalls {
			ratios = append(ratios, tw/walls[i])
		}
		overhead := median(ratios)
		layer := layerMetrics(firstTrace, firstTraced.layer, replay(firstTraced.replay), overhead)
		for _, m := range layerDefs() {
			res.Metrics[m.Name] = metricValue{Value: layer[m.Name], Unit: m.Unit}
		}
		res.Checks++
		for _, t := range firstTrace.ThreadStats() {
			if t.Coverage < 0.90 {
				fail("trace covers %.3f of thread %d, below 0.90", t.Coverage, t.ID)
			}
		}
		res.Trace = filepath.Join(c.workdir, "trace-"+w.name+".json")
		if err := firstTrace.WriteJSON(res.Trace); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// endToEndValues derives the untraced metrics from the rounds: medians
// over rounds of the probe-scaled times (per unit, where units are
// timed singly) for throughput and CPU, the median set-up time scaled
// by the median probe reading, and the median heap.
func endToEndValues(rounds []roundStat, setups, heaps, probes []float64) map[string]float64 {
	var walls, cpus []float64
	for _, rs := range rounds {
		walls = append(walls, rs.wall.Seconds()/rs.slow)
		cpus = append(cpus, rs.cpu.Seconds()/rs.slow)
	}
	units := float64(max(rounds[0].units, 1))
	wall, cpu := median(walls), median(cpus)
	e2e := map[string]float64{
		"setup_s":      median(setups) * probeRef / median(probes),
		"heap_live_mb": median(heaps),
		"peak_rss_mb":  peakRSSMiB(),
	}
	maps.Copy(e2e, rounds[0].out.extras)
	if lat := perUnitMedian(rounds, func(o outcome) []float64 { return o.latencies }); lat != nil {
		wall = sum(lat)
		cpu = sum(perUnitMedian(rounds, func(o outcome) []float64 { return o.unitCPU }))
		e2e["reduce_s_p50"] = percentile(lat, 50)
		// The guide's rule: a percentile needs ten samples beyond it.
		if len(lat) >= minP80Samples {
			e2e["reduce_s_p80"] = percentile(lat, 80)
		}
		e2e["reduce_total_s"] = wall
		e2e["reduce_samples"] = float64(len(lat))
	}
	e2e["units_per_s"] = units / wall
	e2e["cpu_us_per_unit"] = cpu * 1e6 / units
	return e2e
}

// perUnitMedian returns, for workloads that time every unit singly,
// each unit's median probe-scaled time over the rounds; nil otherwise.
func perUnitMedian(rounds []roundStat, times func(outcome) []float64) []float64 {
	n := len(times(rounds[0].out))
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		var xs []float64
		for _, rs := range rounds {
			xs = append(xs, times(rs.out)[i]/rs.slow)
		}
		out[i] = median(xs)
	}
	return out
}

// liveHeapMiB collects garbage and returns the heap still reachable:
// the memory the campaign object holds once a run is over.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
