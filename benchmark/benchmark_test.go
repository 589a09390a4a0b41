package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the workload child the
// smoke test's parent process starts.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type benchJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesMetricTable pins BENCHMARK.json to the
// metric table the benchmark emits from.
func TestBenchmarkJSONMatchesMetricTable(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) < 2 || len(b.Workloads) > 8 || len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q/%q, implemented %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	var e2e, layer []metricDef
	for _, m := range allMetrics() {
		if m.Contract && !m.Layer {
			e2e = append(e2e, m)
		} else if m.Contract {
			layer = append(layer, m)
		}
	}
	if len(b.EndToEnd) != len(e2e) || len(b.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics declared, table has %d", len(b.EndToEnd), len(e2e))
	}
	for i, m := range b.EndToEnd {
		name(m.Name)
		d := e2e[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound || !unitRE.MatchString(m.Unit) {
			t.Errorf("end_to_end %d: %+v, table %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || len(d.Only) != 0 {
			t.Errorf("%s: bound %v, workloads %v", m.Name, m.Bound, d.Only)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s not declared")
	}
	if len(b.PerLayer) != len(layer) || len(b.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, table has %d", len(b.PerLayer), len(layer))
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		d := layer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per_layer %d: %+v, table %+v", i, m, d)
		}
	}
	for _, m := range allMetrics() {
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if !reflect.DeepEqual(b.Paths, []string{"benchmark"}) || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", b.Paths, b.RunSeconds)
	}
}

// TestSmokeAllWorkloads runs every workload at a hundredth of its size,
// untraced and traced: every declared metric must be emitted for every
// workload it applies to, and every output check must pass.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	start := time.Now()
	for _, trace := range []bool{false, true} {
		c := config{seed: 1, seconds: 1, trace: trace, scale: 0.01, workdir: t.TempDir()}
		rep, err := runAll(c, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workloads {
			res := rep.Workloads[w.name]
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v attempted %d failures %v", w.name, trace, res.Correct, res.Attempted, res.Failures)
			}
			for _, m := range allMetrics() {
				want := m.appliesTo(w.name) && (!m.Layer || trace)
				if m.Name == "reduce_s_p80" && res.Metrics["reduce_samples"].Value < minP80Samples {
					want = false
				}
				if _, ok := res.Metrics[m.Name]; ok != want {
					t.Errorf("%s trace=%v: metric %s emitted %v, want %v", w.name, trace, m.Name, ok, want)
				}
			}
		}
		if trace {
			if _, err := os.Stat(filepath.Join(c.workdir, "trace.json")); err != nil {
				t.Error(err)
			}
		}
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("smoke took %v, over 30s", d)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) values.
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2, 10, 7}, [3]float64{1.5, 3, 8.5}},
		{[]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, [3]float64{1.75, 4.5, 7.25}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	pts := func(vs ...float64) []point {
		out := make([]point, len(vs))
		for i, v := range vs {
			out[i] = point{seed: int64(i + 1), value: v}
		}
		return out
	}
	a := samples{"w": {
		"units_per_s":    pts(100, 101, 99, 100, 102),
		"setup_s":        pts(1, 1.01, 0.99, 1, 1),
		"unique_buckets": pts(4, 5, 4, 6, 4),
		"pass_coverage":  pts(30, 31, 32, 33, 34),
		"peak_rss_mb":    pts(100, 150, 60, 120, 80),
	}}
	b := samples{"w": {
		"units_per_s":    pts(70, 71, 69, 70, 70),
		"setup_s":        pts(1.1, 1.1, 1.1, 1.1, 1.1),
		"unique_buckets": pts(4, 5, 4, 5, 4),
		"pass_coverage":  pts(30, 31, 32, 33, 34),
		"peak_rss_mb":    pts(100, 100, 100, 100, 100),
	}}
	got := map[string]string{}
	for _, r := range compareSamples(a, b) {
		got[r.metric] = r.verdict
	}
	want := map[string]string{"units_per_s": "regressed", "setup_s": "ok", "unique_buckets": "changed",
		"pass_coverage": "ok", "peak_rss_mb": "unresolved"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("verdicts %v, want %v", got, want)
	}
}

func TestTraceFlagForms(t *testing.T) {
	for _, c := range []struct {
		args []string
		want bool
	}{
		{[]string{"--workload", "reduce", "--trace", "1", "--seed", "3"}, true},
		{[]string{"--trace", "0", "--seed", "3"}, false},
		{[]string{"-trace"}, true},
		{[]string{"-trace=false"}, false},
	} {
		cfg, _, rest, err := parseFlags(c.args)
		if err != nil || cfg.trace != c.want || len(rest) != 0 {
			t.Errorf("%v: trace %v rest %v err %v, want trace %v", c.args, cfg.trace, rest, err, c.want)
		}
	}
}
