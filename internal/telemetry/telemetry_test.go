package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	if got := c.Inc(); got != 1 {
		t.Fatalf("Inc = %d, want 1", got)
	}
	if got := c.Add(41); got != 42 {
		t.Fatalf("Add = %d, want 42", got)
	}
	if c.Load() != 42 {
		t.Fatalf("Load = %d", c.Load())
	}
	var g Gauge
	g.Set(-7)
	if g.Load() != -7 {
		t.Fatalf("gauge = %d", g.Load())
	}
}

func TestClassCountersPartition(t *testing.T) {
	var cc ClassCounters
	for i := 0; i < 5; i++ {
		cc.Inc(ClassOK)
	}
	cc.Inc(ClassCrash)
	cc.Inc(ClassStepLimitHang)
	cc.Inc(ClassDiff)
	cc.Inc(Class(200)) // out of range: ignored, not a panic
	snap := cc.Snapshot()
	if snap[ClassOK] != 5 || snap[ClassCrash] != 1 || snap[ClassStepLimitHang] != 1 || snap[ClassDiff] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
	if cc.Total() != 8 {
		t.Fatalf("total = %d, want 8", cc.Total())
	}
	if cc.Get(ClassOK) != 5 || cc.Get(Class(200)) != 0 {
		t.Fatal("Get mismatch")
	}
}

func TestClassString(t *testing.T) {
	want := map[Class]string{
		ClassOK:            "ok",
		ClassCrash:         "crash",
		ClassStepLimitHang: "step-limit-hang",
		ClassDiff:          "diff",
		Class(99):          "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Class(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	samples := []time.Duration{
		100 * time.Nanosecond,
		200 * time.Nanosecond,
		3 * time.Microsecond,
		50 * time.Microsecond,
		2 * time.Millisecond,
	}
	var sum int64
	for _, d := range samples {
		h.Observe(d)
		sum += int64(d)
	}
	s := h.Snapshot()
	if s.Count != int64(len(samples)) {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Sum != sum {
		t.Fatalf("sum = %d, want %d", s.Sum, sum)
	}
	if s.Min != 100 || s.Max != int64(2*time.Millisecond) {
		t.Fatalf("min/max = %d/%d", s.Min, s.Max)
	}
	if got := s.Mean(); got != time.Duration(sum/int64(len(samples))) {
		t.Fatalf("mean = %v", got)
	}
	// The median bucket upper bound must be >= the true median and
	// within 2x of it (exponential bucket guarantee).
	med := s.Quantile(0.5)
	if med < 200*time.Nanosecond || med > 2*3*time.Microsecond {
		t.Fatalf("p50 = %v out of plausible range", med)
	}
	if q := s.Quantile(1.0); q > time.Duration(s.Max) {
		t.Fatalf("p100 = %v exceeds max %d", q, s.Max)
	}
	// Negative durations clamp to zero instead of corrupting buckets.
	h.Observe(-time.Second)
	if s2 := h.Snapshot(); s2.Count != s.Count+1 || s2.Min != 0 {
		t.Fatalf("negative observe: count=%d min=%d", s2.Count, s2.Min)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Mean() != 0 || s.Quantile(0.99) != 0 || s.Min != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*1000+i) * time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
}

func TestHistogramSnapshotMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(time.Microsecond)
	b.Observe(time.Millisecond)
	b.Observe(10 * time.Nanosecond)
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count != 3 || sa.Min != 10 || sa.Max != int64(time.Millisecond) {
		t.Fatalf("merged = %+v", sa)
	}
	var empty HistogramSnapshot
	sa.Merge(empty) // merging empty is a no-op
	if sa.Count != 3 {
		t.Fatal("empty merge changed count")
	}
}

func TestRegistryWriteJSON(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	c.Add(3)
	reg.Register("b.second", &c)
	reg.Register("a.first", Func(func() any { return "v" }))
	reg.Register("b.second", &c) // re-register keeps position, no dup

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatalf("invalid JSON %q: %v", buf.String(), err)
	}
	if obj["b.second"].(float64) != 3 || obj["a.first"].(string) != "v" {
		t.Fatalf("obj = %v", obj)
	}
	// Registration order, not lexical order.
	out := buf.String()
	if strings.Index(out, "b.second") > strings.Index(out, "a.first") {
		t.Fatalf("registration order not preserved: %s", out)
	}
}

func TestSuiteMetricsSummaries(t *testing.T) {
	m := NewSuiteMetrics([]string{"gcc -O0", "clang -O2"})
	m.ObserveRun(0, ClassOK, time.Microsecond)
	m.ObserveRun(0, ClassStepLimitHang, 5*time.Microsecond)
	m.ObserveRun(1, ClassCrash, 2*time.Microsecond)
	m.ObserveRun(5, ClassOK, time.Microsecond)  // out of range: ignored
	m.ObserveRun(-1, ClassOK, time.Microsecond) // out of range: ignored

	sums := m.Summaries()
	if len(sums) != 2 {
		t.Fatalf("len = %d", len(sums))
	}
	if sums[0].Name != "gcc -O0" || sums[0].Runs() != 2 || sums[0].Outcomes[ClassStepLimitHang] != 1 {
		t.Fatalf("impl 0 = %+v", sums[0])
	}
	if sums[1].Runs() != 1 || sums[1].Outcomes[ClassCrash] != 1 || sums[1].Latency.Count != 1 {
		t.Fatalf("impl 1 = %+v", sums[1])
	}

	merged := MergeImplSummaries(nil, sums)
	merged = MergeImplSummaries(merged, sums)
	if merged[0].Runs() != 4 || merged[1].Latency.Count != 2 {
		t.Fatalf("merged = %+v", merged)
	}
}

func TestCampaignMetricsRegistry(t *testing.T) {
	m := NewCampaignMetrics([]string{"gcc -O0"})
	m.Execs.Add(10)
	m.DiffExecs.Add(20)
	m.Classes.Inc(ClassDiff)
	m.Suite.ObserveRun(0, ClassOK, time.Microsecond)

	var buf bytes.Buffer
	if err := m.Registry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	for _, key := range []string{
		"campaign.execs", "campaign.diff_execs", "campaign.outcomes",
		"impl.gcc -O0.outcomes", "impl.gcc -O0.latency_ns",
	} {
		if _, ok := obj[key]; !ok {
			t.Errorf("registry missing %q (have %v)", key, buf.String())
		}
	}
}

func TestRecorderPlotFile(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRecorder(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		snap := Snapshot{Execs: i * 100, Queue: int(i)}
		snap.SetClasses([NumClasses]int64{i * 99, 0, 0, i})
		got := r.Record(snap)
		if got.ExecsPerSec <= 0 {
			t.Fatalf("snapshot %d: execs_per_sec = %v", i, got.ExecsPerSec)
		}
		if got.ClassTotal() != got.Execs {
			t.Fatalf("snapshot %d: classes sum %d != execs %d", i, got.ClassTotal(), got.Execs)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil { // double close is fine
		t.Fatal(err)
	}

	f, err := os.Open(filepath.Join(dir, "plot.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines int
	var prev Snapshot
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s Snapshot
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %d: %v", lines+1, err)
		}
		if s.Execs < prev.Execs || s.ElapsedMs < prev.ElapsedMs {
			t.Fatalf("snapshots not monotonic: %+v after %+v", s, prev)
		}
		prev = s
		lines++
	}
	if lines != 3 {
		t.Fatalf("plot.jsonl has %d lines, want 3", lines)
	}
	if got := r.Snapshots(); len(got) != 3 {
		t.Fatalf("in-memory series has %d snapshots", len(got))
	}
}

func TestRecorderMemoryOnly(t *testing.T) {
	r, err := NewRecorder("")
	if err != nil {
		t.Fatal(err)
	}
	r.Record(Snapshot{Execs: 1})
	if len(r.Snapshots()) != 1 {
		t.Fatal("memory-only recorder lost the snapshot")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecorderCountsLostWrites: with its plot file closed underneath
// it, the recorder loses every later line and the flush. It counts each
// loss and keeps the in-memory series whole.
func TestRecorderCountsLostWrites(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRecorder(dir)
	if err != nil {
		t.Fatal(err)
	}
	r.Record(Snapshot{Execs: 1})
	if err := r.Sync(); err != nil || r.WriteErrors() != 0 {
		t.Fatalf("healthy recorder: Sync %v, %d write errors", err, r.WriteErrors())
	}
	if err := r.f.Close(); err != nil {
		t.Fatal(err)
	}
	r.Record(Snapshot{Execs: 2})
	r.Record(Snapshot{Execs: 3})
	if err := r.Sync(); err == nil {
		t.Fatal("Sync of a closed plot file succeeded")
	}
	if got := r.WriteErrors(); got != 3 {
		t.Fatalf("WriteErrors = %d, want 3 (two lines and the flush)", got)
	}
	if n := len(r.Snapshots()); n != 3 {
		t.Fatalf("in-memory series has %d snapshots, want 3", n)
	}
	data, err := os.ReadFile(filepath.Join(dir, "plot.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != 1 {
		t.Fatalf("plot.jsonl has %d lines, want the 1 written before the close", n)
	}
}
