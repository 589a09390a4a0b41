package difffuzz

// Telemetry wiring tests: determinism of the counters, the per-class
// partition invariant, periodic snapshot emission, and the pool's
// barrier snapshots (including plot.jsonl persistence).

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"compdiff/internal/telemetry"
)

// statsCampaign runs a single-shard pool on listing1Target.
func statsCampaign(t *testing.T, opts Options, budget int64) *Pool {
	t.Helper()
	return runSolo(t, listing1Target, [][]byte{[]byte("DT\x01\x02\x03\x04\x05\x06")}, opts, budget)
}

// TestCampaignTelemetryDeterminism: with a fixed seed, two runs of the
// same campaign record identical counters — classification and
// counting must not perturb (or depend on) the fuzzing schedule.
func TestCampaignTelemetryDeterminism(t *testing.T) {
	final := func() (telemetry.Snapshot, []telemetry.ImplSummary) {
		c := statsCampaign(t, Options{FuzzSeed: 7, MaxInputLen: 8, Stats: true}, 3000)
		snaps := c.Snapshots()
		if len(snaps) != 1 {
			t.Fatalf("want exactly the final snapshot, got %d", len(snaps))
		}
		return snaps[0], c.ImplSummaries()
	}
	s1, impls1 := final()
	s2, impls2 := final()

	if s1.Execs != s2.Execs || s1.DiffExecs != s2.DiffExecs {
		t.Fatalf("exec counters differ run-to-run: %+v vs %+v", s1, s2)
	}
	if s1.OK != s2.OK || s1.Crash != s2.Crash ||
		s1.StepLimitHang != s2.StepLimitHang || s1.Diff != s2.Diff {
		t.Fatalf("class counters differ run-to-run: %+v vs %+v", s1, s2)
	}
	if s1.UniqueDiffs != s2.UniqueDiffs || s1.TotalDiffInputs != s2.TotalDiffInputs {
		t.Fatalf("diff counters differ run-to-run: %+v vs %+v", s1, s2)
	}
	for i := range impls1 {
		// Latency sums are wall-clock and vary; the outcome counts (and
		// so the histogram totals) must not.
		if impls1[i].Outcomes != impls2[i].Outcomes {
			t.Fatalf("impl %s outcomes differ: %v vs %v",
				impls1[i].Name, impls1[i].Outcomes, impls2[i].Outcomes)
		}
		if impls1[i].Latency.Count != impls2[i].Latency.Count {
			t.Fatalf("impl %s latency count differs: %d vs %d",
				impls1[i].Name, impls1[i].Latency.Count, impls2[i].Latency.Count)
		}
	}
}

// TestCampaignTelemetryClassPartition: every generated input lands in
// exactly one class, so the per-class counts sum to Execs, and each
// implementation observed at least one VM run per generated input.
func TestCampaignTelemetryClassPartition(t *testing.T) {
	c := statsCampaign(t, Options{FuzzSeed: 11, MaxInputLen: 8, Stats: true}, 3000)
	m := c.shards[0].c.metrics
	if m == nil {
		t.Fatal("Stats: true built no metrics")
	}
	execs := m.Execs.Load()
	if execs == 0 {
		t.Fatal("no executions recorded")
	}
	if got := m.Classes.Total(); got != execs {
		t.Fatalf("class counts sum to %d, want execs %d", got, execs)
	}
	s := c.Snapshots()[0]
	if s.ClassTotal() != s.Execs {
		t.Fatalf("snapshot classes sum to %d, want execs %d", s.ClassTotal(), s.Execs)
	}
	if s.Diff == 0 {
		t.Fatal("campaign found diffs but classified none")
	}
	for _, sum := range c.ImplSummaries() {
		if sum.Runs() < execs {
			t.Fatalf("impl %s recorded %d runs for %d generated inputs",
				sum.Name, sum.Runs(), execs)
		}
		if sum.Latency.Count != sum.Runs() {
			t.Fatalf("impl %s: latency count %d != outcome count %d",
				sum.Name, sum.Latency.Count, sum.Runs())
		}
	}
}

// TestCampaignPeriodicSnapshots: StatsEvery emits a snapshot every N
// generated inputs, with monotonically nondecreasing counters.
func TestCampaignPeriodicSnapshots(t *testing.T) {
	c := statsCampaign(t, Options{FuzzSeed: 7, MaxInputLen: 8, StatsEvery: 500}, 2500)
	snaps := c.Snapshots()
	// Seed ingestion plus the fuzz loop generate a touch more than the
	// budget, so at least budget/StatsEvery periodic snapshots plus the
	// final one exist.
	if len(snaps) < 6 {
		t.Fatalf("got %d snapshots, want >= 6", len(snaps))
	}
	assertMonotonic(t, snaps)
}

func assertMonotonic(t *testing.T, snaps []telemetry.Snapshot) {
	t.Helper()
	var prev telemetry.Snapshot
	for i, s := range snaps {
		if s.ClassTotal() != s.Execs {
			t.Fatalf("snapshot %d: classes sum to %d, execs %d", i, s.ClassTotal(), s.Execs)
		}
		if i > 0 {
			if s.Execs < prev.Execs || s.DiffExecs < prev.DiffExecs ||
				s.UniqueDiffs < prev.UniqueDiffs || s.ElapsedMs < prev.ElapsedMs {
				t.Fatalf("snapshot %d not monotonic: %+v after %+v", i, s, prev)
			}
		}
		prev = s
	}
}

// TestPoolTelemetryBarrierSnapshots runs a sharded pool with parallel
// cross-checks (the -race configuration the suite's concurrency claims
// are checked under), then validates the snapshot series and the
// plot.jsonl it persisted.
func TestPoolTelemetryBarrierSnapshots(t *testing.T) {
	dir := t.TempDir()
	p, err := NewPool(listing1Target, [][]byte{[]byte("DT\x01\x02\x03\x04\x05\x06")}, Options{
		FuzzSeed:    7,
		MaxInputLen: 8,
		Shards:      4,
		SyncEvery:   500,
		Parallelism: 4,
		StatsDir:    dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	stats := p.Run(nil, 2000)

	snaps := p.Snapshots()
	if len(snaps) != 4 { // 2000 budget / 500 sync = 4 barriers
		t.Fatalf("got %d snapshots, want 4", len(snaps))
	}
	assertMonotonic(t, snaps)

	last := snaps[len(snaps)-1]
	if last.Execs == 0 || last.ExecsPerSec <= 0 {
		t.Fatalf("final snapshot has no throughput: %+v", last)
	}
	if len(last.Shards) != 4 {
		t.Fatalf("final snapshot has %d shard entries, want 4", len(last.Shards))
	}
	var shardExecs int64
	for si, ss := range last.Shards {
		wantRole := "secondary"
		if si == 0 {
			wantRole = "main"
		}
		if ss.Shard != si || ss.Role != wantRole {
			t.Fatalf("shard entry %d: %+v", si, ss)
		}
		if ss.Retired {
			t.Fatalf("healthy shard %d marked retired", si)
		}
		shardExecs += ss.Execs
	}
	if shardExecs != last.Execs {
		t.Fatalf("shard execs sum to %d, pool total %d", shardExecs, last.Execs)
	}
	if last.UniqueDiffs != stats.UniqueDiffs || last.UniqueDiffs == 0 {
		t.Fatalf("final snapshot diffs %d, pool stats %d", last.UniqueDiffs, stats.UniqueDiffs)
	}

	// The merged per-implementation view covers every generated input.
	impls := p.ImplSummaries()
	if len(impls) == 0 {
		t.Fatal("no merged impl summaries")
	}
	for _, sum := range impls {
		if sum.Runs() < last.Execs {
			t.Fatalf("impl %s: %d runs for %d generated inputs", sum.Name, sum.Runs(), last.Execs)
		}
	}

	// plot.jsonl: parseable line-by-line, counters matching the
	// in-memory series.
	f, err := os.Open(filepath.Join(dir, "plot.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var fromFile []telemetry.Snapshot
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s telemetry.Snapshot
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad plot line %q: %v", sc.Text(), err)
		}
		fromFile = append(fromFile, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(fromFile) != len(snaps) {
		t.Fatalf("plot.jsonl has %d lines, in-memory series %d", len(fromFile), len(snaps))
	}
	for i := range fromFile {
		if fromFile[i].Execs != snaps[i].Execs || fromFile[i].ClassTotal() != snaps[i].Execs {
			t.Fatalf("plot line %d disagrees with series: %+v vs %+v", i, fromFile[i], snaps[i])
		}
	}
}

// TestPoolStatsOffByDefault: without stats options the campaign runs
// uninstrumented — no metrics, no recorder, no snapshot series.
func TestPoolStatsOffByDefault(t *testing.T) {
	c := statsCampaign(t, Options{FuzzSeed: 7, MaxInputLen: 8}, 500)
	if c.shards[0].c.metrics != nil || c.Snapshots() != nil || c.ImplSummaries() != nil {
		t.Fatal("stats collected without being asked for")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
