package difffuzz

// Tests for the compile-oracle campaign pool: the three compile-stage
// finding classes land in distinct buckets, an ICE-provoking program
// never retires its shard, the runtime cross-check still fires on
// universally-accepted programs, and resume is equivalent to an
// uninterrupted run. The fault-tolerance properties every mode shares
// run in engine_test.go.

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"compdiff/internal/checkpoint"
	"compdiff/internal/telemetry"
	"compdiff/internal/triage"
)

// The four interesting corpus shapes. rejectDivergent trips the
// strict-const-UB reject on optimizing gcc only; iceProgram exceeds
// the O2+ expression-depth limit; diagDivergent is rejected everywhere
// with family-specific wording; runtimeDivergent compiles everywhere
// and diverges on the empty input (division by input_size() == 0).
const (
	benignProgram = `int main() {
    printf("%d\n", 7);
    return 0;
}
`
	rejectDivergent = `int main() {
    int d = 1 / 0;
    return d;
}
`
	diagDivergent = `int g = 1 / 0;
int main() {
    return g;
}
`
	runtimeDivergent = `int main() {
    int d = (int)input_size();
    printf("%d\n", 100 / d);
    return 0;
}
`
)

// iceProgram builds a non-constant expression chain deeper than the
// O2+ nesting limit, panicking the optimizing lowerers.
func iceProgram() string {
	return "int main() {\n    int x = 1;\n    int y = x" +
		strings.Repeat("+1", 60) + ";\n    return y;\n}\n"
}

// compileCorpus mixes every finding class with benign and duplicate
// programs so dedup, sharding, and the runtime cross-check all engage.
func compileCorpus() []string {
	return []string{
		benignProgram,
		rejectDivergent,
		iceProgram(),
		benignProgram,
		diagDivergent,
		runtimeDivergent,
		"int orphan = 3;\n", // no main: uniformly rejected, not a finding
		iceProgram(),
		rejectDivergent,
		diagDivergent,
		benignProgram,
		runtimeDivergent,
	}
}

// TestCompilePoolFindsThreeClasses is the acceptance campaign: a
// corpus seeded with one reject-divergent, one ICE-provoking, and one
// diagnostics-divergent program yields exactly three distinct
// compile-stage buckets (plus the runtime one), with every shard
// alive at the end.
func TestCompilePoolFindsThreeClasses(t *testing.T) {
	corpus := compileCorpus()
	p, err := NewCompilePool(corpus, CompilePoolOptions{Shards: 2, SyncEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Run(context.Background())

	if st.Programs != int64(len(corpus)) {
		t.Fatalf("processed %d programs, corpus has %d", st.Programs, len(corpus))
	}
	if st.CompileDivergences != 1 || st.ICEs != 1 || st.DiagMismatches != 1 {
		t.Fatalf("want one bucket per compile-stage class, got divergences=%d ices=%d diags=%d",
			st.CompileDivergences, st.ICEs, st.DiagMismatches)
	}
	if st.RuntimeBuckets != 1 {
		t.Fatalf("runtime cross-check found %d buckets, want 1", st.RuntimeBuckets)
	}
	if st.UniqueBuckets != 4 {
		t.Fatalf("UniqueBuckets = %d, want 4", st.UniqueBuckets)
	}
	for i, err := range st.ShardErrors {
		if err != nil {
			t.Fatalf("shard %d retired: %v", i, err)
		}
	}
	// Benign programs and the universally-accepted runtime one compile
	// clean everywhere; the orphan is a uniform reject, not a finding.
	if st.Accepted != 5 {
		t.Fatalf("Accepted = %d, want 5 (3 benign + 2 runtime)", st.Accepted)
	}
	if st.FrontendRejects != 1 {
		t.Fatalf("FrontendRejects = %d, want 1 (the no-main orphan)", st.FrontendRejects)
	}
	// Duplicate findings dedup into the same bucket but keep counting.
	if st.Findings != 8 {
		t.Fatalf("Findings = %d, want 8 (2 reject + 2 ice + 2 diag + 2 runtime)", st.Findings)
	}
}

// TestCompilePoolICEKeepsShardAlive is the regression for the
// retire-on-compiler-panic bug: an ICE-provoking program must become
// a bucketed finding while its shard goes on to process every
// subsequent program, including runtime executions.
func TestCompilePoolICEKeepsShardAlive(t *testing.T) {
	corpus := []string{iceProgram(), benignProgram, runtimeDivergent}
	p, err := NewCompilePool(corpus, CompilePoolOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Run(context.Background())
	if st.ShardErrors[0] != nil {
		t.Fatalf("compiler panic retired the shard: %v", st.ShardErrors[0])
	}
	if st.ICEs != 1 {
		t.Fatalf("ICEs = %d, want 1", st.ICEs)
	}
	if st.Programs != 3 || st.Accepted != 2 {
		t.Fatalf("shard stopped early after the ICE: programs=%d accepted=%d, want 3/2",
			st.Programs, st.Accepted)
	}
	if st.RuntimeBuckets != 1 {
		t.Fatalf("post-ICE runtime cross-check found %d buckets, want 1", st.RuntimeBuckets)
	}
}

// compareCompilePools asserts two compile campaigns found identical
// results: same sorted bucket keys, same per-key counts, same kinds,
// same aggregate counters.
func compareCompilePools(t *testing.T, fresh, resumed *CompilePool) {
	t.Helper()
	fk, rk := fresh.BucketKeys(), resumed.BucketKeys()
	if len(fk) == 0 {
		t.Fatal("fresh campaign found no buckets; the equivalence check is vacuous")
	}
	if len(fk) != len(rk) {
		t.Fatalf("bucket-key sets differ in size: fresh %d, resumed %d", len(fk), len(rk))
	}
	for i := range fk {
		if fk[i] != rk[i] {
			t.Fatalf("bucket keys differ at %d: fresh %016x, resumed %016x", i, fk[i], rk[i])
		}
	}
	fc, rc := fresh.BucketStore().Counts(), resumed.BucketStore().Counts()
	for key, n := range fc {
		if rc[key] != n {
			t.Fatalf("bucket %016x: fresh count %d, resumed %d", key, n, rc[key])
		}
	}
	fs, rs := fresh.Stats(), resumed.Stats()
	fs.ShardErrors, rs.ShardErrors = nil, nil
	if !reflect.DeepEqual(fs, rs) {
		t.Fatalf("stats diverged:\nfresh   %+v\nresumed %+v", fs, rs)
	}
}

// TestCompilePoolResumeEquivalence: a campaign killed at a barrier and
// resumed must end with exactly the bucket set, counts, and counters
// of an uninterrupted run — including the ICE and reject buckets.
func TestCompilePoolResumeEquivalence(t *testing.T) {
	corpus := compileCorpus()
	opts := CompilePoolOptions{Shards: 2, SyncEvery: 2}

	freshOpts := opts
	freshOpts.CheckpointDir = t.TempDir()
	fresh, err := NewCompilePool(corpus, freshOpts)
	if err != nil {
		t.Fatal(err)
	}
	fresh.Run(context.Background())

	// The interrupted run: cancel at the third epoch — the last durable
	// barrier checkpoint (cursor 6) is what a kill-9 would leave.
	ckptOpts := opts
	ckptOpts.CheckpointDir = t.TempDir()
	first, err := NewCompilePool(corpus, ckptOpts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	first.hook = func(epoch, _ int) {
		if epoch == 3 {
			cancel()
		}
	}
	first.Run(ctx)
	if first.cursor == 0 || first.cursor >= len(corpus) {
		t.Fatalf("interruption landed at cursor %d; want mid-corpus", first.cursor)
	}

	resumed, err := ResumeCompilePool(corpus, ckptOpts)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.cursor != first.cursor {
		t.Fatalf("resumed at cursor %d, checkpoint held %d", resumed.cursor, first.cursor)
	}
	resumed.Run(context.Background())
	compareCompilePools(t, fresh, resumed)
}

// TestCompilePoolResumeErrorClasses: each failure mode maps to its
// sentinel, a fresh pool refuses to clobber, and Parallelism — a
// scheduling knob — is explicitly resumable.
func TestCompilePoolResumeErrorClasses(t *testing.T) {
	corpus := compileCorpus()

	t.Run("no-checkpoint", func(t *testing.T) {
		_, err := ResumeCompilePool(corpus, CompilePoolOptions{CheckpointDir: t.TempDir()})
		if !errors.Is(err, checkpoint.ErrNoCheckpoint) {
			t.Fatalf("got %v, want ErrNoCheckpoint", err)
		}
	})

	t.Run("no-dir-at-all", func(t *testing.T) {
		_, err := ResumeCompilePool(corpus, CompilePoolOptions{})
		if err == nil || errors.Is(err, checkpoint.ErrNoCheckpoint) {
			t.Fatalf("resume without CheckpointDir: got %v, want a plain usage error", err)
		}
	})

	opts := CompilePoolOptions{Shards: 2, SyncEvery: 3, CheckpointDir: t.TempDir()}
	p, err := NewCompilePool(corpus, opts)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(context.Background())

	t.Run("mismatch", func(t *testing.T) {
		if _, err := ResumeCompilePool(corpus[:len(corpus)-1], opts); !errors.Is(err, checkpoint.ErrMismatch) {
			t.Fatalf("shrunk corpus: got %v, want ErrMismatch", err)
		}
		bad := opts
		bad.SyncEvery = 5
		if _, err := ResumeCompilePool(corpus, bad); !errors.Is(err, checkpoint.ErrMismatch) {
			t.Fatalf("changed SyncEvery: got %v, want ErrMismatch", err)
		}
		bad = opts
		bad.RuntimeInputs = [][]byte{[]byte("x")}
		if _, err := ResumeCompilePool(corpus, bad); !errors.Is(err, checkpoint.ErrMismatch) {
			t.Fatalf("changed RuntimeInputs: got %v, want ErrMismatch", err)
		}
	})

	t.Run("parallelism-is-resumable", func(t *testing.T) {
		ok := opts
		ok.Parallelism = 4
		q, err := ResumeCompilePool(corpus, ok)
		if err != nil {
			t.Fatalf("changed Parallelism must still resume: %v", err)
		}
		q.Close()
	})

	t.Run("refuse-clobber", func(t *testing.T) {
		_, err := NewCompilePool(corpus, opts)
		if err == nil || !strings.Contains(err.Error(), "resume") {
			t.Fatalf("fresh pool over an existing checkpoint: got %v, want a refusal mentioning resume", err)
		}
	})

	t.Run("wrong-campaign-type", func(t *testing.T) {
		// An input-fuzzing checkpoint hashes under a different seed, so
		// the compile pool classifies it as an options mismatch.
		tg := poolTarget(t)
		dir := t.TempDir()
		ip, err := NewPool(tg.Src, tg.Seeds, Options{FuzzSeed: 7, SyncEvery: 300, CheckpointDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ip.Run(context.Background(), 300)
		ro := opts
		ro.CheckpointDir = dir
		if _, err := ResumeCompilePool(corpus, ro); !errors.Is(err, checkpoint.ErrMismatch) {
			t.Fatalf("got %v, want ErrMismatch", err)
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		m, err := os.ReadFile(filepath.Join(opts.CheckpointDir, "MANIFEST.json"))
		if err != nil {
			t.Fatal(err)
		}
		var man checkpoint.Manifest
		if err := json.Unmarshal(m, &man); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(opts.CheckpointDir, man.StateFile)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ResumeCompilePool(corpus, opts); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
}

// TestCompilePoolParallelismDeterminism: per-program compile
// parallelism is scheduling only — the bucket sets and counters of a
// Parallelism=4 campaign match the sequential one exactly.
func TestCompilePoolParallelismDeterminism(t *testing.T) {
	corpus := compileCorpus()
	seq, err := NewCompilePool(corpus, CompilePoolOptions{Shards: 2, SyncEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	seq.Run(context.Background())
	par, err := NewCompilePool(corpus, CompilePoolOptions{Shards: 2, SyncEvery: 3, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	par.Run(context.Background())
	compareCompilePools(t, seq, par)
}

// TestCompilePoolTelemetry: the stats stream carries the
// compile-oracle counters, and cancellation still flushes a final
// parseable snapshot to plot.jsonl.
func TestCompilePoolTelemetry(t *testing.T) {
	corpus := compileCorpus()
	dir := t.TempDir()
	p, err := NewCompilePool(corpus, CompilePoolOptions{Shards: 2, SyncEvery: 3, StatsDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(context.Background())
	p.Close()

	data, err := os.ReadFile(filepath.Join(dir, "plot.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 4 { // 12 programs / SyncEvery 3
		t.Fatalf("plot.jsonl has %d lines, want 4 barrier snapshots", len(lines))
	}
	var tail telemetry.Snapshot
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tail); err != nil {
		t.Fatalf("tail line does not parse: %v", err)
	}
	st := p.Stats()
	if tail.Programs != st.Programs || tail.Execs != st.Programs {
		t.Fatalf("tail programs=%d execs=%d, campaign processed %d", tail.Programs, tail.Execs, st.Programs)
	}
	if tail.CompileDivergences != st.CompileDivergences || tail.ICEs != st.ICEs ||
		tail.DiagMismatches != st.DiagMismatches || tail.UniqueBuckets != st.UniqueBuckets {
		t.Fatalf("tail compile counters %+v do not match stats %+v", tail, st)
	}
}

// TestCompilePoolReport: the pool's bucket store renders compile-stage
// findings through the triage report path — one section per kind, with
// the ICE text and the per-implementation statuses visible.
func TestCompilePoolReport(t *testing.T) {
	corpus := compileCorpus()
	p, err := NewCompilePool(corpus, CompilePoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(context.Background())
	var sb strings.Builder
	for _, b := range p.BucketStore().Buckets() {
		sb.WriteString(b.Report(p.ImplNames()))
		sb.WriteString("\n")
	}
	rep := sb.String()
	for _, want := range []string{
		triage.KindCompileDivergence.String(),
		triage.KindICE.String(),
		triage.KindDiagMismatch.String(),
		"internal compiler error",
	} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}
