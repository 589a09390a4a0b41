package core_test

// The differential self-test for the batch executor: RunBatch must be
// byte-identical to driving the suite one input at a time, over the
// golden corpus and a progen-generated sweep, sequentially and with
// the parallel cross-check, at every batch size. The batch path is
// only trusted because this layer holds it to the per-exec semantics
// the oracle was validated against — the same medicine the vm's
// selftest_test.go applies to the fast loop. scripts/check.sh runs
// this under -race so the warm machine-set reuse is also proven free
// of data races.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compdiff/internal/compiler"
	"compdiff/internal/core"
	"compdiff/internal/progen"
)

// batchSelfTestInputs mirrors the vm self-test crasher list: empty,
// short, divergence triggers, and garbage, so batches mix clean runs,
// faults, and diverging outcomes.
func batchSelfTestInputs() [][]byte {
	return [][]byte{
		nil,
		{},
		[]byte("u"),
		[]byte("s\x21"),
		[]byte("s\x02"),
		{'o', 0x9b, 0xff, 0xff, 0x7f, 0x65, 0, 0, 0},
		{'o', 0xff, 0xff, 0xff, 0x7f, 0xff, 0xff, 0xff, 0x7f},
		[]byte("plain input"),
		bytes.Repeat([]byte{0xff}, 16),
		bytes.Repeat([]byte{0x00}, 16),
	}
}

// batchSelfTestSources is the golden corpus (runtime programs only)
// plus a generated sweep: three progen programs, which are
// well-defined by construction and exercise compiler-config-dependent
// lowering without divergence, keeping the non-diverged comparison
// path honest too.
func batchSelfTestSources(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{}
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.mc"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("golden corpus unavailable: %v", err)
	}
	for _, p := range paths {
		if strings.HasPrefix(filepath.Base(p), "compile_") {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[strings.TrimSuffix(filepath.Base(p), ".mc")] = string(data)
	}
	for seed := int64(1); seed <= 3; seed++ {
		srcs[progenName(seed)] = progen.Generate(seed).Src
	}
	return srcs
}

func progenName(seed int64) string {
	return "progen_" + string('0'+byte(seed))
}

// assertSameOutcome compares every observable Outcome field. want
// comes from the materializing per-input path, got from RunBatch —
// which materializes only on divergence, so full Result comparison
// applies exactly there.
func assertSameOutcome(t *testing.T, input []byte, want, got *core.Outcome) {
	t.Helper()
	if want.Diverged != got.Diverged {
		t.Fatalf("input %q: diverged want=%t got=%t", input, want.Diverged, got.Diverged)
	}
	if want.TimeoutSuspect != got.TimeoutSuspect {
		t.Fatalf("input %q: timeout-suspect want=%t got=%t", input, want.TimeoutSuspect, got.TimeoutSuspect)
	}
	if len(want.Hashes) != len(got.Hashes) {
		t.Fatalf("input %q: %d hashes want, %d got", input, len(want.Hashes), len(got.Hashes))
	}
	for i := range want.Hashes {
		if want.Hashes[i] != got.Hashes[i] {
			t.Fatalf("input %q: hash[%d] want=%016x got=%016x", input, i, want.Hashes[i], got.Hashes[i])
		}
	}
	if !got.Diverged {
		// Signature needs materialized Results, which the fast path
		// (and so RunBatch) produces only on divergence; for agreeing
		// outcomes the hash comparison above is the whole story.
		return
	}
	if ws, gs := want.Signature(), got.Signature(); ws != gs {
		t.Fatalf("input %q: signature want=%016x got=%016x", input, ws, gs)
	}
	if len(want.Results) != len(got.Results) {
		t.Fatalf("input %q: %d results want, %d got", input, len(want.Results), len(got.Results))
	}
	for i := range want.Results {
		w, g := want.Results[i], got.Results[i]
		if w.Exit != g.Exit || w.Code != g.Code || w.Steps != g.Steps {
			t.Fatalf("input %q: result[%d] exit want=%s/%d/%d got=%s/%d/%d",
				input, i, w.Exit, w.Code, w.Steps, g.Exit, g.Code, g.Steps)
		}
		if !bytes.Equal(w.Stdout, g.Stdout) || !bytes.Equal(w.Stderr, g.Stderr) {
			t.Fatalf("input %q: result[%d] output want=%q/%q got=%q/%q",
				input, i, w.Stdout, w.Stderr, g.Stdout, g.Stderr)
		}
	}
}

// runBatchSelfTest drives two equivalent suites over the same input
// sequence — one per-input, one through RunBatch at the given size —
// so run-sequence-dependent state (warm machines, dirty-page resets)
// stays aligned, exactly like the vm self-test's two machines.
func runBatchSelfTest(t *testing.T, parallelism, batchSize int) {
	for name, src := range batchSelfTestSources(t) {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			opts := core.Options{Parallelism: parallelism}
			perInput, err := core.BuildSource(src, compiler.DefaultSet(), opts)
			if err != nil {
				t.Fatal(err)
			}
			batched, err := core.BuildSource(src, compiler.DefaultSet(), opts)
			if err != nil {
				t.Fatal(err)
			}
			inputs := batchSelfTestInputs()
			want := make([]*core.Outcome, 0, len(inputs))
			for _, in := range inputs {
				want = append(want, perInput.Run(in))
			}
			var got []*core.Outcome
			for start := 0; start < len(inputs); start += batchSize {
				end := start + batchSize
				if end > len(inputs) {
					end = len(inputs)
				}
				got = batched.RunBatch(inputs[start:end], got)
			}
			if len(got) != len(inputs) {
				t.Fatalf("RunBatch returned %d outcomes for %d inputs", len(got), len(inputs))
			}
			for i, in := range inputs {
				assertSameOutcome(t, in, want[i], got[i])
			}
		})
	}
}

// TestRunBatchMatchesRun is the sequential equivalence proof at a
// batch size that splits the input list mid-batch (7 over 10 inputs)
// and at one larger than the list (64), covering partial final
// batches and the single-borrow whole-corpus case.
func TestRunBatchMatchesRun(t *testing.T) {
	t.Run("batch7", func(t *testing.T) { runBatchSelfTest(t, 1, 7) })
	t.Run("batch64", func(t *testing.T) { runBatchSelfTest(t, 1, 64) })
}

// TestRunBatchMatchesRunParallel repeats the proof with the k-way
// parallel cross-check (Parallelism=4): the batch borrow must compose
// with the worker fan-out without reordering or racing — check.sh
// runs this under -race.
func TestRunBatchMatchesRunParallel(t *testing.T) {
	t.Run("batch7", func(t *testing.T) { runBatchSelfTest(t, 4, 7) })
	t.Run("batch64", func(t *testing.T) { runBatchSelfTest(t, 4, 64) })
}

// TestRunBatchSingletonIsRunFast pins the degenerate case: a
// one-element batch takes exactly the RunFast path (same scratch,
// same non-materializing semantics), so BatchSize=1 campaigns are
// byte-identical to unbatched ones by construction.
func TestRunBatchSingletonIsRunFast(t *testing.T) {
	src := batchSelfTestSources(t)["fmt"]
	if src == "" {
		// Corpus naming drift: fall back to any runtime program.
		for _, s := range batchSelfTestSources(t) {
			src = s
			break
		}
	}
	a, err := core.BuildSource(src, compiler.DefaultSet(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.BuildSource(src, compiler.DefaultSet(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range batchSelfTestInputs() {
		want := a.RunFast(in)
		got := b.RunBatch([][]byte{in}, nil)[0]
		if want.Diverged != got.Diverged {
			t.Fatalf("input %q: RunFast vs 1-batch divergence mismatch", in)
		}
		if want.Diverged && want.Signature() != got.Signature() {
			t.Fatalf("input %q: RunFast vs 1-batch signature mismatch", in)
		}
		for i := range want.Hashes {
			if want.Hashes[i] != got.Hashes[i] {
				t.Fatalf("input %q: hash[%d] mismatch", in, i)
			}
		}
	}
}
