package vm_test

// Regression tests for one-off step limits on reused machines: the
// partial-timeout re-run policy (RQ6) hands a machine a temporary
// budget, and that budget must never survive into the next run of the
// same warm machine — core's machine sets hand machines from run to
// run without reconstruction.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compdiff/internal/compiler"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
	"compdiff/internal/progen"
	"compdiff/internal/targets"
	"compdiff/internal/vm"
)

// loopMachine compiles a program that busy-loops for ~6 steps per
// iteration and returns a machine with the given configured limit.
func loopMachine(t *testing.T, configured int64) *vm.Machine {
	t.Helper()
	src := `
int main() {
    long sink = 0;
    for (long i = 0; i < 100000L; i++) { sink += i; }
    printf("%ld\n", sink);
    return 0;
}
`
	info := sema.MustCheck(parser.MustParse(src))
	bin := compiler.MustCompile(info, compiler.Config{Family: compiler.GCC, Opt: compiler.O0})
	return vm.New(bin, vm.Options{StepLimit: configured})
}

// TestRunWithLimitDoesNotLeak mirrors the RQ6 sequence on a pooled
// machine: a short-limit re-run followed by a normal run. The normal
// run must get the full configured budget back.
func TestRunWithLimitDoesNotLeak(t *testing.T) {
	m := loopMachine(t, vm.DefaultStepLimit)

	short := m.RunSharedWithLimit(nil, 100).Clone()
	if short.Exit != vm.StepLimit {
		t.Fatalf("short-limit run: exit = %v, want timeout", short.Exit)
	}
	if short.Steps > 101 {
		t.Fatalf("short-limit run took %d steps past a limit of 100", short.Steps)
	}

	normal := m.Run(nil)
	if normal.Exit != vm.Exited {
		t.Fatalf("normal run after short-limit re-run: exit = %v (leaked limit?)", normal.Exit)
	}
	if normal.Steps <= 100 {
		t.Fatalf("normal run took only %d steps", normal.Steps)
	}
}

// TestRunWithLimitGrownBudgetDoesNotLeak is the other direction: a
// grown re-run budget must not raise the configured limit of later
// runs.
func TestRunWithLimitGrownBudgetDoesNotLeak(t *testing.T) {
	m := loopMachine(t, 10_000) // too small for the loop

	grown := m.RunSharedWithLimit(nil, 100_000_000).Clone()
	if grown.Exit != vm.Exited {
		t.Fatalf("grown-budget run: exit = %v", grown.Exit)
	}

	normal := m.Run(nil)
	if normal.Exit != vm.StepLimit {
		t.Fatalf("normal run after grown re-run: exit = %v (leaked budget?)", normal.Exit)
	}
	if normal.Steps > 10_001 {
		t.Fatalf("normal run took %d steps past the configured 10000", normal.Steps)
	}
}

// TestRunWithLimitNonPositive: a non-positive one-off limit falls back
// to the configured budget instead of timing out on the first step.
func TestRunWithLimitNonPositive(t *testing.T) {
	m := loopMachine(t, vm.DefaultStepLimit)
	for _, limit := range []int64{0, -1, -1 << 40} {
		res := m.RunSharedWithLimit(nil, limit).Clone()
		if res.Exit != vm.Exited {
			t.Fatalf("RunSharedWithLimit(%d): exit = %v, want normal completion", limit, res.Exit)
		}
	}
}

// referenceLoopMachine is loopMachine forced onto the reference step()
// loop, for batch-accounting equivalence checks.
func referenceLoopMachine(t *testing.T, configured int64) *vm.Machine {
	t.Helper()
	src := `
int main() {
    long sink = 0;
    for (long i = 0; i < 100000L; i++) { sink += i; }
    printf("%ld\n", sink);
    return 0;
}
`
	info := sema.MustCheck(parser.MustParse(src))
	bin := compiler.MustCompile(info, compiler.Config{Family: compiler.GCC, Opt: compiler.O0})
	return vm.New(bin, vm.Options{StepLimit: configured, Reference: true})
}

// TestStepLimitBatchAccounting holds the batched fast loop to the
// reference loop's exact step accounting around the trap point. The
// loop program completes in some natural step count N (measured
// first); limits of N-1, N, and N+1, plus limits landing on, just
// before, and just after batch boundaries, must produce identical
// Steps and identical StepLimit-vs-Exited classification under both
// loops. A timed-out run reports Steps == limit+1: the instruction
// that would exceed the budget counts but does not execute.
func TestStepLimitBatchAccounting(t *testing.T) {
	// Measure the natural completion count once, on the reference loop.
	natural := referenceLoopMachine(t, 1<<40).Run(nil).Steps
	if natural < 100 {
		t.Fatalf("loop program finished in %d steps; too short to probe", natural)
	}

	limits := []int64{
		natural - 1, natural, natural + 1, // around completion
		1, 2, // degenerate budgets
		63, 64, 65, // around one batch (stepBatch = 64)
		127, 128, 129, // around two batches
		natural - 64, // a full batch short
	}
	ref := referenceLoopMachine(t, 1<<40)
	fast := loopMachine(t, 1<<40)
	for _, limit := range limits {
		rr := ref.RunSharedWithLimit(nil, limit).Clone()
		fr := fast.RunSharedWithLimit(nil, limit).Clone()
		if rr.Exit != fr.Exit {
			t.Errorf("limit %d: exit ref=%v fast=%v", limit, rr.Exit, fr.Exit)
		}
		if rr.Steps != fr.Steps {
			t.Errorf("limit %d: steps ref=%d fast=%d", limit, rr.Steps, fr.Steps)
		}
		if rr.Exit == vm.StepLimit && rr.Steps != limit+1 {
			t.Errorf("limit %d: timed-out run reports %d steps, want limit+1=%d",
				limit, rr.Steps, limit+1)
		}
		if rr.Exit == vm.Exited && rr.Steps != natural {
			t.Errorf("limit %d: completed run reports %d steps, want %d",
				limit, rr.Steps, natural)
		}
	}

	// The boundary cases spelled out: at exactly natural steps the
	// program completes; one below, it times out.
	if r := fast.RunSharedWithLimit(nil, natural).Clone(); r.Exit != vm.Exited {
		t.Errorf("limit == natural (%d): exit %v, want completion", natural, r.Exit)
	}
	if r := fast.RunSharedWithLimit(nil, natural-1).Clone(); r.Exit != vm.StepLimit || r.Steps != natural {
		t.Errorf("limit == natural-1: exit %v steps %d, want timeout at %d",
			r.Exit, r.Steps, natural)
	}
}

// TestLargerLimitKeepsFinishedRun is the premise of a capped suite
// run (core.Suite.RunCapped): a run that finishes in S steps finishes
// identically under every limit of at least S, and a limit of S-1
// stops it with a timeout. Every golden program, target and progen
// seed 1-40 runs on its seed inputs under all ten implementations,
// plus the three sanitizer builds, on both interpreter loops. The
// clock is pinned: time_now otherwise folds in the machine's run
// counter, which every probe advances.
func TestLargerLimitKeepsFinishedRun(t *testing.T) {
	type build struct {
		cfg compiler.Config
		san vm.SanMode
	}
	var builds []build
	for _, cfg := range compiler.DefaultSet() {
		builds = append(builds, build{cfg, vm.SanNone})
	}
	for _, sc := range sanConfigs {
		builds = append(builds, build{sc.cfg, sc.san})
	}
	clock := func(_ int64, call int) int64 { return 1_700_000_000 + int64(call) }
	finished := 0
	for _, p := range limitCorpus(t) {
		info := sema.MustCheck(parser.MustParse(p.src))
		for _, b := range builds {
			bin := compiler.MustCompile(info, b.cfg)
			for _, ref := range []bool{false, true} {
				m := vm.New(bin, vm.Options{San: b.san, Reference: ref, TimeNow: clock})
				for _, input := range p.inputs {
					want := m.Run(input)
					if want.Exit == vm.StepLimit {
						continue
					}
					finished++
					s := want.Steps
					what := fmt.Sprintf("%s %s reference=%v input %q", p.name, b.cfg.Name(), ref, input)
					for _, limit := range []int64{s, s + 1, 2 * s, vm.DefaultStepLimit} {
						assertSameFinishedRun(t, fmt.Sprintf("%s limit %d", what, limit), want, m.RunSharedWithLimit(input, limit).Clone())
					}
					if r := m.RunSharedWithLimit(input, s-1).Clone(); r.Exit != vm.StepLimit || r.Steps != s {
						t.Fatalf("%s limit %d: exit %v steps %d, want a timeout at %d", what, s-1, r.Exit, r.Steps, s)
					}
				}
			}
		}
	}
	if finished == 0 {
		t.Fatal("no corpus run finished; nothing was checked")
	}
	t.Logf("%d finished runs checked", finished)
}

// limitCorpus is every golden program that reaches the VM with its
// pinned input (or none), every target with its seeds, and progen
// seeds 1-40 on the empty input.
func limitCorpus(t *testing.T) []selfTestProgram {
	t.Helper()
	srcs, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.mc"))
	if err != nil || len(srcs) == 0 {
		t.Fatalf("golden corpus unavailable: %v", err)
	}
	var progs []selfTestProgram
	for _, srcPath := range srcs {
		name := strings.TrimSuffix(filepath.Base(srcPath), ".mc")
		if strings.HasPrefix(name, "compile_") {
			continue
		}
		src, err := os.ReadFile(srcPath)
		if err != nil {
			t.Fatal(err)
		}
		input, _ := os.ReadFile(strings.TrimSuffix(srcPath, ".mc") + ".input")
		progs = append(progs, selfTestProgram{name: name, src: string(src), inputs: [][]byte{input}})
	}
	for _, tg := range targets.All() {
		progs = append(progs, selfTestProgram{name: tg.Name, src: tg.Src, inputs: tg.Seeds})
	}
	for seed := int64(1); seed <= 40; seed++ {
		progs = append(progs, selfTestProgram{
			name:   fmt.Sprintf("progen_%d", seed),
			src:    progen.Generate(seed).Src,
			inputs: [][]byte{nil},
		})
	}
	return progs
}

// assertSameFinishedRun compares exit, code, stdout, stderr, steps and
// sanitizer report.
func assertSameFinishedRun(t *testing.T, what string, want, got *vm.Result) {
	t.Helper()
	if got.Exit != want.Exit || got.Code != want.Code || got.Steps != want.Steps {
		t.Fatalf("%s: exit %v/%d steps %d, want %v/%d steps %d",
			what, got.Exit, got.Code, got.Steps, want.Exit, want.Code, want.Steps)
	}
	if !bytes.Equal(got.Stdout, want.Stdout) || !bytes.Equal(got.Stderr, want.Stderr) {
		t.Fatalf("%s: output %q/%q, want %q/%q", what, got.Stdout, got.Stderr, want.Stdout, want.Stderr)
	}
	if (got.San == nil) != (want.San == nil) || got.San != nil && got.San.String() != want.San.String() {
		t.Fatalf("%s: sanitizer report %v, want %v", what, got.San, want.San)
	}
}
