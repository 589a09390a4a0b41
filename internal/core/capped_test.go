package core_test

// Suite.RunCapped against Run: an outcome it returns equals Run's,
// a binary past the cap makes it return nil, and a rejected call
// leaves every machine as Run would leave it when every binary times
// out, whatever the worker count.

import (
	"bytes"
	"fmt"
	"testing"

	"compdiff/internal/compiler"
	"compdiff/internal/core"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
	"compdiff/internal/progen"
	"compdiff/internal/telemetry"
)

// cappedOpts keeps the RQ6 re-runs of the timing-out programs short.
var cappedOpts = core.Options{StepLimit: 50_000, MaxTimeoutRetries: 1}

// maxSteps is the largest step count among an outcome's results.
func maxSteps(o *core.Outcome) int64 {
	var n int64
	for _, r := range o.Results {
		n = max(n, r.Steps)
	}
	return n
}

// TestRunCappedMatchesRun runs each input on a sequential reference
// suite and on the suite under test, at one and four workers. The
// reference calls Run three times. The suite under test calls
// RunCapped at the largest step count of the first run (which must
// equal it, or be nil when a binary timed out), then RunCapped one
// step short of it (nil: the slowest binary hits the cap, and the
// binaries not yet started get one-step runs), then Run. The last
// runs must match too, so the clock program, whose output follows
// each machine's run counter, shows a rejected call counted as one
// run on every machine.
func TestRunCappedMatchesRun(t *testing.T) {
	golden := batchSelfTestSources(t)
	var srcs []string
	for _, name := range []string{"listing1_overflow", "uninit_stack", "heap_reuse", "div_zero", "shift_oob",
		"stable_checksum", "triage_uaf", "triage_oob", "triage_uninit", "triage_overflow"} {
		src, ok := golden[name]
		if !ok {
			t.Fatalf("golden program %s missing", name)
		}
		srcs = append(srcs, src)
	}
	for seed := int64(1); seed <= 6; seed++ {
		srcs = append(srcs, progen.Generate(seed).Src)
	}
	srcs = append(srcs, clockSrc, partialTimeoutSrc, hangSrc)
	inputs := [][]byte{nil, []byte("u"), {'o', 0x9b, 0xff, 0xff, 0x7f, 0x65, 0, 0, 0}, bytes.Repeat([]byte{0xff}, 16)}

	for _, par := range []int{1, 4} {
		for pi, src := range srcs {
			info := sema.MustCheck(parser.MustParse(src))
			ref, err := core.Build(info, compiler.DefaultSet(), cappedOpts)
			if err != nil {
				t.Fatal(err)
			}
			opts := cappedOpts
			opts.Parallelism = par
			s, err := core.Build(info, compiler.DefaultSet(), opts)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("program %d parallelism %d", pi, par)
			for _, in := range inputs {
				want := ref.Run(in)
				limit := maxSteps(want)
				if want.TimeoutSuspect || limit > cappedOpts.StepLimit {
					// A binary ran past the limit (and was re-run under
					// RQ6): capped at the limit, the call rejects.
					if got := s.RunCapped(in, cappedOpts.StepLimit); got != nil {
						t.Fatalf("%s input %q: a binary timed out, RunCapped returned an outcome", what, in)
					}
					continue
				}
				got := s.RunCapped(in, limit)
				if got == nil {
					t.Fatalf("%s input %q: RunCapped(%d) rejected a run that finished in %d steps", what, in, limit, limit)
				}
				assertSameFullOutcome(t, what, in, want, got)
				ref.Run(in)
				if s.RunCapped(in, limit-1) != nil {
					t.Fatalf("%s input %q: RunCapped(%d) accepted a run of %d steps", what, in, limit-1, limit)
				}
				assertSameFullOutcome(t, what+" after a rejection", in, ref.Run(in), s.Run(in))
			}
		}
	}
}

// TestRunCappedMetricsCountFullRuns: a sequential capped call that
// stops at the first binary observes that one run only.
func TestRunCappedMetricsCountFullRuns(t *testing.T) {
	cfgs := compiler.DefaultSet()
	names := make([]string, len(cfgs))
	for i, c := range cfgs {
		names[i] = c.Name()
	}
	m := telemetry.NewSuiteMetrics(names)
	s, err := core.BuildSource("int main() { while (1) { } return 0; }", cfgs, core.Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if o := s.RunCapped(nil, 1000); o != nil {
		t.Fatal("RunCapped returned an outcome for a program that never ends")
	}
	for i, sum := range m.Summaries() {
		want := int64(0)
		if i == 0 {
			want = 1
		}
		if sum.Runs() != want || sum.Outcomes[telemetry.ClassStepLimitHang] != want {
			t.Fatalf("impl %d: %d runs (%v), want %d step-limit hang", i, sum.Runs(), sum.Outcomes, want)
		}
	}
}
