package core

// Suite-level telemetry: classification, latency recording, the RQ6
// re-run interaction with pooled machines, and budget-growth overflow.

import (
	"math"
	"testing"

	"compdiff/internal/compiler"
	"compdiff/internal/telemetry"
)

// delayLoopSrc pads a loop body with dead loads that DeadLoadElim
// drops at -O1+: the -O0 binaries take ~1.4M steps, everything else
// ~240k. With a base budget between the two, only the -O0 binaries
// time out and the RQ6 policy re-runs them with grown budgets.
const delayLoopSrc = `
int main() {
    int x = 1;
    for (int i = 0; i < 20000; i++) {
        x; x; x; x; x; x; x; x; x; x;
        x; x; x; x; x; x; x; x; x; x;
    }
    printf("done\n");
    return 0;
}
`

// delayLoopLimit sits between the -O1+ step count and the -O0 one, so
// exactly the two -O0 implementations hang initially; the first grown
// budget (4x) is enough for them to finish.
const delayLoopLimit = 400_000

func TestSuiteMetricsClassifyAndCount(t *testing.T) {
	m := telemetry.NewSuiteMetrics(namesOf(compiler.DefaultSet()))
	s, err := BuildSource(listing1Src, compiler.DefaultSet(), Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	s.Run([]byte{1, 0, 0, 0, 2, 0, 0, 0})                // benign
	s.Run([]byte{0xff, 0xff, 0xff, 0x7f, 0x01, 0, 0, 0}) // diverges
	for i, sum := range m.Summaries() {
		if sum.Runs() != 2 {
			t.Fatalf("impl %d (%s): %d runs recorded, want 2", i, sum.Name, sum.Runs())
		}
		if sum.Outcomes[telemetry.ClassOK] != 2 {
			t.Fatalf("impl %d: outcomes = %v, want all ok", i, sum.Outcomes)
		}
		if sum.Latency.Count != 2 || sum.Latency.Sum <= 0 {
			t.Fatalf("impl %d: latency count=%d sum=%d", i, sum.Latency.Count, sum.Latency.Sum)
		}
	}
}

func TestSuiteMetricsCountStepLimitHangs(t *testing.T) {
	m := telemetry.NewSuiteMetrics(namesOf(compiler.DefaultSet()))
	s, err := BuildSource(delayLoopSrc, compiler.DefaultSet(), Options{StepLimit: delayLoopLimit, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	o := s.Run(nil)
	if o.Diverged {
		t.Fatal("timeout-induced false positive")
	}
	if o.TimeoutSuspect {
		t.Fatal("re-runs should have cleared the timeouts")
	}
	var hangs, total int64
	for _, sum := range m.Summaries() {
		hangs += sum.Outcomes[telemetry.ClassStepLimitHang]
		total += sum.Runs()
	}
	if hangs == 0 {
		t.Fatal("partial timeout left no step-limit-hang classifications")
	}
	// Re-runs are recorded too: the -O0 binaries ran more than once.
	if total <= int64(len(s.Impls)) {
		t.Fatalf("total recorded runs %d do not include re-runs", total)
	}
}

// TestRQ6RerunDoesNotLeakBudgetIntoPooledMachines runs a short-limit
// partial-timeout input (re-runs get 4x the budget) and then the same
// input again on the same pooled machines. If the grown budget leaked,
// the second run's initial attempts would not time out and the hang
// count would stop doubling.
func TestRQ6RerunDoesNotLeakBudgetIntoPooledMachines(t *testing.T) {
	m := telemetry.NewSuiteMetrics(namesOf(compiler.DefaultSet()))
	s, err := BuildSource(delayLoopSrc, compiler.DefaultSet(), Options{StepLimit: delayLoopLimit, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	hangsAfter := func() int64 {
		var h int64
		for _, sum := range m.Summaries() {
			h += sum.Outcomes[telemetry.ClassStepLimitHang]
		}
		return h
	}
	s.Run(nil)
	h1 := hangsAfter()
	if h1 == 0 {
		t.Fatal("first run produced no hangs; the leak check is vacuous")
	}
	s.Run(nil)
	if h2 := hangsAfter(); h2 != 2*h1 {
		t.Fatalf("second run on warm machines: hangs %d -> %d, want exact doubling (budget leak?)", h1, h2)
	}
	// The same holds with the parallel worker pool over a reused set.
	mp := telemetry.NewSuiteMetrics(namesOf(compiler.DefaultSet()))
	sp, err := BuildSource(delayLoopSrc, compiler.DefaultSet(),
		Options{StepLimit: delayLoopLimit, Parallelism: 4, Metrics: mp})
	if err != nil {
		t.Fatal(err)
	}
	sp.Run(nil)
	sp.Run(nil)
	sp.Run(nil)
	var hp int64
	for _, sum := range mp.Summaries() {
		hp += sum.Outcomes[telemetry.ClassStepLimitHang]
	}
	if hp != 3*h1 {
		t.Fatalf("parallel runs recorded %d hangs, want %d", hp, 3*h1)
	}
}

func TestGrowBudgetSaturatesOnOverflow(t *testing.T) {
	cases := []struct {
		base    int64
		retries int
		want    int64
	}{
		{4_000_000, 1, 16_000_000},
		{4_000_000, 3, 256_000_000},
		{math.MaxInt64 / 4, 1, math.MaxInt64 - 3}, // largest 4x that still fits
		{math.MaxInt64 / 2, 1, math.MaxInt64},     // shifts into the sign bit
		{math.MaxInt64 / 2, 3, math.MaxInt64},     // clean overflow
		{1 << 60, 2, math.MaxInt64},
	}
	for _, tc := range cases {
		if got := growBudget(tc.base, tc.retries); got != tc.want {
			t.Errorf("growBudget(%d, %d) = %d, want %d", tc.base, tc.retries, got, tc.want)
		}
		if got := growBudget(tc.base, tc.retries); got <= 0 {
			t.Errorf("growBudget(%d, %d) = %d is not positive", tc.base, tc.retries, got)
		}
	}
}

func namesOf(cfgs []compiler.Config) []string {
	out := make([]string, len(cfgs))
	for i, c := range cfgs {
		out[i] = c.Name()
	}
	return out
}
