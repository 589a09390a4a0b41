package triage

// Tests for the reducer's candidate step cap: a candidate that loops
// forever is rejected at the cap, the reduction equals the uncapped
// one, and the three fallbacks take the ordinary uncapped path.

import (
	"os"
	"path/filepath"
	"testing"

	"compdiff/internal/core"
)

// loopingSrc reads an uninitialized array inside a counted loop.
// Dropping the loop's increment, the only statement drop-stmt can
// remove from its body without losing the read, leaves a loop that
// never ends.
const loopingSrc = `
int main() {
    int a[4];
    int i = 0;
    while (i < 4) {
        printf("%d\n", a[i]);
        i = i + 1;
    }
    return 0;
}
`

// hangingSrc counts up to an uninitialized bound: some
// implementations' fill patterns make it zero, the others' make it
// too large to reach, so the finding is a step-limit one.
const hangingSrc = `
int main() {
    int n;
    int i = 0;
    while (i < n) { i = i + 1; }
    printf("%d\n", i);
    return 0;
}
`

// reduceUncapped is reduce with the step cap switched off.
func reduceUncapped(t *testing.T, src string, input []byte, opts ReduceOptions) *Reduction {
	t.Helper()
	capOff = true
	defer func() { capOff = false }()
	red, r, err := reduce(src, input, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.cappedRuns != 0 {
		t.Fatalf("capOff still ran %d candidates capped", r.cappedRuns)
	}
	return red
}

// assertSameReduction compares every field of two reductions.
func assertSameReduction(t *testing.T, got, want *Reduction) {
	t.Helper()
	if got.Source != want.Source || string(got.Input) != string(want.Input) {
		t.Fatalf("reduction differs:\n%s\ninput %q\nwant:\n%s\ninput %q", got.Source, got.Input, want.Source, want.Input)
	}
	if !got.Fingerprint.Equal(want.Fingerprint) {
		t.Fatalf("fingerprint %v, want %v", got.Fingerprint, want.Fingerprint)
	}
	if got.OrigSourceBytes != want.OrigSourceBytes || got.OrigInputBytes != want.OrigInputBytes ||
		got.SuiteRuns != want.SuiteRuns || got.Builds != want.Builds {
		t.Fatalf("sizes or costs differ: %+v, want %+v", got, want)
	}
}

func TestReduceStepCapRejectsLoopingCandidate(t *testing.T) {
	red, r, err := reduce(loopingSrc, nil, ReduceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.capRejects == 0 {
		t.Fatalf("the step cap never fired (%d capped runs)", r.cappedRuns)
	}
	assertSameReduction(t, red, reduceUncapped(t, loopingSrc, nil, ReduceOptions{}))
	assertReproduces(t, red)
}

// TestReduceStepCapFallbacks: a step-limit finding, a suite step limit
// below the cap, and a compile-stage finding all reduce uncapped.
func TestReduceStepCapFallbacks(t *testing.T) {
	compileSrc, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "compile_reject.mc"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		src  string
		opts ReduceOptions
	}{
		{"step-limit-finding", hangingSrc, ReduceOptions{Suite: core.Options{StepLimit: 200_000, MaxTimeoutRetries: 1}}},
		{"limit-below-cap", loopingSrc, ReduceOptions{Suite: core.Options{StepLimit: capFloor - 1}}},
		{"compile-stage", string(compileSrc), ReduceOptions{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			red, r, err := reduce(tc.src, nil, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if r.cappedRuns != 0 {
				t.Fatalf("%d candidates ran capped", r.cappedRuns)
			}
			// A step-limit finding's best always ran past the limit, so
			// the cap would reach it too; the class rule must decide
			// first.
			if tc.name == "step-limit-finding" && r.capSteps {
				t.Fatal("a step-limit finding was reduced with the cap enabled")
			}
			assertSameReduction(t, red, reduceUncapped(t, tc.src, nil, tc.opts))
		})
	}
}
