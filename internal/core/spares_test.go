package core_test

// Suite-level equivalence for machine reuse: suites built through one
// recycled Spares set — every machine rebound from the previous
// program's suite — must give the outcomes fresh suites give, over the
// golden corpus and a generated sweep, sequentially and in parallel,
// with a normalizer, and under the RQ6 re-run policy.

import (
	"bytes"
	"testing"

	"compdiff/internal/compiler"
	"compdiff/internal/core"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
	"compdiff/internal/progen"
	"compdiff/internal/vm"
)

// clockSrc prints the time_now clock, which derives from each
// machine's run sequence.
const clockSrc = `
int main() {
    long ts = time_now();
    printf("%d%d:%d%d:%d%d.%d%d%d%d%d%d [Epan WARNING]\n",
        (int)(ts % 2L), 1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 6);
    printf("at %ld\n", ts);
    return 0;
}
`

// partialTimeoutSrc runs past a 50k step limit at -O0 only, so the
// RQ6 policy re-runs part of the implementation set.
const partialTimeoutSrc = `
int main() {
    int x = 1;
    for (int i = 0; i < 4000; i++) {
        x; x; x; x; x; x; x; x; x; x;
        x; x; x; x; x; x; x; x; x; x;
    }
    printf("done\n");
    return 0;
}
`

// slowSrc runs past a 50k step limit on every implementation, so no
// RQ6 re-run rescues it.
const slowSrc = `
int main() {
    long s = 0;
    for (int i = 0; i < 40000; i++) { s = s + i; }
    printf("%ld\n", s);
    return 0;
}
`

// hangSrc hangs on one implementation family only: a timeout suspect.
const hangSrc = `
int main() {
    long spin = 0;
    while (1) { spin++; if (spin < 0L) { break; } }
    printf("%ld\n", spin);
    return 0;
}
`

// assertSameFullOutcome compares every Outcome field of two
// materialized outcomes: hashes, verdicts, signature and each result.
func assertSameFullOutcome(t *testing.T, what string, input []byte, want, got *core.Outcome) {
	t.Helper()
	assertSameOutcome(t, input, want, got)
	if ws, gs := want.Signature(), got.Signature(); ws != gs {
		t.Fatalf("%s input %q: signature fresh=%016x recycled=%016x", what, input, ws, gs)
	}
	for i := range want.Results {
		w, g := want.Results[i], got.Results[i]
		if w.Exit != g.Exit || w.Code != g.Code || w.Steps != g.Steps ||
			!bytes.Equal(w.Stdout, g.Stdout) || !bytes.Equal(w.Stderr, g.Stderr) ||
			(w.San == nil) != (g.San == nil) || w.San != nil && *w.San != *g.San {
			t.Fatalf("%s input %q: result[%d] fresh=%s/%d/%d %q %q %v recycled=%s/%d/%d %q %q %v", what, input, i,
				w.Exit, w.Code, w.Steps, w.Stdout, w.Stderr, w.San, g.Exit, g.Code, g.Steps, g.Stdout, g.Stderr, g.San)
		}
	}
}

func TestRecycledSuitesMatchFresh(t *testing.T) {
	golden := batchSelfTestSources(t)
	var runtime []string
	for _, name := range []string{"listing1_overflow", "uninit_stack", "heap_reuse", "div_zero", "shift_oob",
		"stable_checksum", "triage_uaf", "triage_oob", "triage_uninit", "triage_overflow"} {
		src, ok := golden[name]
		if !ok {
			t.Fatalf("golden program %s missing", name)
		}
		runtime = append(runtime, src)
	}
	for seed := int64(1); seed <= 6; seed++ {
		runtime = append(runtime, progen.Generate(seed).Src)
	}
	runtime = append(runtime, clockSrc)
	inputs := [][]byte{nil, []byte("u"), {'o', 0x9b, 0xff, 0xff, 0x7f, 0x65, 0, 0, 0}, bytes.Repeat([]byte{0xff}, 16)}

	variants := []struct {
		name string
		opts core.Options
		srcs []string
	}{
		{"plain", core.Options{}, runtime},
		{"normalizer", core.Options{Normalizer: core.DefaultNormalizer()}, runtime},
		{"rq6", core.Options{StepLimit: 50_000, MaxTimeoutRetries: 1}, append([]string{partialTimeoutSrc, hangSrc}, runtime[:4]...)},
	}
	for _, v := range variants {
		for _, par := range []int{1, 4} {
			opts := v.opts
			opts.Parallelism = par
			var diverged, suspects int
			spares := core.NewSpares()
			for pi, src := range v.srcs {
				info := sema.MustCheck(parser.MustParse(src))
				fresh, err := core.Build(info, compiler.DefaultSet(), opts)
				if err != nil {
					t.Fatal(err)
				}
				recycled, err := spares.Build(info, compiler.DefaultSet(), opts)
				if err != nil {
					t.Fatal(err)
				}
				if pi > 0 && spares.IdleMachines() != 0 {
					t.Fatalf("%s: suite construction left %d spares unused", v.name, spares.IdleMachines())
				}
				for _, in := range inputs {
					want, got := fresh.Run(in), recycled.Run(in)
					assertSameFullOutcome(t, v.name, in, want, got)
					if want.Diverged {
						diverged++
					}
					if want.TimeoutSuspect {
						suspects++
					}
				}
				spares.Release(recycled)
				if n := spares.IdleMachines(); n != len(recycled.Impls) {
					t.Fatalf("%s: release handed back %d machines, want %d", v.name, n, len(recycled.Impls))
				}
			}
			if diverged == 0 || (v.name == "rq6" && suspects == 0) {
				t.Fatalf("%s parallelism %d: %d diverged outcomes, %d timeout suspects; the comparison is vacuous",
					v.name, par, diverged, suspects)
			}
		}
	}
}

// TestSparesMismatchedSlotsMatchFresh builds suites from a released set
// that does not fit them slot for slot: configurations in another
// order (some or every slot's profile differs), another step limit,
// and another number of configurations. Matching slots are rebound and
// the rest get new machines; every outcome must equal a fresh suite's.
func TestSparesMismatchedSlotsMatchFresh(t *testing.T) {
	golden := batchSelfTestSources(t)
	srcs := []string{golden["uninit_stack"], golden["heap_reuse"], clockSrc, slowSrc}
	def := compiler.DefaultSet()
	swapped := append([]compiler.Config(nil), def...)
	swapped[1], swapped[6] = swapped[6], swapped[1]
	reversed := make([]compiler.Config, len(def))
	for i, c := range def {
		reversed[len(def)-1-i] = c
	}
	inputs := [][]byte{nil, []byte("u"), bytes.Repeat([]byte{0xff}, 16)}
	timeouts := 0
	for _, next := range []struct {
		name string
		cfgs []compiler.Config
		opts core.Options
	}{
		{"swapped", swapped, core.Options{}},
		{"reversed", reversed, core.Options{}},
		{"step-limit", def, core.Options{StepLimit: 50_000}},
		{"fewer", def[3:5], core.Options{}},
	} {
		for _, src := range srcs {
			info := sema.MustCheck(parser.MustParse(src))
			spares := core.NewSpares()
			first, err := spares.Build(info, def, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			first.Run(nil)
			spares.Release(first)
			recycled, err := spares.Build(info, next.cfgs, next.opts)
			if err != nil {
				t.Fatal(err)
			}
			if n := spares.IdleMachines(); n != 0 {
				t.Fatalf("%s: %d machines left in the stack", next.name, n)
			}
			fresh, err := core.Build(info, next.cfgs, next.opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range inputs {
				want := fresh.Run(in)
				assertSameFullOutcome(t, next.name, in, want, recycled.Run(in))
				if want.Results[0].Exit == vm.StepLimit {
					timeouts++
				}
			}
		}
	}
	if timeouts == 0 {
		t.Fatal("no run hit the lowered step limit; the step-limit case is vacuous")
	}
}
