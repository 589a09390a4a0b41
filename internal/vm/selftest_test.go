package vm_test

// The differential self-test for the interpreter itself: every
// program in the golden corpus, plus the fuzz seed/crasher inputs,
// runs through both the reference step() loop and the production
// runLoop on every default implementation and every sanitizer mode,
// and the two executions must agree on every observable Result field.
// This is the repo's own medicine applied to its own hot path — the
// fast loop is only trusted because this test holds it to the
// reference semantics over the whole corpus.

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"compdiff/internal/compiler"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
	"compdiff/internal/vm"
)

// selfTestProgram is one corpus entry: source plus the inputs to
// replay on it.
type selfTestProgram struct {
	name   string
	src    string
	inputs [][]byte
}

// crasherInputs are the fuzz seeds and known crash/divergence triggers
// (the FuzzSuiteRun corpus): uninitialized read, oversized shift,
// signed-overflow bounds check, plain paths, and all-0xff garbage.
func crasherInputs() [][]byte {
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

// selfTestCorpus loads every golden program (with its pinned input,
// when present) and appends the fuzz-target program with the crasher
// inputs.
func selfTestCorpus(t *testing.T) []selfTestProgram {
	t.Helper()
	srcs, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.mc"))
	if err != nil || len(srcs) == 0 {
		t.Fatalf("golden corpus unavailable: %v", err)
	}
	var progs []selfTestProgram
	for _, srcPath := range srcs {
		// compile_* programs exist to be rejected (or to ICE) by part of
		// the implementation set; they never reach the VM.
		if strings.HasPrefix(filepath.Base(srcPath), "compile_") {
			continue
		}
		src, err := os.ReadFile(srcPath)
		if err != nil {
			t.Fatal(err)
		}
		inputs := crasherInputs()
		if data, err := os.ReadFile(strings.TrimSuffix(srcPath, ".mc") + ".input"); err == nil {
			inputs = append([][]byte{data}, inputs...)
		}
		progs = append(progs, selfTestProgram{
			name:   strings.TrimSuffix(filepath.Base(srcPath), ".mc"),
			src:    string(src),
			inputs: inputs,
		})
	}
	progs = append(progs, selfTestProgram{
		name: "fuzz_target",
		src: `
int check(int offset, int len) {
    if (offset + len < offset) { return -1; }
    return offset + len;
}
int main() {
    char buf[16];
    long n = read_input(buf, 16L);
    if (n < 1) { return 0; }
    if (buf[0] == 'u') {
        int x;
        if (n > 100) { x = 1; }
        printf("u %d\n", x);
        return 0;
    }
    if (buf[0] == 's' && n >= 2) {
        printf("s %d\n", 1 << buf[1]);
        return 0;
    }
    if (n >= 9) {
        int offset = 0;
        int len = 0;
        memcpy((char*)&offset, buf + 1, 4L);
        memcpy((char*)&len, buf + 5, 4L);
        printf("o %d\n", check(offset & 2147483647, len & 2147483647));
        return 0;
    }
    printf("plain %ld\n", n);
    return 0;
}
`,
		inputs: crasherInputs(),
	})
	return progs
}

// sanConfigs pairs a compile-time sanitizer layout with the matching
// runtime mode, mirroring how difffuzz builds sanitizer binaries.
var sanConfigs = []struct {
	name string
	cfg  compiler.Config
	san  vm.SanMode
}{
	{"asan", compiler.Config{Family: compiler.Clang, Opt: compiler.O1, ASan: true, Sanitize: true}, vm.SanASan},
	{"ubsan", compiler.Config{Family: compiler.Clang, Opt: compiler.O1, Sanitize: true}, vm.SanUBSan},
	{"msan", compiler.Config{Family: compiler.Clang, Opt: compiler.O1, Sanitize: true}, vm.SanMSan},
}

// assertSameResult compares every observable Result field plus the
// canonical output checksum.
func assertSameResult(t *testing.T, input []byte, ref, fast *vm.Result) {
	t.Helper()
	if ref.Exit != fast.Exit || ref.Code != fast.Code {
		t.Fatalf("input %q: exit ref=%s/%d fast=%s/%d",
			input, ref.Exit, ref.Code, fast.Exit, fast.Code)
	}
	if ref.Steps != fast.Steps {
		t.Fatalf("input %q: steps ref=%d fast=%d", input, ref.Steps, fast.Steps)
	}
	if !bytes.Equal(ref.Stdout, fast.Stdout) {
		t.Fatalf("input %q: stdout ref=%q fast=%q", input, ref.Stdout, fast.Stdout)
	}
	if !bytes.Equal(ref.Stderr, fast.Stderr) {
		t.Fatalf("input %q: stderr ref=%q fast=%q", input, ref.Stderr, fast.Stderr)
	}
	switch {
	case (ref.San == nil) != (fast.San == nil):
		t.Fatalf("input %q: san ref=%v fast=%v", input, ref.San, fast.San)
	case ref.San != nil && ref.San.String() != fast.San.String():
		t.Fatalf("input %q: san ref=%q fast=%q", input, ref.San, fast.San)
	}
	if ref.OutputHash() != fast.OutputHash() {
		t.Fatalf("input %q: output hash ref=%016x fast=%016x",
			input, ref.OutputHash(), fast.OutputHash())
	}
}

// TestDifferentialSelfTest runs the corpus through both loops on all
// ten default implementations. The two machines replay the same input
// sequence so run-sequence-dependent builtins (time_now) stay aligned,
// and the repeated runs on one warm machine exercise the dirty-page
// reset under both loops.
func TestDifferentialSelfTest(t *testing.T) {
	for _, p := range selfTestCorpus(t) {
		p := p
		t.Run(p.name, func(t *testing.T) {
			info := sema.MustCheck(parser.MustParse(p.src))
			for _, cfg := range compiler.DefaultSet() {
				bin := compiler.MustCompile(info, cfg)
				ref := vm.New(bin, vm.Options{Reference: true})
				fast := vm.New(bin, vm.Options{})
				for _, input := range p.inputs {
					assertSameResult(t, input, ref.Run(input), fast.Run(input))
				}
			}
		})
	}
}

// TestDifferentialSelfTestSanitizers replays the corpus under each
// sanitizer mode: the sanitizer check sites (shadow memory, taint
// propagation, UB reports) must fire identically under both loops.
func TestDifferentialSelfTestSanitizers(t *testing.T) {
	for _, p := range selfTestCorpus(t) {
		p := p
		t.Run(p.name, func(t *testing.T) {
			info := sema.MustCheck(parser.MustParse(p.src))
			for _, sc := range sanConfigs {
				bin := compiler.MustCompile(info, sc.cfg)
				ref := vm.New(bin, vm.Options{Reference: true, San: sc.san})
				fast := vm.New(bin, vm.Options{San: sc.san})
				for _, input := range p.inputs {
					assertSameResult(t, input, ref.Run(input), fast.Run(input))
				}
			}
		})
	}
}

// TestRunSharedMatchesRun pins the zero-copy contract: RunShared's
// borrowed result, cloned immediately, is field-identical to Run's
// owned result, and the borrowed buffers really are invalidated (not
// corrupted into wrong answers) by the next run.
func TestRunSharedMatchesRun(t *testing.T) {
	for _, p := range selfTestCorpus(t) {
		p := p
		t.Run(p.name, func(t *testing.T) {
			info := sema.MustCheck(parser.MustParse(p.src))
			cfg := compiler.Config{Family: compiler.GCC, Opt: compiler.O2}
			bin := compiler.MustCompile(info, cfg)
			owned := vm.New(bin, vm.Options{})
			shared := vm.New(bin, vm.Options{})
			for _, input := range p.inputs {
				want := owned.Run(input)
				got := shared.RunShared(input).Clone()
				assertSameResult(t, input, want, got)
			}
		})
	}
}

// fuzzConfigs are the B_fuzz builds a campaign runs: edge-instrumented
// Clang, at -O2 without a sanitizer and at -O1 under each one.
var fuzzConfigs = []struct {
	name string
	cfg  compiler.Config
	san  vm.SanMode
}{
	{"plain", compiler.Config{Family: compiler.Clang, Opt: compiler.O2, Instrument: true}, vm.SanNone},
	{"asan", compiler.Config{Family: compiler.Clang, Opt: compiler.O1, Instrument: true, ASan: true, Sanitize: true}, vm.SanASan},
	{"ubsan", compiler.Config{Family: compiler.Clang, Opt: compiler.O1, Instrument: true, Sanitize: true}, vm.SanUBSan},
	{"msan", compiler.Config{Family: compiler.Clang, Opt: compiler.O1, Instrument: true, Sanitize: true}, vm.SanMSan},
}

// wrapLoopProgram drives one edge's 8-bit hit counter to and past the
// wrap (255, 256, 257 and 512 traversals), which leaves a marked but
// all-zero word in the coverage summary.
var wrapLoopProgram = selfTestProgram{
	name: "wrap_loop",
	src: `
int main() {
    char buf[2];
    long n = read_input(buf, 2L);
    int k = 0;
    if (n == 2) { k = (buf[0] & 255) | ((buf[1] & 255) << 8); }
    int s = 0;
    for (int i = 0; i < k; i++) { s = s + i; }
    printf("%d\n", s);
    return 0;
}
`,
	inputs: [][]byte{{255, 0}, {0, 1}, {1, 1}, {0, 2}, {3, 0}},
}

// assertCoverageSummary checks the summary invariant: every non-zero
// byte of the edge bitmap lies in a word the summary marks.
func assertCoverageSummary(t *testing.T, input []byte, m *vm.Machine) {
	t.Helper()
	cov, words := m.Coverage(), m.CoverageWords()
	if len(cov) != vm.CovMapSize || len(words) != vm.CovWordsLen {
		t.Fatalf("input %q: map %d bytes, summary %d words", input, len(cov), len(words))
	}
	for i, v := range cov {
		if v != 0 && words[i>>9]&(1<<(i>>3&63)) == 0 {
			t.Fatalf("input %q: bitmap byte %d = %d lies in an unmarked word", input, i, v)
		}
	}
}

// TestDifferentialSelfTestCoverage replays the corpus on the
// instrumented B_fuzz builds with coverage on. After every input the
// edge bitmap and its touched-word summary must be identical under
// both loops and satisfy the summary invariant, and the next reset
// must leave both all zero.
func TestDifferentialSelfTestCoverage(t *testing.T) {
	for _, p := range append(selfTestCorpus(t), wrapLoopProgram) {
		p := p
		t.Run(p.name, func(t *testing.T) {
			info := sema.MustCheck(parser.MustParse(p.src))
			for _, fc := range fuzzConfigs {
				bin := compiler.MustCompile(info, fc.cfg)
				ref := vm.New(bin, vm.Options{Reference: true, Coverage: true, San: fc.san})
				fast := vm.New(bin, vm.Options{Coverage: true, San: fc.san})
				for _, input := range p.inputs {
					assertSameResult(t, input, ref.Run(input), fast.Run(input))
					if !bytes.Equal(ref.Coverage(), fast.Coverage()) {
						t.Fatalf("%s, input %q: edge bitmaps differ between the loops", fc.name, input)
					}
					if !slices.Equal(ref.CoverageWords(), fast.CoverageWords()) {
						t.Fatalf("%s, input %q: coverage summaries differ between the loops", fc.name, input)
					}
					assertCoverageSummary(t, input, fast)
					for _, m := range []*vm.Machine{ref, fast} {
						m.Reset()
						if slices.ContainsFunc(m.Coverage(), func(b byte) bool { return b != 0 }) ||
							slices.ContainsFunc(m.CoverageWords(), func(w uint64) bool { return w != 0 }) {
							t.Fatalf("%s, input %q: coverage not cleared by reset", fc.name, input)
						}
					}
				}
			}
		})
	}
}
