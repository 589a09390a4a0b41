package fuzz

import (
	"bytes"
	"testing"
	"testing/quick"

	"compdiff/internal/compiler"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
	"compdiff/internal/vm"
)

func TestClassifyBuckets(t *testing.T) {
	cov := []byte{0, 1, 2, 3, 5, 9, 20, 60, 200}
	Classify(cov, summarize(nil, cov))
	want := []byte{0, 1, 2, 4, 8, 16, 32, 64, 128}
	if !bytes.Equal(cov, want) {
		t.Fatalf("got %v, want %v", cov, want)
	}
}

func TestHasNewBits(t *testing.T) {
	virgin := make([]byte, 8)
	cov := make([]byte, 8)
	cov[3] = 1
	if r := HasNewBits(virgin, cov, summarize(nil, cov)); r != 2 {
		t.Fatalf("first hit = %d, want 2", r)
	}
	if r := HasNewBits(virgin, cov, summarize(nil, cov)); r != 0 {
		t.Fatalf("repeat = %d, want 0", r)
	}
	cov[3] = 2 // changed hit-count bucket, same edge
	if r := HasNewBits(virgin, cov, summarize(nil, cov)); r != 1 {
		t.Fatalf("bucket change = %d, want 1", r)
	}
}

func TestCountBits(t *testing.T) {
	if n := CountBits([]byte{0b101, 0, 0b11}, []uint64{1}); n != 4 {
		t.Fatalf("n = %d", n)
	}
}

func TestCovHashDistinguishesMaps(t *testing.T) {
	a := make([]byte, 16)
	b := make([]byte, 16)
	a[1] = 1
	b[2] = 1
	if CovHash(a) == CovHash(b) {
		t.Fatal("hash collision on distinct maps")
	}
	if CovHash(a) != CovHash(a) {
		t.Fatal("hash not deterministic")
	}
}

func TestMutatorDeterministicStage(t *testing.T) {
	mu := NewMutator(1, 64)
	data := []byte{1, 2, 3, 4}
	count := 0
	mu.Deterministic(data, func(m []byte) bool {
		if len(m) != len(data) {
			t.Fatalf("deterministic stage changed length: %d", len(m))
		}
		count++
		return true
	})
	// 32 bitflips + 4 byteflips + 64 arith + 36 interesting8 + 8 interesting32.
	if count != 32+4+64+36+8 {
		t.Fatalf("mutant count = %d", count)
	}
}

func TestMutatorRespectsMaxLen(t *testing.T) {
	f := func(seed int64, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		mu := NewMutator(seed, 32)
		for i := 0; i < 20; i++ {
			if m := mu.Havoc(data); len(m) == 0 || len(m) > 32 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMutatorReproducible(t *testing.T) {
	a := NewMutator(7, 64)
	b := NewMutator(7, 64)
	data := []byte("seed input data")
	for i := 0; i < 50; i++ {
		if !bytes.Equal(a.Havoc(data), b.Havoc(data)) {
			t.Fatal("same RNG seed produced different mutants")
		}
	}
}

func TestSpliceBounds(t *testing.T) {
	mu := NewMutator(3, 16)
	a := bytes.Repeat([]byte{'a'}, 10)
	b := bytes.Repeat([]byte{'b'}, 10)
	for i := 0; i < 50; i++ {
		m := mu.Splice(a, b)
		if len(m) == 0 || len(m) > 16 {
			t.Fatalf("splice length %d", len(m))
		}
	}
}

// ---------------------------------------------------------------------------
// End-to-end fuzzing against an instrumented binary

func machineFor(t testing.TB, src string) *vm.Machine {
	t.Helper()
	info := sema.MustCheck(parser.MustParse(src))
	cfg := compiler.Config{Family: compiler.Clang, Opt: compiler.O1, Instrument: true}
	bin := compiler.MustCompile(info, cfg)
	return vm.New(bin, vm.Options{Coverage: true, StepLimit: 200_000})
}

const maze = `
int main() {
    char buf[8];
    long n = read_input(buf, 8L);
    if (n < 4) { return 0; }
    if (buf[0] == 'F') {
        if (buf[1] == 'U') {
            if (buf[2] == 'Z') {
                if (buf[3] == 'Z') {
                    int* p = 0;
                    *p = 1;
                }
            }
        }
    }
    return 0;
}
`

func TestFuzzerFindsGuardedCrash(t *testing.T) {
	m := machineFor(t, maze)
	f := New(m, [][]byte{[]byte("AAAA")}, Options{Seed: 42})
	stats := f.Run(60_000)
	if stats.UniqueCrashes == 0 {
		t.Fatalf("no crash found after %d execs (seeds=%d)", stats.Execs, stats.Seeds)
	}
	found := false
	for _, c := range f.Crashes() {
		if bytes.HasPrefix(c.Input, []byte("FUZZ")) && c.Result.Exit == vm.SigSegv {
			found = true
		}
	}
	if !found {
		t.Fatalf("crash inputs: %v", f.Crashes())
	}
	if stats.Seeds < 3 {
		t.Fatalf("coverage guidance made no progress: %d seeds", stats.Seeds)
	}
}

func TestFuzzerCoverageGrowth(t *testing.T) {
	src := `
int main() {
    char buf[16];
    long n = read_input(buf, 16L);
    int score = 0;
    for (long i = 0; i < n; i++) {
        if (buf[i] >= 'a' && buf[i] <= 'z') { score++; }
        if (buf[i] == ' ') { score += 2; }
    }
    if (score > 8) { printf("rich\n"); }
    return 0;
}
`
	m := machineFor(t, src)
	f := New(m, [][]byte{{0}}, Options{Seed: 1})
	before := f.Stats().Seeds
	f.Run(5_000)
	if f.Stats().Seeds <= before {
		t.Fatal("queue did not grow")
	}
}

func TestOnExecHookSeesEveryInput(t *testing.T) {
	m := machineFor(t, maze)
	var hookCalls int64
	f := New(m, [][]byte{[]byte("seed")}, Options{
		Seed:   9,
		OnExec: func(in []byte, res *vm.Result) { hookCalls++ },
	})
	stats := f.Run(500)
	if hookCalls != stats.Execs {
		t.Fatalf("hook calls %d != execs %d", hookCalls, stats.Execs)
	}
}

func TestCrashDeduplication(t *testing.T) {
	// Every input longer than 3 bytes crashes at the same place: one
	// unique crash expected.
	src := `
int main() {
    char buf[8];
    long n = read_input(buf, 8L);
    if (n > 3) {
        int* p = 0;
        *p = 1;
    }
    return 0;
}
`
	m := machineFor(t, src)
	f := New(m, [][]byte{[]byte("AAAAAA")}, Options{Seed: 5})
	f.Run(2_000)
	if n := len(f.Crashes()); n != 1 {
		t.Fatalf("unique crashes = %d, want 1", n)
	}
}

func TestFuzzerDeterministicCampaign(t *testing.T) {
	run := func() Stats {
		m := machineFor(t, maze)
		f := New(m, [][]byte{[]byte("AAAA")}, Options{Seed: 123})
		return f.Run(3_000)
	}
	a, b := run(), run()
	if a.Execs != b.Execs || a.Seeds != b.Seeds || a.UniqueCrashes != b.UniqueCrashes {
		t.Fatalf("campaign not reproducible: %+v vs %+v", a, b)
	}
}
