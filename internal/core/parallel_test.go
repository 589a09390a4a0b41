package core

import (
	"sync"
	"testing"

	"compdiff/internal/compiler"
)

// A program with unstable constructs (uninitialized read + signed
// overflow in a bounds check) whose behavior depends only on the
// input bytes — never on the wall clock — so every run is
// reproducible.
const parSrc = `
int check(int offset, int len) {
    if (offset + len < offset) { return -1; }
    return offset + len;
}
int main() {
    char buf[8];
    int x;
    long n = read_input(buf, 8L);
    if (n < 8) { printf("uninit %d\n", x); return 0; }
    int offset = 0;
    int len = 0;
    memcpy((char*)&offset, buf, 4L);
    memcpy((char*)&len, buf + 4, 4L);
    printf("%d\n", check(offset & 2147483647, len & 2147483647));
    return 0;
}
`

func parInputs() [][]byte {
	return [][]byte{
		nil,
		[]byte("short"),
		{0x9b, 0xff, 0xff, 0x7f, 0x65, 0, 0, 0},
		{1, 0, 0, 0, 2, 0, 0, 0},
		{0xff, 0xff, 0xff, 0x7f, 0xff, 0xff, 0xff, 0x7f},
	}
}

func buildParSuite(t testing.TB, parallelism int) *Suite {
	t.Helper()
	s, err := BuildSource(parSrc, compiler.DefaultSet(), Options{Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sameOutcome(t *testing.T, want, got *Outcome, label string) {
	t.Helper()
	if want.Diverged != got.Diverged {
		t.Errorf("%s: Diverged = %v, want %v", label, got.Diverged, want.Diverged)
	}
	if want.TimeoutSuspect != got.TimeoutSuspect {
		t.Errorf("%s: TimeoutSuspect = %v, want %v", label, got.TimeoutSuspect, want.TimeoutSuspect)
	}
	if len(want.Hashes) != len(got.Hashes) {
		t.Fatalf("%s: %d hashes, want %d", label, len(got.Hashes), len(want.Hashes))
	}
	for i := range want.Hashes {
		if want.Hashes[i] != got.Hashes[i] {
			t.Errorf("%s: hash[%d] = %016x, want %016x", label, i, got.Hashes[i], want.Hashes[i])
		}
	}
	if want.Diverged && want.Signature() != got.Signature() {
		t.Errorf("%s: signature = %016x, want %016x", label, got.Signature(), want.Signature())
	}
}

// TestRunParallelMatchesSequential: Parallelism must not change any
// observable of an outcome — results are positional, hashes and
// signatures byte-identical.
func TestRunParallelMatchesSequential(t *testing.T) {
	seq := buildParSuite(t, 1)
	for _, p := range []int{2, 4, 16} {
		par := buildParSuite(t, p)
		for _, in := range parInputs() {
			sameOutcome(t, seq.Run(in), par.Run(in), "parallel run")
		}
	}
}

// TestSuiteRunConcurrent hammers one Suite from many goroutines and
// checks every outcome against the sequential reference: the pooled
// machine sets must fully isolate concurrent runs.
func TestSuiteRunConcurrent(t *testing.T) {
	ref := buildParSuite(t, 1)
	inputs := parInputs()
	want := make([]*Outcome, len(inputs))
	for i, in := range inputs {
		want[i] = ref.Run(in)
	}

	for _, p := range []int{1, 3} {
		shared := buildParSuite(t, p)
		var wg sync.WaitGroup
		errs := make(chan string, 64)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for round := 0; round < 4; round++ {
					i := (g + round) % len(inputs)
					o := shared.Run(inputs[i])
					for j := range o.Hashes {
						if o.Hashes[j] != want[i].Hashes[j] {
							errs <- "hash mismatch under concurrent Suite.Run"
							return
						}
					}
					if o.Diverged != want[i].Diverged {
						errs <- "verdict mismatch under concurrent Suite.Run"
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}

// TestRunParallelTimeoutPolicy: the RQ6 partial-timeout re-runs must
// behave identically on the parallel path.
func TestRunParallelTimeoutPolicy(t *testing.T) {
	src := `
int main() {
    char b[1];
    if (read_input(b, 1L) < 1) { return 0; }
    if (b[0] == 'x') {
        long i = 0;
        long n = 0;
        for (i = 0; i < 100000000L; i = i + 1) { n = n + i; }
        printf("%ld\n", n);
    }
    printf("done\n");
    return 0;
}
`
	mk := func(p int) *Suite {
		s, err := BuildSource(src, compiler.DefaultSet(), Options{
			StepLimit:         2000,
			MaxTimeoutRetries: 2,
			Parallelism:       p,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	seq, par := mk(1), mk(4)
	for _, in := range [][]byte{[]byte("x"), []byte("y")} {
		sameOutcome(t, seq.Run(in), par.Run(in), "timeout policy")
	}
}

// TestRunFastSequentialAllocs pins the allocations of a sequential
// fast-path run whose binaries agree: the outcome and its hash slice.
// The binaries run on the calling goroutine without a task closure,
// which would escape to the heap and cost a third.
func TestRunFastSequentialAllocs(t *testing.T) {
	s := buildParSuite(t, 1)
	in := parInputs()[3]
	if o := s.RunFast(in); o.Diverged {
		t.Fatalf("input %q diverged; the pin wants one that agrees", in)
	}
	if n := testing.AllocsPerRun(200, func() { s.RunFast(in) }); n != 2 {
		t.Fatalf("RunFast allocates %v times per run, want 2", n)
	}
}
