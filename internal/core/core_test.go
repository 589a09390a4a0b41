package core

import (
	"strings"
	"testing"
	"testing/quick"

	"compdiff/internal/compiler"
	"compdiff/internal/vm"
)

func build(t *testing.T, src string) *Suite {
	t.Helper()
	s, err := BuildSource(src, compiler.DefaultSet(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const stableSrc = `
int main() {
    char buf[32];
    long n = read_input(buf, 31L);
    buf[n] = '\0';
    int sum = 0;
    for (long i = 0; i < n; i++) { sum += buf[i]; }
    printf("%s:%d\n", buf, sum);
    return 0;
}
`

const listing1Src = `
int dump_data(int offset, int len, int size) {
    if (offset + len > size || offset < 0 || len < 0) { return -1; }
    if (offset + len < offset) { return -1; }
    return offset;
}
int main() {
    char buf[8];
    long n = read_input(buf, 8L);
    if (n < 8) { return 0; }
    int offset = 0;
    int len = 0;
    memcpy((char*)&offset, buf, 4L);
    memcpy((char*)&len, buf + 4, 4L);
    int r = dump_data(offset, len, 1000);
    printf("r=%d\n", r);
    return 0;
}
`

func TestSuiteBuildsTenImplementations(t *testing.T) {
	s := build(t, stableSrc)
	if len(s.Impls) != 10 {
		t.Fatalf("impls = %d", len(s.Impls))
	}
	names := strings.Join(s.Names(), ",")
	for _, want := range []string{"gcc -O0", "gcc -Os", "clang -O0", "clang -O3"} {
		if !strings.Contains(names, want) {
			t.Errorf("missing %q in %s", want, names)
		}
	}
}

func TestStableProgramNoDivergence(t *testing.T) {
	s := build(t, stableSrc)
	for _, in := range [][]byte{nil, []byte("x"), []byte("hello world")} {
		o := s.Run(in)
		if o.Diverged {
			t.Fatalf("false positive on input %q", in)
		}
		if len(o.Groups()) != 1 {
			t.Fatal("groups inconsistent with Diverged")
		}
	}
}

func TestListing1Divergence(t *testing.T) {
	s := build(t, listing1Src)
	// Benign input: no divergence.
	benign := []byte{1, 0, 0, 0, 2, 0, 0, 0}
	if o := s.Run(benign); o.Diverged {
		t.Fatal("false positive on benign input")
	}
	if o := s.Run(nil); o.Diverged {
		t.Fatal("false positive on empty input")
	}
	// Overflowing offset+len: the second guard is unstable.
	evil := []byte{0xff, 0xff, 0xff, 0x7f, 0x01, 0x00, 0x00, 0x00} // INT_MAX, 1
	o := s.Run(evil)
	if !o.Diverged {
		t.Fatal("expected divergence on overflow-triggering input")
	}
	if len(o.Groups()) < 2 {
		t.Fatal("expected at least 2 output groups")
	}
}

func TestSignatureStableAcrossSameBug(t *testing.T) {
	s := build(t, listing1Src)
	o1 := s.Run([]byte{0xff, 0xff, 0xff, 0x7f, 0x01, 0, 0, 0})
	o2 := s.Run([]byte{0xfe, 0xff, 0xff, 0x7f, 0x02, 0, 0, 0})
	if !o1.Diverged || !o2.Diverged {
		t.Fatal("both inputs should diverge")
	}
	if o1.Signature() != o2.Signature() {
		t.Fatal("same bug should triage to the same signature")
	}
}

func TestDiffStoreDedup(t *testing.T) {
	s := build(t, listing1Src)
	st := NewDiffStore(t.TempDir())
	in1 := []byte{0xff, 0xff, 0xff, 0x7f, 0x01, 0, 0, 0}
	in2 := []byte{0xfe, 0xff, 0xff, 0x7f, 0x02, 0, 0, 0}
	fresh1, err := st.Add(s.Run(in1))
	if err != nil || !fresh1 {
		t.Fatalf("first add: fresh=%v err=%v", fresh1, err)
	}
	fresh2, err := st.Add(s.Run(in2))
	if err != nil || fresh2 {
		t.Fatalf("second add should dedup: fresh=%v err=%v", fresh2, err)
	}
	if st.Total() != 2 || len(st.Unique()) != 1 {
		t.Fatalf("total=%d unique=%d", st.Total(), len(st.Unique()))
	}
	rep := st.Unique()[0].Report(s.Names())
	for _, want := range []string{"discrepancy signature", "reproducers:", "gcc", "clang"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestNonDivergingOutcomeNotStored(t *testing.T) {
	s := build(t, stableSrc)
	st := NewDiffStore("")
	fresh, err := st.Add(s.Run([]byte("ok")))
	if err != nil || fresh || st.Total() != 0 {
		t.Fatalf("fresh=%v err=%v total=%d", fresh, err, st.Total())
	}
}

// ---------------------------------------------------------------------------
// Timeout policy (RQ6)

func TestPartialTimeoutRerunPolicy(t *testing.T) {
	// DeadLoadElim removes the dead loads padding the loop body at
	// -O1+; -O0 binaries execute them all. With a base budget between
	// the two step counts only the -O0 binaries time out, but the
	// re-run policy must extend their budget until outputs are
	// comparable: no divergence, no lingering timeout suspicion.
	src := `
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
	s, err := BuildSource(src, compiler.DefaultSet(), Options{StepLimit: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	o := s.Run(nil)
	if o.Diverged {
		t.Fatalf("timeout-induced false positive; suspect=%v", o.TimeoutSuspect)
	}
	if o.TimeoutSuspect {
		t.Fatal("re-runs should have cleared the timeouts")
	}
	// The timeout really was partial: the -O0 results finished past the
	// base budget (proof they were re-run with a grown one) while the
	// optimized binaries fit comfortably inside it.
	var rerun, within int
	for _, r := range o.Results {
		if r.Steps > 400_000 {
			rerun++
		} else {
			within++
		}
	}
	if rerun == 0 || within == 0 {
		t.Fatalf("want a partial timeout, got %d re-run / %d within budget", rerun, within)
	}
}

func TestGenuineInfiniteLoopFlagged(t *testing.T) {
	// One implementation family hangs forever (a loop guarded by an
	// unstable overflow check); the suspect flag must be set.
	src := `
int main() {
    long spin = 0;
    while (1) { spin++; if (spin < 0L) { break; } }
    printf("%ld\n", spin);
    return 0;
}
`
	s, err := BuildSource(src, compiler.DefaultSet(), Options{StepLimit: 50_000, MaxTimeoutRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	o := s.Run(nil)
	if !o.TimeoutSuspect {
		t.Fatal("expected TimeoutSuspect")
	}
}

// ---------------------------------------------------------------------------
// Normalization (RQ5)

func TestNormalizerFiltersTimestamps(t *testing.T) {
	src := `
int main() {
    long ts = time_now();
    printf("%d%d:%d%d:%d%d.%d%d%d%d%d%d [Epan WARNING]\n",
        (int)(ts % 2L), 1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 6);
    printf("payload ok\n");
    return 0;
}
`
	plain, err := BuildSource(src, compiler.DefaultSet(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if o := plain.Run(nil); !o.Diverged {
		t.Fatal("timestamps should diverge without normalization")
	}
	norm, err := BuildSource(src, compiler.DefaultSet(), Options{Normalizer: DefaultNormalizer()})
	if err != nil {
		t.Fatal(err)
	}
	if o := norm.Run(nil); o.Diverged {
		t.Fatal("normalizer should hide timestamp divergence")
	}
}

func TestNormalizerKeepsRealDivergence(t *testing.T) {
	s, err := BuildSource(`
int main() {
    int x;
    printf("12:00:00.000000 value=%d\n", x);
    return 0;
}
`, compiler.DefaultSet(), Options{Normalizer: DefaultNormalizer()})
	if err != nil {
		t.Fatal(err)
	}
	if o := s.Run(nil); !o.Diverged {
		t.Fatal("real divergence must survive normalization")
	}
}

func TestNormalizerPointerFilter(t *testing.T) {
	n := DefaultNormalizer()
	got := string(n.Apply([]byte("ptr=0xdeadbeef at 10:44:23.405830 end")))
	if got != "ptr=<PTR> at <TIME> end" {
		t.Fatalf("got %q", got)
	}
}

// TestDefaultNormalizersShareRules checks that default normalizers
// share their compiled expressions and that adding a rule to one
// leaves the others as they were.
func TestDefaultNormalizersShareRules(t *testing.T) {
	a, b := DefaultNormalizer(), DefaultNormalizer()
	if len(a.rules) != 2 || a.rules[0].re != b.rules[0].re || a.rules[1].re != b.rules[1].re {
		t.Fatal("default normalizers compiled their rules apart")
	}
	a.Add(`end`, "<END>")
	in := []byte("ptr=0xdeadbeef end")
	if got := string(a.Apply(in)); got != "ptr=<PTR> <END>" {
		t.Fatalf("extended normalizer: got %q", got)
	}
	if got := string(b.Apply(in)); got != "ptr=<PTR> end" {
		t.Fatalf("Add on one default normalizer changed another: got %q", got)
	}
	if got := string(DefaultNormalizer().Apply(in)); got != "ptr=<PTR> end" {
		t.Fatalf("Add on one default normalizer changed a later one: got %q", got)
	}
}

// ---------------------------------------------------------------------------
// Subset analysis

func TestBugMatrixDetection(t *testing.T) {
	bm := &BugMatrix{
		ImplNames: []string{"a", "b", "c"},
		Rows: [][]uint64{
			{1, 1, 2}, // detected by any subset containing c and (a or b)
			{1, 1, 1}, // never detected
			{1, 2, 3}, // detected by any pair
		},
	}
	if n := bm.DetectedBy([]int{0, 1}); n != 1 {
		t.Fatalf("{a,b} = %d, want 1", n)
	}
	if n := bm.DetectedBy([]int{0, 2}); n != 2 {
		t.Fatalf("{a,c} = %d, want 2", n)
	}
	if n := bm.DetectedBy([]int{0, 1, 2}); n != 2 {
		t.Fatalf("{a,b,c} = %d, want 2", n)
	}
}

func TestSubsetSweepShape(t *testing.T) {
	bm := &BugMatrix{
		ImplNames: []string{"a", "b", "c", "d"},
		Rows: [][]uint64{
			{1, 2, 1, 1},
			{1, 1, 2, 2},
			{3, 1, 1, 3},
		},
	}
	stats := bm.SubsetSweep()
	if len(stats) != 3 { // sizes 2, 3, 4
		t.Fatalf("stats = %d", len(stats))
	}
	if stats[0].Subsets != 6 || stats[1].Subsets != 4 || stats[2].Subsets != 1 {
		t.Fatalf("subset counts: %d %d %d", stats[0].Subsets, stats[1].Subsets, stats[2].Subsets)
	}
	// The full set detects everything; max is monotone in size.
	if stats[2].Max != 3 {
		t.Fatalf("full set max = %d", stats[2].Max)
	}
	for i := 1; i < len(stats); i++ {
		if stats[i].Max < stats[i-1].Max {
			t.Fatal("max should not decrease with subset size")
		}
	}
}

func TestForEachSubsetCounts(t *testing.T) {
	f := func(k, size uint8) bool {
		kk := int(k%6) + 2
		ss := int(size%uint8(kk-1)) + 2
		if ss > kk {
			ss = kk
		}
		count := 0
		forEachSubset(kk, ss, func(sub []int) {
			if len(sub) != ss {
				t.Fatalf("subset size %d, want %d", len(sub), ss)
			}
			count++
		})
		return count == binom(kk, ss)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func binom(n, k int) int {
	if k > n {
		return 0
	}
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}

func TestExitStatusPartOfOutput(t *testing.T) {
	// Divergence can be in the exit status alone.
	s := build(t, `
int main() {
    int d = 0;
    int r = 5 / d;
    return r & 1;
}
`)
	o := s.Run(nil)
	if !o.Diverged {
		t.Fatal("div-by-zero should diverge (trap vs poison)")
	}
	sawFpe := false
	for _, r := range o.Results {
		if r.Exit == vm.SigFpe {
			sawFpe = true
		}
	}
	if !sawFpe {
		t.Fatal("expected SIGFPE in some implementation")
	}
}
