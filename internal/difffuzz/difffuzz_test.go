package difffuzz

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compdiff/internal/compiler"
	"compdiff/internal/vm"
)

// A target with a fuzzer-reachable unstable guard (Listing 1 shape):
// the bug triggers only when the input drives offset+len into signed
// overflow, so finding it requires both coverage-guided input
// generation and the differential oracle.
const listing1Target = `
int dump_data(int offset, int len, int size) {
    if (offset < 0 || len < 0) { return -1; }
    if (offset + len < offset) { return -1; }
    if (offset > size) { return -2; }
    return offset + len;
}
int main() {
    char buf[8];
    long n = read_input(buf, 8L);
    if (n < 8) { return 0; }
    if (buf[0] != 'D' || buf[1] != 'T') { return 0; }
    int offset = 0;
    int len = 0;
    memcpy((char*)&offset, buf, 4L);
    memcpy((char*)&len, buf + 4, 4L);
    offset = offset & 2147483647;
    len = len & 2147483647;
    printf("r=%d\n", dump_data(offset, len, 2147483647));
    return 0;
}
`

// A target with a plain crash (what AFL++ itself finds) and no
// unstable code.
const crashTarget = `
int main() {
    char buf[8];
    long n = read_input(buf, 8L);
    if (n >= 2 && buf[0] == 'G' && buf[1] == 'O') {
        int* p = 0;
        *p = 1;
    }
    printf("bye\n");
    return 0;
}
`

// runSolo runs a single-shard pool for budget executions.
func runSolo(t testing.TB, src string, seeds [][]byte, opts Options, budget int64) *Pool {
	t.Helper()
	p, err := NewPool(src, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(context.Background(), budget)
	return p
}

// newSolo builds the shard of a single-shard pool, for tests that drive
// a bare shard run with no barrier.
func newSolo(t testing.TB, src string, seeds [][]byte, opts Options) *campaign {
	t.Helper()
	p, err := NewPool(src, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p.shards[0].c
}

func TestCampaignFindsUnstableCode(t *testing.T) {
	c := runSolo(t, listing1Target, [][]byte{[]byte("DT\x01\x02\x03\x04\x05\x06")}, Options{
		FuzzSeed:    7,
		MaxInputLen: 8,
	}, 30_000)
	if len(c.Diffs()) == 0 {
		t.Fatalf("no discrepancies found; stats=%+v", c.Stats())
	}
	d := c.Diffs()[0]
	rep := d.Report(c.ImplNames())
	if !strings.Contains(rep, "reproducers:") {
		t.Fatalf("bad report:\n%s", rep)
	}
	// The diff-triggering input must reproduce deterministically.
	if c.Stats().DiffExecs == 0 {
		t.Fatal("differential oracle never ran")
	}
}

func TestCampaignCrashesStillCaught(t *testing.T) {
	c := runSolo(t, crashTarget, [][]byte{[]byte("AA")}, Options{FuzzSeed: 3, MaxInputLen: 8}, 20_000)
	if len(c.Crashes()) == 0 {
		t.Fatal("fuzzer lost its native crash detection")
	}
	// All binaries crash identically on the crashing input; the only
	// expected divergences would be unrelated. A SIGSEGV on every
	// implementation is not a discrepancy.
	for _, d := range c.Diffs() {
		t.Fatalf("unexpected discrepancy on stable target: %s", d.Report(c.ImplNames()))
	}
}

func TestCampaignComposesWithASan(t *testing.T) {
	// Sanitizers work on B_fuzz exactly as in stock AFL++ (§3.2).
	src := `
int main() {
    char buf[16];
    long n = read_input(buf, 16L);
    if (n >= 2 && buf[0] == 'H' && buf[1] == 'O') {
        char* p = (char*)malloc(4L);
        p[buf[2] & 15] = 1;
        free(p);
    }
    return 0;
}
`
	c := runSolo(t, src, [][]byte{[]byte("HO\x0f")}, Options{
		FuzzSeed:  11,
		Sanitizer: vm.SanASan,
	}, 5_000)
	found := false
	for _, cr := range c.Crashes() {
		if cr.Result.San != nil && cr.Result.San.Kind == "heap-buffer-overflow" {
			found = true
		}
	}
	if !found {
		t.Fatal("ASan on B_fuzz found nothing")
	}
}

func TestCampaignWithSubsetOfImplementations(t *testing.T) {
	// The 2-implementation configuration the paper recommends under
	// resource constraints: one unoptimizing, one aggressively
	// optimizing, from different families.
	cfgs := []compiler.Config{
		{Family: compiler.GCC, Opt: compiler.O0},
		{Family: compiler.Clang, Opt: compiler.O3},
	}
	c := runSolo(t, listing1Target, [][]byte{[]byte("DT\x01\x02\x03\x04\x05\x06")}, Options{
		FuzzSeed:    7,
		Configs:     cfgs,
		MaxInputLen: 8,
	}, 30_000)
	if len(c.Diffs()) == 0 {
		t.Fatal("the O0/O3 cross-family pair should still catch Listing 1")
	}
	if got := len(c.ImplNames()); got != 2 {
		t.Fatalf("impls = %d", got)
	}
}

func TestDiffDirPersistsInputs(t *testing.T) {
	dir := t.TempDir()
	c := runSolo(t, listing1Target, [][]byte{[]byte("DT\x7f\xff\xff\x7f\xff\x7f")}, Options{
		FuzzSeed:    1,
		MaxInputLen: 8,
		DiffDir:     dir,
	}, 20_000)
	if len(c.Diffs()) == 0 {
		t.Fatal("campaign found nothing; the persistence check is vacuous")
	}
	if c.TotalDiffInputs() < len(c.Diffs()) {
		t.Fatal("total < unique")
	}
	// The store wrote exactly one representative input per unique diff.
	files, err := os.ReadDir(filepath.Join(dir, "diffs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(c.Diffs()) {
		t.Fatalf("%s holds %d files for %d unique diffs", filepath.Join(dir, "diffs"), len(files), len(c.Diffs()))
	}
}
