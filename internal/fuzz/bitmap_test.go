package fuzz

// Dense-vs-sparse equivalence: the bitmap walkers visit only the words
// the coverage summary marks, and must give exactly what a scan of the
// whole map gives. The dense scans below are the reference; each test
// runs both on identical maps and compares the classified map, the
// HasNewBits verdict, virgin, the digest and the bit count.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compdiff/internal/progen"
	"compdiff/internal/targets"
	"compdiff/internal/vm"
)

// refClassify, refHasNewBits and refCountBits are the dense scans the
// fuzzer ran before the summary existed: the whole map, eight bytes per
// load. Dense CovHash is still production code (ForceSeed uses it) and
// serves as the digest reference.

func refClassify(cov []byte) {
	i := 0
	for ; i+8 <= len(cov); i += 8 {
		if binary.LittleEndian.Uint64(cov[i:]) == 0 {
			continue
		}
		for j := i; j < i+8; j++ {
			if v := cov[j]; v != 0 {
				cov[j] = classLookup[v]
			}
		}
	}
	for ; i < len(cov); i++ {
		if v := cov[i]; v != 0 {
			cov[i] = classLookup[v]
		}
	}
}

func refHasNewBits(virgin, cov []byte) int {
	ret := 0
	i := 0
	for ; i+8 <= len(cov) && i+8 <= len(virgin); i += 8 {
		cw := binary.LittleEndian.Uint64(cov[i:])
		if cw == 0 || binary.LittleEndian.Uint64(virgin[i:])&cw == cw {
			continue
		}
		for j := i; j < i+8; j++ {
			v := cov[j]
			if v == 0 {
				continue
			}
			if virgin[j]&v != v {
				if virgin[j] == 0 {
					ret = 2
				} else if ret == 0 {
					ret = 1
				}
				virgin[j] |= v
			}
		}
	}
	for ; i < len(cov); i++ {
		v := cov[i]
		if v == 0 {
			continue
		}
		if virgin[i]&v != v {
			if virgin[i] == 0 {
				ret = 2
			} else if ret == 0 {
				ret = 1
			}
			virgin[i] |= v
		}
	}
	return ret
}

func refCountBits(cov []byte) int {
	n := 0
	i := 0
	for ; i+8 <= len(cov); i += 8 {
		n += bits.OnesCount64(binary.LittleEndian.Uint64(cov[i:]))
	}
	for ; i < len(cov); i++ {
		n += bits.OnesCount8(cov[i])
	}
	return n
}

// assertSummaryCovers checks the summary invariant: every non-zero
// byte of cov lies in a marked word.
func assertSummaryCovers(t testing.TB, cov []byte, words []uint64) {
	t.Helper()
	for i, v := range cov {
		if v != 0 && (i>>9 >= len(words) || words[i>>9]&(1<<(i>>3&63)) == 0) {
			t.Fatalf("byte %d = %d lies in an unmarked word", i, v)
		}
	}
}

// bitmapOracle runs the fuzzer's per-exec bookkeeping sparse on the
// live map and dense on a copy, each side with its own virgin map.
type bitmapOracle struct {
	sparseVirgin, denseVirgin []byte
}

func newBitmapOracle() *bitmapOracle {
	return &bitmapOracle{sparseVirgin: make([]byte, MapSize), denseVirgin: make([]byte, MapSize)}
}

// check classifies cov in place (as the fuzzer does) and fails on the
// first walker that disagrees with its reference.
func (o *bitmapOracle) check(t testing.TB, what string, cov []byte, words []uint64) {
	t.Helper()
	assertSummaryCovers(t, cov, words)
	dense := append([]byte(nil), cov...)
	refClassify(dense)
	Classify(cov, words)
	if !bytes.Equal(cov, dense) {
		t.Fatalf("%s: classified maps differ", what)
	}
	if got, want := HasNewBits(o.sparseVirgin, cov, words), refHasNewBits(o.denseVirgin, dense); got != want {
		t.Fatalf("%s: HasNewBits = %d, reference %d", what, got, want)
	}
	if !bytes.Equal(o.sparseVirgin, o.denseVirgin) {
		t.Fatalf("%s: virgin maps differ", what)
	}
	if got, want := CoverageHash(cov, words), CovHash(dense); got != want {
		t.Fatalf("%s: CoverageHash = %016x, CovHash %016x", what, got, want)
	}
	if got, want := CountBits(cov, words), refCountBits(dense); got != want {
		t.Fatalf("%s: CountBits = %d, reference %d", what, got, want)
	}
}

// replay runs the seeds and havoc mutants of them on a B_fuzz machine
// and checks the bookkeeping after every run, both on the machine's
// own summary and on the one summarize builds.
func replay(t *testing.T, src string, seeds [][]byte, mutants int) {
	t.Helper()
	m := machineFor(t, src)
	machineSide, scanSide := newBitmapOracle(), newBitmapOracle()
	mu := NewMutator(1, 256)
	if len(seeds) == 0 {
		seeds = [][]byte{{0}}
	}
	run := func(in []byte) {
		m.RunShared(in)
		cov := append([]byte(nil), m.Coverage()...)
		scanSide.check(t, fmt.Sprintf("input %q, scanned summary", in), cov, summarize(nil, cov))
		machineSide.check(t, fmt.Sprintf("input %q, machine summary", in), m.Coverage(), m.CoverageWords())
	}
	for _, s := range seeds {
		run(s)
	}
	for i := 0; i < mutants; i++ {
		run(mu.Havoc(seeds[i%len(seeds)]))
	}
}

// TestSparseBitmapMatchesDenseGolden: every runtime golden program,
// on its pinned input and mutants of it.
func TestSparseBitmapMatchesDenseGolden(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.mc"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("golden corpus unavailable: %v", err)
	}
	for _, p := range paths {
		name := strings.TrimSuffix(filepath.Base(p), ".mc")
		if strings.HasPrefix(name, "compile_") {
			continue // rejected by part of the implementation set
		}
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		seeds := [][]byte{[]byte("AAAA")}
		if data, err := os.ReadFile(strings.TrimSuffix(p, ".mc") + ".input"); err == nil {
			seeds = append(seeds, data)
		}
		t.Run(name, func(t *testing.T) { replay(t, string(src), seeds, 100) })
	}
}

// TestSparseBitmapMatchesDenseTargets: all 23 targets on their seeds
// and mutants of them.
func TestSparseBitmapMatchesDenseTargets(t *testing.T) {
	for _, tg := range targets.All() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) { replay(t, tg.Src, tg.Seeds, 150) })
	}
}

// TestSparseBitmapMatchesDenseProgen: a sweep of generated programs.
func TestSparseBitmapMatchesDenseProgen(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		src := progen.Generate(seed).Src
		t.Run(fmt.Sprintf("progen_%d", seed), func(t *testing.T) {
			replay(t, src, [][]byte{{0}, []byte("seed input")}, 20)
		})
	}
}

// wrapLoop runs one loop body as many times as the first two input
// bytes say (little-endian), so its edge counter can be driven to and
// past the 8-bit wrap.
const wrapLoop = `
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
`

// TestSparseBitmapWrappedCounters: 255, 256, 257 and 512 traversals
// of one edge. A counter that wraps to zero leaves a marked all-zero
// word; every walker must skip it exactly as a dense scan does.
func TestSparseBitmapWrappedCounters(t *testing.T) {
	m := machineFor(t, wrapLoop)
	o := newBitmapOracle()
	zeroMarked := 0
	for _, k := range []uint16{0, 1, 255, 256, 257, 512, 255, 3, 4, 256} {
		in := binary.LittleEndian.AppendUint16(nil, k)
		m.RunShared(in)
		cov, words := m.Coverage(), m.CoverageWords()
		zeroMarked += countZeroMarked(cov, words)
		o.check(t, fmt.Sprintf("k=%d", k), cov, words)
	}
	if zeroMarked == 0 {
		t.Fatal("no run left a marked all-zero word: the wrap case went untested")
	}
}

// countZeroMarked counts marked words whose eight bytes are all zero.
func countZeroMarked(cov []byte, words []uint64) int {
	n := 0
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			i := (w<<6 + bits.TrailingZeros64(word)) << 3
			if binary.LittleEndian.Uint64(cov[i:]) == 0 {
				n++
			}
		}
	}
	return n
}

// denseExec hides the machine's CoverageWords, so the fuzzer takes the
// path that summarizes the map itself.
type denseExec struct{ m *vm.Machine }

func (d denseExec) Run(in []byte) *vm.Result       { return d.m.Run(in) }
func (d denseExec) RunShared(in []byte) *vm.Result { return d.m.RunShared(in) }
func (d denseExec) Coverage() []byte               { return d.m.Coverage() }

// TestFuzzerSummaryAdaptor: a fuzzer over an executor without a
// coverage summary must export the same State as one over the bare
// machine, on the same seeds and options.
func TestFuzzerSummaryAdaptor(t *testing.T) {
	for _, name := range []string{"jq", "curl", "readelf"} {
		tg := targets.ByName(name)
		t.Run(name, func(t *testing.T) {
			export := func(exec Executor) []byte {
				f := New(exec, tg.Seeds, Options{Seed: 3})
				if st := f.Run(2_000); st.Seeds <= len(tg.Seeds) {
					t.Fatalf("queue did not grow past the %d seeds", len(tg.Seeds))
				}
				data, err := json.Marshal(f.ExportState())
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
			bare := export(machineFor(t, tg.Src))
			wrapped := export(denseExec{machineFor(t, tg.Src)})
			if !bytes.Equal(bare, wrapped) {
				t.Fatal("fuzzer state over the summary-less wrapper differs from the bare machine's")
			}
		})
	}
}

// FuzzCoverageWords scatters arbitrary bytes into a 64 KiB map, marks
// each written word the way the VM's edge handler does (a zero write
// still marks its word), and holds every walker to its reference.
// Each 4-byte chunk is an index (2 bytes), a coverage value and a
// virgin value.
func FuzzCoverageWords(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 0xff, 0xff, 3, 4})
	f.Add([]byte{8, 0, 0, 0, 9, 0, 200, 128, 16, 2, 5, 5})
	// One word with a byte virgin already holds and a brand-new one.
	f.Add([]byte{16, 0, 1, 1, 17, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		cov := make([]byte, MapSize)
		words := make([]uint64, vm.CovWordsLen)
		o := newBitmapOracle()
		for ; len(data) >= 4; data = data[4:] {
			i := int(binary.LittleEndian.Uint16(data))
			cov[i] = data[2]
			words[i>>9] |= 1 << (i >> 3 & 63)
			o.sparseVirgin[i] |= data[3]
			o.denseVirgin[i] |= data[3]
		}
		scanned := append([]byte(nil), cov...)
		o.check(t, "marked summary", cov, words)
		newBitmapOracle().check(t, "scanned summary", scanned, summarize(nil, scanned))
		// A second pass over the classified map finds nothing new.
		if r := HasNewBits(o.sparseVirgin, cov, words); r != 0 {
			t.Fatalf("repeat HasNewBits = %d, want 0", r)
		}
	})
}
