package vm_test

// The page-restore equivalence test: a machine rebuilds its initial
// memory from a fill-pattern page and images of the rodata and globals
// pages, and must produce exactly the full-size image the VM used to
// build for every machine. referenceImage is that full-size
// construction, kept as the reference.

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"compdiff/internal/compiler"
	"compdiff/internal/ir"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
	"compdiff/internal/progen"
	"compdiff/internal/targets"
	"compdiff/internal/vm"
)

// referenceImage builds the initial memory of prog in one full-size
// pass: the implementation's fill pattern from ir.NullTop up, rodata,
// and the zeroed, then initialized, globals.
func referenceImage(prog *ir.Program) []byte {
	img := make([]byte, ir.MemSize)
	var pat [64]byte
	k := prog.Profile.Key
	for i := 0; i < 64; i += 8 {
		k = k*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
		for j := 0; j < 8; j++ {
			pat[i+j] = byte(k >> (8 * j))
		}
	}
	for i := ir.NullTop; i < len(img); i += 64 {
		copy(img[i:], pat[:])
	}
	copy(img[ir.RodataBase:], prog.Rodata)
	gl := img[ir.GlobalsBase : ir.GlobalsBase+prog.GlobalsLen]
	for i := range gl {
		gl[i] = 0
	}
	for _, gi := range prog.GlobalInit {
		copy(img[ir.GlobalsBase+gi.Offset:], gi.Data)
	}
	return img
}

// referenceMSanInit is the MSan plane at load: rodata and the globals
// are initialized, everything else is not.
func referenceMSanInit(prog *ir.Program) []byte {
	init := make([]byte, ir.MemSize)
	for i := ir.RodataBase; i < ir.GlobalsBase+int(prog.GlobalsLen); i++ {
		init[i] = 1
	}
	return init
}

// sanBuild pairs each runtime sanitizer mode with the compile flags
// its binaries carry.
var sanBuild = []struct {
	san        vm.SanMode
	asan, sani bool
}{
	{vm.SanNone, false, false},
	{vm.SanASan, true, true},
	{vm.SanUBSan, false, true},
	{vm.SanMSan, false, true},
}

// reference holds the expected planes of one binary under one mode.
type reference struct {
	mem, asan, msan []byte
}

func newReference(prog *ir.Program, san vm.SanMode) reference {
	r := reference{mem: referenceImage(prog)}
	switch san {
	case vm.SanASan:
		r.asan = make([]byte, ir.MemSize)
	case vm.SanMSan:
		r.msan = referenceMSanInit(prog)
	}
	return r
}

// assertImage compares every memory plane of m with the reference.
func assertImage(t *testing.T, m *vm.Machine, ref reference, what string) {
	t.Helper()
	for _, p := range []struct {
		name      string
		got, want []byte
	}{
		{"mem", m.Mem(), ref.mem},
		{"asan shadow", m.ASanShadow(), ref.asan},
		{"msan init", m.MSanInit(), ref.msan},
	} {
		if bytes.Equal(p.got, p.want) {
			continue
		}
		if len(p.got) != len(p.want) {
			t.Fatalf("%s %s: %s has %d bytes, want %d", m.Program().Compiler, what, p.name, len(p.got), len(p.want))
		}
		addr := 0
		for p.got[addr] == p.want[addr] {
			addr++
		}
		t.Fatalf("%s %s: %s differs from the reference at %#x: got %#x want %#x",
			m.Program().Compiler, what, p.name, addr, p.got[addr], p.want[addr])
	}
}

// imageCorpus is the self-test corpus plus every target with its seeds
// and a progen sweep.
func imageCorpus(t *testing.T) []selfTestProgram {
	progs := selfTestCorpus(t)
	for _, tg := range targets.All() {
		progs = append(progs, selfTestProgram{name: tg.Name, src: tg.Src, inputs: tg.Seeds})
	}
	for seed := int64(1); seed <= 12; seed++ {
		progs = append(progs, selfTestProgram{
			name:   fmt.Sprintf("progen_%d", seed),
			src:    progen.Generate(seed).Src,
			inputs: crasherInputs(),
		})
	}
	return append(progs, selfTestProgram{name: "segment_edges", src: segmentEdgesSrc, inputs: crasherInputs()})
}

// segmentEdgesSrc dirties the page the globals end inside, then fills
// the heap to its last page.
const segmentEdgesSrc = `
char g[300];
int main() {
    g[0] = 1;
    g[299] = (char)input_size();
    char* p = (char*)malloc(4000L);
    while (p != 0) { p[3999] = 1; p = (char*)malloc(4000L); }
    p = (char*)malloc(1L);
    while (p != 0) { p[0] = 2; p = (char*)malloc(1L); }
    printf("%d\n", (int)g[299]);
    return 0;
}
`

// TestMachineImageMatchesReference checks a fresh machine's memory,
// and its memory after every run and reset, against the reference
// image, for every program, implementation and sanitizer mode, then
// for binaries reshaped to the segment edge cases.
func TestMachineImageMatchesReference(t *testing.T) {
	t.Run("reshaped_segments", testReshapedSegments)
	for _, p := range imageCorpus(t) {
		p := p
		t.Run(p.name, func(t *testing.T) {
			info := sema.MustCheck(parser.MustParse(p.src))
			for _, sb := range sanBuild {
				for _, cfg := range compiler.DefaultSet() {
					cfg.ASan, cfg.Sanitize = sb.asan, sb.sani
					bin := compiler.MustCompile(info, cfg)
					ref := newReference(bin, sb.san)
					m := vm.New(bin, vm.Options{San: sb.san})
					assertImage(t, m, ref, sb.san.String()+" fresh")
					for _, input := range p.inputs {
						m.RunShared(input)
						if p.name == "segment_edges" && sb.san == vm.SanNone {
							end := uint64(ir.GlobalsBase + m.Program().GlobalsLen)
							if !m.Dirty(end-1) || !m.Dirty(ir.HeapMax-1) {
								t.Fatalf("%s: run left the globals end or the last heap page clean", cfg.Name())
							}
						}
						m.Reset()
						assertImage(t, m, ref, fmt.Sprintf("%s after input %q", sb.san, input))
					}
				}
			}
		})
	}
}

// TestMachineNewConcurrentImages builds machines of fill patterns no
// earlier machine used from several goroutines at once, so the first
// machine of each pattern races the others to create its pristine
// image; every machine must still match the reference image, before
// and after a run dirties its pages.
func TestMachineNewConcurrentImages(t *testing.T) {
	bin := compiler.MustCompile(sema.MustCheck(parser.MustParse(targets.ByName("readelf").Src)),
		compiler.Config{Family: compiler.Clang, Opt: compiler.O1})
	const keys, workers = 4, 8
	var progs [keys]*ir.Program
	for k := range progs {
		prog := *bin
		prog.Profile.Key = 0x5eed0000 + uint64(k)*0x9e3779b97f4a7c15
		progs[k] = &prog
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range keys {
				prog := progs[(w+i)%keys]
				ref := newReference(prog, vm.SanNone)
				m := vm.New(prog, vm.Options{})
				if !bytes.Equal(m.Mem(), ref.mem) {
					t.Errorf("key %#x: new machine differs from the reference image", prog.Profile.Key)
				}
				m.RunShared([]byte("\x7fELF"))
				m.Reset()
				if !bytes.Equal(m.Mem(), ref.mem) {
					t.Errorf("key %#x: reset machine differs from the reference image", prog.Profile.Key)
				}
			}
		}()
	}
	wg.Wait()
}

// testReshapedSegments reshapes the data segments of a compiled binary
// to the boundary cases of the restore rule — no globals, globals
// ending inside a page and exactly on one, rodata of zero, one and
// just over one page — and dirties every page those edges touch.
func testReshapedSegments(t *testing.T) {
	info := sema.MustCheck(parser.MustParse(`int main() { return 0; }`))
	cases := reshapedSegments()
	for _, sb := range sanBuild {
		for _, cfg := range compiler.DefaultSet() {
			cfg.ASan, cfg.Sanitize = sb.asan, sb.sani
			bin := compiler.MustCompile(info, cfg)
			for _, c := range cases {
				prog := reshape(bin, c)
				ref := newReference(prog, sb.san)
				m := vm.New(prog, vm.Options{San: sb.san})
				what := fmt.Sprintf("%s rodata %d globals %d", sb.san, len(c.rodata), c.globals)
				assertImage(t, m, ref, what)
				for _, addr := range segmentEdgeAddrs(prog) {
					m.Poke(addr, 0xa5)
				}
				m.Reset()
				assertImage(t, m, ref, what+" after reset")
				m.RunShared(nil)
				m.Reset()
				assertImage(t, m, ref, what+" after a run")
			}
		}
	}
}

// segmentShape is one data-segment layout of the restore-rule edge
// cases.
type segmentShape struct {
	rodata  []byte
	globals int64
	init    []ir.GlobalInit
}

// reshapedSegments are the segment edge cases: no globals, globals
// ending inside a page and exactly on one, rodata of zero, one and
// just over one page.
func reshapedSegments() []segmentShape {
	rodata := bytes.Repeat([]byte("rodata\x00"), 40)
	return []segmentShape{
		{nil, 0, nil},
		{rodata[:1], 100, []ir.GlobalInit{{Offset: 90, Data: []byte("0123456789")}}},
		{rodata[:256], 512, []ir.GlobalInit{{Offset: 504, Data: []byte("tailtail")}}},
		{rodata[:257], 256, []ir.GlobalInit{{Offset: 0, Data: []byte{1}}}},
		{rodata, 700, nil},
	}
}

// reshape returns a copy of bin with its data segments replaced.
func reshape(bin *ir.Program, c segmentShape) *ir.Program {
	prog := *bin
	prog.Rodata, prog.GlobalsLen, prog.GlobalInit = c.rodata, c.globals, c.init
	return &prog
}

// segmentEdgeAddrs are the addresses around prog's segment edges (and
// the other region bounds) a reshaped-segment test dirties.
func segmentEdgeAddrs(prog *ir.Program) []uint64 {
	rodEnd := uint64(ir.RodataBase + len(prog.Rodata))
	glEnd := uint64(ir.GlobalsBase + prog.GlobalsLen)
	return []uint64{
		0, ir.NullTop - 1, ir.RodataBase, rodEnd - 1, rodEnd, rodEnd + 256,
		ir.GlobalsBase - 1, ir.GlobalsBase, glEnd - 1, glEnd, glEnd + 256,
		ir.StackBase, ir.HeapBase, ir.HeapMax - 1,
	}
}

// TestMachineNewAllocBound guards the per-machine footprint: the Go
// heap a plain machine allocates stays within newHeapLimit, which
// depends on where machine memory comes from (mem_linux_test.go,
// mem_other_test.go).
func TestMachineNewAllocBound(t *testing.T) {
	tg := targets.ByName("wireshark")
	bin := compiler.MustCompile(sema.MustCheck(parser.MustParse(tg.Src)), compiler.Config{Family: compiler.GCC, Opt: compiler.O2})
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vm.New(bin, vm.Options{})
		}
	})
	if got := r.AllocedBytesPerOp(); got > newHeapLimit {
		t.Fatalf("vm.New allocates %d B per machine, want <= %d", got, newHeapLimit)
	}
}

// The rebind equivalence test: a machine rebound from binary A to
// binary B must be indistinguishable from vm.New(B) with the same
// options — in every memory plane, in the coverage map and its
// summary, and in every Result field of B's runs.

// printfFirstSrc and printfSecondSrc put different printf formats at
// the same rodata address, so a plan cached for one binary's format
// must not survive into the other's runs.
const printfFirstSrc = `
int main() {
    char buf[8];
    long n = read_input(buf, 8L);
    printf("first %ld\n", n);
    return 0;
}
`

const printfSecondSrc = `
int main() {
    char buf[8];
    long n = read_input(buf, 8L);
    printf("%x <- second %d\n", (int)n, (int)n);
    return 0;
}
`

// timeNowSrc prints the run-sequence-derived clock, so a rebind must
// restart the run sequence as a new machine starts it.
const timeNowSrc = `
int g[40];
int main() {
    g[39] = (int)input_size();
    printf("%ld %ld %d\n", time_now(), time_now(), g[39]);
    return 0;
}
`

// rebindChain is the program sequence one machine is rebound through,
// in order: its rodata and globals grow, shrink and vanish along the
// way, and it includes the time_now program and the two printf
// programs back to back.
func rebindChain(t *testing.T) []selfTestProgram {
	inputs := [][]byte{nil, []byte("u"), {'o', 0x9b, 0xff, 0xff, 0x7f, 0x65, 0, 0, 0}}
	golden := map[string]selfTestProgram{}
	for _, p := range selfTestCorpus(t) {
		golden[p.name] = p
	}
	chain := []selfTestProgram{
		{name: "wireshark", src: targets.ByName("wireshark").Src, inputs: targets.ByName("wireshark").Seeds[:1]},
		{name: "time_now", src: timeNowSrc, inputs: inputs},
		{name: "printf_first", src: printfFirstSrc, inputs: inputs},
		{name: "printf_second", src: printfSecondSrc, inputs: inputs},
		{name: "progen_3", src: progen.Generate(3).Src, inputs: inputs},
	}
	for _, name := range []string{"triage_uninit", "heap_reuse", "fuzz_target"} {
		p := golden[name]
		p.inputs = append(p.inputs[:1:1], inputs[1:]...)
		chain = append(chain, p)
	}
	return chain
}

// assertSameMachine compares every memory plane, the coverage map and
// its touched-word summary of a rebound machine with a new one.
func assertSameMachine(t *testing.T, got, want *vm.Machine, what string) {
	t.Helper()
	ref := reference{mem: want.Mem(), asan: want.ASanShadow(), msan: want.MSanInit()}
	assertImage(t, got, ref, what)
	if !bytes.Equal(got.Coverage(), want.Coverage()) {
		t.Fatalf("%s %s: coverage map differs from a new machine's", got.Program().Compiler, what)
	}
	if !slices.Equal(got.CoverageWords(), want.CoverageWords()) {
		t.Fatalf("%s %s: coverage summary differs from a new machine's", got.Program().Compiler, what)
	}
}

// assertSameRun runs input on both machines and compares every Result
// field, then the machines themselves.
func assertSameRun(t *testing.T, got, want *vm.Machine, input []byte, what string) {
	t.Helper()
	g, w := got.RunShared(input), want.RunShared(input)
	assertSameResult(t, input, w, g)
	if !slices.Equal(g.Trace, w.Trace) {
		t.Fatalf("%s, input %q: line trace %v, want %v", what, input, g.Trace, w.Trace)
	}
	assertSameMachine(t, got, want, fmt.Sprintf("%s after input %q", what, input))
}

// TestMachineRebindMatchesNew extends TestMachineImageMatchesReference
// to rebinding. For all ten implementations under every sanitizer
// mode, with and without edge coverage, one machine runs through the
// rebind chain; after each rebind it must match vm.New of the new
// binary, and keep matching a new machine input by input and reset by
// reset. The chain starts from a warm machine with dirty pages, cached
// printf plans and an advanced run sequence. The reshaped-segment
// shapes are then rebound into each other in both directions.
func TestMachineRebindMatchesNew(t *testing.T) {
	t.Run("reshaped_segments", testRebindReshaped)
	chain := rebindChain(t)
	infos := make([]*sema.Info, len(chain))
	for i, p := range chain {
		infos[i] = sema.MustCheck(parser.MustParse(p.src))
	}
	for _, sb := range sanBuild {
		for _, coverage := range []bool{false, true} {
			opts := vm.Options{San: sb.san, Coverage: coverage, TraceLines: coverage}
			for _, cfg := range compiler.DefaultSet() {
				cfg.ASan, cfg.Sanitize, cfg.Instrument = sb.asan, sb.sani, coverage
				var m *vm.Machine
				for i, p := range chain {
					bin := compiler.MustCompile(infos[i], cfg)
					what := fmt.Sprintf("%s coverage=%t %s", sb.san, coverage, p.name)
					fresh := vm.New(bin, opts)
					if m == nil {
						m = vm.New(bin, opts)
					} else {
						m.Rebind(bin)
						assertSameMachine(t, m, fresh, what+" after rebind")
					}
					for _, input := range p.inputs {
						assertSameRun(t, m, fresh, input, what)
						m.Reset()
						fresh.Reset()
						assertSameMachine(t, m, fresh, fmt.Sprintf("%s after input %q and reset", what, input))
					}
					// Leave the last run's pages dirty for the next rebind.
					assertSameRun(t, m, fresh, p.inputs[0], what)
				}
			}
		}
	}
}

// testRebindReshaped rebinds one machine through the reshaped-segment
// shapes, forward and back, so segments grow, shrink, vanish and
// reappear across page edges, with every edge page dirtied before each
// rebind.
func testRebindReshaped(t *testing.T) {
	info := sema.MustCheck(parser.MustParse(`int main() { return 0; }`))
	shapes := reshapedSegments()
	order := []int{0, 1, 2, 3, 4, 3, 2, 1, 0, 4, 0, 2, 0}
	for _, sb := range sanBuild {
		for _, cfg := range compiler.DefaultSet() {
			cfg.ASan, cfg.Sanitize = sb.asan, sb.sani
			bin := compiler.MustCompile(info, cfg)
			var m *vm.Machine
			for _, i := range order {
				prog := reshape(bin, shapes[i])
				what := fmt.Sprintf("%s rebound to rodata %d globals %d", sb.san, len(shapes[i].rodata), shapes[i].globals)
				if m == nil {
					m = vm.New(prog, vm.Options{San: sb.san})
				} else {
					m.Rebind(prog)
				}
				ref := newReference(prog, sb.san)
				assertImage(t, m, ref, what)
				m.RunShared(nil)
				m.Reset()
				assertImage(t, m, ref, what+" after a run")
				for _, addr := range segmentEdgeAddrs(prog) {
					m.Poke(addr, 0xa5)
				}
			}
		}
	}
}

// TestMachineRebindAcrossProfilesPanics: a machine's fill pattern and
// run-time personality are its implementation's, so rebinding it to
// another implementation's binary is a caller bug.
func TestMachineRebindAcrossProfilesPanics(t *testing.T) {
	info := sema.MustCheck(parser.MustParse(`int main() { return 0; }`))
	cfgs := compiler.DefaultSet()
	m := vm.New(compiler.MustCompile(info, cfgs[0]), vm.Options{})
	other := compiler.MustCompile(info, cfgs[1])
	defer func() {
		if recover() == nil {
			t.Fatalf("Rebind from %s to %s did not panic", cfgs[0].Name(), cfgs[1].Name())
		}
	}()
	m.Rebind(other)
}

// FuzzMachineRebind: a machine built for one generated program, run on
// the input and rebound to a second generated program, must give every
// Result field a new machine of the second program gives, run after
// run.
func FuzzMachineRebind(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(0), uint8(0), []byte("u"))
	f.Add(int64(7), int64(3), uint8(5), uint8(3), []byte{0xff, 0, 0x7f})
	f.Add(int64(12), int64(12), uint8(9), uint8(1), []byte(nil))
	cfgs := compiler.DefaultSet()
	f.Fuzz(func(t *testing.T, seedA, seedB int64, cfgIdx, sanIdx uint8, input []byte) {
		sb := sanBuild[int(sanIdx)%len(sanBuild)]
		cfg := cfgs[int(cfgIdx)%len(cfgs)]
		cfg.ASan, cfg.Sanitize, cfg.Instrument = sb.asan, sb.sani, true
		compile := func(seed int64) *ir.Program {
			info, err := sema.Check(parser.MustParse(progen.Generate(seed).Src))
			if err != nil {
				t.Skip("generated program does not check")
			}
			res := compiler.CompileGuarded(info, cfg)
			if res.Err != nil {
				t.Skip("generated program does not compile")
			}
			return res.Prog
		}
		a, b := compile(seedA), compile(seedB)
		opts := vm.Options{San: sb.san, Coverage: true, StepLimit: 200_000}
		m := vm.New(a, opts)
		m.RunShared(input)
		m.Rebind(b)
		fresh := vm.New(b, opts)
		for run := 0; run < 2; run++ {
			assertSameRun(t, m, fresh, input, fmt.Sprintf("%s run %d", sb.san, run))
		}
	})
}
