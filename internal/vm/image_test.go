package vm_test

// The page-restore equivalence test: a machine rebuilds its initial
// memory from a fill-pattern page and images of the rodata and globals
// pages, and must produce exactly the full-size image the VM used to
// build for every machine. referenceImage is that full-size
// construction, kept as the reference.

import (
	"bytes"
	"fmt"
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

// testReshapedSegments reshapes the data segments of a compiled binary
// to the boundary cases of the restore rule — no globals, globals
// ending inside a page and exactly on one, rodata of zero, one and
// just over one page — and dirties every page those edges touch.
func testReshapedSegments(t *testing.T) {
	info := sema.MustCheck(parser.MustParse(`int main() { return 0; }`))
	rodata := bytes.Repeat([]byte("rodata\x00"), 40)
	cases := []struct {
		rodata  []byte
		globals int64
		init    []ir.GlobalInit
	}{
		{nil, 0, nil},
		{rodata[:1], 100, []ir.GlobalInit{{Offset: 90, Data: []byte("0123456789")}}},
		{rodata[:256], 512, []ir.GlobalInit{{Offset: 504, Data: []byte("tailtail")}}},
		{rodata[:257], 256, []ir.GlobalInit{{Offset: 0, Data: []byte{1}}}},
		{rodata, 700, nil},
	}
	for _, sb := range sanBuild {
		for _, cfg := range compiler.DefaultSet() {
			cfg.ASan, cfg.Sanitize = sb.asan, sb.sani
			bin := compiler.MustCompile(info, cfg)
			for _, c := range cases {
				prog := *bin
				prog.Rodata, prog.GlobalsLen, prog.GlobalInit = c.rodata, c.globals, c.init
				ref := newReference(&prog, sb.san)
				m := vm.New(&prog, vm.Options{San: sb.san})
				what := fmt.Sprintf("%s rodata %d globals %d", sb.san, len(c.rodata), c.globals)
				assertImage(t, m, ref, what)
				rodEnd := uint64(ir.RodataBase + len(c.rodata))
				glEnd := uint64(ir.GlobalsBase + c.globals)
				for _, addr := range []uint64{
					0, ir.NullTop - 1, ir.RodataBase, rodEnd - 1, rodEnd, rodEnd + 256,
					ir.GlobalsBase - 1, ir.GlobalsBase, glEnd - 1, glEnd, glEnd + 256,
					ir.StackBase, ir.HeapBase, ir.HeapMax - 1,
				} {
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

// TestMachineNewAllocBound guards the per-machine footprint: a plain
// machine allocates its memory and small images, never a second
// full-size copy.
func TestMachineNewAllocBound(t *testing.T) {
	tg := targets.ByName("wireshark")
	bin := compiler.MustCompile(sema.MustCheck(parser.MustParse(tg.Src)), compiler.Config{Family: compiler.GCC, Opt: compiler.O2})
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vm.New(bin, vm.Options{})
		}
	})
	if got, limit := r.AllocedBytesPerOp(), int64(ir.MemSize+128<<10); got > limit {
		t.Fatalf("vm.New allocates %d B per machine, want <= %d (ir.MemSize + 128 KiB)", got, limit)
	}
}
