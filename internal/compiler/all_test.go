package compiler_test

import (
	"reflect"
	"testing"

	"compdiff/internal/compiler"
)

// TestCompileAllMatchesCompileGuarded holds CompileAll, sequential and
// four-way parallel, to per-configuration CompileGuarded over the
// whole equivalence corpus, which includes a program whose optimizing
// lowerings crash (golden/compile_ice.mc) and one that the strict
// configurations reject (golden/compile_reject.mc).
func TestCompileAllMatchesCompileGuarded(t *testing.T) {
	cfgs := campaignConfigs()
	var ices, rejects int
	for _, p := range loweringCorpus(t) {
		info, ok := checkedInfo(t, p.src)
		if !ok {
			continue
		}
		want := guardedResults(info, cfgs)
		for _, r := range want {
			switch {
			case r.ICE != "":
				ices++
			case r.Err != nil:
				rejects++
			}
		}
		for _, par := range []int{1, 4} {
			got := compiler.CompileAll(info, cfgs, par)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: CompileAll(par %d) differs from CompileGuarded:\n got %.300s\nwant %.300s",
					p.name, par, dumpResults(got), dumpResults(want))
			}
		}
	}
	if ices == 0 || rejects == 0 {
		t.Fatalf("corpus exercised %d ICE and %d reject results; want both", ices, rejects)
	}
}

// TestRetainedCodeIsExact: every function body CompileAll returns is
// an exact-size slice. Lowering reuses growing scratch buffers, and
// progcache's byte budget counts len(Code), so spare capacity left in
// a retained body would be live heap the budget cannot see.
func TestRetainedCodeIsExact(t *testing.T) {
	cfgs := campaignConfigs()
	funcs := 0
	for _, p := range loweringCorpus(t) {
		info, ok := checkedInfo(t, p.src)
		if !ok {
			continue
		}
		for i, r := range compiler.CompileAll(info, cfgs, 1) {
			if r.Prog == nil {
				continue
			}
			for _, f := range r.Prog.Funcs {
				funcs++
				if cap(f.Code) != len(f.Code) {
					t.Errorf("%s [%s] %s: len(Code) %d, cap %d", p.name, cfgs[i].Name(), f.Name, len(f.Code), cap(f.Code))
				}
			}
		}
	}
	if funcs == 0 {
		t.Fatal("no functions lowered")
	}
}
