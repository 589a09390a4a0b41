package main

// After a traced run, the benchmark replays the run's own samples
// through single layers, where a span per call cannot separate them:
// each implementation's VM against the whole differential run (hash,
// compare and borrow overhead, and the ten-binary cost against one
// instrumented B_fuzz binary, both on the campaign's RunFast path),
// and the front end and every lowering per sampled program.

import (
	"maps"
	"time"

	"compdiff/internal/compiler"
	"compdiff/internal/core"
	"compdiff/internal/difffuzz"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
	"compdiff/internal/vm"
)

const (
	replayInputs   = 1024 // inputs sampled by the fuzz drivers
	replayPrograms = 128  // programs sampled by the program drivers
	// replayMin is how long each replay pass repeats its sample, so a
	// one-program sample still yields a steady per-call time.
	replayMin = 200 * time.Millisecond
)

// replayProg is one sampled program and the inputs it ran on.
type replayProg struct {
	src    string
	inputs [][]byte
	norm   *core.Normalizer
}

func programReplay(srcs []string) []replayProg {
	out := make([]replayProg, len(srcs))
	for i, s := range srcs {
		out[i] = replayProg{src: s, inputs: [][]byte{nil}}
	}
	return out
}

// replay measures the per-layer times the replay provides, keyed by
// metric name.
func replay(progs []replayProg) map[string]float64 {
	cfgs := compiler.DefaultSet()
	out := replayFrontEnd(progs, cfgs)
	maps.Copy(out, replayVM(progs, cfgs))
	return out
}

// replayFrontEnd times parser.Parse, sema.Check and
// compiler.CompileGuarded per configuration over the sampled programs.
func replayFrontEnd(progs []replayProg, cfgs []compiler.Config) map[string]float64 {
	var parse, check time.Duration
	var bytes, programs int64
	lower := make([]time.Duration, len(cfgs))
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < replayMin; pass++ {
		for _, p := range progs {
			t := time.Now()
			ast, err := parser.Parse(p.src)
			parse += time.Since(t)
			if err != nil {
				continue
			}
			t = time.Now()
			info, err := sema.Check(ast)
			check += time.Since(t)
			bytes += int64(len(p.src))
			if err != nil {
				continue
			}
			programs++
			for i, cfg := range cfgs {
				t = time.Now()
				compiler.CompileGuarded(info, cfg)
				lower[i] += time.Since(t)
			}
		}
	}
	out := map[string]float64{
		"minic.parse.ns_per_byte": perUnit(parse, bytes),
		"minic.sema.ns_per_byte":  perUnit(check, bytes),
	}
	for i, cfg := range cfgs {
		out["compiler.lower."+implMetricName(cfg)+".us_per_program"] = perUnit(lower[i], programs) / 1e3
	}
	return out
}

// replayVM runs every sampled input through Suite.RunFast, through a
// warm machine of each implementation, and through B_fuzz, interleaved
// input by input so the three see the same machine state.
func replayVM(progs []replayProg, cfgs []compiler.Config) map[string]float64 {
	type target struct {
		suite  *core.Suite
		impls  []*vm.Machine
		bfuzz  *vm.Machine
		inputs [][]byte
	}
	var ts []target
	for _, p := range progs {
		ast, err := parser.Parse(p.src)
		if err != nil {
			continue
		}
		info, err := sema.Check(ast)
		if err != nil {
			continue
		}
		suite, co, err := core.BuildDifferential(info, cfgs, core.Options{Normalizer: p.norm})
		if err != nil || suite == nil || !co.AllAccepted() {
			continue
		}
		bprog, err := compiler.Compile(info, compiler.Config{Family: compiler.Clang, Opt: difffuzz.O1ForSan(vm.SanNone), Instrument: true})
		if err != nil {
			continue
		}
		t := target{suite: suite, bfuzz: vm.New(bprog, vm.Options{Coverage: true}), inputs: p.inputs}
		for _, im := range suite.Impls {
			t.impls = append(t.impls, vm.New(im.Prog, vm.Options{}))
		}
		ts = append(ts, t)
	}
	var fast, bfuzz time.Duration
	impl := make([]time.Duration, len(cfgs))
	var n int64
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < replayMin; pass++ {
		for _, t := range ts {
			for _, in := range t.inputs {
				c := time.Now()
				t.suite.RunFast(in)
				fast += time.Since(c)
				for i, m := range t.impls {
					c = time.Now()
					m.RunShared(in)
					impl[i] += time.Since(c)
				}
				c = time.Now()
				t.bfuzz.RunShared(in)
				bfuzz += time.Since(c)
				n++
			}
		}
	}
	var implSum time.Duration
	out := map[string]float64{}
	for i, cfg := range cfgs {
		implSum += impl[i]
		out["vm.impl."+implMetricName(cfg)+".ns_per_run"] = perUnit(impl[i], n)
	}
	out["core.run.ns_per_input"] = perUnit(fast, n)
	out["core.run.overhead_ns"] = perUnit(fast-implSum, n)
	out["core.run.overhead_factor"] = ratioDur(fast, bfuzz)
	return out
}

func perUnit(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func ratioDur(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
