package compiler

import (
	"sync"
	"sync/atomic"

	"compdiff/internal/minic/ast"
	"compdiff/internal/minic/sema"
)

// CompileAll lowers a checked program under every configuration and
// returns one guarded Result per configuration, in cfgs order. Each
// result equals CompileGuarded(info, cfgs[i]); what CompileAll adds is
// that the work depending on the program alone is done once per call
// and shared read-only by all the lowerings: the UB-exploitation
// analysis of each function (once per pass-bit combination, of which
// the ten default configurations have two non-trivial ones), the
// constant value of every expression and the constant-UB site list.
// With parallelism > 1 up to that many lowerings run concurrently; the
// results do not depend on it.
func CompileAll(info *sema.Info, cfgs []Config, parallelism int) []Result {
	an := newAnalysis(info)
	results := make([]Result, len(cfgs))
	if parallelism <= 1 {
		var sc scratch
		for i, cfg := range cfgs {
			results[i] = compileGuarded(an, cfg, &sc)
		}
		return results
	}
	// Each worker claims the next configuration until none is left, and
	// keeps one set of lowering buffers for all it claims.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(parallelism, len(cfgs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc scratch
			for i := int(next.Add(1) - 1); i < len(cfgs); i = int(next.Add(1) - 1) {
				results[i] = compileGuarded(an, cfgs[i], &sc)
			}
		}()
	}
	wg.Wait()
	return results
}

// analysis is the per-program half of lowering, shared by every
// configuration of one CompileAll (or owned by one CompileGuarded).
// Each part is computed by whichever lowering asks first, inside that
// lowering's recover guard, and read by the rest.
type analysis struct {
	info *sema.Info
	// dec holds the decisions per analysis key and function (indexed
	// like info.Prog.Funcs). Key 0 is noDecisions and has no slot.
	dec [numAnalysisKeys]struct {
		once  sync.Once
		funcs []memo[*decisions]
	}
	consts  memo[*constTable]
	ubSites memo[[]ubSite]
}

func newAnalysis(info *sema.Info) *analysis {
	return &analysis{info: info}
}

// decisions returns the analysis of function i (f) for the passes in k.
func (an *analysis) decisions(k analysisKey, i int, f *ast.FuncDecl) *decisions {
	if k == 0 {
		return noDecisions
	}
	d := &an.dec[k]
	d.once.Do(func() { d.funcs = make([]memo[*decisions], len(an.info.Prog.Funcs)) })
	return d.funcs[i].get(func() *decisions { return analyzeFunc(k, f, an.info.FuncIDs[i]) })
}

// constants returns the program's constant table.
func (an *analysis) constants() *constTable {
	return an.consts.get(func() *constTable { return newConstTable(an.info) })
}

// constUB returns the program's constant-UB sites.
func (an *analysis) constUB() []ubSite {
	return an.ubSites.get(func() []ubSite { return constUBSites(an.info, an.constants()) })
}

// memo is a value computed at most once, by the first caller. A panic
// while computing it is recorded and raised again in every caller, so
// each configuration that needs the value fails with the same internal
// compiler error it would have hit computing the value itself.
type memo[T any] struct {
	once     sync.Once
	val      T
	panicked any
}

func (m *memo[T]) get(compute func() T) T {
	m.once.Do(func() {
		defer func() { m.panicked = recover() }()
		m.val = compute()
	})
	if m.panicked != nil {
		panic(m.panicked)
	}
	return m.val
}
