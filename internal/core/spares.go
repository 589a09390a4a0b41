package core

import (
	"compdiff/internal/compiler"
)

// Spares is an owner-scoped stack of released machine sets that suite
// construction draws from. A suite built through it takes the last
// released set and rebinds its machines to the new binaries index by
// index (vm.Machine.Rebind); a slot whose profile or step limit does
// not match gets a new machine instead. Release hands a finished
// suite's sets back. A stream of programs built under the same
// configurations — a compile-oracle epoch, one reduction's candidates
// — then builds ten machines once instead of ten per program, the way
// the paper's fork server loads each binary once.
//
// The owner keeps the stack as a local and drops it when its stream
// ends, so no machine outlives the work that uses it. A nil *Spares is
// the no-spares case: every machine is new and Release does nothing.
// A Spares is not safe for concurrent use; the suites it builds are,
// as any suite is.
type Spares struct {
	sets []*machineSet
}

// NewSpares returns an empty stack.
func NewSpares() *Spares {
	return &Spares{}
}

// suite wraps the compiled binaries of cfgs in a Suite whose first
// machine set comes from sp.
func (sp *Spares) suite(results []compiler.Result, cfgs []compiler.Config, opts Options) *Suite {
	s := &Suite{opts: opts, Impls: make([]*Implementation, len(cfgs))}
	for i, cfg := range cfgs {
		s.Impls[i] = &Implementation{Config: cfg, Prog: results[i].Prog}
	}
	s.idle = []*machineSet{sp.take(s)}
	return s
}

// take returns a machine set for s's binaries: the last released set
// rebound to them when sp holds one of the right size, else a new one.
func (sp *Spares) take(s *Suite) *machineSet {
	if sp == nil || len(sp.sets) == 0 {
		return s.newSet()
	}
	set := sp.sets[len(sp.sets)-1]
	sp.sets[len(sp.sets)-1] = nil
	sp.sets = sp.sets[:len(sp.sets)-1]
	if len(set.machines) != len(s.Impls) {
		return s.newSet()
	}
	for i, im := range s.Impls {
		if m := set.machines[i]; set.stepLimit == s.opts.StepLimit && m.Program().Profile == im.Prog.Profile {
			m.Rebind(im.Prog)
		} else {
			set.machines[i] = s.newMachine(im)
		}
	}
	set.stepLimit = s.opts.StepLimit
	// The result slots alias the machines' old runs until the next run
	// overwrites them.
	clear(set.shared)
	return set
}

// Release hands every idle machine set of s to the stack. Call it once
// the suite's last Run has returned; outcomes already returned stay
// valid, and a later Run of s builds a new set rather than sharing
// the released ones.
func (sp *Spares) Release(s *Suite) {
	if sp == nil || s == nil {
		return
	}
	s.mu.Lock()
	sp.sets = append(sp.sets, s.idle...)
	s.idle = nil
	s.mu.Unlock()
}
