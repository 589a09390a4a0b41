package core

import (
	"compdiff/internal/compiler"
	"compdiff/internal/ir"
	"compdiff/internal/vm"
)

// Spares is an owner-scoped set of idle machines that suite
// construction draws from. A suite built through a set takes a spare
// machine for each implementation and rebinds it to the new binary
// (vm.Machine.Rebind) before it falls back to vm.New, and Release
// hands a finished suite's machines back. A stream of programs — a
// compile-oracle epoch, one reduction's candidates — then builds ten
// machines once instead of ten per program, the way the paper's fork
// server loads each binary once.
//
// The owner keeps the set as a local and drops it when its stream
// ends, so no machine outlives the work that uses it. A nil *Spares is
// the no-spares case: every machine is new and Release does nothing.
// A set is not safe for concurrent use; the suites it builds are, as
// any suite is.
type Spares struct {
	idle map[spareKey][]*vm.Machine
}

// spareKey is what a machine must share with a binary to be rebound to
// it: the implementation profile (Rebind's precondition) and the
// options core builds machines with.
type spareKey struct {
	prof      ir.Profile
	stepLimit int64
}

func (im *Implementation) spareKey() spareKey {
	return spareKey{im.Prog.Profile, im.stepLimit}
}

// NewSpares returns an empty set.
func NewSpares() *Spares {
	return &Spares{idle: map[spareKey][]*vm.Machine{}}
}

// implementation wraps one compiled binary with one machine on its
// free list: a spare rebound to prog when sp holds one, else a new one.
func (sp *Spares) implementation(cfg compiler.Config, prog *ir.Program, stepLimit int64) *Implementation {
	im := &Implementation{Config: cfg, Prog: prog, stepLimit: stepLimit}
	im.free = []*vm.Machine{sp.take(im)}
	return im
}

// take returns a machine for im's binary.
func (sp *Spares) take(im *Implementation) *vm.Machine {
	if sp != nil {
		k := im.spareKey()
		if idle := sp.idle[k]; len(idle) > 0 {
			m := idle[len(idle)-1]
			idle[len(idle)-1] = nil
			sp.idle[k] = idle[:len(idle)-1]
			m.Rebind(im.Prog)
			return m
		}
	}
	return im.newMachine()
}

// Release hands every machine s holds to the set: its parked run set,
// each implementation's fast slot and its free list. Call it once the
// suite's last Run has returned; outcomes already returned stay valid,
// and a later Run of s builds new machines rather than sharing the
// set's.
func (sp *Spares) Release(s *Suite) {
	if sp == nil || s == nil {
		return
	}
	if sc := s.scratch.Swap(nil); sc != nil {
		for i, m := range sc.machines {
			sp.put(s.Impls[i], m)
		}
	}
	for _, im := range s.Impls {
		if m := im.fast.Swap(nil); m != nil {
			sp.put(im, m)
		}
		im.mu.Lock()
		for _, m := range im.free {
			sp.put(im, m)
		}
		im.free = nil
		im.mu.Unlock()
	}
}

func (sp *Spares) put(im *Implementation, m *vm.Machine) {
	k := im.spareKey()
	sp.idle[k] = append(sp.idle[k], m)
}
