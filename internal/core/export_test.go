package core

import (
	"sync"
	"weak"
)

// IdleMachines counts the machines the stack holds, for the external
// core_test package.
func (sp *Spares) IdleMachines() int {
	n := 0
	for _, set := range sp.sets {
		n += len(set.machines)
	}
	return n
}

// TrackSets counts the machine sets built from now until stop is
// called and keeps a weak pointer to each: built is the count, live
// the number of those sets still reachable at the last collection.
func TrackSets() (built, live func() int, stop func()) {
	var mu sync.Mutex
	var sets []weak.Pointer[machineSet]
	newSetHook = func(set *machineSet) {
		mu.Lock()
		sets = append(sets, weak.Make(set))
		mu.Unlock()
	}
	built = func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(sets)
	}
	live = func() int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, w := range sets {
			if w.Value() != nil {
				n++
			}
		}
		return n
	}
	return built, live, func() { newSetHook = nil }
}
