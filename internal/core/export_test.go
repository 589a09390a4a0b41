package core

// IdleMachines counts the machines the stack holds, for the external
// core_test package.
func (sp *Spares) IdleMachines() int {
	n := 0
	for _, set := range sp.sets {
		n += len(set.machines)
	}
	return n
}
