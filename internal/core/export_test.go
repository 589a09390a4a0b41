package core

// IdleMachines counts the machines the set holds, for the external
// core_test package.
func (sp *Spares) IdleMachines() int {
	n := 0
	for _, idle := range sp.idle {
		n += len(idle)
	}
	return n
}
