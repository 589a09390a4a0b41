package vm

// Hooks that let the external vm_test package inspect machine memory.

// Mem returns the machine's memory. The slice may be unmapped once m is
// unreachable, so callers must keep m alive while they use it.
func (m *Machine) Mem() []byte { return m.mem }

// ASanShadow returns the ASan poison plane (nil unless SanASan). Like
// Mem, it is valid only while m is alive.
func (m *Machine) ASanShadow() []byte { return m.asanShadow }

// MSanInit returns the MSan initialized-byte plane (nil unless SanMSan).
// Like Mem, it is valid only while m is alive.
func (m *Machine) MSanInit() []byte { return m.msanInit }

// Reset restores every page the last run dirtied, as the next run's
// start does.
func (m *Machine) Reset() { m.reset(nil) }

// Dirty reports whether the page holding addr is marked dirty.
func (m *Machine) Dirty(addr uint64) bool {
	p := addr >> pageShift
	return m.dirty[p>>6]&(1<<(p&63)) != 0
}

// Poke writes one guest byte at addr the way a store does: the page is
// marked dirty and every plane the machine carries changes.
func (m *Machine) Poke(addr uint64, b byte) {
	m.markDirty(addr, 1)
	m.mem[addr] = b
	if m.asanShadow != nil {
		m.asanShadow[addr] = shadowFreed
	}
	if m.msanInit != nil {
		m.msanInit[addr] ^= 1
	}
}
