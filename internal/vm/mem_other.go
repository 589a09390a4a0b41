//go:build !(linux && (amd64 || arm64))

package vm

// newMemory returns m's memory on the Go heap.
func newMemory(m *Machine) []byte { return heapMemory(&m.pattern) }
