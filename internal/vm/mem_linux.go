//go:build linux && (amd64 || arm64)

package vm

import (
	"runtime"
	"sync"
	"syscall"
	"unsafe"

	"compdiff/internal/ir"
)

// Machine memory is a private mapping of a shared pristine image, as a
// fork server's child shares its parent's pages copy-on-write. Once
// per process and fill pattern, the image (zero below ir.NullTop, the
// pattern everywhere else) is written to a memfd. Each machine maps it
// MAP_PRIVATE: pages a run only reads stay shared, and the first write
// to a page copies it. A new machine then costs the pages its segments
// and runs write, not 1 MiB of Go heap.
//
// The mapping lives outside the Go heap and is unmapped by a cleanup
// once the machine is unreachable, so no slice of machine memory may
// outlive its machine.

// images holds one memfd per fill pattern, keyed by the profile key the
// pattern derives from (buildPattern). A process sees at most a few
// implementations, so a slice beats a map.
var images struct {
	mu  sync.Mutex
	fds []imageFD
}

type imageFD struct {
	key uint64
	fd  int
}

// newMemory returns m's memory: a private mapping of the pristine image
// of m's fill pattern, or Go heap memory if the kernel refuses a memfd
// or the mapping.
func newMemory(m *Machine) []byte {
	fd, err := imageFor(m.prof.Key, &m.pattern)
	if err != nil {
		return heapMemory(&m.pattern)
	}
	addr, _, errno := syscall.Syscall6(syscall.SYS_MMAP, 0, ir.MemSize,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE, uintptr(fd), 0)
	if errno != 0 {
		return heapMemory(&m.pattern)
	}
	runtime.AddCleanup(m, unmapMemory, addr)
	return unsafe.Slice((*byte)(*(*unsafe.Pointer)(unsafe.Pointer(&addr))), ir.MemSize)
}

// unmapMemory releases the memory of a machine that is gone.
func unmapMemory(addr uintptr) {
	syscall.Syscall(syscall.SYS_MUNMAP, addr, ir.MemSize, 0)
}

// imageFor returns the memfd holding the pristine image for key,
// writing it on first use.
func imageFor(key uint64, pattern *[pageSize]byte) (int, error) {
	images.mu.Lock()
	defer images.mu.Unlock()
	for _, img := range images.fds {
		if img.key == key {
			return img.fd, nil
		}
	}
	fd, err := writeImage(pattern)
	if err != nil {
		return -1, err
	}
	images.fds = append(images.fds, imageFD{key, fd})
	return fd, nil
}

// writeImage creates a memfd holding the pristine image. A memfd has
// no disk blocks, so the image costs neither a file system's allocation
// nor its discard on release.
func writeImage(pattern *[pageSize]byte) (int, error) {
	name := [...]byte{'v', 'm', 0}
	r, _, errno := syscall.Syscall(sysMemfdCreate, uintptr(unsafe.Pointer(&name[0])), mfdCloexec, 0)
	if errno != 0 {
		return -1, errno
	}
	fd := int(r)
	if err := fillImage(fd, pattern); err != nil {
		syscall.Close(fd)
		return -1, err
	}
	return fd, nil
}

// fillImage sizes fd to ir.MemSize, which reads as zeros, and writes
// the pattern from ir.NullTop up. The chunk starts page-aligned and the
// pattern repeats every page, so chunk[off%len(chunk)] is the pattern
// byte at any offset off.
func fillImage(fd int, pattern *[pageSize]byte) error {
	if err := syscall.Ftruncate(fd, ir.MemSize); err != nil {
		return err
	}
	chunk := make([]byte, 64<<10)
	for off := 0; off < len(chunk); off += pageSize {
		copy(chunk[off:], pattern[:])
	}
	for off := int64(ir.NullTop); off < ir.MemSize; {
		n, err := syscall.Pwrite(fd, chunk[off%int64(len(chunk)):], off)
		if err != nil {
			return err
		}
		off += int64(n)
	}
	return nil
}

// mfdCloexec keeps the image descriptors out of child processes (the
// farm supervisor's workers).
const mfdCloexec = 1
