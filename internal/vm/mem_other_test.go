//go:build !(linux && (amd64 || arm64))

package vm_test

import "compdiff/internal/ir"

// newHeapLimit bounds the Go heap one vm.New allocates: its memory and
// small images, never a second full-size copy.
const newHeapLimit = ir.MemSize + 128<<10
