//go:build linux && (amd64 || arm64)

package vm_test

import (
	"bytes"
	"os"
	"strconv"
	"testing"

	"compdiff/internal/compiler"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
	"compdiff/internal/targets"
	"compdiff/internal/vm"
)

// newHeapLimit bounds the Go heap one vm.New allocates: machine memory
// is a mapping outside the heap, so only the machine's own state and
// its small segment images count.
const newHeapLimit = 128 << 10

// TestMachineMemorySoak builds, runs and drops 10,000 machines with
// little other allocation, and holds the mapping count of the process
// and its resident set flat: the memory of an unreachable machine must
// be unmapped, not merely shared.
func TestMachineMemorySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 10,000 machines")
	}
	bin := compiler.MustCompile(sema.MustCheck(parser.MustParse(targets.ByName("wireshark").Src)),
		compiler.Config{Family: compiler.GCC, Opt: compiler.O2})
	const n, warm, every = 10_000, 1_000, 250
	var baseMaps, maxMaps, baseRSS, maxRSS int
	for i := 1; i <= n; i++ {
		vm.New(bin, vm.Options{}).RunShared(nil)
		if i%every != 0 {
			continue
		}
		maps, rss := mappingCount(t), residentKiB(t)
		if i == warm {
			baseMaps, baseRSS = maps, rss
		}
		if i >= warm {
			maxMaps, maxRSS = max(maxMaps, maps), max(maxRSS, rss)
		}
	}
	t.Logf("mappings %d -> max %d, VmRSS %d KiB -> max %d KiB", baseMaps, maxMaps, baseRSS, maxRSS)
	// The count swings with the GC cycle: the machines dropped since the
	// last collection are still mapped. A leak would instead add one
	// mapping and about 16 KiB of written pages per machine, 9,000
	// mappings and 140 MiB past the warm-up.
	if maxMaps > baseMaps+2_500 {
		t.Errorf("mapping count grew from %d to %d after %d machines", baseMaps, maxMaps, warm)
	}
	if maxRSS > baseRSS+48<<10 {
		t.Errorf("VmRSS grew from %d KiB to %d KiB after %d machines", baseRSS, maxRSS, warm)
	}
}

// mappingCount is the number of lines in /proc/self/maps.
func mappingCount(t *testing.T) int {
	b, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(b, []byte{'\n'})
}

// residentKiB is VmRSS from /proc/self/status.
func residentKiB(t *testing.T) int {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	_, line, ok := bytes.Cut(b, []byte("VmRSS:"))
	if ok {
		line, _, _ = bytes.Cut(line, []byte("kB"))
		if kib, err := strconv.Atoi(string(bytes.TrimSpace(line))); err == nil {
			return kib
		}
	}
	t.Fatalf("no VmRSS in /proc/self/status")
	return 0
}
