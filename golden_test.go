package compdiff_test

// The golden-corpus regression layer: a small corpus of MiniC
// programs under testdata/golden/, each with a pinned input and the
// expected per-implementation output checksums. Any compiler or VM
// change that silently shifts execution semantics — a different fill
// pattern, a reordered optimization, a changed personality — fails
// these tests loudly instead of quietly altering the paper's
// reproduction numbers. Refresh intentionally changed expectations
// with:
//
//	go test -run TestGoldenCorpus -update .

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"compdiff"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/golden/*.golden expectation files, or testdata/evolve.digest")

// renderOutcome formats everything the golden files pin: the verdict,
// the triage signature, and each implementation's output checksum and
// exit status.
func renderOutcome(names []string, o *compdiff.Outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "diverged %v\n", o.Diverged)
	fmt.Fprintf(&b, "timeout_suspect %v\n", o.TimeoutSuspect)
	if o.Diverged {
		fmt.Fprintf(&b, "signature %016x\n", o.Signature())
		fp := compdiff.FingerprintOf(o)
		fmt.Fprintf(&b, "fingerprint %016x %s\n", fp.Key(), fp)
	}
	for i, name := range names {
		r := o.Results[i]
		fmt.Fprintf(&b, "%-12s hash=%016x exit=%s code=%d\n", name, o.Hashes[i], r.Exit, r.Code)
	}
	return b.String()
}

func TestGoldenCorpus(t *testing.T) {
	srcs, err := filepath.Glob(filepath.Join("testdata", "golden", "*.mc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) == 0 {
		t.Fatal("no golden corpus programs found under testdata/golden/")
	}
	for _, srcPath := range srcs {
		name := strings.TrimSuffix(filepath.Base(srcPath), ".mc")
		if strings.HasPrefix(name, "compile_") {
			continue // compile-stage findings never build a suite; see golden_compile_test.go
		}
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(srcPath)
			if err != nil {
				t.Fatal(err)
			}
			var input []byte
			if data, err := os.ReadFile(strings.TrimSuffix(srcPath, ".mc") + ".input"); err == nil {
				input = data
			}
			suite, err := compdiff.New(string(src), compdiff.DefaultImplementations(), compdiff.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := renderOutcome(suite.Names(), suite.Run(input))

			// The corpus also guards reproducibility itself: a second
			// run on the same warm suite must render identically.
			if again := renderOutcome(suite.Names(), suite.Run(input)); again != got {
				t.Fatalf("non-deterministic outcome:\nfirst:\n%s\nsecond:\n%s", got, again)
			}

			goldenPath := strings.TrimSuffix(srcPath, ".mc") + ".golden"
			if *updateGolden {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("golden mismatch for %s\n--- want\n%s--- got\n%s", name, want, got)
			}
		})
	}
}

// goldenFingerprintKey extracts the pinned fingerprint key from one
// golden expectation file.
func goldenFingerprintKey(t *testing.T, path string) uint64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == "fingerprint" {
			key, err := strconv.ParseUint(fields[1], 16, 64)
			if err != nil {
				t.Fatalf("%s: bad fingerprint line %q: %v", path, line, err)
			}
			return key
		}
	}
	t.Fatalf("%s pins no fingerprint line", path)
	return 0
}

// TestGoldenTriageReduce replays the bloated triage_* corpus through
// the delta-debugging reducer: every reproducer must shed at least 60%
// of its source bytes while keeping exactly the fingerprint its golden
// file pins — in sequential and Parallelism=4 modes alike — and the
// original finding plus its reduction must land in a single triage
// bucket.
func TestGoldenTriageReduce(t *testing.T) {
	srcs, err := filepath.Glob(filepath.Join("testdata", "golden", "triage_*.mc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) < 6 {
		t.Fatalf("want at least 6 triage golden programs, found %d", len(srcs))
	}
	for _, srcPath := range srcs {
		name := strings.TrimSuffix(filepath.Base(srcPath), ".mc")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(srcPath)
			if err != nil {
				t.Fatal(err)
			}
			var input []byte
			if data, err := os.ReadFile(strings.TrimSuffix(srcPath, ".mc") + ".input"); err == nil {
				input = data
			}
			wantKey := goldenFingerprintKey(t, strings.TrimSuffix(srcPath, ".mc")+".golden")
			for _, jobs := range []int{1, 4} {
				t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
					red, err := compdiff.Reduce(string(src), input, compdiff.ReduceOptions{
						Suite: compdiff.Options{Parallelism: jobs},
					})
					if err != nil {
						t.Fatal(err)
					}
					if red.SourceShrink() < 0.60 {
						t.Errorf("shrink %.0f%% < 60%% (%d -> %d bytes)",
							red.SourceShrink()*100, red.OrigSourceBytes, len(red.Source))
					}
					if red.Fingerprint.Key() != wantKey {
						t.Errorf("reduced fingerprint %016x != pinned %016x (%s)",
							red.Fingerprint.Key(), wantKey, red.Fingerprint)
					}

					// Dedup replay: re-running the bloated original and
					// its reduction must fill exactly one bucket, keyed
					// by the pinned fingerprint.
					store := compdiff.NewBucketStore()
					for _, finding := range []struct {
						src string
						in  []byte
					}{{string(src), input}, {red.Source, red.Input}} {
						suite, err := compdiff.New(finding.src, compdiff.DefaultImplementations(), compdiff.Options{})
						if err != nil {
							t.Fatal(err)
						}
						o := suite.Run(finding.in)
						if !o.Diverged {
							t.Fatal("finding does not diverge on replay")
						}
						store.Add(o)
					}
					if store.Len() != 1 {
						t.Fatalf("original + reduced span %d buckets, want 1", store.Len())
					}
					if got := store.Keys(); len(got) != 1 || got[0] != wantKey {
						t.Errorf("bucket keys %x, want [%016x]", got, wantKey)
					}
				})
			}
		})
	}
}

// TestGoldenCorpusParallel replays the corpus through the parallel
// execution path: Parallelism must never change a golden outcome.
func TestGoldenCorpusParallel(t *testing.T) {
	srcs, err := filepath.Glob(filepath.Join("testdata", "golden", "*.mc"))
	if err != nil || len(srcs) == 0 {
		t.Fatalf("golden corpus unavailable: %v", err)
	}
	for _, srcPath := range srcs {
		name := strings.TrimSuffix(filepath.Base(srcPath), ".mc")
		if strings.HasPrefix(name, "compile_") {
			continue // compile-stage findings never build a suite; see golden_compile_test.go
		}
		goldenPath := strings.TrimSuffix(srcPath, ".mc") + ".golden"
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("missing golden file (regenerate with -update): %v", err)
		}
		src, err := os.ReadFile(srcPath)
		if err != nil {
			t.Fatal(err)
		}
		var input []byte
		if data, err := os.ReadFile(strings.TrimSuffix(srcPath, ".mc") + ".input"); err == nil {
			input = data
		}
		suite, err := compdiff.New(string(src), compdiff.DefaultImplementations(), compdiff.Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if got := renderOutcome(suite.Names(), suite.Run(input)); got != string(want) {
			t.Errorf("parallel golden mismatch for %s\n--- want\n%s--- got\n%s", name, want, got)
		}
	}
}
