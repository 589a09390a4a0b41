package triage_test

// The reduction equivalence pin: every field of every Reduction —
// minimized source and input, fingerprint, sizes, and the suite-run
// and build counts — over the golden triage and compile reproducers
// and the bucket representatives of a short fixed-seed campaign per
// target, in testdata/reduce.digest. The reducer's acceptance order
// decides what it keeps, so any change to which candidates it
// proposes, or in what order, fails here by finding name. The digest was produced by the
// reducer that re-parsed its best program before every candidate;
// regenerate it only for an intended output change, with:
//
//	go test ./internal/triage -run TestReduceMatchesParent -update

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compdiff/internal/core"
	"compdiff/internal/difffuzz"
	"compdiff/internal/hash"
	"compdiff/internal/targets"
	"compdiff/internal/triage"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/reduce.digest")

const reduceDigestPath = "testdata/reduce.digest"

type reduceFinding struct {
	name  string
	src   string
	input []byte
	norm  *core.Normalizer
}

// reduceFindings returns the golden triage_* and compile_*
// reproducers, then every bucket representative of a short campaign
// on every built-in target.
func reduceFindings(t *testing.T) []reduceFinding {
	t.Helper()
	var out []reduceFinding
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.mc"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("golden corpus: %v (%d files)", err, len(paths))
	}
	for _, p := range paths {
		name := strings.TrimSuffix(filepath.Base(p), ".mc")
		if !strings.HasPrefix(name, "triage_") && !strings.HasPrefix(name, "compile_") {
			continue
		}
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		input, err := os.ReadFile(strings.TrimSuffix(p, ".mc") + ".input")
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		out = append(out, reduceFinding{name: "golden/" + name, src: string(src), input: input})
	}
	for _, tg := range targets.All() {
		name := tg.Name
		var norm *core.Normalizer
		if tg.NeedsNormalizer {
			norm = core.DefaultNormalizer()
		}
		p, err := difffuzz.NewPool(tg.Src, tg.Seeds, difffuzz.Options{FuzzSeed: 20, Normalizer: norm})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p.Run(context.Background(), 400)
		for i, b := range p.Buckets() {
			out = append(out, reduceFinding{name: fmt.Sprintf("%s/%d", name, i), src: tg.Src, input: b.Outcome.Input, norm: norm})
		}
		p.Close()
	}
	return out
}

// reductionDigest hashes every field of one reduction, or the error.
func reductionDigest(r *triage.Reduction, err error) string {
	var dump string
	if err != nil {
		dump = "error " + err.Error()
	} else {
		dump = fmt.Sprintf("source %q\ninput %q\nfp %+v\norig %d %d\nruns %d builds %d",
			r.Source, r.Input, r.Fingerprint, r.OrigSourceBytes, r.OrigInputBytes, r.SuiteRuns, r.Builds)
	}
	lo, hi := hash.Sum128([]byte(dump), 0x2021)
	return fmt.Sprintf("%016x%016x", hi, lo)
}

// TestReduceMatchesParent holds Reduce to the pinned digest.
func TestReduceMatchesParent(t *testing.T) {
	findings := reduceFindings(t)
	got := make([]string, len(findings))
	for i, f := range findings {
		r, err := triage.Reduce(f.src, f.input, triage.ReduceOptions{Suite: core.Options{Normalizer: f.norm}})
		got[i] = reductionDigest(r, err)
	}

	if *updateDigest {
		var b strings.Builder
		fmt.Fprintf(&b, "# %d findings; see reduce_digest_test.go\n", len(findings))
		for i, f := range findings {
			fmt.Fprintf(&b, "%s %s\n", f.name, got[i])
		}
		if err := os.WriteFile(reduceDigestPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(reduceDigestPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed digest line %q", line)
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(findings) {
		t.Errorf("digest file has %d findings, corpus has %d", len(want), len(findings))
	}
	for i, fd := range findings {
		if w, ok := want[fd.name]; !ok {
			t.Errorf("%s: not in the digest file", fd.name)
		} else if got[i] != w {
			t.Errorf("%s: digest %s, want %s", fd.name, got[i], w)
		}
	}
}
