package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateSummary = flag.Bool("update", false, "rewrite testdata/summary.golden")

const summaryGolden = "testdata/summary.golden"

// summaryRuns are the deterministic command lines summary.golden pins,
// once as given and once as a finished checkpointed campaign (ckpt,
// followed by -checkpoint DIR) that a rerun with -resume reports again.
// progress is the resume line's description of the finished campaign.
var summaryRuns = []struct {
	args, ckpt []string
	progress   string
}{
	{
		args:     []string{"-programs", "../../testdata/golden", "-sync", "4"},
		ckpt:     []string{"-programs", "../../testdata/golden", "-sync", "4"},
		progress: "15 of 15 programs already processed",
	},
	{
		args:     []string{"-evolve", "-pop", "4", "-generations", "2"},
		ckpt:     []string{"-evolve", "-pop", "4", "-generations", "2"},
		progress: "generation 2 of 2 already evaluated",
	},
	{
		args:     []string{"-target", "readelf", "-execs", "300", "-sync", "100", "-shards", "1"},
		ckpt:     []string{"-target", "readelf", "-execs-total", "300", "-sync", "100", "-shards", "1"},
		progress: "300 execs per shard already spent",
	},
	{
		args:     []string{"-target", "readelf", "-execs", "300", "-sync", "100", "-shards", "2"},
		ckpt:     []string{"-target", "readelf", "-execs-total", "300", "-sync", "100", "-shards", "2"},
		progress: "300 execs per shard already spent",
	},
}

// runCLI runs realMain and fails the test unless it exits 0.
func runCLI(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := realMain(args, &out, &errOut); code != 0 {
		t.Fatalf("%q: exit %d: %s", args, code, errOut.String())
	}
	return out.String(), errOut.String()
}

// compileCacheLine is the one summary line a resumed program campaign
// may change: its compile cache starts cold in every process.
var compileCacheLine = regexp.MustCompile(`(?m)^compile cache  : .*\n`)

// TestSummaryMatchesParent holds every mode's summary and bucket
// reports to the ones pinned in testdata/summary.golden, and resumes
// each finished checkpointed campaign: the resumed summary must repeat
// the fresh one, compile cache aside, and stderr must say what the
// checkpoint had already done.
func TestSummaryMatchesParent(t *testing.T) {
	var got strings.Builder
	for _, r := range summaryRuns {
		stdout, _ := runCLI(t, r.args...)
		got.WriteString("=== compdiff-fuzz " + strings.Join(r.args, " ") + "\n" + stdout)

		dir := t.TempDir()
		ckpt := append(append([]string(nil), r.ckpt...), "-checkpoint", dir)
		fresh, _ := runCLI(t, ckpt...)
		got.WriteString("=== compdiff-fuzz " + strings.Join(r.ckpt, " ") + " -checkpoint DIR\n" + fresh)

		resumed, stderr := runCLI(t, append(ckpt, "-resume")...)
		if want := "compdiff-fuzz: resumed from checkpoint " + dir + " (seq "; !strings.Contains(stderr, want) ||
			!strings.Contains(stderr, r.progress+")\n") {
			t.Errorf("%q -resume: stderr lacks %q with %q:\n%s", r.ckpt, want, r.progress, stderr)
		}
		if a, b := compileCacheLine.ReplaceAllString(resumed, ""), compileCacheLine.ReplaceAllString(fresh, ""); a != b {
			t.Errorf("%q -resume: summary differs from the fresh run's:\n%s\nwant:\n%s", r.ckpt, a, b)
		}
	}
	if *updateSummary {
		if err := os.WriteFile(summaryGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(summaryGolden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s line %d: got %q, want %q", summaryGolden, i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s: got %d lines, want %d", summaryGolden, len(gotLines), len(wantLines))
	}
}

// TestValidateRejectsUnreadFlags: a flag the selected mode never reads
// is command-line misuse (exit 2, naming the flag), not a silent no-op.
func TestValidateRejectsUnreadFlags(t *testing.T) {
	seed := filepath.Join(t.TempDir(), "s")
	if err := os.WriteFile(seed, []byte("seed"), 0o644); err != nil {
		t.Fatal(err)
	}
	programs := filepath.Join("..", "..", "testdata", "golden")
	cases := []struct {
		flag string // the rejected flag the message must name
		args []string
	}{
		{"-sync", []string{"-evolve", "-pop", "2", "-generations", "1", "-sync", "5"}},
		{"-seedfile", []string{"-evolve", "-pop", "2", "-generations", "1", "-seedfile", seed}},
		// Several unread flags: the first in cliFlags order is named.
		{"-seedfile", []string{"-evolve", "-pop", "2", "-generations", "1", "-sync", "5", "-seedfile", seed}},
		{"-execs", []string{"-evolve", "-pop", "2", "-generations", "1", "-execs", "7"}},
		// Explicit, not merely different from the default.
		{"-execs", []string{"-evolve", "-pop", "2", "-generations", "1", "-execs", "50000"}},
		{"-execs", []string{"-programs", programs, "-execs", "7"}},
		{"-seedfile", []string{"-programs", programs, "-seedfile", seed}},
		{"-execs", []string{"-programs", programs, "-execs", "7", "-seedfile", seed}},
		{"-seed", []string{"-programs", programs, "-seed", "3"}},
		{"-seedfile", []string{"-target", "readelf", "-execs", "300", "-seedfile", seed}},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		code := realMain(tc.args, &stdout, &stderr)
		if code != 2 || !strings.HasPrefix(stderr.String(), "compdiff-fuzz: "+tc.flag+" ") {
			t.Errorf("%q: exit %d, stderr %q; want exit 2 naming %s", tc.args, code, stderr.String(), tc.flag)
		}
	}
}
