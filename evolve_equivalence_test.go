package compdiff_test

// The evolve equivalence pin: fixed-seed, two-shard, checkpointed
// evolutionary campaigns must repeat the population signature after
// every generation, and the final pass coverage, buckets, counters,
// fitness and checkpoint bytes, recorded in testdata/evolve.digest.
// The population sequence does not depend on the generation count, so
// the campaign stopped after g generations shows the population of
// generation g. The digest was produced by the campaign whose mutator
// re-parsed every parent and whose oracle re-parsed every offspring;
// regenerate it only for an intended change to the population
// sequence, with:
//
//	go test . -run TestEvolveMatchesParent -update

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compdiff"
	"compdiff/internal/evolve"
	"compdiff/internal/hash"
)

const (
	evolveDigestPath = "testdata/evolve.digest"
	// evolveDigestGens is the generation count of the full campaign.
	evolveDigestGens = 5
	// parentCheckpointDir holds a checkpoint of the full campaign,
	// written by the same parent code and interrupted after generation
	// 3: its genomes carry source text only.
	parentCheckpointDir = "testdata/evolve-gen3-ckpt"
)

func evolveDigestOpts(gens int, dir string) compdiff.EvolveCampaignOptions {
	return compdiff.EvolveCampaignOptions{Pop: 8, Generations: gens, Seed: 2020, Shards: 2,
		StepLimit: 2_000_000, CheckpointDir: dir}
}

func runEvolveCampaign(t *testing.T, p *compdiff.EvolveCampaign) compdiff.EvolveCampaignStats {
	t.Helper()
	st := p.Run(context.Background())
	for s, err := range st.ShardErrors {
		if err != nil {
			t.Fatalf("shard %d died: %v", s, err)
		}
	}
	return st
}

// finalDigestLines renders a finished campaign: its summary, and its
// final checkpoint's manifest and state bytes.
func finalDigestLines(t *testing.T, p *compdiff.EvolveCampaign, st compdiff.EvolveCampaignStats, dir string) []string {
	t.Helper()
	lines := []string{
		fmt.Sprintf("final %016x", st.PopulationSignature),
		fmt.Sprintf("coverage %d %v", st.PassCoverage, p.PassCoverageBits()),
		fmt.Sprintf("buckets %d %x", st.UniqueBuckets, p.BucketKeys()),
		fmt.Sprintf("counts %d %d %d", st.Programs, st.FrontendRejects, st.Findings),
		fmt.Sprintf("fitness %v %v", st.BestFitness, st.MeanFitness),
	}
	for _, name := range []string{"MANIFEST.json", fmt.Sprintf("state-%06d.ckpt", st.Generation)} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := hash.Sum128(b, 0x2022)
		lines = append(lines, fmt.Sprintf("%s %016x%016x", name, hi, lo))
	}
	return lines
}

func readEvolveDigest(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(evolveDigestPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func compareDigestLines(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d digest lines, want %d:\n%s", what, len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: %q, want %q", what, got[i], want[i])
		}
	}
}

// TestEvolveMatchesParent holds fresh campaigns to the pinned digest:
// the founders' signature, one campaign per generation count for the
// signatures after each generation, and the full campaign's summary
// and checkpoint.
func TestEvolveMatchesParent(t *testing.T) {
	got := []string{fmt.Sprintf("gen0 %016x", evolve.Signature(evolve.SeedPopulation(2020, 8)))}
	var last []string
	for gens := 1; gens <= evolveDigestGens; gens++ {
		dir := t.TempDir()
		p, err := compdiff.NewEvolveCampaign(evolveDigestOpts(gens, dir))
		if err != nil {
			t.Fatal(err)
		}
		st := runEvolveCampaign(t, p)
		got = append(got, fmt.Sprintf("gen%d %016x", gens, st.PopulationSignature))
		if gens == evolveDigestGens {
			last = finalDigestLines(t, p, st, dir)
		}
		p.Close()
	}
	got = append(got, last...)
	if *updateGolden {
		text := "# evolveDigestOpts campaigns; see evolve_equivalence_test.go\n" + strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(evolveDigestPath, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	compareDigestLines(t, "fresh runs", got, readEvolveDigest(t))
}

// TestEvolveResumesParentCheckpoint resumes the checkpoint the parent
// campaign wrote after generation 3, whose genomes must parse lazily,
// and holds the finished campaign to the uninterrupted run's summary
// and checkpoint bytes.
func TestEvolveResumesParentCheckpoint(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"MANIFEST.json", "state-000003.ckpt"} {
		copyFile(t, filepath.Join(parentCheckpointDir, name), filepath.Join(dir, name))
	}
	p, err := compdiff.ResumeEvolveCampaign(evolveDigestOpts(evolveDigestGens, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if g := p.Stats().Generation; g != 3 {
		t.Fatalf("resumed at generation %d, want 3", g)
	}
	st := runEvolveCampaign(t, p)
	want := readEvolveDigest(t)
	compareDigestLines(t, "resumed run", finalDigestLines(t, p, st, dir), want[evolveDigestGens+1:])
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	in, err := os.Open(from)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(out, in); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
}
