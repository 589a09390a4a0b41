package main

// The drivers must reproduce the real campaigns exactly, or the
// per-layer numbers describe some other program. These tests compare
// them at small sizes.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"compdiff/internal/checkpoint"
	"compdiff/internal/difffuzz"
	"compdiff/internal/evolve"
	"compdiff/internal/targets"
)

func TestFuzzDriverMatchesPool(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, batch := range []int{1, 64} {
			t.Run(fmt.Sprintf("shards%d_batch%d", shards, batch), func(t *testing.T) {
				tg := targets.ByName("jq")
				opts := difffuzz.Options{Shards: shards, BatchSize: batch, FuzzSeed: 7, SyncEvery: 700}
				compareFuzz(t, tg, opts, 2500)
			})
		}
	}
}

func TestFuzzDriverMatchesPoolWithCheckpoints(t *testing.T) {
	tg := targets.ByName("curl")
	opts := difffuzz.Options{Shards: 2, DivergenceFeedback: true, SyncEvery: 300, FuzzSeed: 3}
	compareFuzz(t, tg, opts, 1300)
}

// compareFuzz runs a Pool and the driver on the same inputs; with a
// checkpoint directory set, each gets its own, and the final
// checkpoints must hold the same state.
func compareFuzz(t *testing.T, tg *targets.Target, opts difffuzz.Options, budget int64) {
	t.Helper()
	ckpt := opts.DivergenceFeedback
	dirs := func() difffuzz.Options {
		o := opts
		if ckpt {
			d := t.TempDir()
			o.CheckpointDir, o.DiffDir = filepath.Join(d, "ckpt"), filepath.Join(d, "diffs")
		}
		return o
	}
	popts := dirs()
	p, err := difffuzz.NewPool(tg.Src, tg.Seeds, popts)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Run(context.Background(), budget)
	want := fuzzResult{Keys: p.BucketKeys(), Execs: st.Execs, DiffExecs: st.DiffExecs,
		CheckpointSeq: p.CheckpointSeq(), PersistErrors: st.PersistErrors}

	dopts := dirs()
	d, err := newFuzzDriver(tg.Src, tg.Seeds, dopts, NewTracer(spanDefs, 256, 100), 64)
	if err != nil {
		t.Fatal(err)
	}
	d.Run(budget)
	got := d.result()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("driver %+v\npool   %+v", got, want)
	}
	if len(want.Keys) == 0 {
		t.Fatal("no buckets: the comparison is vacuous")
	}
	if ckpt {
		if want.CheckpointSeq == 0 {
			t.Fatal("no checkpoint written")
		}
		if a, b := loadState(t, popts.CheckpointDir), loadState(t, dopts.CheckpointDir); a != b {
			t.Fatalf("checkpoint states differ:\npool   %.400s\ndriver %.400s", a, b)
		}
		pf, _ := os.ReadDir(filepath.Join(popts.DiffDir, "diffs"))
		df, _ := os.ReadDir(filepath.Join(dopts.DiffDir, "diffs"))
		if len(pf) != len(df) || len(pf) == 0 {
			t.Fatalf("evidence files: pool %d, driver %d", len(pf), len(df))
		}
	}
}

func loadState(t *testing.T, dir string) string {
	t.Helper()
	st, _, err := checkpoint.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestCompileDriverMatchesCompilePool(t *testing.T) {
	j, err := prepareCompileCorpus(&env{root: ".."}, 5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	corpus := j.(*compileJob).corpus
	p, err := difffuzz.NewCompilePool(corpus, compileOpts)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Run(context.Background())
	d := newCompileDriver(corpus, compileOpts, NewTracer(spanDefs, 256, 100), 8, 5)
	d.Run()
	if !slices.Equal(d.buckets.Keys(), p.BucketKeys()) || d.programs() != st.Programs {
		t.Fatalf("driver keys %x programs %d; pool keys %x programs %d",
			d.buckets.Keys(), d.programs(), p.BucketKeys(), st.Programs)
	}
	if len(p.BucketKeys()) == 0 {
		t.Fatal("no buckets: the comparison is vacuous")
	}
	if cs := d.cache.Stats(); cs.Hits == 0 {
		t.Fatal("the corpus revisits no program")
	}
}

func TestEvolveDriverMatchesEvolvePool(t *testing.T) {
	opts := difffuzz.EvolvePoolOptions{Pop: 8, Generations: 4, Shards: 2, Seed: 3, CacheBudget: 1 << 20}
	p, err := difffuzz.NewEvolvePool(opts)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Run(context.Background())
	d := newEvolveDriver(opts, NewTracer(spanDefs, 256, 100), 8)
	d.Run()
	if sig := evolve.Signature(d.pop); sig != st.PopulationSignature {
		t.Fatalf("population signature %016x, pool %016x", sig, st.PopulationSignature)
	}
	if !slices.Equal(d.buckets.Keys(), p.BucketKeys()) || d.passCoverage() != st.PassCoverage {
		t.Fatalf("driver keys %x coverage %d; pool keys %x coverage %d",
			d.buckets.Keys(), d.passCoverage(), p.BucketKeys(), st.PassCoverage)
	}
}
