package core_test

import (
	"context"
	"runtime"
	"testing"

	"compdiff/internal/core"
	"compdiff/internal/difffuzz"
	"compdiff/internal/progen"
)

// TestPoolSparesLastOneRun: the compile and evolve pools keep one
// machine set per live shard for a whole Run, however many epochs it
// has, and drop it when Run returns. A multi-epoch CompilePool and a
// multi-generation EvolvePool, both on two shards, must each build
// exactly two sets per Run, and after Run returns none of those sets
// may still be reachable while the pool itself is.
func TestPoolSparesLastOneRun(t *testing.T) {
	var corpus []string
	for seed := int64(1); seed <= 12; seed++ {
		corpus = append(corpus, progen.Generate(seed).Src)
	}
	built, live, stop := core.TrackSets()
	defer stop()

	cp, err := difffuzz.NewCompilePool(corpus, difffuzz.CompilePoolOptions{Shards: 2, SyncEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := cp.Run(context.Background())
	if st.Programs != int64(len(corpus)) || st.Accepted < 4 {
		t.Fatalf("compile pool processed %d programs, %d accepted", st.Programs, st.Accepted)
	}
	checkSets(t, "compile pool (6 epochs)", built, live, 2)
	runtime.KeepAlive(cp)

	ep, err := difffuzz.NewEvolvePool(difffuzz.EvolvePoolOptions{Pop: 4, Generations: 3, Seed: 5, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if est := ep.Run(context.Background()); est.Generation != 3 {
		t.Fatalf("evolve pool reached generation %d, want 3", est.Generation)
	}
	checkSets(t, "evolve pool (3 generations)", built, live, 4)
	runtime.KeepAlive(ep)
}

// checkSets asserts the running count of sets built and that no set
// survives a collection.
func checkSets(t *testing.T, what string, built, live func() int, want int) {
	t.Helper()
	if got := built(); got != want {
		t.Errorf("%s: %d machine sets built so far, want %d (one per shard per Run)", what, got, want)
	}
	runtime.GC()
	runtime.GC()
	if n := live(); n != 0 {
		t.Errorf("%s: %d machine sets still reachable after Run returned", what, n)
	}
}
