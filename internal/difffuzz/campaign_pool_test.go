package difffuzz

import (
	"bytes"
	"context"
	"testing"

	"compdiff/internal/targets"
)

func poolTarget(t testing.TB) *targets.Target {
	t.Helper()
	tg := targets.ByName("readelf")
	if tg == nil {
		t.Fatal("missing built-in target readelf")
	}
	return tg
}

func runPool(t testing.TB, opts Options, budget int64) *Pool {
	t.Helper()
	tg := poolTarget(t)
	p, err := NewPool(tg.Src, tg.Seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(context.Background(), budget)
	return p
}

// TestPoolDeterministicSignatures: two sharded runs with identical
// seeds must find the identical set of discrepancy signatures —
// goroutine scheduling may only reorder work inside an epoch, never
// change what is found.
func TestPoolDeterministicSignatures(t *testing.T) {
	opts := Options{FuzzSeed: 7, Shards: 4, SyncEvery: 300}
	a := runPool(t, opts, 1500)
	b := runPool(t, opts, 1500)

	sa, sb := a.Signatures(), b.Signatures()
	if len(sa) == 0 {
		t.Fatal("campaign found no discrepancies; the determinism check is vacuous")
	}
	if len(sa) != len(sb) {
		t.Fatalf("signature sets differ in size: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("signature sets differ at %d: %016x vs %016x", i, sa[i], sb[i])
		}
	}
	// The shared store's totals must equal the sum over shards.
	var wantTotal int
	for si := 0; si < 4; si++ {
		wantTotal += a.shards[si].c.diffs.Total()
	}
	if got := a.TotalDiffInputs(); got != wantTotal {
		t.Fatalf("pool TotalDiffInputs = %d, want shard sum %d", got, wantTotal)
	}
}

// TestPoolSingleShardMatchesCampaign: Shards=1 + Parallelism=1 must
// reproduce a bare shard run over the whole budget byte-for-byte —
// same signatures in the same discovery order, same representative
// inputs, same stats.
func TestPoolSingleShardMatchesCampaign(t *testing.T) {
	tg := poolTarget(t)
	opts := Options{FuzzSeed: 7}

	c := newSolo(t, tg.Src, tg.Seeds, opts)
	c.run(2000)
	cs := c.fuzzer.Stats()

	p := runPool(t, opts, 2000)
	ps := p.Stats()

	if ps.Execs != cs.Execs || ps.UniqueCrashes != cs.UniqueCrashes {
		t.Fatalf("pool stats (execs=%d crashes=%d) != campaign (execs=%d crashes=%d)",
			ps.Execs, ps.UniqueCrashes, cs.Execs, cs.UniqueCrashes)
	}
	cd, pd := c.diffs.Unique(), p.Diffs()
	if len(cd) != len(pd) {
		t.Fatalf("pool found %d unique diffs, campaign %d", len(pd), len(cd))
	}
	for i := range cd {
		if cd[i].Signature != pd[i].Signature {
			t.Fatalf("diff %d: signature %016x != %016x", i, pd[i].Signature, cd[i].Signature)
		}
		if !bytes.Equal(cd[i].Outcome.Input, pd[i].Outcome.Input) {
			t.Fatalf("diff %d: representative inputs differ", i)
		}
		if cd[i].Count != pd[i].Count {
			t.Fatalf("diff %d: count %d != %d", i, pd[i].Count, cd[i].Count)
		}
	}
	if p.TotalDiffInputs() != c.diffs.Total() {
		t.Fatalf("total diff inputs %d != %d", p.TotalDiffInputs(), c.diffs.Total())
	}
}

// TestPoolShardSeedsDistinct: every shard must fuzz with its own RNG
// stream; colliding seeds would make shards redundant clones.
func TestPoolShardSeedsDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for _, base := range []int64{0, 1, 7, -3} {
		for si := 0; si < 16; si++ {
			s := ShardSeed(base, si)
			if seen[s] {
				t.Fatalf("ShardSeed(%d, %d) = %d collides", base, si, s)
			}
			seen[s] = true
		}
		if ShardSeed(base, 0) != base {
			t.Fatalf("shard 0 must keep the base seed %d", base)
		}
	}
}

// TestPoolPanicRecovery wedges one shard via the epoch hook and
// checks the pool retires it, records the error, and lets the other
// shards finish their budget.
func TestPoolPanicRecovery(t *testing.T) {
	tg := poolTarget(t)
	p, err := NewPool(tg.Src, tg.Seeds, Options{FuzzSeed: 7, Shards: 3, SyncEvery: 200})
	if err != nil {
		t.Fatal(err)
	}
	p.hook = func(_, si int) {
		if si == 1 {
			panic("injected shard failure")
		}
	}
	base := p.Stats() // seed ingestion at construction already cost execs
	stats := p.Run(context.Background(), 1000)

	if stats.ShardErrors[1] == nil {
		t.Fatal("shard 1 panicked but no error was recorded")
	}
	if stats.ShardErrors[0] != nil || stats.ShardErrors[2] != nil {
		t.Fatalf("healthy shards reported errors: %v, %v", stats.ShardErrors[0], stats.ShardErrors[2])
	}
	for _, si := range []int{0, 2} {
		if got := stats.ShardStats[si].Execs - base.ShardStats[si].Execs; got < 1000 {
			t.Fatalf("healthy shard %d ran %d execs, want full budget 1000", si, got)
		}
	}
	if got := stats.ShardStats[1].Execs; got != base.ShardStats[1].Execs {
		t.Fatalf("wedged shard ran %d execs past ingestion, want 0", got-base.ShardStats[1].Execs)
	}
}

// TestPoolAllShardsDead: when every shard is retired the pool must
// return instead of spinning through empty epochs.
func TestPoolAllShardsDead(t *testing.T) {
	tg := poolTarget(t)
	p, err := NewPool(tg.Src, tg.Seeds, Options{FuzzSeed: 7, Shards: 2, SyncEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	p.hook = func(_, si int) {
		if si >= 0 {
			panic("boom")
		}
	}
	base := p.Stats()
	stats := p.Run(context.Background(), 1_000_000)
	if stats.Execs != base.Execs {
		t.Fatalf("dead pool ran %d execs", stats.Execs-base.Execs)
	}
	for si, e := range stats.ShardErrors {
		if e == nil {
			t.Fatalf("shard %d: missing panic error", si)
		}
	}
}

// TestPoolCancellation: a canceled context stops the pool at the next
// barrier, well short of the budget, and findings so far are merged.
func TestPoolCancellation(t *testing.T) {
	tg := poolTarget(t)
	p, err := NewPool(tg.Src, tg.Seeds, Options{FuzzSeed: 7, Shards: 2, SyncEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	// The hook runs on every shard goroutine concurrently; context
	// cancellation is already concurrency-safe.
	p.hook = func(_, si int) {
		if si >= 0 {
			cancel()
		}
	}
	stats := p.Run(ctx, 1_000_000)
	if stats.Execs == 0 {
		t.Fatal("cancellation should still let the in-flight epoch finish")
	}
	if stats.Execs >= 1_000_000 {
		t.Fatalf("cancellation did not stop the pool (execs=%d)", stats.Execs)
	}

	canceled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	p2, err := NewPool(tg.Src, tg.Seeds, Options{FuzzSeed: 7, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	base2 := p2.Stats()
	if got := p2.Run(canceled, 1_000_000); got.Execs != base2.Execs {
		t.Fatalf("pre-canceled pool ran %d execs", got.Execs-base2.Execs)
	}
}

// TestPoolCrossPollination: with synchronization on, a secondary
// shard's queue should come to include imported entries beyond what
// its own coverage discovered (ForceSeed imports at barriers).
func TestPoolCrossPollination(t *testing.T) {
	tg := poolTarget(t)
	solo := newSolo(t, tg.Src, tg.Seeds, Options{FuzzSeed: ShardSeed(7, 1), SkipDeterministic: true})
	solo.run(1000)

	p, err := NewPool(tg.Src, tg.Seeds, Options{FuzzSeed: 7, Shards: 2, SyncEvery: 250})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(context.Background(), 1000)
	pooled := p.shards[1].c

	if pooled.fuzzer.Stats().Seeds <= solo.fuzzer.Stats().Seeds {
		t.Fatalf("sharded secondary has %d seeds, solo run %d — no evidence of imports",
			pooled.fuzzer.Stats().Seeds, solo.fuzzer.Stats().Seeds)
	}
}
