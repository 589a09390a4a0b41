package difffuzz

// Concurrency regression tests for the control-plane read path: the
// supervisor's HTTP handlers call Pool.Stats while the campaign is
// executing, so every field it reads must be either atomic,
// mutex-guarded, or barrier-cached. Run under -race (scripts/check.sh
// runs the whole package that way), this pins the persistErrs
// plain-increment fix, the barrier-consistent shard-stat cache, and
// the single-shard StatsEvery records written from the shard goroutine.

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestPoolStatsConcurrentWithRun hammers Stats and Snapshots from
// several reader goroutines for the full duration of a campaign: a
// sharded one, and a single shard whose StatsEvery records come from
// the shard goroutine mid-epoch. Beyond surviving the race detector,
// the reads must be sane: barrier monotonicity (execs, spent budget,
// and persist errors never go backwards), a snapshot series that only
// grows, and internal consistency of each read.
func TestPoolStatsConcurrentWithRun(t *testing.T) {
	for _, tc := range []struct {
		name     string
		opts     Options
		minSnaps int
	}{
		{"sharded", Options{FuzzSeed: 7, Shards: 2, SyncEvery: 150}, 0},
		// 1500 execs at one snapshot per 100 inputs, plus the barrier's.
		{"single-shard-stats-every", Options{FuzzSeed: 7, StatsEvery: 100}, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tg := poolTarget(t)
			// A blocked diffs/ path makes persistence fail at every
			// barrier, so the hammered reads cover the persistErrs counter
			// too — the field whose plain increment used to race with
			// exactly this read.
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "diffs"), []byte("in the way"), 0o644); err != nil {
				t.Fatal(err)
			}
			opts := tc.opts
			opts.DiffDir = dir
			p, err := NewPool(tg.Src, tg.Seeds, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()

			done := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var lastExecs, lastSpent, lastPersist int64
					var lastSnaps int
					for {
						select {
						case <-done:
							return
						default:
						}
						st := p.Stats()
						if st.Execs < lastExecs || st.SpentExecs < lastSpent || st.PersistErrors < lastPersist {
							t.Errorf("stats went backwards: execs %d->%d, spent %d->%d, persist %d->%d",
								lastExecs, st.Execs, lastSpent, st.SpentExecs, lastPersist, st.PersistErrors)
							return
						}
						lastExecs, lastSpent, lastPersist = st.Execs, st.SpentExecs, st.PersistErrors
						if len(st.ShardStats) != st.Shards || len(st.ShardErrors) != st.Shards {
							t.Errorf("snapshot shape: %d shards but %d stats, %d errors",
								st.Shards, len(st.ShardStats), len(st.ShardErrors))
							return
						}
						snaps := p.Snapshots()
						if len(snaps) < lastSnaps {
							t.Errorf("snapshot series shrank: %d -> %d", lastSnaps, len(snaps))
							return
						}
						lastSnaps = len(snaps)
						for i := 1; i < len(snaps); i++ {
							if snaps[i].Execs < snaps[i-1].Execs {
								t.Errorf("snapshot %d execs %d after %d", i, snaps[i].Execs, snaps[i-1].Execs)
								return
							}
						}
					}
				}()
			}

			final := p.Run(context.Background(), 1500)
			close(done)
			wg.Wait()

			if final.UniqueDiffs == 0 {
				t.Fatal("campaign found no discrepancies; the concurrent-read check barely exercised the stores")
			}
			if final.PersistErrors == 0 {
				t.Fatal("blocked DiffDir produced no persist errors; the racy counter path went unexercised")
			}
			// A post-Run Stats call must agree with the value Run returned —
			// the cache is refreshed at the final barrier.
			if again := p.Stats(); again.Execs != final.Execs || again.SpentExecs != final.SpentExecs ||
				again.UniqueCrashes != final.UniqueCrashes || again.PersistErrors != final.PersistErrors {
				t.Fatalf("post-Run Stats %+v disagrees with Run result %+v", again, final)
			}
			if n := len(p.Snapshots()); n < tc.minSnaps {
				t.Fatalf("recorded %d snapshots, want >= %d", n, tc.minSnaps)
			}
		})
	}
}

// TestPoolBarrierHookRuns: the hook fires once per barrier with
// barrier-consistent stats, and its spent-budget view is monotonic.
func TestPoolBarrierHookRuns(t *testing.T) {
	tg := poolTarget(t)
	var spents []int64
	opts := Options{FuzzSeed: 7, Shards: 2, SyncEvery: 250,
		BarrierHook: func(st PoolStats) { spents = append(spents, st.SpentExecs) }}
	p, err := NewPool(tg.Src, tg.Seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(context.Background(), 1000)
	if len(spents) != 4 {
		t.Fatalf("barrier hook ran %d times, want 4 (budget 1000 / sync 250)", len(spents))
	}
	for i, s := range spents {
		if want := int64(250 * (i + 1)); s != want {
			t.Fatalf("hook %d saw spent budget %d, want %d", i, s, want)
		}
	}
}
