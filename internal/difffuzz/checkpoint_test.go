package difffuzz

// Checkpoint/resume tests for the sharded campaign pool: the
// resume-equivalence property (interrupted-and-resumed == fresh), the
// ctx-cancel telemetry flush, and the resume error classification.
// Kill-at-a-barrier fault injection and re-export identity run for
// every mode in engine_test.go.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compdiff/internal/checkpoint"
	"compdiff/internal/telemetry"
)

// comparePoolFindings asserts two pools found the same discrepancies:
// same sorted signature set, same sorted bucket-key set, same
// per-signature counts in the same shared-store order.
func comparePoolFindings(t *testing.T, fresh, resumed *Pool) {
	t.Helper()
	fs, rs := fresh.Signatures(), resumed.Signatures()
	if len(fs) == 0 {
		t.Fatal("fresh campaign found no discrepancies; the equivalence check is vacuous")
	}
	if len(fs) != len(rs) {
		t.Fatalf("signature sets differ in size: fresh %d, resumed %d", len(fs), len(rs))
	}
	for i := range fs {
		if fs[i] != rs[i] {
			t.Fatalf("signature sets differ at %d: fresh %016x, resumed %016x", i, fs[i], rs[i])
		}
	}
	fk, rk := fresh.BucketKeys(), resumed.BucketKeys()
	if len(fk) != len(rk) {
		t.Fatalf("bucket-key sets differ in size: fresh %d, resumed %d", len(fk), len(rk))
	}
	for i := range fk {
		if fk[i] != rk[i] {
			t.Fatalf("bucket keys differ at %d: fresh %016x, resumed %016x", i, fk[i], rk[i])
		}
	}
	fd, rd := fresh.Diffs(), resumed.Diffs()
	for i := range fd {
		if fd[i].Signature != rd[i].Signature || fd[i].Count != rd[i].Count {
			t.Fatalf("store entry %d: fresh (%016x, %d), resumed (%016x, %d)",
				i, fd[i].Signature, fd[i].Count, rd[i].Signature, rd[i].Count)
		}
	}
}

// resumeEquivalence runs the acceptance property at a given shard
// count: a campaign checkpointed after budget executions and resumed
// for budget more must find what an uninterrupted 2×budget campaign
// finds.
func resumeEquivalence(t *testing.T, shards int, budget int64) {
	tg := poolTarget(t)
	opts := Options{FuzzSeed: 7, Shards: shards, SyncEvery: 300}

	freshOpts := opts
	freshOpts.CheckpointDir = t.TempDir()
	fresh, err := NewPool(tg.Src, tg.Seeds, freshOpts)
	if err != nil {
		t.Fatal(err)
	}
	fresh.Run(context.Background(), 2*budget)

	// The interrupted run: first process fuzzes budget execs and is
	// "killed" (dropped — its last barrier checkpoint is durable)...
	ckptOpts := opts
	ckptOpts.CheckpointDir = t.TempDir()
	first, err := NewPool(tg.Src, tg.Seeds, ckptOpts)
	if err != nil {
		t.Fatal(err)
	}
	first.Run(context.Background(), budget)

	// ...and a second process resumes for the remaining budget.
	resumed, err := ResumePool(tg.Src, tg.Seeds, ckptOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.SpentExecs(); got != budget {
		t.Fatalf("resumed pool reports %d spent execs, checkpoint held %d", got, budget)
	}
	resumed.Run(context.Background(), budget)

	if got := resumed.SpentExecs(); got != 2*budget {
		t.Fatalf("resumed pool spent %d total, want %d", got, 2*budget)
	}
	if got := fresh.SpentExecs(); got != 2*budget {
		t.Fatalf("fresh pool spent %d total, want %d", got, 2*budget)
	}
	comparePoolFindings(t, fresh, resumed)

	// The fuzzer-level stats must agree too — resume restores the exact
	// RNG and queue positions, not just the finding sets.
	fst, rst := fresh.Stats(), resumed.Stats()
	for si := range fst.ShardStats {
		if fst.ShardStats[si] != rst.ShardStats[si] {
			t.Fatalf("shard %d stats diverged:\nfresh   %+v\nresumed %+v",
				si, fst.ShardStats[si], rst.ShardStats[si])
		}
	}
}

// TestPoolResumeEquivalence: the single-shard acceptance criterion.
func TestPoolResumeEquivalence(t *testing.T) {
	resumeEquivalence(t, 1, 900)
}

// TestPoolResumeEquivalenceSharded: the Shards=4 acceptance criterion.
func TestPoolResumeEquivalenceSharded(t *testing.T) {
	resumeEquivalence(t, 4, 600)
}

// TestPoolCancelFlushesTelemetry: context cancellation mid-campaign
// must still leave a complete plot.jsonl — a final snapshot recorded,
// flushed, and the file closed — even though Close is never called.
func TestPoolCancelFlushesTelemetry(t *testing.T) {
	tg := poolTarget(t)
	dir := t.TempDir()
	p, err := NewPool(tg.Src, tg.Seeds, Options{FuzzSeed: 7, Shards: 2, SyncEvery: 100, StatsDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.hook = func(_, si int) {
		if si >= 0 {
			cancel()
		}
	}
	stats := p.Run(ctx, 1_000_000)
	if stats.Execs >= 1_000_000 {
		t.Fatal("cancellation did not stop the pool")
	}

	data, err := os.ReadFile(filepath.Join(dir, "plot.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	snaps := p.Snapshots()
	if len(lines) != len(snaps) || len(snaps) < 2 {
		t.Fatalf("plot.jsonl has %d lines, in-memory series %d snapshots", len(lines), len(snaps))
	}
	var tail telemetry.Snapshot
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tail); err != nil {
		t.Fatalf("tail line does not parse: %v", err)
	}
	// The tail line is the final post-cancel snapshot and must match
	// the pool's final state exactly.
	want := snaps[len(snaps)-1]
	if tail.Execs != want.Execs || tail.DiffExecs != want.DiffExecs ||
		tail.UniqueDiffs != want.UniqueDiffs || tail.UniqueBuckets != want.UniqueBuckets ||
		tail.UniqueCrashes != want.UniqueCrashes || tail.Queue != want.Queue ||
		tail.ClassTotal() != want.ClassTotal() || tail.PersistErrors != want.PersistErrors {
		t.Fatalf("tail line %+v does not match final snapshot %+v", tail, want)
	}
	if tail.ClassTotal() != tail.Execs {
		t.Fatalf("tail classes sum to %d, execs %d — counters recorded mid-epoch?", tail.ClassTotal(), tail.Execs)
	}
	// The recorder was closed by Run; a second Close must be a no-op.
	if err := p.Close(); err != nil {
		t.Fatalf("Close after cancel-close: %v", err)
	}
}

// TestPoolResumeErrorClasses: each failure mode must map to its
// sentinel — no checkpoint, mismatched options, corrupt files — and a
// fresh pool must refuse a directory that already holds a checkpoint.
func TestPoolResumeErrorClasses(t *testing.T) {
	tg := poolTarget(t)

	t.Run("no-checkpoint", func(t *testing.T) {
		_, err := ResumePool(tg.Src, tg.Seeds, Options{FuzzSeed: 7, CheckpointDir: t.TempDir()})
		if !errors.Is(err, checkpoint.ErrNoCheckpoint) {
			t.Fatalf("got %v, want ErrNoCheckpoint", err)
		}
	})

	t.Run("no-dir-at-all", func(t *testing.T) {
		_, err := ResumePool(tg.Src, tg.Seeds, Options{FuzzSeed: 7})
		if err == nil || errors.Is(err, checkpoint.ErrNoCheckpoint) {
			t.Fatalf("resume without CheckpointDir: got %v, want a plain usage error", err)
		}
	})

	// One real checkpoint for the remaining cases.
	opts := Options{FuzzSeed: 7, SyncEvery: 300, CheckpointDir: t.TempDir()}
	p, err := NewPool(tg.Src, tg.Seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(context.Background(), 300)

	t.Run("mismatch", func(t *testing.T) {
		bad := opts
		bad.FuzzSeed = 8
		_, err := ResumePool(tg.Src, tg.Seeds, bad)
		if !errors.Is(err, checkpoint.ErrMismatch) {
			t.Fatalf("got %v, want ErrMismatch", err)
		}
		bad = opts
		bad.StepLimit = 12345
		if _, err := ResumePool(tg.Src, tg.Seeds, bad); !errors.Is(err, checkpoint.ErrMismatch) {
			t.Fatalf("changed StepLimit: got %v, want ErrMismatch", err)
		}
		if _, err := ResumePool(tg.Src+"\n", tg.Seeds, opts); !errors.Is(err, checkpoint.ErrMismatch) {
			t.Fatalf("changed source: got %v, want ErrMismatch", err)
		}
	})

	t.Run("refuse-clobber", func(t *testing.T) {
		_, err := NewPool(tg.Src, tg.Seeds, opts)
		if err == nil || !strings.Contains(err.Error(), "resume") {
			t.Fatalf("fresh pool over an existing checkpoint: got %v, want a refusal mentioning resume", err)
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		m, err := os.ReadFile(filepath.Join(opts.CheckpointDir, "MANIFEST.json"))
		if err != nil {
			t.Fatal(err)
		}
		var man checkpoint.Manifest
		if err := json.Unmarshal(m, &man); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(opts.CheckpointDir, man.StateFile)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ResumePool(tg.Src, tg.Seeds, opts); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
}

// TestPoolResumeRejectsNullDiffs: a checkpoint re-saved with a null
// entry in the shared diffs or in a shard's diffs loads and matches
// its options hash, and resuming it must report ErrCorrupt instead of
// dereferencing the entry.
func TestPoolResumeRejectsNullDiffs(t *testing.T) {
	tg := poolTarget(t)
	opts := Options{FuzzSeed: 7, Shards: 2, SyncEvery: 100, CheckpointDir: t.TempDir()}
	p, err := NewPool(tg.Src, tg.Seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(context.Background(), 200)
	p.Close()
	for _, c := range []struct {
		name       string
		breakState func(st *checkpoint.State)
	}{
		{"diffs", func(st *checkpoint.State) { st.Diffs = append(st.Diffs, nil) }},
		{"shard_diffs", func(st *checkpoint.State) { st.Shards[1].Diffs = append(st.Shards[1].Diffs, nil) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			st, _, err := checkpoint.Load(opts.CheckpointDir)
			if err != nil {
				t.Fatal(err)
			}
			c.breakState(st)
			saver, err := checkpoint.NewSaver(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := saver.Save(st); err != nil {
				t.Fatal(err)
			}
			bad := opts
			bad.CheckpointDir = dir
			if _, err := ResumePool(tg.Src, tg.Seeds, bad); !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("resume of a checkpoint with a null %s entry: got %v, want ErrCorrupt", c.name, err)
			}
		})
	}
}

// TestPoolCountsPersistErrors: a DiffDir whose diffs/ path cannot be
// created must not kill the campaign, but every dropped evidence file
// must be counted and surfaced through PoolStats — for a single shard
// as for several.
func TestPoolCountsPersistErrors(t *testing.T) {
	tg := poolTarget(t)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			// Occupy the diffs/ path with a regular file so persistence fails.
			if err := os.WriteFile(filepath.Join(dir, "diffs"), []byte("in the way"), 0o644); err != nil {
				t.Fatal(err)
			}

			p, err := NewPool(tg.Src, tg.Seeds, Options{FuzzSeed: 7, Shards: shards, SyncEvery: 500, DiffDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			stats := p.Run(context.Background(), 1000)
			if stats.UniqueDiffs == 0 {
				t.Fatal("campaign found no discrepancies; the persist-error check is vacuous")
			}
			if stats.PersistErrors == 0 {
				t.Fatal("persistence failures were swallowed: PoolStats.PersistErrors = 0")
			}
			// The healthy-path counterpart: a writable DiffDir reports zero.
			q, err := NewPool(tg.Src, tg.Seeds, Options{FuzzSeed: 7, Shards: shards, SyncEvery: 500, DiffDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if s := q.Run(context.Background(), 1000); s.PersistErrors != 0 {
				t.Fatalf("healthy campaign reports %d persist errors", s.PersistErrors)
			}
		})
	}
}
