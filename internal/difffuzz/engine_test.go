package difffuzz

// Generic campaign-engine tests: one table over the three campaign
// modes (input fuzzing, compile oracle, evolution) checks the
// properties the engine owns for all of them — resume error classes,
// survival of a kill at any file operation of a barrier save,
// lossless restore, the telemetry flush on cancellation, and that a
// failed construction or resume leaves no file descriptor open.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"

	"compdiff/internal/checkpoint"
	"compdiff/internal/targets"
	"compdiff/internal/telemetry"
)

// modeCampaign is one constructed campaign as the generic tests see
// it: the engine it embeds, a run-to-completion entry point, and a
// fingerprint of everything an equivalent campaign must reproduce.
type modeCampaign struct {
	eng         *engine
	run         func(ctx context.Context)
	fingerprint func() string
	// plotWriteErrors and checkpointErrors read the mode's
	// Stats().PlotWriteErrors and Stats().CheckpointErrors.
	plotWriteErrors  func() int64
	checkpointErrors func() int64
}

// engineMode is one campaign mode under test. Every mode's campaign
// runs four or more barriers.
type engineMode struct {
	name string
	// open builds a fresh campaign, or resumes one, with the given
	// checkpoint and stats directories (either may be empty).
	open func(resume bool, ckptDir, statsDir string) (*modeCampaign, error)
	// mismatch resumes over ckptDir with one determinism-relevant
	// option changed.
	mismatch func(ckptDir string) error
	// breakState puts one out-of-range field into a loaded checkpoint.
	breakState func(st *checkpoint.State)
}

func engineModes() []engineMode {
	tg := targets.ByName("readelf")
	poolOpts := func(ckpt, stats string) Options {
		return Options{FuzzSeed: 7, Shards: 2, SyncEvery: 100, CheckpointDir: ckpt, StatsDir: stats}
	}
	compileOpts := func(ckpt, stats string) CompilePoolOptions {
		return CompilePoolOptions{Shards: 2, SyncEvery: 2, CheckpointDir: ckpt, StatsDir: stats}
	}
	evolveOpts := func(ckpt, stats string) EvolvePoolOptions {
		o := evolveTestOpts()
		o.Shards, o.CheckpointDir, o.StatsDir = 2, ckpt, stats
		return o
	}
	return []engineMode{
		{
			name: "pool",
			open: func(resume bool, ckpt, stats string) (*modeCampaign, error) {
				build := NewPool
				if resume {
					build = ResumePool
				}
				p, err := build(tg.Src, tg.Seeds, poolOpts(ckpt, stats))
				if err != nil {
					return nil, err
				}
				return &modeCampaign{
					eng: &p.engine,
					run: func(ctx context.Context) { p.Run(ctx, 400-p.SpentExecs()) },
					fingerprint: func() string {
						var diffs []string // shared-store order, with counts
						for _, d := range p.Diffs() {
							diffs = append(diffs, fmt.Sprintf("%016x:%d", d.Signature, d.Count))
						}
						return fmt.Sprint(p.Stats(), p.Signatures(), p.BucketKeys(), p.BucketStore().Counts(), diffs)
					},
					plotWriteErrors:  func() int64 { return p.Stats().PlotWriteErrors },
					checkpointErrors: func() int64 { return p.Stats().CheckpointErrors },
				}, nil
			},
			mismatch: func(ckpt string) error {
				o := poolOpts(ckpt, "")
				o.FuzzSeed++
				_, err := ResumePool(tg.Src, tg.Seeds, o)
				return err
			},
			breakState: func(st *checkpoint.State) { st.Shards[0].Index = 5 },
		},
		{
			name: "compile",
			open: func(resume bool, ckpt, stats string) (*modeCampaign, error) {
				build := NewCompilePool
				if resume {
					build = ResumeCompilePool
				}
				p, err := build(compileCorpus(), compileOpts(ckpt, stats))
				if err != nil {
					return nil, err
				}
				return &modeCampaign{
					eng: &p.engine,
					run: func(ctx context.Context) { p.Run(ctx) },
					fingerprint: func() string {
						return fmt.Sprint(p.Stats(), p.BucketKeys(), p.BucketStore().Counts())
					},
					plotWriteErrors:  func() int64 { return p.Stats().PlotWriteErrors },
					checkpointErrors: func() int64 { return p.Stats().CheckpointErrors },
				}, nil
			},
			mismatch: func(ckpt string) error {
				o := compileOpts(ckpt, "")
				o.SyncEvery++
				_, err := ResumeCompilePool(compileCorpus(), o)
				return err
			},
			breakState: func(st *checkpoint.State) { st.Compile.Cursor = -1 },
		},
		{
			name: "evolve",
			open: func(resume bool, ckpt, stats string) (*modeCampaign, error) {
				build := NewEvolvePool
				if resume {
					build = ResumeEvolvePool
				}
				p, err := build(evolveOpts(ckpt, stats))
				if err != nil {
					return nil, err
				}
				return &modeCampaign{
					eng: &p.engine,
					run: func(ctx context.Context) { p.Run(ctx) },
					fingerprint: func() string {
						return fmt.Sprint(p.Stats(), p.BucketKeys(), p.BucketStore().Counts(), p.PassCoverageBits())
					},
					plotWriteErrors:  func() int64 { return p.Stats().PlotWriteErrors },
					checkpointErrors: func() int64 { return p.Stats().CheckpointErrors },
				}, nil
			},
			mismatch: func(ckpt string) error {
				o := evolveOpts(ckpt, "")
				o.Seed++
				_, err := ResumeEvolvePool(o)
				return err
			},
			breakState: func(st *checkpoint.State) { st.Evolve.Generation = -1 },
		},
	}
}

func mustOpen(t *testing.T, m engineMode, resume bool, ckptDir, statsDir string) *modeCampaign {
	t.Helper()
	c, err := m.open(resume, ckptDir, statsDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.eng.Close() })
	return c
}

// flipStateByte corrupts the current state file behind the manifest's
// back, as bit rot would.
func flipStateByte(t *testing.T, dir string) {
	t.Helper()
	man, err := checkpoint.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, man.StateFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestEngineResumeErrorClasses: each failure mode maps to its sentinel
// — no checkpoint, mismatched options, corrupt files — resuming without
// a directory is a plain usage error, and a fresh campaign refuses a
// directory that already holds a checkpoint.
func TestEngineResumeErrorClasses(t *testing.T) {
	for _, m := range engineModes() {
		t.Run(m.name, func(t *testing.T) {
			t.Run("no-checkpoint", func(t *testing.T) {
				if _, err := m.open(true, t.TempDir(), ""); !errors.Is(err, checkpoint.ErrNoCheckpoint) {
					t.Fatalf("got %v, want ErrNoCheckpoint", err)
				}
			})
			t.Run("no-dir", func(t *testing.T) {
				if _, err := m.open(true, "", ""); err == nil || errors.Is(err, checkpoint.ErrNoCheckpoint) {
					t.Fatalf("resume without a checkpoint directory: got %v, want a plain usage error", err)
				}
			})

			dir := t.TempDir()
			mustOpen(t, m, false, dir, "").run(context.Background())

			t.Run("mismatch", func(t *testing.T) {
				if err := m.mismatch(dir); !errors.Is(err, checkpoint.ErrMismatch) {
					t.Fatalf("got %v, want ErrMismatch", err)
				}
			})
			t.Run("refuse-overwrite", func(t *testing.T) {
				if _, err := m.open(false, dir, ""); err == nil || !strings.Contains(err.Error(), "resume") {
					t.Fatalf("fresh campaign over an existing checkpoint: got %v, want a refusal mentioning resume", err)
				}
			})
			t.Run("corrupt", func(t *testing.T) {
				flipStateByte(t, dir)
				if _, err := m.open(true, dir, ""); !errors.Is(err, checkpoint.ErrCorrupt) {
					t.Fatalf("got %v, want ErrCorrupt", err)
				}
			})
		})
	}
}

// TestEngineCheckpointFaultInjection kills the saver at assorted file
// operations during the third barrier's save — the moments a SIGKILL
// would hit — and checks the directory still loads the previous or the
// new checkpoint, and that resuming from it ends exactly where an
// uninterrupted campaign ends.
func TestEngineCheckpointFaultInjection(t *testing.T) {
	for _, m := range engineModes() {
		t.Run(m.name, func(t *testing.T) {
			fresh := mustOpen(t, m, false, t.TempDir(), "")
			fresh.run(context.Background())
			want := fresh.fingerprint()
			if len(fresh.eng.BucketKeys()) == 0 {
				t.Fatal("fresh campaign found nothing; the equivalence check is vacuous")
			}

			for _, ops := range []int{0, 2, 6} {
				dir := t.TempDir()
				first := mustOpen(t, m, false, dir, "")
				var spent []int64
				first.eng.barrierHook = func() { spent = append(spent, first.eng.state().SpentExecs) }
				ctx, cancel := context.WithCancel(context.Background())
				first.eng.hook = func(epoch, shard int) {
					switch {
					case shard >= 0:
					case epoch == 2:
						first.eng.saver.InjectFault(ops)
					case epoch == 3:
						cancel()
					}
				}
				first.run(ctx)
				cancel()

				st, _, err := checkpoint.Load(dir)
				if err != nil {
					t.Fatalf("ops=%d: torn save corrupted the directory: %v", ops, err)
				}
				if len(spent) != 3 || (st.SpentExecs != spent[1] && st.SpentExecs != spent[2]) {
					t.Fatalf("ops=%d: loadable checkpoint holds progress %d, barriers reached %v (want the 2nd or 3rd)",
						ops, st.SpentExecs, spent)
				}
				resumed := mustOpen(t, m, true, dir, "")
				resumed.run(context.Background())
				if got := resumed.fingerprint(); got != want {
					t.Fatalf("ops=%d: resumed campaign diverged:\nfresh   %s\nresumed %s", ops, want, got)
				}
			}
		})
	}
}

// TestEngineReExportIdentical: loading a checkpoint into a resumed
// campaign and exporting again reproduces the state byte for byte —
// nothing is lost or reinterpreted on the way through restore. Stats
// are on, so the pool's telemetry counters ride along.
func TestEngineReExportIdentical(t *testing.T) {
	for _, m := range engineModes() {
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			mustOpen(t, m, false, dir, t.TempDir()).run(context.Background())
			want, _, err := checkpoint.Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			resumed := mustOpen(t, m, true, dir, t.TempDir())
			wb, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			gb, err := json.Marshal(resumed.eng.state())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wb, gb) {
				t.Fatalf("re-exported state differs from the loaded checkpoint:\nloaded    %s\nre-export %s", wb, gb)
			}
		})
	}
}

// TestEngineCancelFlushesTelemetry: a cancelled campaign leaves a
// complete plot.jsonl — one line per barrier plus the final post-cancel
// snapshot, flushed, the file closed — even though Close is never
// called before the file is read.
func TestEngineCancelFlushesTelemetry(t *testing.T) {
	for _, m := range engineModes() {
		t.Run(m.name, func(t *testing.T) {
			stats := t.TempDir()
			c := mustOpen(t, m, false, "", stats)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			c.eng.hook = func(epoch, shard int) {
				if epoch == 2 && shard < 0 {
					cancel()
				}
			}
			c.run(ctx)

			data, err := os.ReadFile(filepath.Join(stats, "plot.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			snaps := c.eng.Snapshots()
			if len(lines) != 3 || len(snaps) != 3 {
				t.Fatalf("plot.jsonl has %d lines, in-memory series %d; want 3 (2 barriers + post-cancel flush)",
					len(lines), len(snaps))
			}
			var tail telemetry.Snapshot
			if err := json.Unmarshal([]byte(lines[2]), &tail); err != nil {
				t.Fatalf("tail line does not parse: %v", err)
			}
			if !reflect.DeepEqual(tail, snaps[2]) {
				t.Fatalf("tail line %+v does not match the final snapshot %+v", tail, snaps[2])
			}
			// The cancelled run closed the recorder; Close is a no-op.
			if err := c.eng.Close(); err != nil {
				t.Fatalf("Close after cancel-close: %v", err)
			}
		})
	}
}

// TestEnginePlotWriteErrors: a plot file on a full device loses every
// line. The campaign still completes with its full in-memory series,
// and every mode's Stats counts each lost line, plus the final flush
// when the device also refuses it.
func TestEnginePlotWriteErrors(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	for _, m := range engineModes() {
		t.Run(m.name, func(t *testing.T) {
			stats := t.TempDir()
			if err := os.Symlink("/dev/full", filepath.Join(stats, "plot.jsonl")); err != nil {
				t.Fatal(err)
			}
			c := mustOpen(t, m, false, "", stats)
			c.run(context.Background())
			lines := int64(len(c.eng.Snapshots()))
			if got := c.plotWriteErrors(); lines == 0 || got < lines || got > lines+1 {
				t.Fatalf("PlotWriteErrors = %d with %d lost lines; want the lines plus at most the flush", got, lines)
			}
		})
	}
	for _, m := range engineModes() {
		c := mustOpen(t, m, false, "", t.TempDir())
		c.run(context.Background())
		if got := c.plotWriteErrors(); got != 0 {
			t.Fatalf("%s: healthy plot file reports %d write errors", m.name, got)
		}
	}
}

// TestEngineCheckpointErrors: a saver killed before the first save
// fails every later one. The campaign still runs to the end, and every
// mode's Stats counts each failed barrier save, where a healthy run
// counts none.
func TestEngineCheckpointErrors(t *testing.T) {
	for _, m := range engineModes() {
		t.Run(m.name, func(t *testing.T) {
			c := mustOpen(t, m, false, t.TempDir(), "")
			barriers := 0
			c.eng.barrierHook = func() { barriers++ }
			c.eng.saver.InjectFault(0)
			c.run(context.Background())
			if got := c.checkpointErrors(); barriers < 4 || got != int64(barriers) {
				t.Fatalf("CheckpointErrors = %d after %d failed barrier saves", got, barriers)
			}
			if seq := c.eng.CheckpointSeq(); seq != 0 {
				t.Fatalf("CheckpointSeq = %d with every save failing", seq)
			}

			healthy := mustOpen(t, m, false, t.TempDir(), "")
			healthy.run(context.Background())
			if got := healthy.checkpointErrors(); got != 0 || healthy.eng.CheckpointSeq() == 0 {
				t.Fatalf("healthy campaign: CheckpointErrors = %d, CheckpointSeq = %d", got, healthy.eng.CheckpointSeq())
			}
		})
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count file descriptors: %v", err)
	}
	return len(fds)
}

// TestEngineFailedOpenClosesRecorder is the regression test for the
// leaked plot.jsonl handle: a resume whose restore fails (ErrCorrupt),
// and a construction whose checkpoint saver fails, must leave no file
// descriptor open, even with a stats directory set.
func TestEngineFailedOpenClosesRecorder(t *testing.T) {
	openFDs(t)
	for _, m := range engineModes() {
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			mustOpen(t, m, false, dir, "").run(context.Background())
			// Re-save the loaded state with one out-of-range field under
			// its original options hash: it loads and matches, then fails
			// to restore.
			st, _, err := checkpoint.Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			m.breakState(st)
			saver, err := checkpoint.NewSaver(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := saver.Save(st); err != nil {
				t.Fatal(err)
			}
			// A regular file where the checkpoint directory's parent
			// should be makes the saver fail.
			blocked := filepath.Join(t.TempDir(), "file")
			if err := os.WriteFile(blocked, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			attempt := func() {
				if _, err := m.open(true, dir, t.TempDir()); !errors.Is(err, checkpoint.ErrCorrupt) {
					t.Fatalf("resume of a broken state: got %v, want ErrCorrupt", err)
				}
				if _, err := m.open(false, filepath.Join(blocked, "ckpt"), t.TempDir()); err == nil {
					t.Fatal("construction over an uncreatable checkpoint directory succeeded")
				}
			}
			attempt() // warm-up: the runtime may open descriptors on first use
			// Without a collection, no finalizer can close a leaked file.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			before := openFDs(t)
			for i := 0; i < 5; i++ {
				attempt()
			}
			if after := openFDs(t); after > before {
				t.Fatalf("five failed opens grew the open descriptors from %d to %d", before, after)
			}
		})
	}
}
