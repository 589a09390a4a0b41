package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"compdiff/internal/checkpoint"
)

// validCfg is a baseline that passes validation; cases mutate it.
func validCfg() cliConfig {
	return cliConfig{
		target: "tcpdump",
		execs:  50_000,
		shards: 1,
		jobs:   1,
		san:    "none",
	}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*cliConfig)
		wantErr string // substring; "" means the config must pass
	}{
		{"baseline", func(c *cliConfig) {}, ""},
		{"src-instead-of-target", func(c *cliConfig) { c.target = ""; c.src = "p.mc" }, ""},
		{"sharded", func(c *cliConfig) { c.shards = 8; c.jobs = 4 }, ""},
		{"sharded-explicit-sync", func(c *cliConfig) { c.shards = 8; c.sync = 500; c.syncSet = true }, ""},
		{"list-skips-checks", func(c *cliConfig) { *c = cliConfig{list: true} }, ""},
		{"stats-every", func(c *cliConfig) { c.statsEvery = 1000 }, ""},
		{"checkpoint", func(c *cliConfig) { c.checkpoint = "ckpt" }, ""},
		{"checkpoint-every", func(c *cliConfig) { c.checkpoint = "ckpt"; c.ckptEvery = 4 }, ""},
		{"checkpoint-resume", func(c *cliConfig) { c.checkpoint = "ckpt"; c.resume = true }, ""},
		// -checkpoint-every 0 means "every barrier" and is the default,
		// so it must pass even without -checkpoint.
		{"default-checkpoint-every", func(c *cliConfig) { c.ckptEvery = 0 }, ""},

		{"no-input", func(c *cliConfig) { c.target = "" }, "need -target, -src, -programs, or -evolve"},
		{"both-inputs", func(c *cliConfig) { c.src = "p.mc" }, "mutually exclusive"},
		{"programs-mode", func(c *cliConfig) { c.target = ""; c.programs = "progs" }, ""},
		{"programs-and-target", func(c *cliConfig) { c.programs = "progs" }, "mutually exclusive"},
		{"programs-and-src", func(c *cliConfig) { c.target = ""; c.src = "p.mc"; c.programs = "progs" },
			"mutually exclusive"},
		{"programs-with-san", func(c *cliConfig) { c.target = ""; c.programs = "progs"; c.san = "asan" },
			"-programs campaign"},

		// Evolutionary campaigns: -evolve replaces the input modes and
		// owns the -pop / -generations knobs.
		{"evolve-mode", func(c *cliConfig) { c.target = ""; c.evolve = true; c.pop = 24; c.generations = 20 }, ""},
		{"evolve-checkpoint-resume", func(c *cliConfig) {
			c.target = ""
			c.evolve = true
			c.pop = 8
			c.generations = 4
			c.checkpoint = "ckpt"
			c.resume = true
		}, ""},
		{"evolve-zero-pop", func(c *cliConfig) { c.target = ""; c.evolve = true; c.pop = 0; c.generations = 20 },
			"-pop 0"},
		{"evolve-one-pop", func(c *cliConfig) { c.target = ""; c.evolve = true; c.pop = 1; c.generations = 20 },
			"-pop 1"},
		{"evolve-zero-generations", func(c *cliConfig) { c.target = ""; c.evolve = true; c.pop = 24; c.generations = 0 },
			"-generations 0"},
		{"evolve-negative-generations", func(c *cliConfig) { c.target = ""; c.evolve = true; c.pop = 24; c.generations = -3 },
			"-generations -3"},
		{"evolve-and-target", func(c *cliConfig) { c.evolve = true; c.pop = 24; c.generations = 20 },
			"-evolve generates its own programs"},
		{"evolve-and-src", func(c *cliConfig) {
			c.target = ""
			c.src = "p.mc"
			c.evolve = true
			c.pop = 24
			c.generations = 20
		}, "-evolve generates its own programs"},
		{"evolve-and-programs", func(c *cliConfig) {
			c.target = ""
			c.programs = "progs"
			c.evolve = true
			c.pop = 24
			c.generations = 20
		}, "-evolve generates its own programs"},
		{"evolve-with-san", func(c *cliConfig) {
			c.target = ""
			c.evolve = true
			c.pop = 24
			c.generations = 20
			c.san = "ubsan"
		}, "-evolve campaign"},
		// Input-fuzzing knobs have no effect on program campaigns; they
		// are rejected rather than silently ignored.
		{"programs-heartbeat", func(c *cliConfig) {
			c.target = ""
			c.programs = "progs"
			c.checkpoint = "ckpt"
			c.heartbeat = "hb.json"
		}, "-heartbeat only applies to input fuzzing, not to -programs campaigns"},
		{"programs-diffdir", func(c *cliConfig) { c.target = ""; c.programs = "progs"; c.diffdir = "d" },
			"-diffdir only applies to input fuzzing, not to -programs campaigns"},
		{"programs-batch", func(c *cliConfig) { c.target = ""; c.programs = "progs"; c.batch = 64 },
			"-batch only applies to input fuzzing, not to -programs campaigns"},
		{"programs-batch-one", func(c *cliConfig) { c.target = ""; c.programs = "progs"; c.batch = 1 }, ""},
		{"programs-stats-every", func(c *cliConfig) { c.target = ""; c.programs = "progs"; c.statsEvery = 5 },
			"-stats-every only applies to input fuzzing, not to -programs campaigns"},
		{"evolve-heartbeat", func(c *cliConfig) {
			c.target = ""
			c.evolve = true
			c.pop = 8
			c.generations = 4
			c.checkpoint = "ckpt"
			c.heartbeat = "hb.json"
		}, "-heartbeat only applies to input fuzzing, not to -evolve campaigns"},
		{"evolve-diffdir", func(c *cliConfig) {
			c.target = ""
			c.evolve = true
			c.pop = 8
			c.generations = 4
			c.diffdir = "d"
		}, "-diffdir only applies to input fuzzing, not to -evolve campaigns"},
		{"evolve-batch", func(c *cliConfig) {
			c.target = ""
			c.evolve = true
			c.pop = 8
			c.generations = 4
			c.batch = 64
		}, "-batch only applies to input fuzzing, not to -evolve campaigns"},
		{"evolve-stats-every", func(c *cliConfig) {
			c.target = ""
			c.evolve = true
			c.pop = 8
			c.generations = 4
			c.statsEvery = 5
		}, "-stats-every only applies to input fuzzing, not to -evolve campaigns"},
		{"pop-without-evolve", func(c *cliConfig) { c.pop = 24; c.popSet = true },
			"only make sense with -evolve"},
		{"generations-without-evolve", func(c *cliConfig) { c.generations = 20; c.gensSet = true },
			"only make sense with -evolve"},
		{"evolve-execs-total", func(c *cliConfig) {
			c.target = ""
			c.evolve = true
			c.pop = 24
			c.generations = 20
			c.checkpoint = "ckpt"
			c.execsTotal = 100
		}, "bounded by -pop"},
		{"serve-evolve", func(c *cliConfig) {
			c.serve = ":0"
			c.farm = "farm"
			c.workers = 2
			c.evolve = true
			c.pop = 24
			c.generations = 20
		}, "-evolve campaigns run standalone"},
		{"zero-execs", func(c *cliConfig) { c.execs = 0 }, "-execs 0"},
		{"negative-execs", func(c *cliConfig) { c.execs = -10 }, "-execs -10"},
		{"zero-shards", func(c *cliConfig) { c.shards = 0 }, "-shards 0"},
		{"negative-shards", func(c *cliConfig) { c.shards = -2 }, "-shards -2"},
		{"zero-jobs", func(c *cliConfig) { c.jobs = 0 }, "-jobs 0"},
		{"negative-jobs", func(c *cliConfig) { c.jobs = -4 }, "-jobs -4"},
		{"negative-sync", func(c *cliConfig) { c.sync = -1 }, "-sync -1"},
		{"explicit-sync-zero-sharded", func(c *cliConfig) { c.shards = 4; c.sync = 0; c.syncSet = true },
			"disable the synchronization barriers"},
		// The default -sync 0 (not explicitly set) on a sharded run is
		// fine: the pool picks budget/8.
		{"default-sync-zero-sharded", func(c *cliConfig) { c.shards = 4 }, ""},
		// An explicit -sync 0 on a single shard is also fine: there are
		// no barriers to disable.
		{"explicit-sync-zero-solo", func(c *cliConfig) { c.sync = 0; c.syncSet = true }, ""},
		{"negative-stats-every", func(c *cliConfig) { c.statsEvery = -5 }, "-stats-every -5"},
		// Periodic snapshots come from inside a single shard; a sharded
		// pool snapshots at its barriers only.
		{"stats-every-checkpoint", func(c *cliConfig) { c.statsEvery = 400; c.checkpoint = "ckpt" }, ""},
		{"stats-every-sharded", func(c *cliConfig) { c.statsEvery = 400; c.shards = 2 },
			"-stats-every needs -shards 1"},
		{"serve-stats-every-sharded", func(c *cliConfig) {
			c.serve = ":0"
			c.farm = "farm"
			c.workers = 2
			c.shards = 2
			c.statsEvery = 400
		}, "-stats-every needs -shards 1"},
		{"bad-san", func(c *cliConfig) { c.san = "tsan" }, `-san "tsan"`},
		{"negative-checkpoint-every", func(c *cliConfig) { c.checkpoint = "ckpt"; c.ckptEvery = -3 },
			"-checkpoint-every -3"},
		{"checkpoint-every-without-dir", func(c *cliConfig) { c.ckptEvery = 4 },
			"-checkpoint-every needs -checkpoint"},
		{"resume-without-dir", func(c *cliConfig) { c.resume = true },
			"-resume needs -checkpoint"},

		// Cumulative budgets and heartbeats ride on the checkpoint.
		{"execs-total", func(c *cliConfig) { c.checkpoint = "ckpt"; c.execsTotal = 100_000 }, ""},
		{"execs-total-without-checkpoint", func(c *cliConfig) { c.execsTotal = 100_000 },
			"-execs-total needs -checkpoint"},
		{"negative-execs-total", func(c *cliConfig) { c.checkpoint = "ckpt"; c.execsTotal = -1 },
			"-execs-total -1"},
		{"execs-total-programs", func(c *cliConfig) {
			c.target = ""
			c.programs = "progs"
			c.checkpoint = "ckpt"
			c.execsTotal = 100
		}, "bounded by the corpus"},
		{"heartbeat", func(c *cliConfig) { c.checkpoint = "ckpt"; c.heartbeat = "hb.json" }, ""},
		{"heartbeat-without-checkpoint", func(c *cliConfig) { c.heartbeat = "hb.json" },
			"-heartbeat needs -checkpoint"},

		// Farm mode: -serve drives workers; per-worker paths are derived.
		{"serve", func(c *cliConfig) { c.serve = ":0"; c.farm = "farm"; c.workers = 2 }, ""},
		{"serve-src", func(c *cliConfig) {
			c.target = ""
			c.src = "p.mc"
			c.serve = ":0"
			c.farm = "farm"
			c.workers = 4
		}, ""},
		{"serve-execs-total", func(c *cliConfig) {
			c.serve = ":0"
			c.farm = "farm"
			c.workers = 2
			c.execsTotal = 100_000
		}, ""},
		// Workers get a derived -checkpoint, so their cadence may be set.
		{"serve-checkpoint-every", func(c *cliConfig) {
			c.serve = ":0"
			c.farm = "farm"
			c.workers = 2
			c.ckptEvery = 3
		}, ""},
		{"serve-without-farm", func(c *cliConfig) { c.serve = ":0"; c.workers = 2 },
			"-serve needs -farm"},
		{"serve-without-input", func(c *cliConfig) {
			c.target = ""
			c.serve = ":0"
			c.farm = "farm"
			c.workers = 2
		}, "-serve needs -target or -src"},
		{"serve-zero-workers", func(c *cliConfig) { c.serve = ":0"; c.farm = "farm"; c.workers = 0 },
			"-workers 0"},
		{"serve-programs", func(c *cliConfig) {
			c.target = ""
			c.programs = "progs"
			c.serve = ":0"
			c.farm = "farm"
			c.workers = 2
		}, "-programs campaigns run standalone"},
		{"serve-explicit-checkpoint", func(c *cliConfig) {
			c.serve = ":0"
			c.farm = "farm"
			c.workers = 2
			c.checkpoint = "ckpt"
		}, "per-worker under -serve"},
		{"serve-explicit-heartbeat", func(c *cliConfig) {
			c.serve = ":0"
			c.farm = "farm"
			c.workers = 2
			c.heartbeat = "hb.json"
		}, "per-worker under -serve"},
		{"serve-explicit-diffdir", func(c *cliConfig) {
			c.serve = ":0"
			c.farm = "farm"
			c.workers = 2
			c.diffdir = "diffs"
		}, "per-worker under -serve"},
		{"serve-explicit-stats", func(c *cliConfig) {
			c.serve = ":0"
			c.farm = "farm"
			c.workers = 2
			c.statsDir = "stats"
		}, "per-worker under -serve"},
		{"serve-resume", func(c *cliConfig) {
			c.serve = ":0"
			c.farm = "farm"
			c.workers = 2
			c.resume = true
		}, "-resume is implicit under -serve"},
		{"farm-without-serve", func(c *cliConfig) { c.farm = "farm" },
			"-farm only makes sense with -serve"},
		{"workers-without-serve", func(c *cliConfig) { c.workers = 4; c.workersSet = true },
			"-workers only makes sense with -serve"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validCfg()
			tc.mutate(&cfg)
			err := cfg.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate(%+v) = %v, want nil", cfg, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate(%+v) = nil, want error containing %q", cfg, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate(%+v) = %q, want substring %q", cfg, err, tc.wantErr)
			}
		})
	}
}

// TestWorkerArgsForwardFlags: every input-fuzzing flag set on the farm
// supervisor must reach the worker command line, or workers silently
// fuzz with defaults.
func TestWorkerArgsForwardFlags(t *testing.T) {
	cases := []struct {
		flag, value string
		mutate      func(*cliConfig)
	}{
		{"-batch", "64", func(c *cliConfig) { c.batch = 64 }},
		{"-stats-every", "400", func(c *cliConfig) { c.statsEvery = 400 }},
		{"-san", "asan", func(c *cliConfig) { c.san = "asan" }},
		{"-sync", "250", func(c *cliConfig) { c.sync = 250; c.syncSet = true }},
		{"-checkpoint-every", "3", func(c *cliConfig) { c.ckptEvery = 3 }},
		{"-shards", "4", func(c *cliConfig) { c.shards = 4 }},
		{"-jobs", "2", func(c *cliConfig) { c.jobs = 2 }},
	}
	dirs := checkpoint.WorkerLayout("farm", 1)
	for _, tc := range cases {
		t.Run(tc.flag, func(t *testing.T) {
			cfg := validCfg()
			cfg.serve, cfg.farm, cfg.workers = ":0", "farm", 2
			tc.mutate(&cfg)
			if err := cfg.validate(); err != nil {
				t.Fatalf("supervisor config rejected: %v", err)
			}
			args := workerArgs(cfg, &seedList{}, 1, dirs)
			i := slices.Index(args, tc.flag)
			if i < 0 || i+1 >= len(args) || args[i+1] != tc.value {
				t.Fatalf("worker argv %q does not carry %s %s", args, tc.flag, tc.value)
			}
		})
	}
}

// TestSummaryReportsCheckpointErrors: every campaign summary carries the
// failed-checkpoint count, zero for a healthy checkpoint directory.
func TestSummaryReportsCheckpointErrors(t *testing.T) {
	modes := map[string][]string{
		"fuzz":     {"-target", "readelf", "-execs", "300", "-sync", "100"},
		"programs": {"-programs", filepath.Join("..", "..", "testdata", "golden"), "-sync", "4"},
		"evolve":   {"-evolve", "-pop", "4", "-generations", "2"},
	}
	for name, args := range modes {
		var stdout, stderr bytes.Buffer
		if code := realMain(append(args, "-checkpoint", t.TempDir()), &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d: %s", name, code, stderr.String())
		}
		if !regexp.MustCompile(`(?m)^ckpt errors    : 0$`).MatchString(stdout.String()) {
			t.Fatalf("%s: summary lacks a zero checkpoint-error line:\n%s", name, stdout.String())
		}
	}
}

// TestSummaryReportsPlotWriteErrors: every campaign summary carries the
// plot-write error count, zero for a healthy -stats directory and
// non-zero when plot.jsonl sits on a full device.
func TestSummaryReportsPlotWriteErrors(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	modes := map[string][]string{
		"fuzz":   {"-target", "readelf", "-execs", "300"},
		"evolve": {"-evolve", "-pop", "4", "-generations", "2"},
	}
	line := regexp.MustCompile(`(?m)^plot errors    : (\d+)$`)
	for name, args := range modes {
		for _, full := range []bool{false, true} {
			stats := t.TempDir()
			if full {
				if err := os.Symlink("/dev/full", filepath.Join(stats, "plot.jsonl")); err != nil {
					t.Fatal(err)
				}
			}
			var stdout, stderr bytes.Buffer
			if code := realMain(append(args, "-stats", stats), &stdout, &stderr); code != 0 {
				t.Fatalf("%s: exit %d: %s", name, code, stderr.String())
			}
			m := line.FindStringSubmatch(stdout.String())
			if m == nil || (m[1] != "0") == !full {
				t.Fatalf("%s (full device %v): summary plot-error line %q", name, full, m)
			}
		}
	}
}
