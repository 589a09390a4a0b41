// Command compdiff-fuzz runs a CompDiff-AFL++ campaign (paper §3.2,
// Algorithm 1) against a MiniC program or one of the built-in
// real-world targets — either as a single process or as a supervised
// farm of worker processes with an HTTP control plane.
//
// Usage:
//
//	compdiff-fuzz -target tcpdump -execs 50000
//	compdiff-fuzz -src prog.mc -seedfile s1 -seedfile s2 -execs 100000
//	compdiff-fuzz -evolve -pop 24 -generations 20 -stats out
//	compdiff-fuzz -serve :8080 -farm /tmp/farm -workers 4 -target tcpdump -execs-total 200000
//
// Flags:
//
//	-target NAME    fuzz a built-in target (see -list)
//	-src FILE       fuzz a MiniC source file
//	-programs DIR   compile-oracle campaign over every *.mc program in
//	                DIR: accept/reject divergences, internal compiler
//	                errors, and diagnostic mismatches become triage
//	                buckets; universally-accepted programs are
//	                cross-checked at runtime on the empty input
//	-evolve         evolutionary coverage-directed campaign: a
//	                population of generated programs is scored by
//	                optimizer-pass coverage, divergence proximity, and
//	                parsimony, then bred with unstable-code idiom
//	                mutations; findings land in the usual triage buckets
//	-pop N          population size (with -evolve; default 24)
//	-generations N  generations to evolve (with -evolve; default 20)
//	-execs N        execution budget on the instrumented binary
//	                (per shard when -shards > 1)
//	-execs-total N  cumulative per-shard budget across resumes: a
//	                resumed campaign runs only the remainder (needs
//	                -checkpoint)
//	-seed N         fuzzer RNG seed
//	-shards N       parallel fuzzer instances, AFL -M/-S style
//	-jobs N         worker goroutines per differential cross-check
//	-sync N         executions between shard synchronization barriers
//	-san MODE       sanitizer on the fuzzing binary: none|asan|ubsan|msan
//	-diffdir DIR    persist diverging inputs under DIR/diffs/
//	-stats DIR      record AFL-plot-style snapshots to DIR/plot.jsonl
//	                and print a per-implementation summary table
//	-stats-every N  snapshot every N generated inputs (-shards 1 only;
//	                sharded pools snapshot at every barrier)
//	-checkpoint DIR write a crash-safe campaign snapshot under DIR at
//	                every synchronization barrier
//	-checkpoint-every N
//	                barriers between snapshots (default 1)
//	-resume         continue the campaign checkpointed in -checkpoint DIR
//	                (falls back to a fresh start when DIR has none)
//	-heartbeat FILE atomically rewrite FILE with a status record at
//	                every barrier (needs -checkpoint; the supervisor
//	                uses it as the live progress watermark)
//	-serve ADDR     supervise a worker farm and serve the HTTP control
//	                plane on ADDR (GET /healthz /stats /plot /buckets
//	                /findings /events, POST /pause /resume /reshard)
//	-farm DIR       farm root directory (with -serve)
//	-workers N      worker processes to supervise (with -serve)
//	-list           list built-in targets and exit
//
// -san, -diffdir, -batch, -stats-every, and -heartbeat tune input
// fuzzing; -programs and -evolve campaigns reject them.
//
// Exit codes: 0 on success, 2 for command-line misuse (bad flags,
// unknown -target, mutually exclusive modes, or -resume against a
// checkpoint written with different source/seeds/options), 1 for
// runtime failures (unreadable files, corrupt checkpoints, worker
// fleets that end with failed workers).
//
// With -shards > 1 or -checkpoint set, SIGINT/SIGTERM cancels the
// campaign gracefully at the next synchronization barrier, writes a
// final checkpoint (when enabled), and prints what was found so far.
// Under -serve the signal drains every worker the same way before the
// supervisor exits; kill -9 of a worker loses at most one barrier
// interval, which the restarted worker replays from its checkpoint.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"text/tabwriter"
	"time"

	"compdiff"
	"compdiff/internal/checkpoint"
	"compdiff/internal/fuzz"
	"compdiff/internal/progcache"
	"compdiff/internal/supervisor"
	"compdiff/internal/targets"
	"compdiff/internal/telemetry"
)

// seedList collects -seedfile flags, keeping both the contents (for
// in-process campaigns) and the paths (so -serve can hand the same
// corpus to worker processes by path).
type seedList struct {
	paths []string
	data  [][]byte
}

func (s *seedList) String() string { return fmt.Sprintf("%d seeds", len(s.data)) }
func (s *seedList) Set(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	s.paths = append(s.paths, path)
	s.data = append(s.data, data)
	return nil
}

// usageError marks command-line misuse: realMain maps it to exit 2,
// every other error to exit 1.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// cliConfig holds every flag value that validation looks at. Keeping
// it a plain struct keeps validate a pure function the tests can
// drive without touching the flag package or os.Args.
type cliConfig struct {
	target      string
	src         string
	programs    string
	evolve      bool
	pop         int
	popSet      bool // -pop was given explicitly
	generations int
	gensSet     bool // -generations was given explicitly
	execs       int64
	execsTotal  int64
	seed        int64
	shards      int
	jobs        int
	batch       int
	sync        int64
	syncSet     bool // -sync was given explicitly
	san         string
	diffdir     string
	statsDir    string
	statsEvery  int64
	checkpoint  string
	ckptEvery   int64
	resume      bool
	heartbeat   string
	serve       string
	farm        string
	workers     int
	workersSet  bool // -workers was given explicitly
	list        bool
}

// validate rejects nonsensical flag combinations up front — before
// they reach the engine, where a zero shard count or a negative worker
// count would be silently reinterpreted rather than diagnosed.
func (c cliConfig) validate() error {
	if c.list {
		return nil
	}
	if c.serve != "" {
		if c.programs != "" {
			return fmt.Errorf("-serve supervises input-fuzzing workers; -programs campaigns run standalone")
		}
		if c.evolve {
			return fmt.Errorf("-serve supervises input-fuzzing workers; -evolve campaigns run standalone")
		}
		if c.target == "" && c.src == "" {
			return fmt.Errorf("-serve needs -target or -src for its workers")
		}
		if c.farm == "" {
			return fmt.Errorf("-serve needs -farm DIR to hold the worker subtrees")
		}
		if c.workers < 1 {
			return fmt.Errorf("-workers %d: a farm needs at least one worker", c.workers)
		}
		// Per-worker observability paths are derived from the farm
		// layout; explicit ones would make every worker fight over one
		// file.
		for flagName, v := range map[string]string{
			"-checkpoint": c.checkpoint, "-stats": c.statsDir,
			"-diffdir": c.diffdir, "-heartbeat": c.heartbeat,
		} {
			if v != "" {
				return fmt.Errorf("%s is per-worker under -serve; the farm layout derives it from -farm", flagName)
			}
		}
		if c.resume {
			return fmt.Errorf("-resume is implicit under -serve: workers always resume their own checkpoints")
		}
	} else {
		if c.farm != "" {
			return fmt.Errorf("-farm only makes sense with -serve")
		}
		if c.workersSet {
			return fmt.Errorf("-workers only makes sense with -serve")
		}
	}
	if c.target == "" && c.src == "" && c.programs == "" && !c.evolve {
		return fmt.Errorf("need -target, -src, -programs, or -evolve (or -list)")
	}
	if (c.target != "" && c.src != "") || (c.programs != "" && (c.target != "" || c.src != "")) {
		return fmt.Errorf("-target, -src, and -programs are mutually exclusive")
	}
	if c.evolve && (c.target != "" || c.src != "" || c.programs != "") {
		return fmt.Errorf("-evolve generates its own programs; it excludes -target, -src, and -programs")
	}
	if !c.evolve && (c.popSet || c.gensSet) {
		return fmt.Errorf("-pop and -generations only make sense with -evolve")
	}
	if c.evolve {
		if c.pop < 2 {
			return fmt.Errorf("-pop %d: an evolutionary population needs at least 2 genomes", c.pop)
		}
		if c.generations < 1 {
			return fmt.Errorf("-generations %d: an evolutionary campaign needs at least 1 generation", c.generations)
		}
	}
	if c.programs != "" || c.evolve {
		mode := "-programs"
		if c.evolve {
			mode = "-evolve"
		}
		// Input-fuzzing knobs: a program campaign has no fuzzing binary,
		// no diverging inputs, and no barrier heartbeat, so these would
		// be silently ignored.
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"-san", c.san != "none"}, {"-heartbeat", c.heartbeat != ""}, {"-diffdir", c.diffdir != ""},
			{"-batch", c.batch > 1}, {"-stats-every", c.statsEvery > 0},
		} {
			if f.set {
				return fmt.Errorf("%s only applies to input fuzzing, not to %s campaigns", f.name, mode)
			}
		}
	}
	if c.execs < 1 {
		return fmt.Errorf("-execs %d: the execution budget must be at least 1", c.execs)
	}
	if c.execsTotal < 0 {
		return fmt.Errorf("-execs-total %d: the cumulative budget cannot be negative", c.execsTotal)
	}
	if c.execsTotal > 0 && c.programs != "" {
		return fmt.Errorf("-execs-total is an execution budget; -programs campaigns are bounded by the corpus")
	}
	if c.execsTotal > 0 && c.evolve {
		return fmt.Errorf("-execs-total is an execution budget; -evolve campaigns are bounded by -pop × -generations")
	}
	if c.execsTotal > 0 && c.checkpoint == "" && c.serve == "" {
		return fmt.Errorf("-execs-total needs -checkpoint: the cumulative budget is measured against the checkpointed watermark")
	}
	if c.shards < 1 {
		return fmt.Errorf("-shards %d: a campaign needs at least one fuzzer instance", c.shards)
	}
	if c.jobs < 1 {
		return fmt.Errorf("-jobs %d: the cross-check needs at least one worker", c.jobs)
	}
	if c.batch < 0 {
		return fmt.Errorf("-batch %d: the batch size cannot be negative (0 or 1 mean per-exec)", c.batch)
	}
	if c.sync < 0 {
		return fmt.Errorf("-sync %d: the barrier interval cannot be negative", c.sync)
	}
	if c.syncSet && c.sync == 0 && c.shards > 1 {
		return fmt.Errorf("-sync 0 would disable the synchronization barriers a sharded pool requires; omit -sync for the default (budget/8)")
	}
	if c.statsEvery < 0 {
		return fmt.Errorf("-stats-every %d: the snapshot interval cannot be negative", c.statsEvery)
	}
	if c.statsEvery > 0 && c.shards > 1 {
		return fmt.Errorf("-stats-every needs -shards 1: sharded pools snapshot at every barrier")
	}
	if c.ckptEvery < 0 {
		return fmt.Errorf("-checkpoint-every %d: the checkpoint interval cannot be negative", c.ckptEvery)
	}
	if c.ckptEvery > 0 && c.checkpoint == "" && c.serve == "" {
		return fmt.Errorf("-checkpoint-every needs -checkpoint DIR")
	}
	if c.resume && c.checkpoint == "" {
		return fmt.Errorf("-resume needs -checkpoint DIR to resume from")
	}
	if c.heartbeat != "" && c.checkpoint == "" {
		return fmt.Errorf("-heartbeat needs -checkpoint: the heartbeat is the live watermark over the checkpointed one")
	}
	switch c.san {
	case "none", "asan", "ubsan", "msan":
	default:
		return fmt.Errorf("-san %q: want none, asan, ubsan, or msan", c.san)
	}
	return nil
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is the whole program behind a single exit point: flag and
// usage errors exit 2, runtime errors exit 1, and — unlike the
// log.Fatal calls it replaces — every error path unwinds normally, so
// deferred cleanups (pool Close, telemetry flush) actually run.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compdiff-fuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg cliConfig
	fs.StringVar(&cfg.target, "target", "", "built-in target to fuzz")
	fs.StringVar(&cfg.src, "src", "", "MiniC source file to fuzz")
	fs.StringVar(&cfg.programs, "programs", "", "compile-oracle campaign over every *.mc in DIR")
	fs.BoolVar(&cfg.evolve, "evolve", false, "evolutionary coverage-directed campaign")
	fs.IntVar(&cfg.pop, "pop", 24, "population size (with -evolve)")
	fs.IntVar(&cfg.generations, "generations", 20, "generations to evolve (with -evolve)")
	fs.Int64Var(&cfg.execs, "execs", 50_000, "execution budget (per shard)")
	fs.Int64Var(&cfg.execsTotal, "execs-total", 0, "cumulative per-shard budget across resumes (needs -checkpoint)")
	fs.Int64Var(&cfg.seed, "seed", 1, "fuzzer RNG seed")
	fs.IntVar(&cfg.shards, "shards", 1, "parallel fuzzer instances (AFL -M/-S style)")
	fs.IntVar(&cfg.jobs, "jobs", 1, "worker goroutines per differential cross-check")
	fs.IntVar(&cfg.batch, "batch", 1, "inputs cross-checked per warm machine-set borrow (1 = per-exec)")
	fs.Int64Var(&cfg.sync, "sync", 0, "executions between shard sync barriers (0 = budget/8)")
	fs.StringVar(&cfg.san, "san", "none", "sanitizer on the fuzz binary: none|asan|ubsan|msan")
	fs.StringVar(&cfg.diffdir, "diffdir", "", "persist diverging inputs")
	fs.StringVar(&cfg.statsDir, "stats", "", "record telemetry snapshots to DIR/plot.jsonl")
	fs.Int64Var(&cfg.statsEvery, "stats-every", 0, "snapshot every N generated inputs (-shards 1 only; 0 = barriers only)")
	fs.StringVar(&cfg.checkpoint, "checkpoint", "", "write crash-safe campaign snapshots under DIR")
	fs.Int64Var(&cfg.ckptEvery, "checkpoint-every", 0, "sync barriers between snapshots (0 = every barrier)")
	fs.BoolVar(&cfg.resume, "resume", false, "continue the campaign checkpointed in -checkpoint DIR")
	fs.StringVar(&cfg.heartbeat, "heartbeat", "", "atomically rewrite FILE with a status record at every barrier")
	fs.StringVar(&cfg.serve, "serve", "", "supervise a worker farm; serve the control plane on ADDR")
	fs.StringVar(&cfg.farm, "farm", "", "farm root directory (with -serve)")
	fs.IntVar(&cfg.workers, "workers", 2, "worker processes to supervise (with -serve)")
	fs.BoolVar(&cfg.list, "list", false, "list built-in targets")
	var seeds seedList
	fs.Var(&seeds, "seedfile", "seed input file (repeatable)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "sync":
			cfg.syncSet = true
		case "workers":
			cfg.workersSet = true
		case "pop":
			cfg.popSet = true
		case "generations":
			cfg.gensSet = true
		}
	})
	if err := cfg.validate(); err != nil {
		fmt.Fprintf(stderr, "compdiff-fuzz: %v\n", err)
		return 2
	}

	if err := run(cfg, &seeds, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "compdiff-fuzz: %v\n", err)
		var ue usageError
		if errors.As(err, &ue) {
			return 2
		}
		return 1
	}
	return 0
}

// run dispatches to the selected mode. Every failure comes back as an
// error (usageError for misuse) — no exits, no Fatals.
func run(cfg cliConfig, seeds *seedList, stdout, stderr io.Writer) error {
	switch {
	case cfg.list:
		for _, tg := range targets.All() {
			fmt.Fprintf(stdout, "%-14s %-16s %d planted bugs\n", tg.Name, tg.InputType, len(tg.Bugs))
		}
		return nil
	case cfg.serve != "":
		return runServe(cfg, seeds, stdout, stderr)
	case cfg.programs != "":
		return runProgramsCampaign(cfg, stdout, stderr)
	case cfg.evolve:
		return runEvolveCampaign(cfg, stdout, stderr)
	default:
		return runFuzzCampaign(cfg, seeds, stdout, stderr)
	}
}

// loadFuzzInput resolves -target / -src into (source, corpus,
// normalizer). An unknown target name is command-line misuse; an
// unreadable source file is a runtime failure.
func loadFuzzInput(cfg cliConfig, seeds *seedList) (string, [][]byte, *compdiff.Normalizer, error) {
	if cfg.target != "" {
		tg := targets.ByName(cfg.target)
		if tg == nil {
			return "", nil, nil, usagef("unknown target %q (use -list)", cfg.target)
		}
		var norm *compdiff.Normalizer
		if tg.NeedsNormalizer {
			norm = compdiff.DefaultNormalizer()
		}
		return tg.Src, tg.Seeds, norm, nil
	}
	data, err := os.ReadFile(cfg.src)
	if err != nil {
		return "", nil, nil, err
	}
	return string(data), seeds.data, nil, nil
}

func sanMode(name string) compdiff.SanMode {
	switch name {
	case "asan":
		return compdiff.SanASan
	case "ubsan":
		return compdiff.SanUBSan
	case "msan":
		return compdiff.SanMSan
	}
	return compdiff.SanNone
}

// runFuzzCampaign is the classic single-process mode: a campaign pool
// of -shards fuzzers (one by default).
func runFuzzCampaign(cfg cliConfig, seeds *seedList, stdout, stderr io.Writer) error {
	src, corpus, normalizer, err := loadFuzzInput(cfg, seeds)
	if err != nil {
		return err
	}
	opts := compdiff.CampaignOptions{
		FuzzSeed:        cfg.seed,
		Sanitizer:       sanMode(cfg.san),
		Normalizer:      normalizer,
		DiffDir:         cfg.diffdir,
		Shards:          cfg.shards,
		SyncEvery:       cfg.sync,
		Parallelism:     cfg.jobs,
		BatchSize:       cfg.batch,
		StatsDir:        cfg.statsDir,
		StatsEvery:      cfg.statsEvery,
		CheckpointDir:   cfg.checkpoint,
		CheckpointEvery: cfg.ckptEvery,
	}
	if cfg.heartbeat != "" {
		opts.BarrierHook = heartbeatHook(cfg.heartbeat)
	}

	// A signal cancels at the next barrier. A single shard without a
	// checkpoint has only the final one, so there ^C keeps its default
	// meaning and stops the process at once.
	ctx := context.Background()
	if cfg.shards > 1 || cfg.checkpoint != "" {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
	}
	pool, err := openCampaign(cfg, stderr,
		func() (*compdiff.CampaignPool, error) { return compdiff.NewCampaignPool(src, corpus, opts) },
		func() (*compdiff.CampaignPool, error) { return compdiff.ResumeCampaignPool(src, corpus, opts) },
		func(p *compdiff.CampaignPool) string {
			return fmt.Sprintf("%d execs per shard already spent", p.SpentExecs())
		})
	if err != nil {
		return err
	}
	defer pool.Close()

	budget := cfg.execs
	if cfg.execsTotal > 0 {
		// Cumulative budget: spend only what the checkpointed
		// watermark has not already covered. A resumed-and-complete
		// campaign runs nothing and just reprints its findings.
		budget = cfg.execsTotal - pool.SpentExecs()
	}
	var stats compdiff.PoolStats
	if budget > 0 {
		stats = pool.Run(ctx, budget)
	} else {
		stats = pool.Stats()
		fmt.Fprintf(stderr, "compdiff-fuzz: budget already spent (%d of %d execs per shard); reporting checkpointed findings\n",
			pool.SpentExecs(), cfg.execsTotal)
	}

	printPoolStats(stdout, pool, stats, cfg.checkpoint != "")
	return nil
}

// printReports renders one report per triage bucket — not per raw
// signature: findings whose fingerprints coincide are the same
// underlying bug — then the fuzzing binary's own crashes.
func printReports(stdout io.Writer, buckets []*compdiff.Bucket, names []string, crashes []*fuzz.Crash) {
	for _, b := range buckets {
		fmt.Fprintln(stdout, b.Report(names))
	}
	for _, c := range crashes {
		fmt.Fprintf(stdout, "crash %s on input %q\n", c.Result.Exit, c.Input)
		if c.Result.San != nil {
			fmt.Fprintf(stdout, "  %s\n", c.Result.San)
		}
	}
}

// heartbeatHook adapts barrier stats into the atomic heartbeat file
// the supervisor polls between checkpoints.
func heartbeatHook(path string) func(compdiff.PoolStats) {
	var seq int64
	return func(st compdiff.PoolStats) {
		seq++
		queue := 0
		retired := 0
		for _, fs := range st.ShardStats {
			queue += fs.Seeds
		}
		for _, err := range st.ShardErrors {
			if err != nil {
				retired++
			}
		}
		// Best-effort by design: a failed heartbeat write must not take
		// down the campaign the heartbeat merely observes.
		_ = telemetry.WriteHeartbeat(path, telemetry.Heartbeat{
			Pid: os.Getpid(), UnixMs: time.Now().UnixMilli(), Seq: seq,
			SpentExecs: st.SpentExecs, Execs: st.Execs, DiffExecs: st.DiffExecs,
			Queue: queue, UniqueDiffs: st.UniqueDiffs, TotalDiffInputs: st.TotalDiffInputs,
			UniqueBuckets: st.UniqueBuckets, UniqueCrashes: st.UniqueCrashes,
			PersistErrors: st.PersistErrors, Shards: st.Shards, RetiredShards: retired,
		})
	}
}

// printPoolStats renders the sharded-campaign summary and reports.
func printPoolStats(stdout io.Writer, pool *compdiff.CampaignPool, stats compdiff.PoolStats, ckpt bool) {
	fmt.Fprintf(stdout, "shards         : %d\n", stats.Shards)
	fmt.Fprintf(stdout, "executions     : %d (all shards)\n", stats.Execs)
	if ckpt {
		fmt.Fprintf(stdout, "spent budget   : %d execs per shard (across resumes)\n", stats.SpentExecs)
	}
	fmt.Fprintf(stdout, "unique crashes : %d\n", stats.UniqueCrashes)
	fmt.Fprintf(stdout, "diff inputs    : %d (%d unique discrepancies, %d triage buckets)\n",
		stats.TotalDiffInputs, stats.UniqueDiffs, stats.UniqueBuckets)
	fmt.Fprintf(stdout, "diff execs     : %d across %d implementations\n",
		stats.DiffExecs, len(pool.ImplNames()))
	fmt.Fprintf(stdout, "persist errors : %d\n", stats.PersistErrors)
	fmt.Fprintf(stdout, "plot errors    : %d\n", stats.PlotWriteErrors)
	fmt.Fprintf(stdout, "ckpt errors    : %d\n", stats.CheckpointErrors)
	for si, fs := range stats.ShardStats {
		role := "S"
		if si == 0 {
			role = "M"
		}
		status := ""
		if stats.ShardErrors[si] != nil {
			status = "  [retired: panic]"
		}
		fmt.Fprintf(stdout, "  shard %d (-%s): %d execs, %d seeds%s\n", si, role, fs.Execs, fs.Seeds, status)
	}
	printTelemetry(stdout, pool.ImplSummaries(), pool.Snapshots())
	fmt.Fprintln(stdout)
	printReports(stdout, pool.Buckets(), pool.ImplNames(), pool.Crashes())
}

// runServe is the farm mode: supervise -workers worker processes
// (each this same binary in single-process checkpointed mode) under
// -farm, and serve the HTTP control plane on -serve until the fleet
// completes its budget or a signal drains it.
func runServe(cfg cliConfig, seeds *seedList, stdout, stderr io.Writer) error {
	// Resolve the inputs now: an unknown target or unreadable source
	// should fail the farm up front, not crash-loop every worker.
	if _, _, _, err := loadFuzzInput(cfg, seeds); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("cannot locate own binary for worker re-exec: %w", err)
	}
	total := farmBudget(cfg)
	command := func(index int, dirs checkpoint.WorkerDirs) *exec.Cmd {
		return exec.Command(exe, workerArgs(cfg, seeds, index, dirs)...)
	}

	sup, err := supervisor.New(supervisor.Config{
		Farm: cfg.farm, Workers: cfg.workers, TotalExecs: total, Command: command,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", cfg.serve)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: sup.Handler()}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	if err := sup.Start(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "farm %s: %d workers, %d execs per shard each; control plane on http://%s\n",
		cfg.farm, cfg.workers, total, ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ticker := time.NewTicker(500 * time.Millisecond)
	defer ticker.Stop()
	signaled := false
loop:
	for {
		select {
		case <-ctx.Done():
			signaled = true
			fmt.Fprintln(stderr, "compdiff-fuzz: signal received; draining workers at their barriers")
			break loop
		case <-ticker.C:
			if sup.Paused() {
				continue // a paused farm idles until /resume
			}
			st := sup.Status()
			terminal := len(st) > 0
			for _, ws := range st {
				if ws.State != supervisor.StateDone && ws.State != supervisor.StateFailed {
					terminal = false
					break
				}
			}
			if terminal {
				break loop
			}
		}
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	stopErr := sup.Stop(drainCtx)

	fs := sup.Stats()
	fmt.Fprintf(stdout, "farm spent     : %d execs per shard across %d workers\n", fs.SpentExecs, len(fs.Workers))
	fmt.Fprintf(stdout, "merged         : %d execs, %d diff inputs, %d bucket inputs\n",
		fs.Merged.Execs, fs.TotalDiffInputs, fs.BucketTotal)
	fmt.Fprintf(stdout, "deduplicated   : %d unique signatures, %d unique buckets farm-wide\n",
		fs.UniqueSignatures, fs.UniqueBuckets)
	failed := 0
	for _, ws := range fs.Workers {
		fmt.Fprintf(stdout, "  worker %d: %s, %d execs spent, %d restarts\n",
			ws.Index, ws.State, ws.SpentExecs, ws.Restarts)
		if ws.State == supervisor.StateFailed {
			failed++
		}
	}
	if stopErr != nil {
		return stopErr
	}
	if failed > 0 && !signaled {
		return fmt.Errorf("%d worker(s) abandoned after exceeding the restart budget", failed)
	}
	return nil
}

// farmBudget is the cumulative per-shard budget of every farm worker.
func farmBudget(cfg cliConfig) int64 {
	if cfg.execsTotal > 0 {
		return cfg.execsTotal
	}
	return cfg.execs
}

// workerArgs is the command line of farm worker index: this binary in
// single-process checkpointed mode over the worker's farm subtree,
// carrying every input-fuzzing flag the supervisor was given.
func workerArgs(cfg cliConfig, seeds *seedList, index int, dirs checkpoint.WorkerDirs) []string {
	args := []string{
		"-execs-total", fmt.Sprint(farmBudget(cfg)),
		"-seed", fmt.Sprint(supervisor.WorkerSeed(cfg.seed, index)),
		"-shards", fmt.Sprint(cfg.shards),
		"-jobs", fmt.Sprint(cfg.jobs),
		"-checkpoint", dirs.Checkpoint,
		"-stats", dirs.Stats,
		"-diffdir", dirs.Diff,
		"-heartbeat", dirs.Heartbeat,
		"-resume",
	}
	if cfg.syncSet {
		args = append(args, "-sync", fmt.Sprint(cfg.sync))
	}
	if cfg.ckptEvery > 0 {
		args = append(args, "-checkpoint-every", fmt.Sprint(cfg.ckptEvery))
	}
	if cfg.batch > 1 {
		args = append(args, "-batch", fmt.Sprint(cfg.batch))
	}
	if cfg.statsEvery > 0 {
		args = append(args, "-stats-every", fmt.Sprint(cfg.statsEvery))
	}
	if cfg.san != "none" {
		args = append(args, "-san", cfg.san)
	}
	if cfg.target != "" {
		args = append(args, "-target", cfg.target)
	} else {
		args = append(args, "-src", cfg.src)
		for _, p := range seeds.paths {
			args = append(args, "-seedfile", p)
		}
	}
	return args
}

// runProgramsCampaign is the -programs mode: a compile-oracle campaign
// over a directory of MiniC programs. The corpus is read in sorted
// filename order, so the campaign (and its checkpoint hash) is stable
// across runs.
func runProgramsCampaign(cfg cliConfig, stdout, stderr io.Writer) error {
	paths, err := filepath.Glob(filepath.Join(cfg.programs, "*.mc"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no *.mc programs in %s", cfg.programs)
	}
	sort.Strings(paths)
	corpus := make([]string, len(paths))
	for i, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		corpus[i] = string(data)
	}

	opts := compdiff.CompileCampaignOptions{
		Shards:          cfg.shards,
		SyncEvery:       int(cfg.sync),
		Parallelism:     cfg.jobs,
		StatsDir:        cfg.statsDir,
		CheckpointDir:   cfg.checkpoint,
		CheckpointEvery: cfg.ckptEvery,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	pool, err := openCampaign(cfg, stderr,
		func() (*compdiff.CompileCampaign, error) { return compdiff.NewCompileCampaign(corpus, opts) },
		func() (*compdiff.CompileCampaign, error) { return compdiff.ResumeCompileCampaign(corpus, opts) },
		func(p *compdiff.CompileCampaign) string {
			st := p.Stats()
			return fmt.Sprintf("%d of %d programs already processed", st.Cursor, st.CorpusLen)
		})
	if err != nil {
		return err
	}
	defer pool.Close()
	stats := pool.Run(ctx)

	fmt.Fprintf(stdout, "shards         : %d\n", stats.Shards)
	fmt.Fprintf(stdout, "programs       : %d of %d processed (%d accepted everywhere, %d uniform rejects)\n",
		stats.Programs, stats.CorpusLen, stats.Accepted, stats.FrontendRejects)
	fmt.Fprintf(stdout, "findings       : %d (%d triage buckets)\n", stats.Findings, stats.UniqueBuckets)
	fmt.Fprintf(stdout, "plot errors    : %d\n", stats.PlotWriteErrors)
	fmt.Fprintf(stdout, "ckpt errors    : %d\n", stats.CheckpointErrors)
	printProgramSummary(stdout, pool, "compile classes",
		stats.CompileDivergences, stats.ICEs, stats.DiagMismatches, stats.RuntimeBuckets, stats.ShardErrors)
	return nil
}

// programCampaign is what the -programs and -evolve summaries share.
type programCampaign interface {
	CacheStats() progcache.Stats
	Buckets() []*compdiff.Bucket
	ImplNames() []string
}

// printProgramSummary renders the summary tail the two program-campaign
// modes share: cache counters, findings by class, retired shards, and
// one report per triage bucket.
func printProgramSummary(stdout io.Writer, p programCampaign, classes string, divergences, ices, diags, runtime int, shardErrs []error) {
	cs := p.CacheStats()
	fmt.Fprintf(stdout, "compile cache  : %d hits, %d misses, %d evictions (%d resident, %d bytes)\n",
		cs.Hits, cs.Misses, cs.Evictions, cs.Entries, cs.Bytes)
	fmt.Fprintf(stdout, "%s: %d accept/reject divergences, %d ICEs, %d diagnostic mismatches, %d runtime\n",
		classes, divergences, ices, diags, runtime)
	for si, serr := range shardErrs {
		if serr != nil {
			fmt.Fprintf(stdout, "  shard %d retired: %v\n", si, serr)
		}
	}
	fmt.Fprintln(stdout)
	printReports(stdout, p.Buckets(), p.ImplNames(), nil)
}

// runEvolveCampaign is the -evolve mode: an evolutionary
// coverage-directed campaign. No corpus is read — the founder
// population is generated from -seed and everything after that is
// bred under the composite fitness; the program budget is
// -pop × -generations genome evaluations.
func runEvolveCampaign(cfg cliConfig, stdout, stderr io.Writer) error {
	opts := compdiff.EvolveCampaignOptions{
		Pop:             cfg.pop,
		Generations:     cfg.generations,
		Seed:            cfg.seed,
		Shards:          cfg.shards,
		Parallelism:     cfg.jobs,
		StatsDir:        cfg.statsDir,
		CheckpointDir:   cfg.checkpoint,
		CheckpointEvery: cfg.ckptEvery,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	pool, err := openCampaign(cfg, stderr,
		func() (*compdiff.EvolveCampaign, error) { return compdiff.NewEvolveCampaign(opts) },
		func() (*compdiff.EvolveCampaign, error) { return compdiff.ResumeEvolveCampaign(opts) },
		func(p *compdiff.EvolveCampaign) string {
			st := p.Stats()
			return fmt.Sprintf("generation %d of %d already evaluated", st.Generation, st.Generations)
		})
	if err != nil {
		return err
	}
	defer pool.Close()
	stats := pool.Run(ctx)

	fmt.Fprintf(stdout, "shards         : %d\n", stats.Shards)
	fmt.Fprintf(stdout, "generations    : %d of %d evaluated (population %d)\n",
		stats.Generation, stats.Generations, stats.Pop)
	fmt.Fprintf(stdout, "programs       : %d genome evaluations (%d front-end/uniform rejects)\n",
		stats.Programs, stats.FrontendRejects)
	fmt.Fprintf(stdout, "pass coverage  : %d (implementation, pass) pairs fired\n", stats.PassCoverage)
	fmt.Fprintf(stdout, "fitness        : best %.1f, mean %.1f (last generation)\n",
		stats.BestFitness, stats.MeanFitness)
	fmt.Fprintf(stdout, "findings       : %d (%d triage buckets)\n", stats.Findings, stats.UniqueBuckets)
	fmt.Fprintf(stdout, "plot errors    : %d\n", stats.PlotWriteErrors)
	fmt.Fprintf(stdout, "ckpt errors    : %d\n", stats.CheckpointErrors)
	printProgramSummary(stdout, pool, "finding classes",
		stats.CompileDivergences, stats.ICEs, stats.DiagMismatches, stats.RuntimeBuckets, stats.ShardErrors)
	return nil
}

// openCampaign builds any mode's campaign, honoring -resume: a missing
// checkpoint falls back to a fresh start (so the same command line
// works for the first run and every restart), an options mismatch is a
// user error (exit 2), and a corrupt checkpoint is fatal (exit 1) —
// never a panic, and never a silent fresh start that would clobber it.
// progress describes what a resumed campaign has already done.
func openCampaign[P interface{ CheckpointSeq() int }](cfg cliConfig, stderr io.Writer,
	fresh, resume func() (P, error), progress func(P) string) (P, error) {
	if !cfg.resume {
		return fresh()
	}
	p, err := resume()
	switch {
	case err == nil:
		fmt.Fprintf(stderr, "compdiff-fuzz: resumed from checkpoint %s (seq %d, %s)\n",
			cfg.checkpoint, p.CheckpointSeq(), progress(p))
	case errors.Is(err, compdiff.ErrNoCheckpoint):
		fmt.Fprintf(stderr, "compdiff-fuzz: no checkpoint in %s; starting fresh\n", cfg.checkpoint)
		return fresh()
	case errors.Is(err, compdiff.ErrCheckpointMismatch):
		err = usageError{err}
	}
	return p, err
}

// printTelemetry renders the per-implementation summary table and the
// campaign throughput line. No-op when stats were not requested.
func printTelemetry(stdout io.Writer, impls []compdiff.ImplSummary, snaps []compdiff.CampaignSnapshot) {
	if len(impls) == 0 || len(snaps) == 0 {
		return
	}
	final := snaps[len(snaps)-1]
	fmt.Fprintf(stdout, "throughput     : %.1f execs/sec over %s (%d snapshots)\n",
		final.ExecsPerSec, (time.Duration(final.ElapsedMs) * time.Millisecond).Round(time.Millisecond),
		len(snaps))
	fmt.Fprintf(stdout, "outcomes       : %d ok, %d crash, %d step-limit-hang, %d diff\n",
		final.OK, final.Crash, final.StepLimitHang, final.Diff)

	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "implementation\truns\tok\tcrash\thang\tmean\tp50\tp99")
	for _, s := range impls {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%s\t%s\t%s\n",
			s.Name, s.Runs(),
			s.Outcomes[compdiff.ClassOK],
			s.Outcomes[compdiff.ClassCrash],
			s.Outcomes[compdiff.ClassStepLimitHang],
			time.Duration(s.Latency.Mean()).Round(time.Microsecond),
			time.Duration(s.Latency.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(s.Latency.Quantile(0.99)).Round(time.Microsecond))
	}
	tw.Flush()
}
