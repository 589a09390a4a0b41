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
//	-seedfile FILE  seed input for -src (repeatable)
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
//	-batch N        inputs cross-checked per warm machine-set borrow
//	                (default 1: per-exec)
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
// Each mode rejects a flag it does not read rather than ignore it.
// -san, -diffdir, -batch, -stats-every, and -heartbeat tune input
// fuzzing; -programs and -evolve campaigns reject them, and -seedfile,
// -execs, and -execs-total too. -programs also rejects -seed, and
// -evolve -sync. -serve rejects -checkpoint, -stats, -diffdir,
// -heartbeat, and -resume, which it derives for each worker. A
// built-in -target rejects -seedfile. -pop and -generations need
// -evolve; -farm and -workers need -serve. -list ignores every other
// flag.
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
	"cmp"
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
	"slices"
	"sort"
	"strings"
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
	execsSet    bool // -execs was given explicitly
	execsTotal  int64
	seed        int64
	seedSet     bool // -seed was given explicitly
	seedfileSet bool // -seedfile was given
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

// Why a mode rejects a flag it does not read; {flag} and {mode} name
// the two.
const (
	exclusive   = "-target, -src, and -programs are mutually exclusive"
	ownPrograms = "-evolve generates its own programs; it excludes -target, -src, and -programs"
	standalone  = "-serve supervises input-fuzzing workers; {flag} campaigns run standalone"
	evolveOnly  = "-pop and -generations only make sense with -evolve"
	serveOnly   = "{flag} only makes sense with -serve"
	fuzzOnly    = "{flag} only applies to input fuzzing, not to {mode} campaigns"
	perWorker   = "{flag} is per-worker under -serve; the farm layout derives it from -farm"
	corpusBound = "{flag} is an execution budget; -programs campaigns are bounded by the corpus"
	popBound    = "{flag} is an execution budget; -evolve campaigns are bounded by -pop × -generations"
)

// A cliFlag is a flag that some mode does not read or that -serve
// forwards to its workers.
type cliFlag struct {
	name string
	// given reports whether the command line set the flag: the *Set
	// field where there is one, else a value other than the default.
	given bool
	// why is the reason a mode that does not read the flag gives,
	// unless the mode has its own.
	why string
	// fwd is the value -serve hands every worker; "" for a flag it
	// does not forward.
	fwd string
}

// flags is every cliFlag, in the order validate checks them.
func (c cliConfig) flags() []cliFlag {
	return []cliFlag{
		{"-target", c.target != "", exclusive, ""},
		{"-src", c.src != "", exclusive, ""},
		{"-programs", c.programs != "", standalone, ""},
		{"-evolve", c.evolve, standalone, ""},
		{"-pop", c.popSet, evolveOnly, ""},
		{"-generations", c.gensSet, evolveOnly, ""},
		{"-execs", c.execsSet, "{flag} is an execution budget, which {mode} campaigns do not have", ""},
		{"-execs-total", c.execsTotal != 0, "{flag} is an execution budget, which {mode} campaigns do not have", ""},
		{"-seed", c.seedSet, "{flag} seeds the fuzzer or the founders; {mode} campaigns are fixed by their corpus", ""},
		{"-seedfile", c.seedfileSet, "{flag} seeds input fuzzing; {mode} campaigns run programs, not inputs", ""},
		{"-shards", c.shards != 1, "", fmt.Sprint(c.shards)},
		{"-jobs", c.jobs != 1, "", fmt.Sprint(c.jobs)},
		{"-sync", c.syncSet, "{flag} spaces input or program barriers; {mode} campaigns meet at every generation", fmt.Sprint(c.sync)},
		{"-checkpoint-every", c.ckptEvery != 0, "", fmt.Sprint(c.ckptEvery)},
		// The input-fuzzing flags: -serve forwards the knobs and derives
		// the outputs for each worker.
		{"-san", c.san != "none", fuzzOnly, c.san},
		{"-batch", c.batch > 1, fuzzOnly, fmt.Sprint(c.batch)},
		{"-stats-every", c.statsEvery != 0, fuzzOnly, fmt.Sprint(c.statsEvery)},
		{"-diffdir", c.diffdir != "", fuzzOnly, ""},
		{"-heartbeat", c.heartbeat != "", fuzzOnly, ""},
		{"-stats", c.statsDir != "", perWorker, ""},
		{"-checkpoint", c.checkpoint != "", perWorker, ""},
		{"-resume", c.resume, "-resume is implicit under -serve: workers always resume their own checkpoints", ""},
		{"-farm", c.farm != "", serveOnly, ""},
		{"-workers", c.workersSet, serveOnly, ""},
	}
}

// The flag groups the mode table's reads lists are made of.
const (
	inputFlags    = "-target -src -seedfile -execs -execs-total -seed -sync "
	fuzzKnobs     = "-san -batch -stats-every "
	fuzzOutputs   = "-diffdir -heartbeat "
	campaignFlags = "-shards -jobs -stats -checkpoint -checkpoint-every -resume "
)

// A mode is one entry of the mode table.
type mode struct {
	name string                 // the flag that selects it, as messages name it
	on   func(c cliConfig) bool // whether the command line selects it
	// reads is every cliFlag the mode reads; validate rejects any other
	// that was given, for the reason in why or else the flag's own.
	reads string
	why   map[string]string
	run   func(c cliConfig, seeds *seedList, stdout, stderr io.Writer) error
}

// modes is the mode table, in the order pickMode tries it.
var modes = []mode{
	{
		name: "-list",
		on:   func(c cliConfig) bool { return c.list },
		run: func(_ cliConfig, _ *seedList, stdout, _ io.Writer) error {
			for _, tg := range targets.All() {
				fmt.Fprintf(stdout, "%-14s %-16s %d planted bugs\n", tg.Name, tg.InputType, len(tg.Bugs))
			}
			return nil
		},
	},
	{
		name:  "-serve",
		on:    func(c cliConfig) bool { return c.serve != "" },
		reads: inputFlags + fuzzKnobs + "-shards -jobs -checkpoint-every -farm -workers",
		// Per-worker paths are derived from the farm layout; explicit
		// ones would make every worker fight over one file.
		why: map[string]string{"-diffdir": perWorker, "-heartbeat": perWorker},
		run: runServe,
	},
	{
		name:  "-evolve",
		on:    func(c cliConfig) bool { return c.evolve },
		reads: "-evolve -pop -generations -seed " + campaignFlags,
		why: map[string]string{"-target": ownPrograms, "-src": ownPrograms, "-programs": ownPrograms,
			"-execs": popBound, "-execs-total": popBound},
		run: runEvolve,
	},
	{
		name:  "-programs",
		on:    func(c cliConfig) bool { return c.programs != "" },
		reads: "-programs -sync " + campaignFlags,
		why:   map[string]string{"-execs": corpusBound, "-execs-total": corpusBound},
		run:   runPrograms,
	},
	{
		name:  "-target/-src",
		on:    func(c cliConfig) bool { return c.target != "" || c.src != "" },
		reads: inputFlags + fuzzKnobs + fuzzOutputs + campaignFlags,
		run:   runFuzz,
	},
}

// pickMode is the mode the command line selects, or nil for none.
func pickMode(c cliConfig) *mode {
	for i := range modes {
		if modes[i].on(c) {
			return &modes[i]
		}
	}
	return nil
}

// validate rejects nonsensical flag combinations up front — before
// they reach the engine, where a zero shard count or a negative worker
// count would be silently reinterpreted rather than diagnosed. It picks
// the mode, rejects every given flag the mode does not read, and then
// checks the values; a mode's own checks name it in their condition.
func (c cliConfig) validate() error {
	if c.list {
		return nil // -list ignores every other flag
	}
	m := pickMode(c)
	if m == nil {
		return fmt.Errorf("need -target, -src, -programs, or -evolve (or -list)")
	}
	reads := strings.Fields(m.reads)
	for _, f := range c.flags() {
		if !f.given || slices.Contains(reads, f.name) {
			continue
		}
		why := cmp.Or(m.why[f.name], f.why)
		return errors.New(strings.NewReplacer("{flag}", f.name, "{mode}", m.name).Replace(why))
	}
	serve := c.serve != ""
	_, knownSan := sanModes[c.san]
	for _, check := range []struct {
		bad bool
		err string
	}{
		{serve && c.target == "" && c.src == "", "-serve needs -target or -src for its workers"},
		{serve && c.farm == "", "-serve needs -farm DIR to hold the worker subtrees"},
		{serve && c.workers < 1, fmt.Sprintf("-workers %d: a farm needs at least one worker", c.workers)},
		{c.evolve && c.pop < 2, fmt.Sprintf("-pop %d: an evolutionary population needs at least 2 genomes", c.pop)},
		{c.evolve && c.generations < 1, fmt.Sprintf("-generations %d: an evolutionary campaign needs at least 1 generation", c.generations)},
		{c.target != "" && c.src != "", exclusive},
		{c.target != "" && c.seedfileSet, "-seedfile seeds a -src program; built-in targets bring their own seeds"},
		{c.execs < 1, fmt.Sprintf("-execs %d: the execution budget must be at least 1", c.execs)},
		{c.execsTotal < 0, fmt.Sprintf("-execs-total %d: the cumulative budget cannot be negative", c.execsTotal)},
		{c.execsTotal > 0 && c.checkpoint == "" && !serve, "-execs-total needs -checkpoint: the cumulative budget is measured against the checkpointed watermark"},
		{c.shards < 1, fmt.Sprintf("-shards %d: a campaign needs at least one fuzzer instance", c.shards)},
		{c.jobs < 1, fmt.Sprintf("-jobs %d: the cross-check needs at least one worker", c.jobs)},
		{c.batch < 0, fmt.Sprintf("-batch %d: the batch size cannot be negative (0 or 1 mean per-exec)", c.batch)},
		{c.sync < 0, fmt.Sprintf("-sync %d: the barrier interval cannot be negative", c.sync)},
		{c.syncSet && c.sync == 0 && c.shards > 1, "-sync 0 would disable the synchronization barriers a sharded pool requires; omit -sync for the default (budget/8)"},
		{c.statsEvery < 0, fmt.Sprintf("-stats-every %d: the snapshot interval cannot be negative", c.statsEvery)},
		{c.statsEvery > 0 && c.shards > 1, "-stats-every needs -shards 1: sharded pools snapshot at every barrier"},
		{c.ckptEvery < 0, fmt.Sprintf("-checkpoint-every %d: the checkpoint interval cannot be negative", c.ckptEvery)},
		{c.ckptEvery > 0 && c.checkpoint == "" && !serve, "-checkpoint-every needs -checkpoint DIR"},
		{c.resume && c.checkpoint == "", "-resume needs -checkpoint DIR to resume from"},
		{c.heartbeat != "" && c.checkpoint == "", "-heartbeat needs -checkpoint: the heartbeat is the live watermark over the checkpointed one"},
		{!knownSan, fmt.Sprintf("-san %q: want none, asan, ubsan, or msan", c.san)},
	} {
		if check.bad {
			return errors.New(check.err)
		}
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
	explicit := map[string]*bool{
		"pop": &cfg.popSet, "generations": &cfg.gensSet, "execs": &cfg.execsSet, "seed": &cfg.seedSet,
		"seedfile": &cfg.seedfileSet, "sync": &cfg.syncSet, "workers": &cfg.workersSet,
	}
	fs.Visit(func(f *flag.Flag) {
		if set := explicit[f.Name]; set != nil {
			*set = true
		}
	})
	if err := cfg.validate(); err != nil {
		fmt.Fprintf(stderr, "compdiff-fuzz: %v\n", err)
		return 2
	}

	// Every failure comes back as an error (usageError for misuse) — no
	// exits, no Fatals.
	if err := pickMode(cfg).run(cfg, &seeds, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "compdiff-fuzz: %v\n", err)
		var ue usageError
		if errors.As(err, &ue) {
			return 2
		}
		return 1
	}
	return 0
}

// loadFuzzInput resolves -target / -src into (source, corpus,
// normalizer). An unknown target name is command-line misuse; an
// unreadable source file is a runtime failure.
func loadFuzzInput(cfg cliConfig, seeds *seedList) (string, [][]byte, *compdiff.Normalizer, error) {
	if cfg.target != "" {
		tg := targets.ByName(cfg.target)
		if tg == nil {
			return "", nil, nil, usageError{fmt.Errorf("unknown target %q (use -list)", cfg.target)}
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

// sanModes maps each -san value to its sanitizer.
var sanModes = map[string]compdiff.SanMode{
	"none": compdiff.SanNone, "asan": compdiff.SanASan, "ubsan": compdiff.SanUBSan, "msan": compdiff.SanMSan,
}

// A campaign is an opened campaign of any mode.
type campaign interface {
	CheckpointSeq() int
	Close() error
	Buckets() []*compdiff.Bucket
	ImplNames() []string
}

// A campaignMode is how one mode opens, resumes, and runs its campaign.
type campaignMode[P campaign] struct {
	// A signal stops the campaign at its next barrier, unless
	// defaultSignals leaves it its default meaning.
	defaultSignals bool
	fresh, resume  func() (P, error)
	progress       func(P) string // what a resumed campaign has already done
	run            func(ctx context.Context, p P) summary
}

// A summary is what one run prints around the lines every mode shares.
type summary struct {
	shards             int
	plotErrs, ckptErrs int64
	head, tail         func(w io.Writer) // lines before and after the error counts
	crashes            []*fuzz.Crash
}

// drive runs a campaign of any mode: it opens or resumes it, runs it
// to the end or to the barrier where a signal stops it, and prints
// the summary, then one report per triage bucket — not per raw
// signature: findings whose fingerprints coincide are the same
// underlying bug — then the fuzzing binary's own crashes.
func drive[P campaign](cfg cliConfig, cm campaignMode[P], stdout, stderr io.Writer) error {
	ctx := context.Background()
	if !cm.defaultSignals {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
	}
	p, err := openCampaign(cfg, stderr, cm.fresh, cm.resume, cm.progress)
	if err != nil {
		return err
	}
	defer p.Close()
	s := cm.run(ctx, p)

	fmt.Fprintf(stdout, "shards         : %d\n", s.shards)
	s.head(stdout)
	fmt.Fprintf(stdout, "plot errors    : %d\n", s.plotErrs)
	fmt.Fprintf(stdout, "ckpt errors    : %d\n", s.ckptErrs)
	s.tail(stdout)
	fmt.Fprintln(stdout)
	for _, b := range p.Buckets() {
		fmt.Fprintln(stdout, b.Report(p.ImplNames()))
	}
	for _, c := range s.crashes {
		fmt.Fprintf(stdout, "crash %s on input %q\n", c.Result.Exit, c.Input)
		if c.Result.San != nil {
			fmt.Fprintf(stdout, "  %s\n", c.Result.San)
		}
	}
	return nil
}

// runFuzz is the classic single-process mode: a campaign pool of
// -shards fuzzers (one by default).
func runFuzz(cfg cliConfig, seeds *seedList, stdout, stderr io.Writer) error {
	src, corpus, normalizer, err := loadFuzzInput(cfg, seeds)
	if err != nil {
		return err
	}
	opts := compdiff.CampaignOptions{
		FuzzSeed:        cfg.seed,
		Sanitizer:       sanModes[cfg.san],
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
	return drive(cfg, campaignMode[*compdiff.CampaignPool]{
		// A single shard without a checkpoint has only the final
		// barrier, so there ^C stops the process at once.
		defaultSignals: cfg.shards == 1 && cfg.checkpoint == "",
		fresh:          func() (*compdiff.CampaignPool, error) { return compdiff.NewCampaignPool(src, corpus, opts) },
		resume:         func() (*compdiff.CampaignPool, error) { return compdiff.ResumeCampaignPool(src, corpus, opts) },
		progress: func(p *compdiff.CampaignPool) string {
			return fmt.Sprintf("%d execs per shard already spent", p.SpentExecs())
		},
		run: func(ctx context.Context, pool *compdiff.CampaignPool) summary {
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
			return summary{
				shards: stats.Shards, plotErrs: stats.PlotWriteErrors, ckptErrs: stats.CheckpointErrors,
				crashes: pool.Crashes(),
				head: func(w io.Writer) {
					fmt.Fprintf(w, "executions     : %d (all shards)\n", stats.Execs)
					if cfg.checkpoint != "" {
						fmt.Fprintf(w, "spent budget   : %d execs per shard (across resumes)\n", stats.SpentExecs)
					}
					fmt.Fprintf(w, "unique crashes : %d\n", stats.UniqueCrashes)
					fmt.Fprintf(w, "diff inputs    : %d (%d unique discrepancies, %d triage buckets)\n",
						stats.TotalDiffInputs, stats.UniqueDiffs, stats.UniqueBuckets)
					fmt.Fprintf(w, "diff execs     : %d across %d implementations\n",
						stats.DiffExecs, len(pool.ImplNames()))
					fmt.Fprintf(w, "persist errors : %d\n", stats.PersistErrors)
				},
				tail: func(w io.Writer) {
					for si, fs := range stats.ShardStats {
						role, status := "S", ""
						if si == 0 {
							role = "M"
						}
						if stats.ShardErrors[si] != nil {
							status = "  [retired: panic]"
						}
						fmt.Fprintf(w, "  shard %d (-%s): %d execs, %d seeds%s\n", si, role, fs.Execs, fs.Seeds, status)
					}
					printTelemetry(w, pool.ImplSummaries(), pool.Snapshots())
				},
			}
		},
	}, stdout, stderr)
}

// heartbeatHook adapts barrier stats into the atomic heartbeat file
// the supervisor polls between checkpoints.
func heartbeatHook(path string) func(compdiff.PoolStats) {
	var seq int64
	return func(st compdiff.PoolStats) {
		seq++
		queue, retired := 0, 0
		for si, fs := range st.ShardStats {
			queue += fs.Seeds
			if st.ShardErrors[si] != nil {
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
	total := cmp.Or(cfg.execsTotal, cfg.execs) // every worker's cumulative per-shard budget
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
			if len(st) > 0 && !slices.ContainsFunc(st, func(ws supervisor.WorkerStatus) bool {
				return ws.State != supervisor.StateDone && ws.State != supervisor.StateFailed
			}) {
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

// workerArgs is the command line of farm worker index: this binary in
// single-process checkpointed mode over the worker's farm subtree,
// carrying every flag the supervisor was given and forwards.
func workerArgs(cfg cliConfig, seeds *seedList, index int, dirs checkpoint.WorkerDirs) []string {
	args := []string{
		"-execs-total", fmt.Sprint(cmp.Or(cfg.execsTotal, cfg.execs)),
		"-seed", fmt.Sprint(supervisor.WorkerSeed(cfg.seed, index)),
		"-checkpoint", dirs.Checkpoint,
		"-stats", dirs.Stats,
		"-diffdir", dirs.Diff,
		"-heartbeat", dirs.Heartbeat,
		"-resume",
	}
	for _, f := range cfg.flags() {
		if f.fwd != "" && f.given {
			args = append(args, f.name, f.fwd)
		}
	}
	if cfg.target != "" {
		return append(args, "-target", cfg.target)
	}
	args = append(args, "-src", cfg.src)
	for _, p := range seeds.paths {
		args = append(args, "-seedfile", p)
	}
	return args
}

// runPrograms is the -programs mode: a compile-oracle campaign over a
// directory of MiniC programs. The corpus is read in sorted filename
// order, so the campaign (and its checkpoint hash) is stable across
// runs.
func runPrograms(cfg cliConfig, _ *seedList, stdout, stderr io.Writer) error {
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
	return drive(cfg, campaignMode[*compdiff.CompileCampaign]{
		fresh:  func() (*compdiff.CompileCampaign, error) { return compdiff.NewCompileCampaign(corpus, opts) },
		resume: func() (*compdiff.CompileCampaign, error) { return compdiff.ResumeCompileCampaign(corpus, opts) },
		progress: func(p *compdiff.CompileCampaign) string {
			st := p.Stats()
			return fmt.Sprintf("%d of %d programs already processed", st.Cursor, st.CorpusLen)
		},
		run: func(ctx context.Context, p *compdiff.CompileCampaign) summary {
			st := p.Run(ctx)
			return summary{
				shards: st.Shards, plotErrs: st.PlotWriteErrors, ckptErrs: st.CheckpointErrors,
				head: func(w io.Writer) {
					fmt.Fprintf(w, "programs       : %d of %d processed (%d accepted everywhere, %d uniform rejects)\n",
						st.Programs, st.CorpusLen, st.Accepted, st.FrontendRejects)
					fmt.Fprintf(w, "findings       : %d (%d triage buckets)\n", st.Findings, st.UniqueBuckets)
				},
				tail: programTail(p, "compile classes",
					st.CompileDivergences, st.ICEs, st.DiagMismatches, st.RuntimeBuckets, st.ShardErrors),
			}
		},
	}, stdout, stderr)
}

// programTail is the summary tail the two program-campaign modes
// share: cache counters, findings by class, and retired shards.
func programTail(p interface{ CacheStats() progcache.Stats }, classes string, divergences, ices, diags, runtime int, shardErrs []error) func(io.Writer) {
	return func(w io.Writer) {
		cs := p.CacheStats()
		fmt.Fprintf(w, "compile cache  : %d hits, %d misses, %d evictions (%d resident, %d bytes)\n",
			cs.Hits, cs.Misses, cs.Evictions, cs.Entries, cs.Bytes)
		fmt.Fprintf(w, "%s: %d accept/reject divergences, %d ICEs, %d diagnostic mismatches, %d runtime\n",
			classes, divergences, ices, diags, runtime)
		for si, serr := range shardErrs {
			if serr != nil {
				fmt.Fprintf(w, "  shard %d retired: %v\n", si, serr)
			}
		}
	}
}

// runEvolve is the -evolve mode: an evolutionary coverage-directed
// campaign. No corpus is read — the founder population is generated
// from -seed and everything after that is bred under the composite
// fitness; the program budget is -pop × -generations genome
// evaluations.
func runEvolve(cfg cliConfig, _ *seedList, stdout, stderr io.Writer) error {
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
	return drive(cfg, campaignMode[*compdiff.EvolveCampaign]{
		fresh:  func() (*compdiff.EvolveCampaign, error) { return compdiff.NewEvolveCampaign(opts) },
		resume: func() (*compdiff.EvolveCampaign, error) { return compdiff.ResumeEvolveCampaign(opts) },
		progress: func(p *compdiff.EvolveCampaign) string {
			st := p.Stats()
			return fmt.Sprintf("generation %d of %d already evaluated", st.Generation, st.Generations)
		},
		run: func(ctx context.Context, p *compdiff.EvolveCampaign) summary {
			st := p.Run(ctx)
			return summary{
				shards: st.Shards, plotErrs: st.PlotWriteErrors, ckptErrs: st.CheckpointErrors,
				head: func(w io.Writer) {
					fmt.Fprintf(w, "generations    : %d of %d evaluated (population %d)\n",
						st.Generation, st.Generations, st.Pop)
					fmt.Fprintf(w, "programs       : %d genome evaluations (%d front-end/uniform rejects)\n",
						st.Programs, st.FrontendRejects)
					fmt.Fprintf(w, "pass coverage  : %d (implementation, pass) pairs fired\n", st.PassCoverage)
					fmt.Fprintf(w, "fitness        : best %.1f, mean %.1f (last generation)\n",
						st.BestFitness, st.MeanFitness)
					fmt.Fprintf(w, "findings       : %d (%d triage buckets)\n", st.Findings, st.UniqueBuckets)
				},
				tail: programTail(p, "finding classes",
					st.CompileDivergences, st.ICEs, st.DiagMismatches, st.RuntimeBuckets, st.ShardErrors),
			}
		},
	}, stdout, stderr)
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
