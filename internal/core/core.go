// Package core implements CompDiff, the paper's contribution:
// compiler-driven differential testing. A program is compiled under a
// set of compiler implementations; every test input is executed on all
// resulting binaries; MurmurHash3 checksums of the (normalized)
// outputs are cross-checked, and any discrepancy signals unstable code
// (Definition 1 in the paper).
//
// The package also implements the operational details §3.2 and §4.3
// describe: the partial-timeout re-run policy (RQ6), output
// normalization for non-deterministic fields (RQ5), discrepancy
// triage signatures, the diffs/ store of bug-triggering inputs, and
// the compiler-implementation subset analysis behind Figures 1 and 2.
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"compdiff/internal/compiler"
	"compdiff/internal/hash"
	"compdiff/internal/ir"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
	"compdiff/internal/telemetry"
	"compdiff/internal/vm"
)

// Implementation is one compiler implementation with its compiled
// binary.
type Implementation struct {
	Config compiler.Config
	Prog   *ir.Program
}

// Name returns the implementation name, e.g. "gcc -O2".
func (im *Implementation) Name() string { return im.Config.Name() }

// Options configures a differential-testing suite.
type Options struct {
	// StepLimit is the per-run instruction budget (timeout analog).
	StepLimit int64
	// MaxTimeoutRetries bounds the partial-timeout re-run policy: when
	// only some binaries time out, they are re-run with a growing
	// budget this many times before the divergence is reported as
	// timeout-related (RQ6). Default 3.
	MaxTimeoutRetries int
	// Normalizer, if set, rewrites outputs before comparison (RQ5).
	Normalizer *Normalizer
	// Parallelism is the number of worker goroutines each Run fans
	// its k per-binary executions across. Values <= 1 keep the
	// sequential path (byte-identical to the historical behavior).
	// Suite.Run is safe for concurrent use at any setting: each run
	// borrows a machine set of its own instead of mutating shared
	// state, and outcomes are identical regardless of
	// Parallelism for any program whose output does not depend on the
	// wall clock.
	Parallelism int

	// Metrics, when non-nil, receives per-implementation telemetry
	// from every Run: each VM execution (including RQ6 re-runs) is
	// timed and classified (ok / crash / step-limit-hang). The sink is
	// safe for concurrent use, so one SuiteMetrics may serve many
	// concurrent Suite.Run calls. Nil disables instrumentation with a
	// single branch per execution.
	Metrics *telemetry.SuiteMetrics
}

func (o Options) withDefaults() Options {
	if o.StepLimit <= 0 {
		o.StepLimit = vm.DefaultStepLimit
	}
	if o.MaxTimeoutRetries <= 0 {
		o.MaxTimeoutRetries = 3
	}
	return o
}

// Suite is a program compiled under k compiler implementations,
// ready for differential execution.
type Suite struct {
	Impls []*Implementation
	opts  Options

	// idle holds the machine sets no run has borrowed. Machines are
	// reused forkserver style — each binary loaded once, its memory
	// reset between runs — and only ever as a complete set, so the set
	// is the unit of reuse: a run pops one (or builds one when every
	// set is in use) and pushes it back when it returns, and
	// concurrent runs never share mutable state.
	mu   sync.Mutex
	idle []*machineSet
}

// machineSet is one run's borrow: a machine per implementation, the
// result slots they fill, and a warm encode buffer for the
// small-output checksum fast path. stepLimit is the limit the machines
// were built with.
type machineSet struct {
	machines  []*vm.Machine
	shared    []*vm.Result
	enc       []byte
	stepLimit int64
}

// Build compiles the checked program under every configuration.
func Build(info *sema.Info, cfgs []compiler.Config, opts Options) (*Suite, error) {
	return (*Spares)(nil).Build(info, cfgs, opts)
}

// Build is the package-level Build with machines drawn from sp.
func (sp *Spares) Build(info *sema.Info, cfgs []compiler.Config, opts Options) (*Suite, error) {
	opts = opts.withDefaults()
	if len(cfgs) < 2 {
		return nil, fmt.Errorf("compdiff: need at least 2 compiler implementations, got %d", len(cfgs))
	}
	// Guarded so an internal compiler error surfaces as a build error
	// the caller can classify, never as a harness panic.
	results := compiler.CompileAll(info, cfgs, opts.Parallelism)
	for _, res := range results {
		if res.Err != nil {
			return nil, res.Err
		}
	}
	return sp.suite(results, cfgs, opts), nil
}

// BuildSource parses, checks, and builds in one step.
func BuildSource(src string, cfgs []compiler.Config, opts Options) (*Suite, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("compdiff: parse: %w", err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		return nil, fmt.Errorf("compdiff: check: %w", err)
	}
	return Build(info, cfgs, opts)
}

// Outcome is the result of differentially executing one input.
type Outcome struct {
	Input   []byte
	Results []*vm.Result // one per implementation, suite order
	Hashes  []uint64     // normalized output checksums

	// Diverged reports whether at least two implementations disagree —
	// the CompDiff oracle.
	Diverged bool

	// TimeoutSuspect is set when the divergence involves step-limit
	// exits that survived the re-run policy; such reports need manual
	// scrutiny (RQ6).
	TimeoutSuspect bool
}

// Groups partitions implementation indices by output hash.
func (o *Outcome) Groups() map[uint64][]int {
	g := map[uint64][]int{}
	for i, h := range o.Hashes {
		g[h] = append(g[h], i)
	}
	return g
}

// Signature is a stable triage key: two inputs that split the
// implementations the same way (same partition, same exit kinds) are
// very likely the same bug.
func (o *Outcome) Signature() uint64 {
	// Render the partition canonically: for each implementation, the
	// smallest index sharing its hash, plus the exit kind.
	var stack [32]byte
	buf := stack[:0]
	for i, h := range o.Hashes {
		rep := i
		for j, g := range o.Hashes[:i] {
			if g == h {
				rep = j
				break
			}
		}
		buf = append(buf, byte(rep), byte(o.Results[i].Exit))
	}
	h1, _ := hash.Sum128(buf, 0x5161)
	return h1
}

// outputHashSeed seeds the MurmurHash3 checksum of each binary's
// canonical output (the value golden files pin).
const outputHashSeed = 0xaf1d

// smallEncodeLimit bounds the output size hashed via the machine set's
// encode buffer; larger outputs stream through the digest instead of
// being copied.
const smallEncodeLimit = 4096

// digestPool recycles streaming digests across Run calls; the hot path
// hashes k outputs per generated input and must not allocate a digest
// (let alone an encoded copy of the output) for each.
var digestPool = sync.Pool{New: func() any { return new(hash.Digest) }}

// Run executes input on every implementation and cross-checks outputs
// (Algorithm 1, lines 9-12, plus the RQ5/RQ6 policies). With
// Options.Parallelism > 1 the k executions fan out across a worker
// pool; the outcome is positionally identical either way.
func (s *Suite) Run(input []byte) *Outcome {
	return s.run(input, true, 0)
}

// RunCapped is Run with every binary bounded by a one-off step limit
// of limit, and without the RQ6 re-runs: it returns nil as soon as any
// binary exits with vm.StepLimit under limit. Sequentially it stops at
// the first such binary; the binaries not yet started then get a
// one-step run instead of a full one (see runCapped). An outcome it
// does return equals Run's whenever limit is at most
// Options.StepLimit: a run that finishes within a limit finishes
// identically under any larger one, and the RQ6 loop only acts on
// step-limit exits. A non-positive limit means Options.StepLimit, as
// in vm.Machine.RunSharedWithLimit.
func (s *Suite) RunCapped(input []byte, limit int64) *Outcome {
	if limit <= 0 {
		limit = s.opts.StepLimit
	}
	return s.run(input, true, limit)
}

// RunFast is the fuzzing fast path: identical execution, hashing, and
// verdict to Run — same machines, same RQ6 re-run policy, same
// checksums — but per-implementation outputs stay in machine-owned
// buffers and are checksummed in place (vm.Result.EncodeTo), never
// copied. Outcome.Results is materialized only when the input actually
// diverged (the paper's report-only-on-disagreement flow) and is nil
// otherwise; everything else on the Outcome is always populated.
func (s *Suite) RunFast(input []byte) *Outcome {
	return s.run(input, false, 0)
}

// RunBatch is the persistent-mode batch executor: it borrows one warm
// machine set, runs every input in order against it (dirty-page reset
// between inputs happens inside each machine), and parks the set once
// at the end, so the borrow and park leave the per-exec path
// entirely. Each input gets exactly the RunFast
// treatment (same machines, same retry policy, same checksums), so a
// batch of N is byte-identical to N sequential RunFast calls; the
// differential self-test layer pins that equivalence. One outcome per
// input is appended to dst (reusable across calls) and the extended
// slice returned. Outcomes of diverged inputs are materialized;
// Outcome.Input aliases the caller's slice, so a caller that retains
// an outcome must not reuse its input buffer.
func (s *Suite) RunBatch(inputs [][]byte, dst []*Outcome) []*Outcome {
	if len(inputs) == 0 {
		return dst
	}
	set := s.borrow()
	defer s.park(set)
	for _, input := range inputs {
		dst = append(dst, s.runWith(set, input, false, 0))
	}
	return dst
}

// borrow checks out an idle machine set, or builds one when every set
// is in use.
func (s *Suite) borrow() *machineSet {
	s.mu.Lock()
	if n := len(s.idle); n > 0 {
		set := s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
		s.mu.Unlock()
		return set
	}
	s.mu.Unlock()
	return s.newSet()
}

// park returns a borrowed set for the next run.
func (s *Suite) park(set *machineSet) {
	s.mu.Lock()
	s.idle = append(s.idle, set)
	s.mu.Unlock()
}

// newSet builds a machine for every binary of the suite.
func (s *Suite) newSet() *machineSet {
	set := &machineSet{
		machines:  make([]*vm.Machine, len(s.Impls)),
		shared:    make([]*vm.Result, len(s.Impls)),
		stepLimit: s.opts.StepLimit,
	}
	for i, im := range s.Impls {
		set.machines[i] = s.newMachine(im)
	}
	if newSetHook != nil {
		newSetHook(set)
	}
	return set
}

// newSetHook, when set, sees every machine set newSet builds. It is a
// test seam (export_test.go); install it only while no suite builds.
var newSetHook func(*machineSet)

func (s *Suite) newMachine(im *Implementation) *vm.Machine {
	return vm.New(im.Prog, vm.Options{StepLimit: s.opts.StepLimit})
}

func (s *Suite) run(input []byte, materialize bool, limit int64) *Outcome {
	set := s.borrow()
	defer s.park(set)
	return s.runWith(set, input, materialize, limit)
}

// runWith is the differential execution core, operating on an
// already-borrowed machine set. A positive limit is RunCapped's step
// cap: the binaries run under it with no RQ6 re-runs, and the outcome
// is nil if any of them hits it.
func (s *Suite) runWith(set *machineSet, input []byte, materialize bool, limit int64) *Outcome {
	if limit > 0 {
		if !s.runCapped(set, input, limit) {
			return nil
		}
	} else {
		s.runAll(set, input)
	}
	// shared holds machine-owned results (vm.RunShared): valid while
	// the machines stay borrowed.
	shared := set.shared
	out := &Outcome{Input: input}
	for _, r := range shared {
		if r.Exit == vm.StepLimit {
			out.TimeoutSuspect = true
		}
	}

	out.Hashes = make([]uint64, len(shared))
	if s.opts.Normalizer == nil {
		// Small outputs (the overwhelming fuzzing case) are checksummed
		// via one canonical encode into the set's warm buffer and a
		// one-shot Sum64 — cheaper than four buffered Digest writes per
		// result. Large outputs stream through the pooled digest and
		// are never copied. Both produce the identical MurmurHash3
		// value (hash.TestDigestMatchesOneShotAllSplits pins this).
		enc := set.enc
		var d *hash.Digest
		for i, r := range shared {
			if len(r.Stdout)+len(r.Stderr) <= smallEncodeLimit {
				enc = r.AppendEncode(enc[:0])
				out.Hashes[i] = hash.Sum64(enc, outputHashSeed)
			} else {
				if d == nil {
					d = digestPool.Get().(*hash.Digest)
				}
				d.Reset(outputHashSeed)
				r.EncodeTo(d)
				out.Hashes[i], _ = d.Sum128()
			}
		}
		set.enc = enc
		if d != nil {
			digestPool.Put(d)
		}
	} else {
		d := digestPool.Get().(*hash.Digest)
		for i, r := range shared {
			out.Hashes[i] = s.hashResult(r, d)
		}
		digestPool.Put(d)
	}
	for _, h := range out.Hashes[1:] {
		if h != out.Hashes[0] {
			out.Diverged = true
			break
		}
	}

	// Materialize per-implementation Results — copying the output bytes
	// out of the machine-owned buffers — only for the slow path or when
	// a discrepancy was actually detected and a report needs the bytes.
	if materialize || out.Diverged {
		out.Results = cloneResults(shared)
	}
	return out
}

// runAll runs input on every binary of the borrowed set under the
// configured step limit, then applies the partial-timeout policy
// (RQ6): when only some binaries hit the step limit, their truncated
// output is not comparable. Re-run the timed-out ones with a growing
// budget; only if they still exceed it do we report (flagged for
// manual scrutiny).
func (s *Suite) runAll(set *machineSet, input []byte) {
	machines, shared := set.machines, set.shared
	m := s.opts.Metrics
	if m == nil && s.effectiveParallelism(len(machines)) <= 1 {
		// fanOut's sequential path without its task closure, which
		// escapes (fanOut may hand it to goroutines) and so would cost
		// an allocation on every Run.
		for i, mc := range machines {
			shared[i] = mc.RunShared(input)
		}
	} else {
		var flush func([]int, time.Duration)
		if m != nil {
			flush = func(idxs []int, elapsed time.Duration) { s.observeChain(m, shared, idxs, elapsed) }
		}
		s.fanOut(len(machines), func(i int) {
			shared[i] = machines[i].RunShared(input)
		}, flush)
	}

	retries := 0
	for retries < s.opts.MaxTimeoutRetries {
		var rerun []int
		finished := 0
		for i, r := range shared {
			if r.Exit == vm.StepLimit {
				rerun = append(rerun, i)
			} else {
				finished++
			}
		}
		if len(rerun) == 0 || finished == 0 {
			break
		}
		retries++
		budget := growBudget(s.opts.StepLimit, retries)
		var reflush func([]int, time.Duration)
		if m != nil {
			reflush = func(jdxs []int, elapsed time.Duration) {
				for x, j := range jdxs {
					jdxs[x] = rerun[j]
				}
				s.observeChain(m, shared, jdxs, elapsed)
			}
		}
		s.fanOut(len(rerun), func(j int) {
			i := rerun[j]
			shared[i] = machines[i].RunSharedWithLimit(input, budget)
		}, reflush)
	}
}

// runCapped runs input on every binary of the borrowed set under a
// one-off step limit and reports whether all of them finished within
// it. Once one binary hits the limit the outcome is decided, so the
// binaries not yet started do not run the program: each gets a
// one-step run instead. That run still counts on the machine's run
// counter (the seed of the time_now builtin), so every machine counts
// exactly one run per call, as under Run when every binary times out,
// whichever binary stopped first and on whichever worker. Metrics see
// only the full runs.
func (s *Suite) runCapped(set *machineSet, input []byte, limit int64) bool {
	machines, shared := set.machines, set.shared
	var full []bool // which binaries ran in full, kept for metrics only
	var flush func([]int, time.Duration)
	if m := s.opts.Metrics; m != nil {
		full = make([]bool, len(machines))
		flush = func(idxs []int, elapsed time.Duration) {
			ran := idxs[:0]
			for _, i := range idxs {
				if full[i] {
					ran = append(ran, i)
				}
			}
			s.observeChain(m, shared, ran, elapsed)
		}
	}
	var hit atomic.Bool
	s.fanOut(len(machines), func(i int) {
		if hit.Load() {
			shared[i] = machines[i].RunSharedWithLimit(input, 1)
			return
		}
		shared[i] = machines[i].RunSharedWithLimit(input, limit)
		if shared[i].Exit == vm.StepLimit {
			hit.Store(true)
		}
		if full != nil {
			full[i] = true
		}
	}, flush)
	return !hit.Load()
}

// cloneResults materializes machine-owned results into independent
// ones, packing all k Result structs and all their output bytes into
// two allocations instead of per-result Clones.
func cloneResults(shared []*vm.Result) []*vm.Result {
	arena := make([]vm.Result, len(shared))
	nbytes := 0
	for _, r := range shared {
		nbytes += len(r.Stdout) + len(r.Stderr)
	}
	buf := make([]byte, 0, nbytes)
	results := make([]*vm.Result, len(shared))
	for i, r := range shared {
		c := &arena[i]
		*c = *r
		// Full slice expressions cap each view at its own bytes, so a
		// later append on one result cannot clobber its neighbour.
		buf = append(buf, r.Stdout...)
		c.Stdout = buf[len(buf)-len(r.Stdout) : len(buf) : len(buf)]
		buf = append(buf, r.Stderr...)
		c.Stderr = buf[len(buf)-len(r.Stderr) : len(buf) : len(buf)]
		if r.Trace != nil {
			c.Trace = append([]int32(nil), r.Trace...)
		}
		results[i] = c
	}
	return results
}

// hashResult checksums one result's canonical output. Without a
// normalizer the encoding is streamed through the pooled digest
// straight from the machine-owned buffers — no copy, no allocation.
// With one, the encoding must be materialized for the rewrite rules
// (RQ5), exactly as before.
func (s *Suite) hashResult(r *vm.Result, d *hash.Digest) uint64 {
	if n := s.opts.Normalizer; n != nil {
		return hash.Sum64(n.Apply(r.Encode()), outputHashSeed)
	}
	d.Reset(outputHashSeed)
	r.EncodeTo(d)
	h1, _ := d.Sum128()
	return h1
}

// observeChain records one worker chain of VM executions: each run in
// idxs is classified, and the chain's wall-clock time is apportioned
// across the runs proportionally to their executed step counts. Steps
// measure the work a run did, so the apportionment is an accurate
// per-run latency estimate while the chain total is exact — and the
// clock stays off the per-run hot path (see fanOut).
func (s *Suite) observeChain(m *telemetry.SuiteMetrics, results []*vm.Result, idxs []int, elapsed time.Duration) {
	var total int64
	for _, i := range idxs {
		total += results[i].Steps
	}
	for _, i := range idxs {
		r := results[i]
		d := elapsed
		if total > 0 {
			// float64 keeps elapsed*steps from overflowing int64 on
			// grown-budget re-runs.
			d = time.Duration(float64(elapsed) * (float64(r.Steps) / float64(total)))
		} else if n := len(idxs); n > 1 {
			d = elapsed / time.Duration(n)
		}
		m.ObserveRun(i, ClassifyResult(r), d)
	}
}

// growBudget is the RQ6 re-run budget: the base step limit grown 4x
// per retry. A shift that overflows int64 would hand the VM a negative
// or truncated limit and turn every re-run into an instant spurious
// timeout, so the budget saturates at MaxInt64 instead.
func growBudget(base int64, retries int) int64 {
	b := base << (2 * uint(retries))
	if b>>(2*uint(retries)) != base || b <= 0 {
		return math.MaxInt64
	}
	return b
}

// ClassifyResult maps one VM result to its telemetry outcome class:
// the AFL-style crash/hang buckets, with the step-limit exit playing
// the timeout role (§3.2).
func ClassifyResult(r *vm.Result) telemetry.Class {
	switch {
	case r.Exit == vm.StepLimit:
		return telemetry.ClassStepLimitHang
	case r.Crashed():
		return telemetry.ClassCrash
	default:
		return telemetry.ClassOK
	}
}

// RunAll executes a set of inputs, returning only diverging outcomes.
func (s *Suite) RunAll(inputs [][]byte) []*Outcome {
	var diffs []*Outcome
	for _, in := range inputs {
		if o := s.Run(in); o.Diverged {
			diffs = append(diffs, o)
		}
	}
	return diffs
}

// Names lists the implementation names in suite order.
func (s *Suite) Names() []string {
	out := make([]string, len(s.Impls))
	for i, im := range s.Impls {
		out[i] = im.Name()
	}
	return out
}
