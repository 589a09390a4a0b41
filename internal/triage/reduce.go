package triage

import (
	"errors"
	"fmt"

	"compdiff/internal/compiler"
	"compdiff/internal/core"
	"compdiff/internal/minic/ast"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
	"compdiff/internal/telemetry"
	"compdiff/internal/vm"
)

// ReduceOptions configures a reduction.
type ReduceOptions struct {
	// Configs are the compiler implementations the divergence must
	// keep reproducing on. Defaults to the paper's ten.
	Configs []compiler.Config
	// Suite carries the differential-execution options (step limit,
	// normalizer, parallelism) every candidate re-runs under.
	Suite core.Options
	// MaxSuiteRuns bounds the total number of differential suite
	// executions the reduction may spend, including the baseline run
	// (each one executes all k binaries). Zero means DefaultBudget.
	MaxSuiteRuns int
}

// DefaultBudget is the default MaxSuiteRuns. Candidate evaluations
// dominate reduction cost, so this is the knob that bounds wall-clock.
const DefaultBudget = 4000

// Reduction is the result of reducing one finding.
type Reduction struct {
	// Source is the minimized MiniC program.
	Source string
	// Input is the minimized triggering input.
	Input []byte
	// Fingerprint is the preserved divergence fingerprint — identical
	// to the original finding's by construction.
	Fingerprint Fingerprint

	// OrigSourceBytes / OrigInputBytes are the sizes going in.
	OrigSourceBytes int
	OrigInputBytes  int
	// SuiteRuns is the number of differential executions spent;
	// Builds the number of candidate k-implementation compilations.
	SuiteRuns int
	Builds    int
}

// SourceShrink is the fraction of source bytes removed, in [0, 1].
func (r *Reduction) SourceShrink() float64 {
	if r.OrigSourceBytes == 0 {
		return 0
	}
	return 1 - float64(len(r.Source))/float64(r.OrigSourceBytes)
}

// ErrNoDivergence reports that the finding to reduce does not diverge
// under the given implementations, so there is nothing to preserve.
var ErrNoDivergence = errors.New("triage: finding does not diverge")

// Reduce shrinks a diverging finding — a MiniC program plus the input
// that triggers the divergence — to a smaller reproducer with the
// *same* divergence fingerprint. Delta debugging runs at two levels:
// AST passes over the program (drop statements and declarations,
// collapse branches, inline single-use locals, simplify expressions,
// shrink literals) and classic ddmin over the input bytes. Every
// candidate is re-compiled under all k implementations and re-executed
// differentially; it is accepted only if it still parses, passes
// sema, and reproduces the original fingerprint. Checksum changes are
// explicitly allowed — an uninitialized read prints different garbage
// once the frame shrinks, yet it is still the same bug as long as the
// implementations disagree the same way.
//
// Compile-stage findings reduce too: when the baseline program itself
// diverges at compile time (accept/reject split, ICE, or diagnostic
// mismatch), the acceptance predicate becomes compile-fingerprint
// preservation — same partition, same normalized crash/diagnostic
// keys — and no VM run is needed.
//
// Reduce is deterministic: same finding, same options, same result,
// regardless of Suite.Parallelism.
func Reduce(src string, input []byte, opts ReduceOptions) (*Reduction, error) {
	red, _, err := reduce(src, input, opts)
	return red, err
}

// reduce is Reduce, also returning the reducer for in-package tests.
func reduce(src string, input []byte, opts ReduceOptions) (*Reduction, *reducer, error) {
	cfgs := opts.Configs
	if len(cfgs) == 0 {
		cfgs = compiler.DefaultSet()
	}
	budget := opts.MaxSuiteRuns
	if budget <= 0 {
		budget = DefaultBudget
	}
	r := &reducer{cfgs: cfgs, sopts: opts.Suite, budget: budget, spares: core.NewSpares()}

	suite, co, err := r.buildDifferential(src)
	if err != nil {
		return nil, r, fmt.Errorf("triage: baseline: %w", err)
	}
	if fp, ok := OfCompile(co); ok {
		// Compile-stage finding: the program itself is the reproducer.
		// Reduction preserves the compile fingerprint (same
		// accept/reject/ICE partition, same normalized message keys) and
		// never runs the VM; the input is irrelevant and drops to empty.
		r.compileMode = true
		r.fp = fp
		r.best = src
		r.spares.Release(suite)
		for !r.exhausted() {
			if !r.reduceProgram() {
				break
			}
		}
		return &Reduction{
			Source:          r.best,
			Fingerprint:     r.fp,
			OrigSourceBytes: len(src),
			OrigInputBytes:  len(input),
			SuiteRuns:       r.runs,
			Builds:          r.builds,
		}, r, nil
	}
	if suite == nil {
		// Uniformly rejected program: nothing diverges.
		return nil, r, ErrNoDivergence
	}
	base := r.run(suite, input)
	if base == nil || !base.Diverged {
		return nil, r, ErrNoDivergence
	}
	r.fp = Of(base)
	r.best = src
	r.bestSuite = suite
	r.input = input
	r.capSteps = capEnabled(r.fp)
	r.setBestSteps(base)

	// Alternate program and input reduction until a full round makes
	// no progress (or the budget runs dry). Program first: dropping
	// the code that consumes input bytes is what unlocks input ddmin.
	for {
		progress := r.reduceProgram()
		progress = r.reduceInput() || progress
		if !progress || r.exhausted() {
			break
		}
	}

	return &Reduction{
		Source:          r.best,
		Input:           r.input,
		Fingerprint:     r.fp,
		OrigSourceBytes: len(src),
		OrigInputBytes:  len(input),
		SuiteRuns:       r.runs,
		Builds:          r.builds,
	}, r, nil
}

// reducer carries one reduction's state.
type reducer struct {
	cfgs   []compiler.Config
	sopts  core.Options
	budget int
	// spares recycles the machines of rejected candidates' suites and
	// of each replaced bestSuite into the next candidate's suite.
	spares *core.Spares

	fp        Fingerprint
	best      string
	bestSuite *core.Suite
	input     []byte
	// bestProg is the unchecked parse of best, made once per accepted
	// best (nil until a pass needs it). Passes edit clones of it and
	// never the tree itself.
	bestProg *ast.Program

	// compileMode reduces against the compile-stage fingerprint: a
	// candidate is accepted when it reproduces the same
	// accept/reject/ICE partition with the same normalized message
	// keys. No VM ever runs; each candidate's k-way compilation is
	// charged against the budget like a suite run.
	compileMode bool

	// capSteps says whether candidates run under the step cap (see
	// stepCap); bestSteps is the largest step count among the current
	// best's k results.
	capSteps  bool
	bestSteps int64
	// cappedRuns counts the candidates run under the step cap, and
	// capRejects those the cap rejected.
	cappedRuns, capRejects int

	runs   int
	builds int
}

// The candidate step cap. Each candidate runs with every binary
// bounded by capFactor times the current best's step count, and at
// least capFloor steps; a candidate that hits the cap in any binary is
// rejected there, so an edit that leaves an infinite loop costs a few
// hundred thousand steps instead of ten full step limits. A run that
// finishes within the cap is exactly the run the uncapped suite would
// make, so the cap only ever rejects: it changes a reduction only if
// some candidate needing more than capFactor times the best's steps
// would have reproduced the finding (DESIGN §8.6).
const (
	capFactor = 8
	capFloor  = 64 << 10
)

// capOff switches the step cap off, for tests that compare a
// reduction against its uncapped twin.
var capOff bool

// capEnabled reports whether a finding's candidates may run capped.
// Step-limit findings may not: a binary of theirs must time out, and a
// capped run rejects every candidate in which one does.
func capEnabled(fp Fingerprint) bool {
	if capOff {
		return false
	}
	for _, c := range fp.Classes {
		if c == uint8(telemetry.ClassStepLimitHang) {
			return false
		}
	}
	return true
}

// setBestSteps records the step count of a new best's outcome.
func (r *reducer) setBestSteps(o *core.Outcome) {
	r.bestSteps = 0
	for _, res := range o.Results {
		r.bestSteps = max(r.bestSteps, res.Steps)
	}
}

// stepCap returns the step limit a candidate runs under, or 0 for the
// ordinary uncapped run. A cap at or above the suite's own step limit
// runs uncapped: the capped path drops the RQ6 re-runs, so it could
// otherwise finish a candidate the ordinary path times out, and a best
// that needed those re-runs keeps them.
func (r *reducer) stepCap() int64 {
	if !r.capSteps {
		return 0
	}
	limit := r.sopts.StepLimit
	if limit <= 0 {
		limit = vm.DefaultStepLimit
	}
	c := max(capFactor*r.bestSteps, capFloor)
	if c >= limit {
		return 0
	}
	return c
}

func (r *reducer) exhausted() bool { return r.runs >= r.budget }

// build compiles src under every configuration. Parse or sema
// failures are returned, not counted against the budget.
func (r *reducer) build(src string) (*core.Suite, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := sema.Check(prog)
	if err != nil {
		return nil, err
	}
	r.builds++
	return r.spares.Build(info, r.cfgs, r.sopts)
}

// buildDifferential compiles src under every configuration with the
// compile-stage oracle. Parse or sema failures are returned, not
// counted against the budget.
func (r *reducer) buildDifferential(src string) (*core.Suite, *core.CompileOutcome, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	info, err := sema.Check(prog)
	if err != nil {
		return nil, nil, err
	}
	r.builds++
	return r.spares.BuildDifferential(info, r.cfgs, r.sopts)
}

// tryProgramCompile evaluates one candidate source against the
// compile-stage fingerprint.
func (r *reducer) tryProgramCompile(src string) bool {
	if r.exhausted() {
		return false
	}
	suite, co, err := r.buildDifferential(src)
	if err != nil {
		return false // does not parse or does not check: rejected free
	}
	r.spares.Release(suite)
	r.runs++
	fp, ok := OfCompile(co)
	if !ok || !fp.Equal(r.fp) {
		return false
	}
	r.setBest(src)
	return true
}

// setBest records an accepted candidate and drops the parse of the
// previous best.
func (r *reducer) setBest(src string) {
	r.best, r.bestProg = src, nil
}

// run executes one differential suite run, charging the budget.
// Returns nil when the budget is already spent.
func (r *reducer) run(s *core.Suite, input []byte) *core.Outcome {
	if r.exhausted() {
		return nil
	}
	r.runs++
	return s.Run(input)
}

// runCandidate is run under the step cap: it also returns nil when
// the cap rejected the candidate, which is charged one suite run all
// the same.
func (r *reducer) runCandidate(s *core.Suite, input []byte) *core.Outcome {
	c := r.stepCap()
	if c == 0 || r.exhausted() {
		return r.run(s, input)
	}
	r.runs++
	r.cappedRuns++
	o := s.RunCapped(input, c)
	if o == nil {
		r.capRejects++
	}
	return o
}

// tryProgram evaluates one candidate source. Accepting updates best
// and bestSuite.
func (r *reducer) tryProgram(src string) bool {
	if src == r.best || len(src) > len(r.best) {
		return false
	}
	if r.compileMode {
		return r.tryProgramCompile(src)
	}
	suite, err := r.build(src)
	if err != nil {
		return false // does not parse or does not check: rejected free
	}
	o := r.runCandidate(suite, r.input)
	if o == nil || !o.Diverged || !Of(o).Equal(r.fp) {
		r.spares.Release(suite)
		return false
	}
	r.spares.Release(r.bestSuite)
	r.setBest(src)
	r.bestSuite = suite
	r.setBestSteps(o)
	return true
}

// reduceProgram runs one full round of AST passes over the current
// best program, greedily accepting fingerprint-preserving edits.
// Returns whether anything shrank. Every candidate is one edit applied
// to a fresh clone of the best program's tree, so a rejected edit
// needs no undo; the tree itself is parsed once per accepted best.
// The printed candidate is still parsed and checked again by build:
// positions, and with them __LINE__, come from the printed text, not
// from the edited clone.
func (r *reducer) reduceProgram() bool {
	progress := false
	for _, ps := range reductionPasses {
		k := 0
		for !r.exhausted() {
			if r.bestProg == nil {
				prog, err := parser.Parse(r.best)
				if err != nil {
					break // cannot happen for accepted sources; bail safely
				}
				r.bestProg = prog
			}
			prog := ast.CloneProgram(r.bestProg)
			if !ps.apply(prog, k) {
				break // this pass's edits are exhausted
			}
			if r.tryProgram(ast.Print(prog)) {
				progress = true
				// Indices shifted under the accepted edit: retry the
				// same k against the new best.
				continue
			}
			k++
		}
	}
	return progress
}

// tryInput evaluates one candidate input on the current best suite.
func (r *reducer) tryInput(cand []byte) bool {
	if len(cand) >= len(r.input) {
		return false
	}
	o := r.runCandidate(r.bestSuite, cand)
	if o == nil || !o.Diverged || !Of(o).Equal(r.fp) {
		return false
	}
	r.input = append([]byte(nil), cand...)
	r.setBestSteps(o)
	return true
}

// reduceInput is classic ddmin over the input bytes (Zeller &
// Hildebrandt): try the empty input, then complements of an
// ever-finer chunk partition. The predicate is fingerprint
// preservation on the current best program.
func (r *reducer) reduceInput() bool {
	if len(r.input) == 0 {
		return false
	}
	progress := false
	if r.tryInput(nil) {
		return true
	}
	n := 2
	for len(r.input) >= 2 && !r.exhausted() {
		reduced := false
		chunk := (len(r.input) + n - 1) / n
		for start := 0; start < len(r.input); start += chunk {
			end := start + chunk
			if end > len(r.input) {
				end = len(r.input)
			}
			cand := make([]byte, 0, len(r.input)-(end-start))
			cand = append(cand, r.input[:start]...)
			cand = append(cand, r.input[end:]...)
			if r.tryInput(cand) {
				reduced, progress = true, true
				if n > 2 {
					n--
				}
				break
			}
			if r.exhausted() {
				break
			}
		}
		if !reduced {
			if n >= len(r.input) {
				break
			}
			n *= 2
			if n > len(r.input) {
				n = len(r.input)
			}
		}
	}
	return progress
}
