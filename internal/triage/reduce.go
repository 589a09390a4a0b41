package triage

import (
	"errors"
	"fmt"

	"compdiff/internal/compiler"
	"compdiff/internal/core"
	"compdiff/internal/minic/ast"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
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
		return nil, fmt.Errorf("triage: baseline: %w", err)
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
		}, nil
	}
	if suite == nil {
		// Uniformly rejected program: nothing diverges.
		return nil, ErrNoDivergence
	}
	base := r.run(suite, input)
	if base == nil || !base.Diverged {
		return nil, ErrNoDivergence
	}
	r.fp = Of(base)
	r.best = src
	r.bestSuite = suite
	r.input = input

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
	}, nil
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

	// compileMode reduces against the compile-stage fingerprint: a
	// candidate is accepted when it reproduces the same
	// accept/reject/ICE partition with the same normalized message
	// keys. No VM ever runs; each candidate's k-way compilation is
	// charged against the budget like a suite run.
	compileMode bool

	runs   int
	builds int
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
	r.best = src
	return true
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
	o := r.run(suite, r.input)
	if o == nil || !o.Diverged || !Of(o).Equal(r.fp) {
		r.spares.Release(suite)
		return false
	}
	r.spares.Release(r.bestSuite)
	r.best = src
	r.bestSuite = suite
	return true
}

// reduceProgram runs one full round of AST passes over the current
// best program, greedily accepting fingerprint-preserving edits.
// Returns whether anything shrank.
func (r *reducer) reduceProgram() bool {
	progress := false
	for _, ps := range reductionPasses {
		k := 0
		for !r.exhausted() {
			prog, err := parser.Parse(r.best)
			if err != nil {
				break // cannot happen for accepted sources; bail safely
			}
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
	o := r.run(r.bestSuite, cand)
	if o == nil || !o.Diverged || !Of(o).Equal(r.fp) {
		return false
	}
	r.input = append([]byte(nil), cand...)
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
