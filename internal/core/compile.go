package core

import (
	"fmt"

	"compdiff/internal/compiler"
	"compdiff/internal/hash"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
)

// The compile-stage differential oracle: before a program ever runs,
// the k implementations can already disagree — some accept and some
// reject (CompileDivergence), one crashes with an internal compiler
// error (ICE), or all reject but with different diagnostics
// (DiagMismatch). BuildDifferential records those facts per
// implementation; internal/triage turns them into fingerprinted
// findings.

// CompileStatus classifies one implementation's compile attempt.
type CompileStatus uint8

const (
	// StatusAccept: the implementation produced a program.
	StatusAccept CompileStatus = iota
	// StatusReject: the implementation refused the program with an
	// ordinary diagnostic.
	StatusReject
	// StatusICE: the implementation crashed (panicked) compiling it.
	StatusICE
)

// String returns the status name.
func (s CompileStatus) String() string {
	switch s {
	case StatusAccept:
		return "accept"
	case StatusReject:
		return "reject"
	default:
		return "ice"
	}
}

// ImplCompile is one implementation's compile-stage record.
type ImplCompile struct {
	Name   string        `json:"name"`
	Status CompileStatus `json:"status"`
	// Diags are the implementation's rendered warnings and errors.
	Diags []string `json:"diags,omitempty"`
	// Error is the compile error text for reject/ICE statuses.
	Error string `json:"error,omitempty"`
	// ICE is the raw panic text when Status is StatusICE.
	ICE string `json:"ice,omitempty"`
}

// CompileOutcome is the compile-stage record of one program across
// the whole implementation set, in suite order.
type CompileOutcome struct {
	Impls []ImplCompile `json:"impls"`
}

// AnyICE reports whether any implementation crashed.
func (co *CompileOutcome) AnyICE() bool {
	for _, im := range co.Impls {
		if im.Status == StatusICE {
			return true
		}
	}
	return false
}

// AllAccepted reports whether every implementation produced a program.
func (co *CompileOutcome) AllAccepted() bool {
	for _, im := range co.Impls {
		if im.Status != StatusAccept {
			return false
		}
	}
	return true
}

// AllRejected reports whether no implementation produced a program.
func (co *CompileOutcome) AllRejected() bool {
	for _, im := range co.Impls {
		if im.Status == StatusAccept {
			return false
		}
	}
	return true
}

// Signature folds the raw per-implementation records into a 64-bit
// identity, the compile-stage analogue of Outcome.Signature. Unlike
// the triage fingerprint it hashes the raw (un-normalized) texts, so
// it distinguishes concrete reproducers within one bucket.
func (co *CompileOutcome) Signature() uint64 {
	d := hash.New128(0xc0de)
	for _, im := range co.Impls {
		d.Write([]byte{byte(im.Status), 0xfe})
		d.Write([]byte(im.Error))
		d.Write([]byte{0xfe})
		d.Write([]byte(im.ICE))
		for _, dg := range im.Diags {
			d.Write([]byte{0xfd})
			d.Write([]byte(dg))
		}
	}
	h1, _ := d.Sum128()
	return h1
}

// BuildDifferential compiles the checked program under every
// configuration with per-implementation recover boundaries and
// records each one's accept/reject/ICE status. When all k accept, the
// returned Suite is ready for runtime differential execution; when
// any implementation rejects or crashes, the Suite is nil and the
// CompileOutcome itself is the (potential) finding. The outcome is
// positional and deterministic regardless of Options.Parallelism.
//
// The returned error is reserved for harness misuse (fewer than two
// configurations); per-implementation failures are data, not errors.
func BuildDifferential(info *sema.Info, cfgs []compiler.Config, opts Options) (*Suite, *CompileOutcome, error) {
	return (*Spares)(nil).BuildDifferential(info, cfgs, opts)
}

// BuildDifferential is the package-level BuildDifferential with
// machines drawn from sp.
func (sp *Spares) BuildDifferential(info *sema.Info, cfgs []compiler.Config, opts Options) (*Suite, *CompileOutcome, error) {
	opts = opts.withDefaults()
	if len(cfgs) < 2 {
		return nil, nil, fmt.Errorf("compdiff: need at least 2 compiler implementations, got %d", len(cfgs))
	}

	results := compiler.CompileAll(info, cfgs, opts.Parallelism)
	return sp.AssembleDifferential(results, cfgs, opts)
}

// AssembleDifferential builds the compile outcome and (when all
// implementations accepted) a Suite from per-implementation compile
// results obtained elsewhere — the progcache hit path, where the k
// lowered programs already exist and only the outcome classification
// and the machines need constructing. results must be positional with
// cfgs. Each call yields an independent Suite: the cached
// *ir.Programs are immutable and shared read-only, and the suite owns
// its machines, new ones here or spares rebound to its binaries (see
// Spares).
func AssembleDifferential(results []compiler.Result, cfgs []compiler.Config, opts Options) (*Suite, *CompileOutcome, error) {
	return (*Spares)(nil).AssembleDifferential(results, cfgs, opts)
}

// AssembleDifferential is the package-level AssembleDifferential with
// machines drawn from sp.
func (sp *Spares) AssembleDifferential(results []compiler.Result, cfgs []compiler.Config, opts Options) (*Suite, *CompileOutcome, error) {
	opts = opts.withDefaults()
	if len(cfgs) < 2 {
		return nil, nil, fmt.Errorf("compdiff: need at least 2 compiler implementations, got %d", len(cfgs))
	}
	if len(results) != len(cfgs) {
		return nil, nil, fmt.Errorf("compdiff: %d compile results for %d configurations", len(results), len(cfgs))
	}

	co := &CompileOutcome{Impls: make([]ImplCompile, len(cfgs))}
	for i, res := range results {
		im := ImplCompile{Name: cfgs[i].Name(), Diags: res.Diags}
		switch {
		case res.ICE != "":
			im.Status = StatusICE
			im.ICE = res.ICE
			im.Error = res.Err.Error()
		case res.Err != nil:
			im.Status = StatusReject
			im.Error = res.Err.Error()
		default:
			im.Status = StatusAccept
		}
		co.Impls[i] = im
	}
	if !co.AllAccepted() {
		return nil, co, nil
	}

	s := &Suite{opts: opts}
	for i, cfg := range cfgs {
		s.Impls = append(s.Impls, sp.implementation(cfg, results[i].Prog, opts.StepLimit))
	}
	return s, co, nil
}

// BuildSourceDifferential parses, checks, and builds differentially.
// Parse and sema failures are uniform front-end rejects shared by
// every implementation — an error, never a finding.
func BuildSourceDifferential(src string, cfgs []compiler.Config, opts Options) (*Suite, *CompileOutcome, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, nil, fmt.Errorf("compdiff: parse: %w", err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		return nil, nil, fmt.Errorf("compdiff: check: %w", err)
	}
	return BuildDifferential(info, cfgs, opts)
}
