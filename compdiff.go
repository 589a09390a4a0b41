// Package compdiff is the public API of this repository: a Go
// implementation of compiler-driven differential testing (CompDiff)
// from "Finding Unstable Code via Compiler-Driven Differential
// Testing" (Li & Su, ASPLOS 2023), together with every substrate the
// paper's evaluation needs — a C-like language (MiniC) with ten
// divergent compiler implementations, an AFL++-style fuzzer, sanitizer
// and static-analyzer baselines, a Juliet-style benchmark suite, and
// 23 synthetic real-world targets.
//
// The core idea: compile a program under several compiler
// implementations, run every test input on all binaries, and compare
// checksums of their outputs. For a program with deterministic output,
// any discrepancy proves *unstable code* — code whose semantics the
// standard leaves undefined and which the implementations resolved
// differently.
//
// Quick start:
//
//	suite, err := compdiff.New(src, compdiff.DefaultImplementations(), compdiff.Options{})
//	outcome := suite.Run(input)
//	if outcome.Diverged { ... unstable code found ... }
//
// Fuzzing integration (CompDiff-AFL++, Algorithm 1) runs as a campaign
// pool: one fuzzer by default, or CampaignOptions.Shards instances in
// the paper's 64-core AFL++ -M/-S topology (§4), optionally with
// parallel differential execution:
//
//	p, err := compdiff.NewCampaignPool(src, seeds, compdiff.CampaignOptions{Shards: 8, Parallelism: 4})
//	p.Run(ctx, 100000) // per-shard budget; barriers sync corpora and diffs
//	for _, d := range p.Diffs() { fmt.Println(d.Report(p.ImplNames())) }
package compdiff

import (
	"compdiff/internal/checkpoint"
	"compdiff/internal/compiler"
	"compdiff/internal/core"
	"compdiff/internal/difffuzz"
	"compdiff/internal/telemetry"
	"compdiff/internal/triage"
	"compdiff/internal/vm"
)

// Implementation selects one compiler implementation: a family
// (GCC-like or Clang-like) at an optimization level, optionally with
// coverage instrumentation or sanitizer support.
type Implementation = compiler.Config

// Compiler families and optimization levels.
const (
	GCC   = compiler.GCC
	Clang = compiler.Clang
	O0    = compiler.O0
	O1    = compiler.O1
	O2    = compiler.O2
	O3    = compiler.O3
	Os    = compiler.Os
)

// Options configures a differential-testing suite (step budget,
// timeout re-run policy, output normalization).
type Options = core.Options

// Suite is a program compiled under k implementations, ready for
// differential execution.
type Suite = core.Suite

// Outcome is the result of one differential execution: per-binary
// results, normalized output hashes, and the divergence verdict.
type Outcome = core.Outcome

// Normalizer rewrites captured output before comparison, to filter
// legitimate non-determinism such as timestamps (paper RQ5).
type Normalizer = core.Normalizer

// DiffStore deduplicates bug-triggering inputs by divergence
// signature (the diffs/ directory of CompDiff-AFL++).
type DiffStore = core.DiffStore

// StoredDiff is one unique discrepancy with a representative input.
type StoredDiff = core.StoredDiff

// CampaignOptions configures a campaign.
type CampaignOptions = difffuzz.Options

// CampaignPool is a CompDiff-AFL++ campaign: CampaignOptions.Shards
// AFL++-style fuzzer instances (one by default) whose every generated
// input is cross-checked over the CompDiff binaries, run AFL
// -M/-S-style with periodic corpus/diff synchronization through a
// shared DiffStore — the paper's 64-core campaign topology (§4).
type CampaignPool = difffuzz.Pool

// PoolStats summarizes a sharded campaign run.
type PoolStats = difffuzz.PoolStats

// SanMode selects sanitizer instrumentation for the fuzzing binary.
type SanMode = vm.SanMode

// Sanitizer modes for CampaignOptions.Sanitizer.
const (
	SanNone  = vm.SanNone
	SanASan  = vm.SanASan
	SanUBSan = vm.SanUBSan
	SanMSan  = vm.SanMSan
)

// DefaultImplementations returns the paper's ten compiler
// implementations: {gcc, clang} × {-O0, -O1, -O2, -O3, -Os}.
func DefaultImplementations() []Implementation {
	return compiler.DefaultSet()
}

// RecommendedPair returns the paper's resource-constrained two-binary
// configuration: different families, one unoptimizing and one
// size-optimizing, which retains most of the detection power at ~2×
// execution cost.
func RecommendedPair() []Implementation {
	return []Implementation{
		{Family: GCC, Opt: Os},
		{Family: Clang, Opt: O0},
	}
}

// New parses, checks, and compiles MiniC source under every given
// implementation, returning the differential-testing suite.
func New(src string, impls []Implementation, opts Options) (*Suite, error) {
	return core.BuildSource(src, impls, opts)
}

// NewCampaignPool builds a CompDiff-AFL++ campaign over MiniC source
// with the given seed corpus: opts.Shards fuzzer instances with
// distinct RNG seeds derived from opts.FuzzSeed, synchronized every
// opts.SyncEvery executions. With Shards <= 1 it is a single fuzzer
// that runs its whole budget in one epoch, fuzzing with opts.FuzzSeed
// itself. With opts.CheckpointDir set, the pool writes a crash-safe
// snapshot at its synchronization barriers; ResumeCampaignPool picks
// a killed campaign back up from the latest one.
func NewCampaignPool(src string, seeds [][]byte, opts CampaignOptions) (*CampaignPool, error) {
	return difffuzz.NewPool(src, seeds, opts)
}

// ResumeCampaignPool rebuilds a sharded campaign from the checkpoint
// in opts.CheckpointDir. The source, seeds, and determinism-relevant
// options must match the checkpointed campaign exactly
// (ErrCheckpointMismatch otherwise); a campaign checkpointed after N
// executions and resumed for N more finds the same unique-signature
// and bucket-key sets as an uninterrupted 2N-execution run. Errors:
// ErrNoCheckpoint (nothing to resume), ErrCheckpointMismatch (options
// differ), ErrCheckpointCorrupt (damaged files).
func ResumeCampaignPool(src string, seeds [][]byte, opts CampaignOptions) (*CampaignPool, error) {
	return difffuzz.ResumePool(src, seeds, opts)
}

// CampaignHash fingerprints the determinism-relevant campaign inputs
// (source, seed corpus, options); checkpoints only resume into a
// campaign with a matching hash.
func CampaignHash(src string, seeds [][]byte, opts CampaignOptions) uint64 {
	return difffuzz.CampaignHash(src, seeds, opts)
}

// Checkpoint/resume error classes (match with errors.Is).
var (
	// ErrNoCheckpoint reports that the checkpoint directory holds no
	// checkpoint — typically a cue to start fresh.
	ErrNoCheckpoint = checkpoint.ErrNoCheckpoint
	// ErrCheckpointCorrupt reports a damaged or truncated checkpoint.
	ErrCheckpointCorrupt = checkpoint.ErrCorrupt
	// ErrCheckpointMismatch reports a checkpoint written by a campaign
	// with different source, seeds, or options.
	ErrCheckpointMismatch = checkpoint.ErrMismatch
)

// DefaultNormalizer filters the non-determinism classes the paper's
// RQ5 encountered (clock timestamps, printed pointers).
func DefaultNormalizer() *Normalizer {
	return core.DefaultNormalizer()
}

// NewDiffStore creates a discrepancy store; with a non-empty dir,
// representative bug-triggering inputs are written to dir/diffs/.
func NewDiffStore(dir string) *DiffStore {
	return core.NewDiffStore(dir)
}

// Localization is a trace-diff fault-localization result: the last
// source line two disagreeing binaries share before their control
// flow separates (the paper's §5 future-work direction, realized via
// the VM's line traces).
type Localization = core.Localization

// CampaignSnapshot is one AFL-plot-style progress record; campaigns
// append them to an in-memory series and (with StatsDir set) to
// StatsDir/plot.jsonl.
type CampaignSnapshot = telemetry.Snapshot

// ShardSnapshot is one shard's state inside a pool snapshot.
type ShardSnapshot = telemetry.ShardSnapshot

// ImplSummary aggregates one implementation's run telemetry: outcome
// counts by class and a latency histogram.
type ImplSummary = telemetry.ImplSummary

// Outcome classes for ImplSummary counters.
const (
	ClassOK            = telemetry.ClassOK
	ClassCrash         = telemetry.ClassCrash
	ClassStepLimitHang = telemetry.ClassStepLimitHang
	ClassDiff          = telemetry.ClassDiff
)

// Fingerprint is a divergence fingerprint: the implementation
// agreement partition, the per-implementation outcome classes, and the
// first stage of the implementation chain that diverges. It is
// deliberately coarser than a raw discrepancy signature — checksum
// changes that keep the disagreement shape map to the same fingerprint,
// which is what lets the reducer rewrite a finding without losing its
// identity.
type Fingerprint = triage.Fingerprint

// Bucket is one fingerprint-deduplicated finding with a representative
// outcome and hit counters.
type Bucket = triage.Bucket

// BucketStore deduplicates diverging outcomes by fingerprint — the
// triage layer above the signature-keyed DiffStore.
type BucketStore = triage.BucketStore

// ReduceOptions configures a delta-debugging reduction.
type ReduceOptions = triage.ReduceOptions

// Reduction is the result of reducing one finding: the minimized
// program and input, the preserved fingerprint, and the cost spent.
type Reduction = triage.Reduction

// ErrNoDivergence reports that a finding handed to Reduce does not
// diverge, so there is nothing to preserve.
var ErrNoDivergence = triage.ErrNoDivergence

// FingerprintOf computes the divergence fingerprint of a diverging
// outcome.
func FingerprintOf(o *Outcome) Fingerprint {
	return triage.Of(o)
}

// NewBucketStore creates an empty triage bucket store.
func NewBucketStore() *BucketStore {
	return triage.NewBucketStore()
}

// Reduce delta-debugs a diverging finding (program + input) to a
// smaller reproducer with the same divergence fingerprint, using AST
// reduction passes and ddmin over the input bytes. Compile-stage
// findings reduce too: the predicate becomes compile-fingerprint
// preservation and no VM run is needed.
func Reduce(src string, input []byte, opts ReduceOptions) (*Reduction, error) {
	return triage.Reduce(src, input, opts)
}

// CompileStatus is one implementation's verdict on a program: accept,
// reject (diagnosed error), or ICE (the implementation itself crashed).
type CompileStatus = core.CompileStatus

// Compile-stage statuses.
const (
	CompileAccept = core.StatusAccept
	CompileReject = core.StatusReject
	CompileICE    = core.StatusICE
)

// ImplCompile is one implementation's compile-stage record: status,
// rendered diagnostics, and the captured ICE panic text, if any.
type ImplCompile = core.ImplCompile

// CompileOutcome is the k-way compile-stage record for one program —
// the compile-time analogue of Outcome.
type CompileOutcome = core.CompileOutcome

// FindingKind classifies a triage bucket: a runtime divergence or one
// of the compile-stage classes.
type FindingKind = triage.Kind

// Finding kinds.
const (
	KindRuntime           = triage.KindRuntime
	KindCompileDivergence = triage.KindCompileDivergence
	KindICE               = triage.KindICE
	KindDiagMismatch      = triage.KindDiagMismatch
)

// NewDifferential parses, checks, and compiles MiniC source under
// every implementation with the compile-stage oracle engaged. Parse
// and sema failures return an error (the program is malformed for
// everyone). Otherwise the CompileOutcome records every
// implementation's verdict; the Suite is non-nil only when all of them
// accepted. Use CompileFingerprintOf to decide whether a
// not-universally-accepted outcome is a finding or a mundane uniform
// reject.
func NewDifferential(src string, impls []Implementation, opts Options) (*Suite, *CompileOutcome, error) {
	return core.BuildSourceDifferential(src, impls, opts)
}

// CompileFingerprintOf classifies a compile outcome. It reports a
// fingerprint (and true) for the three compile-stage finding classes —
// accept/reject divergence, ICE, diagnostics mismatch — and false for
// universal acceptance or a uniform reject.
func CompileFingerprintOf(co *CompileOutcome) (Fingerprint, bool) {
	return triage.OfCompile(co)
}

// CompileCampaign is a sharded compile-oracle campaign over a MiniC
// *program* corpus: every program is compiled under all k
// implementations behind recover boundaries, compile-stage findings
// land in triage buckets, and universally-accepted programs are
// cross-checked at runtime too.
type CompileCampaign = difffuzz.CompilePool

// CompileCampaignOptions configures a compile-oracle campaign.
type CompileCampaignOptions = difffuzz.CompilePoolOptions

// CompileCampaignStats summarizes a compile-oracle campaign.
type CompileCampaignStats = difffuzz.CompilePoolStats

// NewCompileCampaign builds a compile-oracle campaign over a program
// corpus. With opts.CheckpointDir set, the campaign writes crash-safe
// snapshots at its barriers; ResumeCompileCampaign picks a killed
// campaign back up with an identical final bucket set.
func NewCompileCampaign(corpus []string, opts CompileCampaignOptions) (*CompileCampaign, error) {
	return difffuzz.NewCompilePool(corpus, opts)
}

// ResumeCompileCampaign rebuilds a compile-oracle campaign from the
// checkpoint in opts.CheckpointDir. Error classes match
// ResumeCampaignPool's.
func ResumeCompileCampaign(corpus []string, opts CompileCampaignOptions) (*CompileCampaign, error) {
	return difffuzz.ResumeCompilePool(corpus, opts)
}

// EvolveCampaign is an evolutionary coverage-directed campaign
// (-evolve): a population of MiniC programs is evaluated through the
// compile-stage and runtime differential oracles each generation,
// scored by a composite fitness — cumulative optimizer-pass coverage,
// divergence proximity from the checksum-agreement partition, and
// expected-length parsimony — and bred with mutation operators that
// invert the triage reduction passes (splicing in the unstable-code
// idioms reduction strips out). Every offspring is gated through the
// shared front end, and findings land in the same triage buckets as
// every other campaign mode.
type EvolveCampaign = difffuzz.EvolvePool

// EvolveCampaignOptions configures an evolutionary campaign.
type EvolveCampaignOptions = difffuzz.EvolvePoolOptions

// EvolveCampaignStats summarizes an evolutionary campaign: generation
// progress, cumulative pass coverage, last-generation fitness, and the
// finding counters shared with the other campaign modes.
type EvolveCampaignStats = difffuzz.EvolvePoolStats

// NewEvolveCampaign builds a fresh evolutionary campaign; the founder
// population is generated from opts.Seed. With opts.CheckpointDir set,
// the campaign writes a crash-safe snapshot at its generation
// barriers; ResumeEvolveCampaign picks a killed campaign back up with
// the same population sequence and final finding set as an
// uninterrupted run.
func NewEvolveCampaign(opts EvolveCampaignOptions) (*EvolveCampaign, error) {
	return difffuzz.NewEvolvePool(opts)
}

// ResumeEvolveCampaign rebuilds an evolutionary campaign from the
// checkpoint in opts.CheckpointDir. Error classes match
// ResumeCampaignPool's.
func ResumeEvolveCampaign(opts EvolveCampaignOptions) (*EvolveCampaign, error) {
	return difffuzz.ResumeEvolvePool(opts)
}

// EvolveCampaignHash fingerprints the determinism-relevant knobs of an
// evolutionary campaign; checkpoints only resume into a campaign with
// a matching hash.
func EvolveCampaignHash(opts EvolveCampaignOptions) uint64 {
	return difffuzz.EvolveCampaignHash(opts)
}
