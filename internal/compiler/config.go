// Package compiler lowers type-checked MiniC programs to IR bytecode.
//
// A Config identifies one *compiler implementation* in the paper's
// sense: a compiler family (gcc-like or clang-like) at an optimization
// level. Each implementation makes different — individually legal —
// choices wherever the C standard leaves behaviour undefined or
// unspecified: argument evaluation order, arithmetic evaluation width,
// UB-assuming simplifications, frame layout, allocator personality,
// trap policies. Programs without undefined behaviour compile to
// semantically identical binaries under every Config (a property the
// test suite checks); programs with UB may not, which is exactly the
// signal CompDiff detects.
package compiler

import (
	"compdiff/internal/hash"
	"compdiff/internal/ir"
)

// Family is a compiler family.
type Family int

const (
	GCC Family = iota
	Clang
)

// String returns the family name.
func (f Family) String() string {
	if f == GCC {
		return "gcc"
	}
	return "clang"
}

// OptLevel is an optimization level.
type OptLevel int

const (
	O0 OptLevel = iota
	O1
	O2
	O3
	Os
)

// String returns the level spelling.
func (o OptLevel) String() string {
	switch o {
	case O0:
		return "-O0"
	case O1:
		return "-O1"
	case O2:
		return "-O2"
	case O3:
		return "-O3"
	default:
		return "-Os"
	}
}

// atLeast reports whether the level applies optimizations of lvl.
// Os optimizes roughly like O2.
func (o OptLevel) atLeast(lvl OptLevel) bool {
	eff := o
	if o == Os {
		eff = O2
	}
	l := lvl
	if lvl == Os {
		l = O2
	}
	return eff >= l
}

// Config selects a compiler implementation.
type Config struct {
	Family Family
	Opt    OptLevel

	// Instrument adds edge-coverage instrumentation (the fuzzer's
	// B_fuzz binary).
	Instrument bool

	// Sanitizer layout support: ASan inserts redzones between stack
	// slots so the VM's ASan mode can poison them.
	ASan bool

	// Sanitize disables the UB-exploiting transformations, the way
	// -fsanitize builds insert their checks before the optimizer can
	// assume UB away. Without this a -O1 sanitizer binary would lose
	// the very operations (dead loads, folded checks) it must check.
	Sanitize bool
}

// Name returns the implementation name, e.g. "gcc -O2".
func (c Config) Name() string {
	n := c.Family.String() + " " + c.Opt.String()
	if c.ASan {
		n += " +asan"
	}
	if c.Instrument {
		n += " +cov"
	}
	return n
}

// DefaultSet returns the paper's ten compiler implementations:
// {gcc, clang} x {O0, O1, O2, O3, Os}.
func DefaultSet() []Config {
	var out []Config
	for _, f := range []Family{GCC, Clang} {
		for _, o := range []OptLevel{O0, O1, O2, O3, Os} {
			out = append(out, Config{Family: f, Opt: o})
		}
	}
	return out
}

// personality derives the deterministic seed that parameterizes the
// implementation's incidental choices (memory fill, poison values).
func (c Config) personality() uint64 {
	return hash.Sum64([]byte(c.Name()), 0x9e3779b9)
}

// profile builds the execution personality baked into binaries this
// implementation produces. Every field is a legal implementation
// choice; they only become observable when the program executes UB.
func (c Config) profile() ir.Profile {
	p := ir.Profile{Key: c.personality()}

	// Stack growth direction: one family allocates frames downward
	// (x86-like), the other upward. Visible only through unrelated
	// pointer comparisons and out-of-bounds stack accesses.
	p.StackDown = c.Family == GCC

	// Allocator personality.
	if c.Family == GCC {
		p.HeapHeader = 16
	} else {
		p.HeapHeader = 8
	}
	// Freed-chunk reuse: eager reuse at lower optimization (dbg-ish
	// allocators), delayed at higher levels. Affects only UAF bugs.
	p.HeapReuse = !c.Opt.atLeast(O2)

	// Heap integrity checks (double free / invalid free): abort like
	// glibc at low opt, silently corrupt at high opt.
	p.FreeErrAbort = !c.Opt.atLeast(O2)

	// Division by zero: executed at O0/O1 (hardware trap); folded or
	// hoisted into poison at O2+ where the optimizer assumed it away.
	p.DivZeroTrap = !c.Opt.atLeast(O2)
	p.MinIntDivTrap = c.Family == GCC // x86 idiom traps; other lowering wraps

	// Out-of-range shift counts: mask by width (x86 semantics) vs fold
	// to zero (as if constant-propagated under the no-UB assumption).
	p.ShiftMask = !(c.Family == Clang && c.Opt.atLeast(O2))

	// Overlapping memcpy (UB, CWE-475): copy direction differs.
	p.MemcpyBackward = c.Family == GCC && c.Opt.atLeast(O1)

	// pow -> exp2 libcall substitution (FP imprecision category).
	p.PowViaExp2 = c.Family == Clang && c.Opt.atLeast(O3)

	return p
}

// passSet describes which UB-exploiting transformations this
// implementation applies. The assignments mirror the real-world
// pattern the paper reports: aggressive levels of *different* families
// diverge the most, adjacent levels of the same family the least.
type passSet struct {
	// FoldOverflowChecks removes `a + b < a`-style signed overflow
	// guards (paper Listing 1).
	FoldOverflowChecks bool
	// FoldNullChecks removes null checks dominated by a dereference of
	// the same pointer.
	FoldNullChecks bool
	// WidenMulToLong evaluates int*int feeding a long context in
	// 64-bit arithmetic (paper's IntError example, clang-O1).
	WidenMulToLong bool
	// DeadLoadElim drops expression statements without side effects
	// (makes a dead *p skip the crash the O0 binary has).
	DeadLoadElim bool
	// ContractFMA fuses a*b+c into one rounding step.
	ContractFMA bool
	// ConstFold folds constant expressions and prunes dead branches.
	ConstFold bool
	// LineIsStmtStart: __LINE__ yields the line of the enclosing
	// statement rather than the token's own line (both permissible;
	// implementation-defined divergence, paper's LINE category).
	LineIsStmtStart bool
	// ArgsRightToLeft: call arguments are evaluated right to left
	// (gcc's typical order; clang evaluates left to right).
	ArgsRightToLeft bool
	// StrictConstUB rejects constant division/remainder by zero with an
	// error instead of a warning: once the folder runs (O1+) the gcc
	// personality refuses expressions it cannot give a value, while
	// clang warns and leaves the operation for run time. This is the
	// accept/reject-divergence axis of the compile-stage oracle.
	StrictConstUB bool
	// ExprDepthLimit is the simplifier's recursion ceiling; lowering an
	// expression nested deeper panics with a deterministic internal
	// compiler error. Zero disables the ceiling (O0/O1 and all
	// instrumented or sanitizer builds, which must accept everything).
	ExprDepthLimit int
}

// exprDepthLimit is the nesting ceiling optimizing builds enforce.
const exprDepthLimit = 48

func (c Config) passes() passSet {
	var p passSet
	p.ArgsRightToLeft = c.Family == GCC
	p.LineIsStmtStart = c.Family == GCC
	p.ConstFold = c.Opt.atLeast(O1)
	if c.Sanitize {
		// Checks are inserted before optimization: keep every UB site
		// observable.
		return p
	}
	p.DeadLoadElim = c.Opt.atLeast(O1)
	// Compile-stage divergence policies apply only to the plain
	// differential implementations: instrumented (B_fuzz) and sanitizer
	// builds must accept and survive everything the campaign feeds the
	// plain builds, or a compile-stage finding would kill the harness
	// instead of landing in a bucket.
	if !c.Instrument {
		p.StrictConstUB = c.Family == GCC && c.Opt.atLeast(O1)
		if c.Opt.atLeast(O2) {
			p.ExprDepthLimit = exprDepthLimit
		}
	}
	switch c.Family {
	case Clang:
		p.WidenMulToLong = c.Opt.atLeast(O1)
		p.FoldOverflowChecks = c.Opt.atLeast(O2)
		p.FoldNullChecks = c.Opt.atLeast(O2)
		p.ContractFMA = c.Opt.atLeast(O3)
	case GCC:
		// Size-optimized gcc code reuses the 64-bit multiply-add
		// addressing forms, effectively evaluating int chains wide.
		p.WidenMulToLong = c.Opt == Os
		p.FoldOverflowChecks = c.Opt.atLeast(O3)
		p.FoldNullChecks = c.Opt.atLeast(O3)
		p.ContractFMA = c.Opt.atLeast(O2)
	}
	return p
}
