package compiler

import (
	"fmt"

	"compdiff/internal/ir"
	"compdiff/internal/minic/ast"
	"compdiff/internal/minic/sema"
)

// This file is the compile-stage half of the differential oracle:
// per-implementation diagnostics, the accept/reject policy split, and
// the recover boundary that turns a lowering panic into an ICE record
// instead of a dead fuzzing shard.
//
// Real compiler front ends disagree about much more than generated
// code: one rejects what the other accepts (gcc promotes constant
// division by zero to an error under optimization, clang warns and
// moves on), both reject with differently worded diagnostics, and
// either can die with an internal compiler error. Each divergence
// class is modelled here with deterministic, family-specific behaviour
// so the differential harness can treat compile-stage disagreement as
// a first-class finding.

// Result is the complete outcome of one guarded compilation.
type Result struct {
	// Prog is the lowered program; nil when the implementation
	// rejected the input or crashed.
	Prog *ir.Program
	// Diags are the rendered warnings and errors, in emission order.
	// They are produced deterministically from (program, family,
	// strictness), never from incidental compiler state.
	Diags []string
	// Err is non-nil when the implementation did not produce a
	// program, wrapped exactly like Compile's error.
	Err error
	// ICE is the raw panic text when compilation crashed. Err is also
	// set in that case; Diags keep whatever was emitted before the
	// crash.
	ICE string
	// PassBits is the fired-rewrite bitmap: which UB-exploiting
	// optimizer passes this implementation actually applied. On reject
	// and ICE paths it keeps whatever fired before the failure, the
	// same way Diags does.
	PassBits PassBits
}

// Accepted reports whether the implementation produced a program.
func (r Result) Accepted() bool { return r.Err == nil }

// CompileGuarded lowers a checked program under one implementation
// with a recover boundary: a panic anywhere in lowering becomes an
// ICE record in the Result instead of unwinding into the caller. It is
// the one-configuration case of CompileAll, the entry point
// differential suite construction uses — a crashed implementation is
// a finding, not a crashed fuzzer.
func CompileGuarded(info *sema.Info, cfg Config) Result {
	return compileGuarded(newAnalysis(info), cfg, &scratch{})
}

// compileGuarded is CompileGuarded over a (possibly shared) analysis,
// lowering with the buffers in sc and leaving them there, grown, for
// the caller's next lowering. The analysis parts this lowering needs
// are computed inside its recover boundary.
func compileGuarded(an *analysis, cfg Config, sc *scratch) Result {
	lw := newLowerer(an, cfg)
	lw.scratch = *sc
	defer func() { *sc = lw.scratch }()
	var res Result
	func() {
		defer func() {
			if p := recover(); p != nil {
				res.Prog = nil
				res.ICE = fmt.Sprint(p)
				res.Err = fmt.Errorf("compile [%s]: internal compiler error: %v", lw.name, p)
			}
		}()
		prog, err := lw.compile()
		if err != nil {
			res.Err = fmt.Errorf("compile [%s]: %w", lw.name, err)
			return
		}
		res.Prog = prog
	}()
	res.Diags = append([]string(nil), lw.diags...)
	res.PassBits = lw.passBits
	return res
}

// diag records one rendered diagnostic. There is no real file name in
// a single-source pipeline, so the spelling uses <source>.
func (lw *lowerer) diag(sev string, line int, text string) {
	lw.diags = append(lw.diags, fmt.Sprintf("<source>:%d: %s: %s", line, sev, text))
}

// rejectf records an error diagnostic and returns it as the
// compilation error.
func (lw *lowerer) rejectf(line int, text string) error {
	lw.diag("error", line, text)
	return fmt.Errorf("<source>:%d: %s", line, text)
}

// ubKind classifies a constant expression whose value is undefined.
type ubKind int

const (
	ubDivZero ubKind = iota
	ubOverflow
	ubShiftNeg
	ubShiftWide
)

// constUBAt reports whether e is an integer binary operation with both
// operands compile-time constant whose result is undefined — exactly
// the expressions evalNode refuses to fold. Sites whose operands are
// not both constant are resolved at run time by the execution profile
// and are invisible to the front end.
func constUBAt(e *ast.Binary, consts *constTable) (ubKind, bool) {
	switch e.Op {
	case ast.Add, ast.Sub, ast.Mul, ast.Div, ast.Mod, ast.Shl, ast.Shr:
	default:
		return 0, false
	}
	if e.CommonType == nil {
		return 0, false
	}
	tc := typeCode(e.CommonType)
	if tc.IsFloat() {
		return 0, false
	}
	x, ok := consts.value(e.X)
	if !ok || x.isStr {
		return 0, false
	}
	y, ok := consts.value(e.Y)
	if !ok || y.isStr {
		return 0, false
	}
	op, _ := binOpToIR(e.Op)
	xv := ir.ConvWord(x.tc, tc, x.word)
	yv := yWord(e, y, tc)
	if _, defined := ir.IntBinOK(op, tc, xv, yv); defined {
		return 0, false
	}
	switch e.Op {
	case ast.Div, ast.Mod:
		if yv == 0 {
			return ubDivZero, true
		}
		return ubOverflow, true // INT_MIN / -1
	case ast.Shl, ast.Shr:
		if int64(yv) < 0 {
			return ubShiftNeg, true
		}
		return ubShiftWide, true
	default:
		return ubOverflow, true
	}
}

// ubWarnText is the family's warning wording for a constant-UB site.
func ubWarnText(f Family, op ast.BinOp, kind ubKind) string {
	gcc := f == GCC
	switch kind {
	case ubDivZero:
		if gcc {
			return "division by zero [-Wdiv-by-zero]"
		}
		if op == ast.Mod {
			return "remainder by zero is undefined [-Wdivision-by-zero]"
		}
		return "division by zero is undefined [-Wdivision-by-zero]"
	case ubOverflow:
		if gcc {
			return "integer overflow in expression [-Woverflow]"
		}
		return "overflow in expression; result is undefined [-Winteger-overflow]"
	case ubShiftNeg:
		if gcc {
			return shiftDir(op) + " shift count is negative [-Wshift-count-negative]"
		}
		return "shift count is negative [-Wshift-count-negative]"
	default: // ubShiftWide
		if gcc {
			return shiftDir(op) + " shift count >= width of type [-Wshift-count-overflow]"
		}
		return "shift count >= width of type [-Wshift-count-overflow]"
	}
}

func shiftDir(op ast.BinOp) string {
	if op == ast.Shl {
		return "left"
	}
	return "right"
}

// ubSite is one constant-UB site: an integer binary operation whose
// operands are both constant and whose result is undefined.
type ubSite struct {
	line int
	op   ast.BinOp
	kind ubKind
}

// constUBSites lists the program's constant-UB sites in source walk
// order. The list depends on the program alone; each configuration
// renders it in its own family's wording (scanConstUB).
func constUBSites(info *sema.Info, consts *constTable) []ubSite {
	var sites []ubSite
	for _, f := range info.Prog.Funcs {
		ast.WalkExprs(f.Body, func(e ast.Expr) {
			bin, ok := e.(*ast.Binary)
			if !ok {
				return
			}
			if kind, ok := constUBAt(bin, consts); ok {
				sites = append(sites, ubSite{line: bin.Pos().Line, op: bin.Op, kind: kind})
			}
		})
	}
	return sites
}

// scanConstUB emits the family's diagnostics for every constant-UB
// site. Implementations with StrictConstUB (the gcc personality under
// optimization, where the folder meets the undefined value and
// refuses) reject constant division/remainder by zero outright;
// everyone else warns and leaves the operation for the execution
// profile. The scan is purely syntactic — it ignores optimizer
// reachability, like the real front-end warnings do — so the
// diagnostic set depends only on (program, family, strictness).
func (lw *lowerer) scanConstUB() error {
	var firstErr error
	for _, site := range lw.an.constUB() {
		if site.kind == ubDivZero && lw.ps.StrictConstUB {
			text := "division by zero [-Werror=div-by-zero]"
			if site.op == ast.Mod {
				text = "remainder by zero [-Werror=div-by-zero]"
			}
			err := lw.rejectf(site.line, text)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		lw.diag("warning", site.line, ubWarnText(lw.cfg.Family, site.op, site.kind))
	}
	return firstErr
}

// initNotConstText is the family wording for a non-constant global or
// static initializer — both families reject, with different words,
// which is the diagnostics-differential class in miniature.
func initNotConstText(f Family) string {
	if f == GCC {
		return "initializer element is not constant"
	}
	return "initializer element is not a compile-time constant"
}

// iceDepth builds the panic payload for the simplifier recursion
// ceiling. The text deliberately carries the noise a real ICE does —
// an internal source location, a depth counter, a frame address — but
// derives all of it deterministically from the configuration and the
// program point, so the same (program, config) pair always crashes
// with byte-identical text and the *normalized* fingerprint is stable
// across the family's optimization levels.
func (lw *lowerer) iceDepth(e ast.Expr) string {
	line := int(lw.line)
	if p := e.Pos(); p.Line > 0 {
		line = p.Line
	}
	depth := lw.depth
	addr := lw.seed ^ uint64(depth)<<12
	if lw.cfg.Family == GCC {
		return fmt.Sprintf(
			"internal compiler error: in simplify_expr, at expr.cc:%d: expression nesting depth %d exceeds %d at <source>:%d (frame 0x%x)",
			4100+depth, depth, lw.ps.ExprDepthLimit, line, addr)
	}
	return fmt.Sprintf(
		"fatal error: error in backend: simplifier recursion limit %d reached at depth %d lowering <source>:%d (address 0x%x); please submit a bug report",
		lw.ps.ExprDepthLimit, depth, line, addr)
}
