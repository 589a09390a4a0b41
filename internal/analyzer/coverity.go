package analyzer

import (
	"fmt"

	"compdiff/internal/minic/ast"
	"compdiff/internal/minic/sema"
	"compdiff/internal/minic/types"
)

// coverity is the broad-coverage tier: every checker family, flow
// awareness within a function, and recall-leaning heuristics. Its
// Table 3 silhouette: the best static scores on general UB, divide by
// zero and API misuse; moderate memory-error recall; and visible false
// positive rates wherever its heuristics guess about paths (uninit 56%
// FP being the worst).
type coverity struct{}

// NewCoverity returns the Coverity-style analyzer.
func NewCoverity() Tool { return coverity{} }

func (coverity) Name() string { return "coverity" }

func (c coverity) Analyze(info *sema.Info) []Finding {
	var out []Finding
	for _, ff := range analyzeFuncs(info) {
		// Syntactic certainties (CWE-685, CWE-475, CWE-758 shifts).
		for _, call := range ff.arityCalls {
			out = append(out, Finding{Tool: "coverity", Category: BadCall, Pos: call.Pos(),
				Msg: fmt.Sprintf("call to %s with mismatched arity", call.Fun.Name)})
		}
		for _, call := range ff.overlapCalls {
			out = append(out, Finding{Tool: "coverity", Category: APIMisuse, Pos: call.Pos(),
				Msg: "overlapping memcpy operands"})
		}
		for _, pos := range ff.badShifts {
			out = append(out, Finding{Tool: "coverity", Category: GeneralUB, Pos: pos,
				Msg: "shift amount exceeds operand width"})
		}
		if ff.missingReturn {
			out = append(out, Finding{Tool: "coverity", Category: GeneralUB, Pos: ff.fn.Pos(),
				Msg: fmt.Sprintf("non-void function %s may fall off the end", ff.fn.Name)})
		}
		for _, pos := range ff.structCasts {
			out = append(out, Finding{Tool: "coverity", Category: BadStructPtr, Pos: pos,
				Msg: "cast to struct pointer may access past the underlying object"})
		}
		out = append(out, c.overrunChecks(ff)...)
		out = append(out, c.taintedIndexChecks(ff)...)
		out = append(out, c.uninitChecks(ff)...)
		out = append(out, c.divZeroChecks(ff)...)
		out = append(out, c.nullChecks(ff)...)
		out = append(out, c.intOverflowChecks(ff)...)
		out = append(out, c.resourceChecks(ff)...)
	}
	return out
}

// overrunChecks: constant-index OOB on arrays and constant mallocs,
// plus constant loop bounds that overrun a fixed buffer.
func (coverity) overrunChecks(ff *funcFacts) []Finding {
	var out []Finding
	mallocSize := map[any]int64{}
	for _, e := range ff.events {
		if e.kind == evMallocTo {
			mallocSize[e.sym] = e.extra
		}
	}
	objSize := func(sym *ast.Symbol) int64 {
		if sym.Type != nil && sym.Type.Kind == types.Array {
			return sym.Type.Size()
		}
		if sz, ok := mallocSize[sym]; ok {
			return sz
		}
		return -1
	}
	for _, e := range ff.events {
		if e.kind != evIndex || e.extra < 0 {
			continue
		}
		if sz := objSize(e.sym); sz >= 0 {
			byteOff := e.extra * e.extra2
			if byteOff >= sz || byteOff < 0 {
				out = append(out, Finding{Tool: "coverity", Category: MemoryError, Pos: e.pos,
					Msg: fmt.Sprintf("OVERRUN: index %d outside %d-byte object %s", e.extra, sz, e.sym.Name)})
			}
		}
	}
	// Constant-offset pointer dereferences *(p + K).
	for _, ps := range ff.ptrSites {
		if sz := objSize(ps.sym); sz >= 0 {
			byteOff := ps.off * ps.elem
			if byteOff >= sz || byteOff < 0 {
				out = append(out, Finding{Tool: "coverity", Category: MemoryError, Pos: ps.pos,
					Msg: fmt.Sprintf("OVERRUN: offset %d outside %d-byte object %s", ps.off, sz, ps.sym.Name)})
			}
		}
	}
	// Loop-bound overruns: for (i = 0; i <= N; ...) arr[i] with
	// N >= len(arr), and strcpy of a longer literal into a fixed array.
	ast.Walk(ff.fn.Body, func(s ast.Stmt) bool {
		fs, ok := s.(*ast.ForStmt)
		if !ok || fs.Cond == nil {
			return true
		}
		cond, ok := fs.Cond.(*ast.Binary)
		if !ok {
			return true
		}
		ivar := identOf(cond.X)
		bound, haveBound := constIntOf(cond.Y)
		if ivar == nil || !haveBound {
			return true
		}
		maxIdx := bound - 1
		if cond.Op == ast.Le {
			maxIdx = bound
		} else if cond.Op != ast.Lt {
			return true
		}
		ast.WalkExprs(fs.Body, func(e ast.Expr) {
			ix, ok := e.(*ast.Index)
			if !ok {
				return
			}
			base := identOf(ix.X)
			if base == nil || identOf(ix.Idx) != ivar {
				return
			}
			if sz := objSize(base); sz >= 0 && ix.Type() != nil {
				if maxIdx*ix.Type().Size() >= sz {
					out = append(out, Finding{Tool: "coverity", Category: MemoryError, Pos: ix.Pos(),
						Msg: fmt.Sprintf("OVERRUN: loop writes %s up to index %d", base.Name, maxIdx)})
				}
			}
		})
		return true
	})
	ast.WalkExprs(ff.fn.Body, func(e ast.Expr) {
		call, ok := e.(*ast.Call)
		if !ok || call.Fun.Name != "strcpy" || len(call.Args) != 2 {
			return
		}
		dst := identOf(call.Args[0])
		lit, isLit := call.Args[1].(*ast.StrLit)
		if dst == nil || !isLit || dst.Type == nil || dst.Type.Kind != types.Array {
			return
		}
		if int64(len(lit.Value))+1 > dst.Type.Size() {
			out = append(out, Finding{Tool: "coverity", Category: MemoryError, Pos: call.Pos(),
				Msg: fmt.Sprintf("STRING_OVERFLOW: %d-byte literal into %d-byte buffer", len(lit.Value)+1, dst.Type.Size())})
		}
	})
	return out
}

// taintedIndexChecks is the TAINTED_SCALAR family: an index variable
// that comes from input and is never compared against any bound in
// this function. Recall-leaning: bounding done by a helper function is
// invisible, producing the characteristic false positives.
func (coverity) taintedIndexChecks(ff *funcFacts) []Finding {
	var out []Finding
	tainted := taintedInputSyms(ff)
	bounded := map[any]bool{}
	ast.WalkExprs(ff.fn.Body, func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.Binary:
			switch e.Op {
			case ast.Lt, ast.Le, ast.Gt, ast.Ge:
				if sym := identOf(e.X); sym != nil {
					bounded[sym] = true
				}
				if sym := identOf(e.Y); sym != nil {
					bounded[sym] = true
				}
			case ast.BitAnd, ast.Mod:
				// Masking or reducing the value bounds it.
				if sym := identOf(e.X); sym != nil {
					bounded[sym] = true
				}
			}
		}
	})
	seen := map[any]bool{}
	ast.WalkExprs(ff.fn.Body, func(e ast.Expr) {
		ix, ok := e.(*ast.Index)
		if !ok {
			return
		}
		sym := identOf(ix.Idx)
		if sym == nil || !tainted[sym] || bounded[sym] || seen[sym] {
			return
		}
		seen[sym] = true
		out = append(out, Finding{Tool: "coverity", Category: MemoryError, Pos: ix.Pos(),
			Msg: fmt.Sprintf("TAINTED_SCALAR: %s indexes a buffer without bounds checking", sym.Name)})
	})
	return out
}

// uninitChecks: a local without initializer that is read, where no
// *unconditional* assignment precedes the read. Assignments under
// conditions don't count — the recall-leaning guess that produces
// Coverity's 56% FP rate on this class (the guard may in fact always
// execute).
func (coverity) uninitChecks(ff *funcFacts) []Finding {
	var out []Finding
	unconditional := map[any]bool{}
	reported := map[any]bool{}
	for _, e := range ff.events {
		if e.sym == nil {
			continue
		}
		switch e.kind {
		case evAssign, evMallocTo:
			unconditional[e.sym] = true
		case evAddrTaken:
			unconditional[e.sym] = true // &x passed out: assume initialized
		case evRead, evDivisor:
			if ff.declNoInit[e.sym] && !unconditional[e.sym] && !reported[e.sym] {
				reported[e.sym] = true
				out = append(out, Finding{Tool: "coverity", Category: UninitMemory, Pos: e.pos,
					Msg: fmt.Sprintf("UNINIT: %s may be used uninitialized", e.sym.Name)})
			}
		}
	}
	return out
}

// divZeroChecks: literal zero divisors; divisors that are checked
// against zero in the function (the check proves zero is possible —
// recall-leaning, FP when the guard actually protects the division);
// and divisors derived straight from input bytes.
func (coverity) divZeroChecks(ff *funcFacts) []Finding {
	var out []Finding
	guarded := map[any]bool{}
	zeroed := map[any]bool{}
	for _, e := range ff.events {
		switch e.kind {
		case evGuardNonzero:
			guarded[e.sym] = true
		case evAssignZero:
			zeroed[e.sym] = true
		}
	}
	tainted := taintedInputSyms(ff)
	seen := map[any]bool{}
	for _, e := range ff.events {
		if e.kind != evDivisor {
			continue
		}
		if e.sym == nil {
			out = append(out, Finding{Tool: "coverity", Category: DivByZero, Pos: e.pos,
				Msg: "DIVIDE_BY_ZERO: literal zero divisor"})
			continue
		}
		if seen[e.sym] {
			continue
		}
		switch {
		case zeroed[e.sym]:
			seen[e.sym] = true
			out = append(out, Finding{Tool: "coverity", Category: DivByZero, Pos: e.pos,
				Msg: fmt.Sprintf("DIVIDE_BY_ZERO: %s holds a literal zero", e.sym.Name)})
		case tainted[e.sym] && !guarded[e.sym] && e.sym.Type != nil && e.sym.Type.IsInteger():
			// Input-derived integer divisor with no visible zero/bound
			// guard. Guards in other functions are invisible.
			seen[e.sym] = true
			out = append(out, Finding{Tool: "coverity", Category: DivByZero, Pos: e.pos,
				Msg: fmt.Sprintf("DIVIDE_BY_ZERO: unvalidated input %s used as divisor", e.sym.Name)})
		}
	}
	// FLOAT_EQUALITY: an exact float comparison used to guard a
	// division is unreliable in general — reported even when, as here,
	// comparing against literal zero is in fact sound (an FP).
	divisors := map[any]bool{}
	for _, e := range ff.events {
		if e.kind == evDivisor && e.sym != nil {
			divisors[e.sym] = true
		}
	}
	ast.WalkExprs(ff.fn.Body, func(e ast.Expr) {
		bin, ok := e.(*ast.Binary)
		if !ok || (bin.Op != ast.Eq && bin.Op != ast.Ne) {
			return
		}
		sym := identOf(bin.X)
		if sym == nil || sym.Type == nil || !sym.Type.IsFloat() || !divisors[sym] {
			return
		}
		if _, isLit := bin.Y.(*ast.FloatLit); isLit {
			out = append(out, Finding{Tool: "coverity", Category: DivByZero, Pos: bin.Pos(),
				Msg: fmt.Sprintf("FLOAT_EQUALITY: exact comparison guards division by %s", sym.Name)})
		}
	})
	return out
}

// nullChecks: dereference after an unconditional null assignment, and
// malloc results dereferenced without a null check anywhere.
func (coverity) nullChecks(ff *funcFacts) []Finding {
	var out []Finding
	isNull := map[any]bool{}
	checked := map[any]bool{}
	fromMalloc := map[any]bool{}
	for _, e := range ff.events {
		if e.kind == evCmpNull && e.extra == 0 {
			checked[e.sym] = true
		}
	}
	for _, e := range ff.events {
		switch e.kind {
		case evCmpNull:
			if e.extra == 1 && !e.cond {
				isNull[e.sym] = true
			}
		case evMallocTo:
			fromMalloc[e.sym] = true
			delete(isNull, e.sym)
		case evAssign, evCondAssign:
			// recordAssign emits evCmpNull(extra=1) separately for
			// NULL; other assignments clear the fact.
		case evDeref:
			if isNull[e.sym] {
				out = append(out, Finding{Tool: "coverity", Category: NullDeref, Pos: e.pos,
					Msg: fmt.Sprintf("FORWARD_NULL: %s is null here", e.sym.Name)})
				delete(isNull, e.sym)
			} else if fromMalloc[e.sym] && !checked[e.sym] {
				out = append(out, Finding{Tool: "coverity", Category: NullDeref, Pos: e.pos,
					Msg: fmt.Sprintf("NULL_RETURNS: unchecked allocation %s dereferenced", e.sym.Name)})
				delete(fromMalloc, e.sym)
			}
		}
	}
	return out
}

// intOverflowChecks: narrow signed arithmetic on two non-constant
// operands whose result reaches a wider store, an allocation, or an
// index — but only when no range guard on either operand is visible
// (the precision move that keeps recall at Coverity's moderate level).
func (coverity) intOverflowChecks(ff *funcFacts) []Finding {
	var out []Finding
	guarded := map[any]bool{}
	ast.WalkExprs(ff.fn.Body, func(e ast.Expr) {
		bin, ok := e.(*ast.Binary)
		if !ok {
			return
		}
		switch bin.Op {
		case ast.Lt, ast.Le, ast.Gt, ast.Ge:
			if sym := identOf(bin.X); sym != nil {
				if _, isConst := constIntOf(bin.Y); isConst {
					guarded[sym] = true
				}
			}
			if sym := identOf(bin.Y); sym != nil {
				if _, isConst := constIntOf(bin.X); isConst {
					guarded[sym] = true
				}
			}
		}
	})
	ast.WalkExprs(ff.fn.Body, func(e ast.Expr) {
		bin, ok := e.(*ast.Binary)
		if !ok || bin.CommonType == nil || !bin.CommonType.IsSigned() || bin.CommonType.Bits() != 32 {
			return
		}
		if bin.Op != ast.Mul && bin.Op != ast.Add {
			return
		}
		xs, ys := identOf(bin.X), identOf(bin.Y)
		if xs == nil || ys == nil {
			return
		}
		if guarded[xs] || guarded[ys] {
			return
		}
		if bin.Op == ast.Mul {
			out = append(out, Finding{Tool: "coverity", Category: IntegerError, Pos: bin.Pos(),
				Msg: "OVERFLOW_BEFORE_WIDEN: unguarded 32-bit multiplication"})
		}
	})
	return out
}

// resourceChecks: double free / use-after-free with flow awareness
// (branch-aware: a conditional free followed by an unconditional free
// is still flagged), and free of non-heap objects.
func (coverity) resourceChecks(ff *funcFacts) []Finding {
	var out []Finding
	freed := map[any]bool{}
	for _, e := range ff.events {
		switch e.kind {
		case evFree:
			if e.sym == nil {
				continue
			}
			if e.sym.Type != nil && e.sym.Type.Kind == types.Array {
				out = append(out, Finding{Tool: "coverity", Category: MemoryError, Pos: e.pos,
					Msg: fmt.Sprintf("BAD_FREE: %s is not heap-allocated", e.sym.Name)})
				continue
			}
			if freed[e.sym] {
				out = append(out, Finding{Tool: "coverity", Category: MemoryError, Pos: e.pos,
					Msg: fmt.Sprintf("USE_AFTER_FREE: double free of %s", e.sym.Name)})
			}
			freed[e.sym] = true
		case evAssign, evCondAssign, evMallocTo:
			delete(freed, e.sym)
		case evDeref:
			if freed[e.sym] {
				out = append(out, Finding{Tool: "coverity", Category: MemoryError, Pos: e.pos,
					Msg: fmt.Sprintf("USE_AFTER_FREE: %s used after free", e.sym.Name)})
				delete(freed, e.sym)
			}
		}
	}
	return out
}

// taintedInputSyms collects variables assigned (or initialized)
// directly from the input builtins — the taint sources for the
// TAINTED_SCALAR and DIVIDE_BY_ZERO input heuristics. Arithmetic on a
// tainted value keeps the taint when it stays in the same variable.
func taintedInputSyms(ff *funcFacts) map[any]bool {
	tainted := map[any]bool{}
	fromInput := func(e ast.Expr) bool {
		found := false
		ast.WalkExpr(e, func(x ast.Expr) {
			if call, ok := x.(*ast.Call); ok &&
				(call.Fun.Name == "input_byte" || call.Fun.Name == "read_input" || call.Fun.Name == "input_size") {
				found = true
			}
		})
		return found
	}
	ast.WalkExprs(ff.fn.Body, func(e ast.Expr) {
		if as, ok := e.(*ast.Assign); ok {
			if sym := identOf(as.LHS); sym != nil && fromInput(as.RHS) {
				tainted[sym] = true
			}
		}
	})
	ast.Walk(ff.fn.Body, func(s ast.Stmt) bool {
		if ds, ok := s.(*ast.DeclStmt); ok {
			for _, d := range ds.Decls {
				if d.Init != nil && d.Sym != nil && fromInput(d.Init) {
					tainted[d.Sym] = true
				}
			}
		}
		return true
	})
	return tainted
}
