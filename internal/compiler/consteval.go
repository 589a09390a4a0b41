package compiler

import (
	"math"

	"compdiff/internal/ir"
	"compdiff/internal/minic/ast"
	"compdiff/internal/minic/sema"
	"compdiff/internal/minic/types"
)

// constVal is a compile-time constant. Integer values are kept in
// canonical 64-bit form for their type code; string constants carry
// the literal for rodata interning.
type constVal struct {
	tc    ir.TypeCode
	word  uint64
	isStr bool
	str   string
}

func (v constVal) isZero() bool {
	if v.isStr {
		return false
	}
	if v.tc.IsFloat() {
		return math.Float64frombits(v.word) == 0
	}
	return v.word == 0
}

// evalNode evaluates e as a compile-time constant with fully defined
// semantics, given its operands' values. UB constants (signed
// overflow, div by zero, oversized shifts) are refused so that they
// are resolved at run time by the execution profile, never by the
// folder — keeping compile-time and run-time arithmetic
// interchangeable on defined values. A node's value depends on its
// operands' values alone, so a program's values are computed once,
// bottom up, into its constTable.
func evalNode(e ast.Expr, ops operands) (constVal, bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		tc := typeCode(e.Type())
		return constVal{tc: tc, word: ir.Canon(tc, uint64(e.Value))}, true
	case *ast.FloatLit:
		tc := typeCode(e.Type())
		w := math.Float64bits(e.Value)
		if tc == ir.F32 {
			w = ir.ConvWord(ir.F64, ir.F32, w)
		}
		return constVal{tc: tc, word: w}, true
	case *ast.StrLit:
		return constVal{tc: ir.U64, isStr: true, str: e.Value}, true
	case *ast.SizeofExpr:
		return constVal{tc: ir.I64, word: uint64(e.Of.Size())}, true
	case *ast.CastExpr:
		v, ok := ops.value(e.X)
		if !ok || v.isStr {
			return constVal{}, false
		}
		to := typeCode(e.To)
		return constVal{tc: to, word: ir.ConvWord(v.tc, to, v.word)}, true
	case *ast.Unary:
		v, ok := ops.value(e.X)
		if !ok || v.isStr {
			return constVal{}, false
		}
		switch e.Op {
		case ast.Neg:
			if v.tc.IsFloat() {
				f := math.Float64frombits(v.word)
				return constVal{tc: v.tc, word: math.Float64bits(-f)}, true
			}
			if ir.OverflowSigned(ir.Neg, v.tc, v.word, 0) {
				return constVal{}, false
			}
			return constVal{tc: v.tc, word: ir.Canon(v.tc, -v.word)}, true
		case ast.BitNot:
			if v.tc.IsFloat() {
				return constVal{}, false
			}
			return constVal{tc: v.tc, word: ir.Canon(v.tc, ^v.word)}, true
		case ast.LogicalNot:
			w := uint64(0)
			if v.isZero() {
				w = 1
			}
			return constVal{tc: ir.I32, word: w}, true
		}
		return constVal{}, false
	case *ast.Binary:
		return evalBinary(e, ops)
	case *ast.Cond:
		c, ok := ops.value(e.C)
		if !ok {
			return constVal{}, false
		}
		if !c.isZero() {
			return ops.value(e.X)
		}
		return ops.value(e.Y)
	}
	return constVal{}, false
}

func evalBinary(e *ast.Binary, ops operands) (constVal, bool) {
	if e.Op == ast.LogAnd || e.Op == ast.LogOr {
		x, ok := ops.value(e.X)
		if !ok {
			return constVal{}, false
		}
		// Short-circuit, but only if the other side is also constant
		// (we must not hide a runtime side effect).
		y, ok := ops.value(e.Y)
		if !ok {
			return constVal{}, false
		}
		var r bool
		if e.Op == ast.LogAnd {
			r = !x.isZero() && !y.isZero()
		} else {
			r = !x.isZero() || !y.isZero()
		}
		w := uint64(0)
		if r {
			w = 1
		}
		return constVal{tc: ir.I32, word: w}, true
	}

	x, ok := ops.value(e.X)
	if !ok || x.isStr {
		return constVal{}, false
	}
	y, ok := ops.value(e.Y)
	if !ok || y.isStr {
		return constVal{}, false
	}
	if e.CommonType == nil {
		return constVal{}, false
	}
	tc := typeCode(e.CommonType)
	if tc.IsFloat() {
		// Floating constant folding is deliberately *not* performed:
		// compile-time rounding could differ from the run-time path
		// (FMA contraction), and we keep all FP evaluation at run time.
		return constVal{}, false
	}
	op, isCmp := binOpToIR(e.Op)
	xv := ir.ConvWord(x.tc, tc, x.word)
	yv := yWord(e, y, tc)
	w, ok := ir.IntBinOK(op, tc, xv, yv)
	if !ok {
		return constVal{}, false
	}
	if isCmp {
		return constVal{tc: ir.I32, word: w}, true
	}
	return constVal{tc: tc, word: w}, true
}

// operands supplies the constant values of an expression's operands
// to evalNode.
type operands interface {
	value(e ast.Expr) (constVal, bool)
}

// constTable holds the constant value and the source line of every
// checked expression of one program, indexed by dense expression id.
// It depends on the program alone, so CompileAll's lowerings share
// one, built by the first that asks.
type constTable struct {
	// kind is 0 for an expression that is not constant, constStr for a
	// string constant (word indexes strs), else 1 + its type code.
	kind []uint8
	word []uint64
	strs []string
	// line is the expression's Pos().Line, recorded bottom-up: an
	// operator positioned at its leftmost operand takes the operand's
	// line instead of walking down to it again.
	line []int32
}

const constStr = 0xff

// newConstTable evaluates every expression of info's program, operands
// before the expressions that use them.
func newConstTable(info *sema.Info) *constTable {
	n := info.NumExprs + 1
	t := &constTable{kind: make([]uint8, n), word: make([]uint64, n), line: make([]int32, n)}
	for _, g := range info.Prog.Globals {
		t.fill(g.Init)
	}
	for _, f := range info.Prog.Funcs {
		ast.Walk(f.Body, func(s ast.Stmt) bool {
			switch s := s.(type) {
			case *ast.DeclStmt:
				for _, d := range s.Decls {
					t.fill(d.Init)
				}
			case *ast.ExprStmt:
				t.fill(s.X)
			case *ast.IfStmt:
				t.fill(s.Cond)
			case *ast.WhileStmt:
				t.fill(s.Cond)
			case *ast.ForStmt:
				t.fill(s.Cond)
				t.fill(s.Post)
			case *ast.ReturnStmt:
				t.fill(s.Value)
			}
			return true
		})
	}
	return t
}

// fill records the values of e's subtree, post-order.
func (t *constTable) fill(e ast.Expr) {
	switch e := e.(type) {
	case nil:
		return
	case *ast.Unary:
		t.fill(e.X)
	case *ast.Binary:
		t.fill(e.X)
		t.fill(e.Y)
	case *ast.Assign:
		t.fill(e.LHS)
		t.fill(e.RHS)
	case *ast.Cond:
		t.fill(e.C)
		t.fill(e.X)
		t.fill(e.Y)
	case *ast.Call:
		for _, a := range e.Args {
			t.fill(a)
		}
	case *ast.Index:
		t.fill(e.X)
		t.fill(e.Idx)
	case *ast.Member:
		t.fill(e.X)
	case *ast.CastExpr:
		t.fill(e.X)
	}
	id := e.ID()
	switch e := e.(type) {
	case *ast.Binary:
		t.line[id] = t.line[e.X.ID()]
	case *ast.Assign:
		t.line[id] = t.line[e.LHS.ID()]
	case *ast.Cond:
		t.line[id] = t.line[e.C.ID()]
	case *ast.Index:
		t.line[id] = t.line[e.X.ID()]
	case *ast.Member:
		t.line[id] = t.line[e.X.ID()]
	default:
		t.line[id] = int32(e.Pos().Line)
	}
	v, ok := evalNode(e, t)
	if !ok {
		return
	}
	if v.isStr {
		t.kind[id], t.word[id] = constStr, uint64(len(t.strs))
		t.strs = append(t.strs, v.str)
		return
	}
	t.kind[id], t.word[id] = uint8(v.tc)+1, v.word
}

// lineOf returns e.Pos().Line: the recorded line, or, for an
// expression the table holds none for, Pos's.
func (t *constTable) lineOf(e ast.Expr) int32 {
	if l := t.line[e.ID()]; l > 0 {
		return l
	}
	return int32(e.Pos().Line)
}

// value returns e's recorded constant value; it is how evalNode reads
// operands while the table fills.
func (t *constTable) value(e ast.Expr) (constVal, bool) {
	id := e.ID()
	switch k := t.kind[id]; k {
	case 0:
		return constVal{}, false
	case constStr:
		return constVal{tc: ir.U64, isStr: true, str: t.strs[t.word[id]]}, true
	default:
		return constVal{tc: ir.TypeCode(k - 1), word: t.word[id]}, true
	}
}

// yWord converts the right operand; shifts keep the count unconverted.
func yWord(e *ast.Binary, y constVal, tc ir.TypeCode) uint64 {
	if e.Op == ast.Shl || e.Op == ast.Shr {
		return ir.ConvWord(y.tc, ir.I64, y.word)
	}
	return ir.ConvWord(y.tc, tc, y.word)
}

// binOpToIR maps AST binary operators to IR opcodes.
func binOpToIR(op ast.BinOp) (ir.Op, bool) {
	switch op {
	case ast.Add:
		return ir.Add, false
	case ast.Sub:
		return ir.Sub, false
	case ast.Mul:
		return ir.Mul, false
	case ast.Div:
		return ir.Div, false
	case ast.Mod:
		return ir.Mod, false
	case ast.Shl:
		return ir.Shl, false
	case ast.Shr:
		return ir.Shr, false
	case ast.BitAnd:
		return ir.BitAnd, false
	case ast.BitOr:
		return ir.BitOr, false
	case ast.BitXor:
		return ir.BitXor, false
	case ast.Eq:
		return ir.CmpEq, true
	case ast.Ne:
		return ir.CmpNe, true
	case ast.Lt:
		return ir.CmpLt, true
	case ast.Le:
		return ir.CmpLe, true
	case ast.Gt:
		return ir.CmpGt, true
	case ast.Ge:
		return ir.CmpGe, true
	}
	return ir.Nop, false
}

// globalInitBytes encodes a constant initializer value into the byte
// representation of declType, for the globals segment image.
// String-literal initializers return needStr=true; the caller encodes
// the interned rodata address.
func globalInitBytes(declType *types.Type, v constVal) (data []byte, needStr bool) {
	if v.isStr {
		return nil, true
	}
	w := ir.ConvWord(v.tc, typeCode(declType), v.word)
	size := storeWidth(declType)
	if typeCode(declType) == ir.F32 {
		w = uint64(math.Float32bits(float32(math.Float64frombits(w))))
	}
	data = make([]byte, size)
	for i := int64(0); i < size; i++ {
		data[i] = byte(w >> (8 * i))
	}
	return data, false
}
