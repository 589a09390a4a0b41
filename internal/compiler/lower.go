package compiler

import (
	"fmt"
	"math"

	"compdiff/internal/ir"
	"compdiff/internal/minic/ast"
	"compdiff/internal/minic/sema"
	"compdiff/internal/minic/types"
)

// Compile lowers a checked program to bytecode under one compiler
// implementation. The AST is never mutated, so the same Info can be
// compiled under many configurations, including concurrently.
// A lowering bug panics through to the caller; use CompileGuarded to
// capture it as an ICE finding instead.
func Compile(info *sema.Info, cfg Config) (*ir.Program, error) {
	lw := newLowerer(newAnalysis(info), cfg)
	prog, err := lw.compile()
	if err != nil {
		return nil, fmt.Errorf("compile [%s]: %w", lw.name, err)
	}
	return prog, nil
}

// MustCompile compiles a known-good program, panicking on error.
func MustCompile(info *sema.Info, cfg Config) *ir.Program {
	p, err := Compile(info, cfg)
	if err != nil {
		panic(err)
	}
	return p
}

func newLowerer(an *analysis, cfg Config) *lowerer {
	ps := cfg.passes()
	prof := cfg.profile()
	return &lowerer{
		info:   an.info,
		an:     an,
		cfg:    cfg,
		name:   cfg.Name(),
		prof:   prof,
		seed:   prof.Key,
		ps:     ps,
		akey:   ps.analysisKey(),
		strOff: map[string]int64{},
	}
}

type lowerer struct {
	info *sema.Info
	an   *analysis
	// consts is the program's constant table (analysis.constants).
	consts *constTable
	cfg    Config
	// name, prof and seed (the personality, prof.Key) are derived from
	// cfg once per lowering.
	name string
	prof ir.Profile
	seed uint64
	ps   passSet
	akey analysisKey

	rodata    []byte
	strOff    map[string]int64
	funcIdx   map[string]int
	globalOff []int64 // by Symbol.Index

	// diags accumulates rendered warnings/errors (see diag.go); depth
	// tracks expression-lowering recursion for the ICE ceiling.
	diags []string
	depth int

	// passBits accumulates the fired-rewrite bitmap across the whole
	// compilation: analyzeFunc decisions merged per function, plus the
	// rewrites only known at lowering time (constant folds, widening,
	// FMA contraction). Surfaced through Result.PassBits.
	passBits PassBits

	// Per-function state.
	fl     *frameLayout
	dec    *decisions
	fn     *ast.FuncDecl
	line   int32
	brk    [][]int // break patch lists, one per enclosing loop
	cont   [][]int // continue patch lists
	edgeID int

	scratch
}

// scratch holds the buffers a lowerer reuses for every function it
// lowers: the emission buffer, the frame planner's hash-key buffer and
// the peephole's buffers (see foldCode). CompileAll hands a finished
// lowerer's scratch on to the next lowering of the same worker.
// Nothing a Result retains points into it.
type scratch struct {
	code     []ir.Instr // the current function's code
	keyBuf   []byte
	spare    []ir.Instr // the peephole's output
	tail     []tailInfo
	isTarget []bool
	newIdx   []int
}

func (lw *lowerer) compile() (*ir.Program, error) {
	funcs := lw.info.Prog.Funcs
	prog := &ir.Program{
		Funcs:     make([]*ir.Func, 0, len(funcs)),
		FuncIndex: make(map[string]int, len(funcs)),
		Compiler:  lw.name,
		Profile:   lw.prof,
		Main:      -1,
	}
	lw.funcIdx = prog.FuncIndex
	for i, f := range lw.info.Prog.Funcs {
		prog.FuncIndex[f.Name] = i
		if f.Name == "main" {
			prog.Main = i
		}
	}
	if prog.Main < 0 {
		return nil, fmt.Errorf("program has no main function")
	}

	lw.consts = lw.an.constants()
	// Front-end diagnostics pass: constant-UB sites warn (or, under a
	// strict personality, reject) before any code is generated.
	if err := lw.scanConstUB(); err != nil {
		return nil, err
	}

	offs, glen := planGlobals(lw.cfg, lw.seed, lw.info.Globals)
	lw.globalOff = offs
	prog.GlobalsLen = glen
	if glen > ir.GlobalsMax-ir.GlobalsBase {
		return nil, fmt.Errorf("globals segment overflow: %d bytes", glen)
	}

	// Global and static-local initializers become data-segment images.
	appendInit := func(sym *ast.Symbol, declType *types.Type, init ast.Expr) error {
		v, ok := lw.consts.value(init)
		if !ok {
			return lw.rejectf(init.Pos().Line, initNotConstText(lw.cfg.Family))
		}
		data, needStr := globalInitBytes(declType, v)
		if needStr {
			addr := uint64(ir.RodataBase + lw.internString(v.str))
			data = make([]byte, 8)
			for i := 0; i < 8; i++ {
				data[i] = byte(addr >> (8 * i))
			}
		}
		prog.GlobalInit = append(prog.GlobalInit, ir.GlobalInit{Offset: lw.globalOff[sym.Index], Data: data})
		return nil
	}
	for _, g := range lw.info.Prog.Globals {
		if g.Init == nil || g.Sym == nil {
			continue
		}
		if err := appendInit(g.Sym, g.DeclType, g.Init); err != nil {
			return nil, err
		}
	}
	var initErr error
	for _, f := range lw.info.Prog.Funcs {
		ast.Walk(f.Body, func(s ast.Stmt) bool {
			ds, ok := s.(*ast.DeclStmt)
			if !ok {
				return true
			}
			for _, d := range ds.Decls {
				if d.Storage == ast.Static && d.Init != nil && d.Sym != nil {
					if err := appendInit(d.Sym, d.DeclType, d.Init); err != nil && initErr == nil {
						initErr = err
					}
				}
			}
			return true
		})
	}
	if initErr != nil {
		return nil, initErr
	}

	for i, f := range funcs {
		fn, err := lw.lowerFunc(i, f)
		if err != nil {
			return nil, err
		}
		prog.Funcs = append(prog.Funcs, fn)
	}
	prog.Rodata = lw.rodata
	if lw.cfg.Instrument {
		prog.NumEdges = lw.edgeID
	}
	if int64(len(prog.Rodata)) > ir.RodataMax-ir.RodataBase {
		return nil, fmt.Errorf("rodata segment overflow: %d bytes", len(prog.Rodata))
	}
	return prog, nil
}

// internString places a NUL-terminated string in rodata, deduplicated,
// and returns its offset.
func (lw *lowerer) internString(s string) int64 {
	if off, ok := lw.strOff[s]; ok {
		return off
	}
	off := int64(len(lw.rodata))
	lw.rodata = append(lw.rodata, s...)
	lw.rodata = append(lw.rodata, 0)
	lw.strOff[s] = off
	return off
}

// ---------------------------------------------------------------------------
// Function lowering

// lowerFunc lowers function i of the program, f.
func (lw *lowerer) lowerFunc(i int, f *ast.FuncDecl) (*ir.Func, error) {
	lw.fn = f
	lw.dec = lw.an.decisions(lw.akey, i, f)
	lw.passBits |= lw.dec.fired
	params := lw.info.Params[f]
	locals := lw.info.Locals[f]
	lw.fl = lw.planFrame(f, params, locals)
	lw.code = lw.code[:0]
	lw.brk, lw.cont = lw.brk[:0], lw.cont[:0]

	lw.edge()
	lw.stmt(f.Body)

	// A non-void function that falls off the end returns garbage (UB);
	// the value is an implementation-determined poison.
	if !f.Result.IsVoid() {
		lw.emit(ir.Instr{Op: ir.Poison, Imm: int64(lw.funcIdx[f.Name])})
		lw.emit(ir.Instr{Op: ir.Ret, A: 1})
	} else {
		lw.emit(ir.Instr{Op: ir.Ret})
	}

	return &ir.Func{
		Name:      f.Name,
		FrameSize: lw.fl.size,
		ParamOff:  lw.fl.paramOff,
		ParamKind: lw.fl.paramKind,
		Slots:     lw.fl.slots,
		Code:      lw.foldCode(),
	}, nil
}

func (lw *lowerer) emit(i ir.Instr) int {
	i.Line = lw.line
	lw.code = append(lw.code, i)
	return len(lw.code) - 1
}

func (lw *lowerer) here() int64 { return int64(len(lw.code)) }

func (lw *lowerer) patch(idx int) { lw.code[idx].Imm = lw.here() }

func (lw *lowerer) edge() {
	if lw.cfg.Instrument {
		lw.emit(ir.Instr{Op: ir.Edge, Imm: int64(lw.edgeID)})
		lw.edgeID++
	}
}

// ---------------------------------------------------------------------------
// Statements

func (lw *lowerer) stmt(s ast.Stmt) {
	if s == nil || lw.dec.isDead(s) {
		return
	}
	if p := s.Pos(); p.Line > 0 {
		lw.line = int32(p.Line)
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, c := range s.Stmts {
			lw.stmt(c)
		}
	case *ast.DeclStmt:
		for _, d := range s.Decls {
			if d.Storage == ast.Static || d.Sym == nil {
				continue // static locals live in the data segment
			}
			if d.Init == nil {
				continue // uninitialized: the slot holds stack garbage
			}
			lw.emit(ir.Instr{Op: ir.FrameAddr, Imm: lw.fl.offset(d.Sym)})
			lw.exprConv(d.Init, d.DeclType)
			lw.store(d.DeclType)
		}
	case *ast.ExprStmt:
		lw.exprForEffect(s.X)
	case *ast.IfStmt:
		lw.lowerIf(s)
	case *ast.WhileStmt:
		lw.lowerWhile(s)
	case *ast.ForStmt:
		lw.lowerFor(s)
	case *ast.ReturnStmt:
		if s.Value != nil {
			lw.exprConv(s.Value, lw.fn.Result)
			lw.emit(ir.Instr{Op: ir.Ret, A: 1})
		} else {
			lw.emit(ir.Instr{Op: ir.Ret})
		}
	case *ast.BreakStmt:
		j := lw.emit(ir.Instr{Op: ir.Jmp})
		lw.brk[len(lw.brk)-1] = append(lw.brk[len(lw.brk)-1], j)
	case *ast.ContinueStmt:
		j := lw.emit(ir.Instr{Op: ir.Jmp})
		lw.cont[len(lw.cont)-1] = append(lw.cont[len(lw.cont)-1], j)
	}
}

// constCond resolves a condition that the implementation decided (or
// could prove) is constant: optimizer folds first, then plain constant
// folding at -O1+.
func (lw *lowerer) constCond(e ast.Expr) (bool, bool) {
	if v, ok := lw.dec.folded(e); ok {
		return v != 0, true
	}
	if lw.ps.ConstFold {
		if v, ok := lw.consts.value(e); ok && !v.isStr {
			lw.passBits |= PassConstFold
			return !v.isZero(), true
		}
	}
	return false, false
}

func (lw *lowerer) lowerIf(s *ast.IfStmt) {
	if taken, known := lw.constCond(s.Cond); known {
		if taken {
			lw.stmt(s.Then)
		} else if s.Else != nil {
			lw.stmt(s.Else)
		}
		return
	}
	lw.truthy(s.Cond)
	jz := lw.emit(ir.Instr{Op: ir.Jz})
	lw.edge()
	lw.stmt(s.Then)
	if s.Else == nil {
		lw.patch(jz)
		return
	}
	jend := lw.emit(ir.Instr{Op: ir.Jmp})
	lw.patch(jz)
	lw.edge()
	lw.stmt(s.Else)
	lw.patch(jend)
}

func (lw *lowerer) pushLoop() {
	lw.brk = append(lw.brk, nil)
	lw.cont = append(lw.cont, nil)
}

func (lw *lowerer) popLoop(contTarget int64) {
	for _, j := range lw.cont[len(lw.cont)-1] {
		lw.code[j].Imm = contTarget
	}
	for _, j := range lw.brk[len(lw.brk)-1] {
		lw.code[j].Imm = lw.here()
	}
	lw.brk = lw.brk[:len(lw.brk)-1]
	lw.cont = lw.cont[:len(lw.cont)-1]
}

func (lw *lowerer) lowerWhile(s *ast.WhileStmt) {
	if taken, known := lw.constCond(s.Cond); known && !taken {
		return
	}
	start := lw.here()
	var jz int = -1
	if taken, known := lw.constCond(s.Cond); !known || !taken {
		lw.truthy(s.Cond)
		jz = lw.emit(ir.Instr{Op: ir.Jz})
	}
	lw.pushLoop()
	lw.edge()
	lw.stmt(s.Body)
	lw.emit(ir.Instr{Op: ir.Jmp, Imm: start})
	if jz >= 0 {
		lw.patch(jz)
	}
	lw.popLoop(start)
	lw.edge()
}

func (lw *lowerer) lowerFor(s *ast.ForStmt) {
	lw.stmt(s.Init)
	start := lw.here()
	jz := -1
	if s.Cond != nil {
		if taken, known := lw.constCond(s.Cond); known {
			if !taken {
				return
			}
		} else {
			lw.truthy(s.Cond)
			jz = lw.emit(ir.Instr{Op: ir.Jz})
		}
	}
	lw.pushLoop()
	lw.edge()
	lw.stmt(s.Body)
	contTarget := lw.here()
	if s.Post != nil {
		lw.exprForEffect(s.Post)
	}
	lw.emit(ir.Instr{Op: ir.Jmp, Imm: start})
	if jz >= 0 {
		lw.patch(jz)
	}
	lw.popLoop(contTarget)
	lw.edge()
}

// ---------------------------------------------------------------------------
// Expressions

// exprForEffect lowers e discarding its value.
func (lw *lowerer) exprForEffect(e ast.Expr) {
	switch e := e.(type) {
	case *ast.Assign:
		lw.lowerAssign(e, false)
		return
	case *ast.Unary:
		switch e.Op {
		case ast.PreInc, ast.PreDec, ast.PostInc, ast.PostDec:
			lw.lowerIncDec(e, false)
			return
		}
	case *ast.Call:
		lw.lowerCall(e)
		if !e.Type().IsVoid() {
			lw.emit(ir.Instr{Op: ir.Pop})
		}
		return
	}
	lw.expr(e)
	if !e.Type().IsVoid() {
		lw.emit(ir.Instr{Op: ir.Pop})
	}
}

// expr lowers e, pushing its value in canonical form for typeCode(e.Type()).
func (lw *lowerer) expr(e ast.Expr) {
	if lim := lw.ps.ExprDepthLimit; lim > 0 {
		// Simplifier recursion ceiling: the deliberately reproducible
		// ICE of this compiler model. Deeply nested expressions blow it
		// at optimizing levels, exactly the kind of input-dependent
		// front-end crash differential campaigns must survive. The
		// panic ends the whole lowering, so the count needs no unwind.
		lw.depth++
		if lw.depth > lim {
			panic(lw.iceDepth(e))
		}
		lw.exprNode(e)
		lw.depth--
		return
	}
	lw.exprNode(e)
}

// exprNode is expr below the depth ceiling.
func (lw *lowerer) exprNode(e ast.Expr) {
	if l := lw.consts.lineOf(e); l > 0 {
		lw.line = l
	}
	if v, ok := lw.dec.folded(e); ok {
		lw.emit(ir.Instr{Op: ir.ConstI, Imm: int64(v)})
		return
	}
	switch e := e.(type) {
	case *ast.IntLit:
		tc := typeCode(e.Type())
		lw.emit(ir.Instr{Op: ir.ConstI, Imm: int64(ir.Canon(tc, uint64(e.Value)))})
	case *ast.FloatLit:
		v := e.Value
		if typeCode(e.Type()) == ir.F32 {
			v = float64(float32(v))
		}
		lw.emit(ir.Instr{Op: ir.ConstF, FImm: v})
	case *ast.StrLit:
		lw.emit(ir.Instr{Op: ir.StrAddr, Imm: lw.internString(e.Value)})
	case *ast.LineExpr:
		line := e.KwPos.Line
		if lw.ps.LineIsStmtStart && e.StmtLine > 0 {
			line = e.StmtLine
		}
		lw.emit(ir.Instr{Op: ir.ConstI, Imm: int64(line)})
	case *ast.Ident:
		lw.loadLValue(e)
	case *ast.Unary:
		lw.lowerUnary(e)
	case *ast.Binary:
		lw.lowerBinary(e)
	case *ast.Assign:
		lw.lowerAssign(e, true)
	case *ast.Cond:
		lw.lowerCond(e)
	case *ast.Call:
		lw.lowerCall(e)
	case *ast.Index, *ast.Member:
		lw.loadLValue(e)
	case *ast.CastExpr:
		lw.exprConv(e.X, e.To)
	case *ast.SizeofExpr:
		lw.emit(ir.Instr{Op: ir.ConstI, Imm: e.Of.Size()})
	default:
		lw.emit(ir.Instr{Op: ir.Unreach})
	}
}

// exprConv lowers e and converts the result to type `to`. This is also
// the hook for the arithmetic-widening divergence: when the target is
// 64-bit and the implementation widens, a signed 32-bit +,-,* chain is
// evaluated directly in 64 bits (changing results only under signed
// overflow, which is UB).
func (lw *lowerer) exprConv(e ast.Expr, to *types.Type) {
	toCode := typeCode(to)
	if toCode == ir.I64 && lw.ps.WidenMulToLong && lw.widenable(e) {
		lw.passBits |= PassWidenMul
		lw.lowerWidened(e)
		return
	}
	lw.expr(e)
	lw.convCode(typeCode(e.Type()), toCode)
}

// widenable reports whether e is a signed-int arithmetic chain the
// widening pass evaluates in 64-bit.
func (lw *lowerer) widenable(e ast.Expr) bool {
	bin, ok := e.(*ast.Binary)
	if !ok {
		return false
	}
	if _, folded := lw.dec.folded(e); folded {
		return false
	}
	switch bin.Op {
	case ast.Add, ast.Sub, ast.Mul:
	default:
		return false
	}
	// Must contain at least one multiplication to match the real
	// pattern (cheap reassociation of multiplies into wider registers).
	if bin.Op != ast.Mul {
		_, xm := bin.X.(*ast.Binary)
		_, ym := bin.Y.(*ast.Binary)
		if !xm && !ym {
			return false
		}
	}
	return bin.CommonType != nil && bin.CommonType.Kind == types.Int &&
		bin.X.Type().IsInteger() && bin.Y.Type().IsInteger()
}

// lowerWidened evaluates a signed-int +,-,* tree in I64.
func (lw *lowerer) lowerWidened(e ast.Expr) {
	if bin, ok := e.(*ast.Binary); ok && lw.widenableNode(bin) {
		lw.lowerWidened(bin.X)
		lw.lowerWidened(bin.Y)
		op, _ := binOpToIR(bin.Op)
		lw.emit(ir.Instr{Op: op, A: uint8(ir.I64)})
		return
	}
	lw.expr(e)
	lw.convCode(typeCode(e.Type()), ir.I64)
}

func (lw *lowerer) widenableNode(bin *ast.Binary) bool {
	if _, folded := lw.dec.folded(bin); folded {
		return false
	}
	switch bin.Op {
	case ast.Add, ast.Sub, ast.Mul:
		return bin.CommonType != nil && bin.CommonType.Kind == types.Int &&
			bin.X.Type().IsInteger() && bin.Y.Type().IsInteger()
	}
	return false
}

func (lw *lowerer) convCode(from, to ir.TypeCode) {
	if from == to {
		return
	}
	lw.emit(ir.Instr{Op: ir.Conv, A: uint8(from), B: uint8(to)})
}

// truthy lowers e so that the top of stack is nonzero iff e is true.
func (lw *lowerer) truthy(e ast.Expr) {
	lw.expr(e)
	tc := typeCode(e.Type())
	if tc.IsFloat() {
		lw.emit(ir.Instr{Op: ir.ConstF, FImm: 0})
		lw.emit(ir.Instr{Op: ir.CmpNe, A: uint8(tc)})
	}
}

// ---------------------------------------------------------------------------
// L-values

// addr pushes the address of lvalue e.
func (lw *lowerer) addr(e ast.Expr) {
	switch e := e.(type) {
	case *ast.Ident:
		sym := e.Sym
		switch sym.Kind {
		case ast.SymLocal, ast.SymParam:
			lw.emit(ir.Instr{Op: ir.FrameAddr, Imm: lw.fl.offset(sym)})
		case ast.SymGlobal, ast.SymStaticLocal:
			lw.emit(ir.Instr{Op: ir.GlobalAddr, Imm: lw.globalOff[sym.Index]})
		default:
			lw.emit(ir.Instr{Op: ir.Unreach})
		}
	case *ast.Unary:
		if e.Op != ast.Deref {
			lw.emit(ir.Instr{Op: ir.Unreach})
			return
		}
		lw.expr(e.X)
	case *ast.Index:
		lw.expr(e.X) // pointer value (arrays decayed)
		lw.exprConv(e.Idx, types.LongType)
		elem := e.Type()
		if sz := elem.Size(); sz != 1 {
			lw.emit(ir.Instr{Op: ir.ConstI, Imm: sz})
			lw.emit(ir.Instr{Op: ir.Mul, A: uint8(ir.I64)})
		}
		lw.emit(ir.Instr{Op: ir.Add, A: uint8(ir.U64)})
	case *ast.Member:
		if e.Arrow {
			lw.expr(e.X)
		} else {
			lw.addr(e.X)
		}
		if e.Field.Offset != 0 {
			lw.emit(ir.Instr{Op: ir.ConstI, Imm: e.Field.Offset})
			lw.emit(ir.Instr{Op: ir.Add, A: uint8(ir.U64)})
		}
	default:
		lw.emit(ir.Instr{Op: ir.Unreach})
	}
}

// loadLValue pushes the value of lvalue e (or its address, for arrays).
func (lw *lowerer) loadLValue(e ast.Expr) {
	// Arrays do not load; their value is their address.
	if id, ok := e.(*ast.Ident); ok && id.Sym != nil && id.Sym.Type.Kind == types.Array {
		lw.addr(e)
		return
	}
	if m, ok := e.(*ast.Member); ok && m.Field.Type != nil && m.Field.Type.Kind == types.Array {
		lw.addr(e)
		return
	}
	if ix, ok := e.(*ast.Index); ok {
		if at := indexElemType(ix); at != nil && at.Kind == types.Array {
			lw.addr(e)
			return
		}
	}
	lw.addr(e)
	lw.load(lvalueType(e))
}

func indexElemType(ix *ast.Index) *types.Type {
	xt := ix.X.Type()
	if xt != nil && xt.IsPtr() {
		return xt.Elem
	}
	return nil
}

// lvalueType is the declared (non-decayed) type of the storage.
func lvalueType(e ast.Expr) *types.Type {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Sym.Type
	case *ast.Member:
		return e.Field.Type
	case *ast.Index:
		if t := indexElemType(e); t != nil {
			return t
		}
	case *ast.Unary:
		if e.Op == ast.Deref {
			if xt := e.X.Type(); xt != nil && xt.IsPtr() {
				return xt.Elem
			}
		}
	}
	return e.Type()
}

// load emits a Load for storage of type t (address on stack).
func (lw *lowerer) load(t *types.Type) {
	tc := typeCode(t)
	in := ir.Instr{Op: ir.Load, A: uint8(storeWidth(t))}
	switch {
	case tc == ir.F32:
		in.B = 2
	case tc == ir.F64:
		in.B = 3
	case tc.Signed():
		in.B = 1
	}
	lw.emit(in)
}

// store emits a Store for storage of type t (stack: [addr, value]).
func (lw *lowerer) store(t *types.Type) {
	in := ir.Instr{Op: ir.Store, A: uint8(storeWidth(t))}
	if typeCode(t) == ir.F32 {
		in.B = 2
	}
	lw.emit(in)
}

// ---------------------------------------------------------------------------
// Operators

func (lw *lowerer) lowerUnary(e *ast.Unary) {
	switch e.Op {
	case ast.Neg:
		lw.exprConv(e.X, e.Type())
		tc := typeCode(e.Type())
		if tc.IsFloat() {
			lw.emit(ir.Instr{Op: ir.FNeg, A: uint8(tc)})
		} else {
			lw.emit(ir.Instr{Op: ir.Neg, A: uint8(tc)})
		}
	case ast.BitNot:
		lw.exprConv(e.X, e.Type())
		lw.emit(ir.Instr{Op: ir.BitNot, A: uint8(typeCode(e.Type()))})
	case ast.LogicalNot:
		lw.expr(e.X)
		tc := typeCode(e.X.Type())
		if tc.IsFloat() {
			lw.emit(ir.Instr{Op: ir.ConstF, FImm: 0})
		} else {
			lw.emit(ir.Instr{Op: ir.ConstI, Imm: 0})
		}
		lw.emit(ir.Instr{Op: ir.CmpEq, A: uint8(tc)})
	case ast.Deref:
		lw.expr(e.X)
		lw.load(e.Type())
	case ast.AddrOf:
		lw.addr(e.X)
	case ast.PreInc, ast.PreDec, ast.PostInc, ast.PostDec:
		lw.lowerIncDec(e, true)
	default:
		lw.emit(ir.Instr{Op: ir.Unreach})
	}
}

// lowerIncDec lowers ++/-- with or without a result value.
func (lw *lowerer) lowerIncDec(e *ast.Unary, needValue bool) {
	t := lvalueType(e.X)
	tc := typeCode(t)
	isSub := e.Op == ast.PreDec || e.Op == ast.PostDec
	isPost := e.Op == ast.PostInc || e.Op == ast.PostDec

	lw.addr(e.X)
	lw.emit(ir.Instr{Op: ir.Dup})
	lw.load(t)
	if needValue && isPost {
		lw.emit(ir.Instr{Op: ir.TSet})
		lw.emit(ir.Instr{Op: ir.TGet})
	}
	// Step: 1, or the element size for pointers.
	step := int64(1)
	opCode := tc
	if t.IsPtr() {
		step = t.Elem.Size()
		opCode = ir.U64
	}
	if tc.IsFloat() {
		lw.emit(ir.Instr{Op: ir.ConstF, FImm: 1})
		if isSub {
			lw.emit(ir.Instr{Op: ir.FSub, A: uint8(tc)})
		} else {
			lw.emit(ir.Instr{Op: ir.FAdd, A: uint8(tc)})
		}
	} else {
		lw.emit(ir.Instr{Op: ir.ConstI, Imm: step})
		op := ir.Add
		if isSub {
			op = ir.Sub
		}
		lw.emit(ir.Instr{Op: op, A: uint8(opCode)})
	}
	if needValue && !isPost {
		lw.emit(ir.Instr{Op: ir.TSet})
		lw.emit(ir.Instr{Op: ir.TGet})
	}
	lw.store(t)
	if needValue {
		lw.emit(ir.Instr{Op: ir.TGet})
		lw.emit(ir.Instr{Op: ir.TPop})
	}
}

func (lw *lowerer) lowerBinary(e *ast.Binary) {
	// Implementation-level constant folding (never of UB constants).
	if lw.ps.ConstFold {
		if v, ok := lw.consts.value(e); ok && !v.isStr {
			lw.passBits |= PassConstFold
			if v.tc.IsFloat() {
				lw.emit(ir.Instr{Op: ir.ConstF, FImm: math.Float64frombits(v.word)})
			} else {
				lw.emit(ir.Instr{Op: ir.ConstI, Imm: int64(v.word)})
			}
			return
		}
	}
	switch e.Op {
	case ast.LogAnd, ast.LogOr:
		lw.lowerShortCircuit(e)
		return
	}

	xt, yt := e.X.Type(), e.Y.Type()

	// Pointer arithmetic.
	if e.Op == ast.Add && xt.IsPtr() && yt.IsInteger() {
		lw.ptrOffset(e.X, e.Y, xt.Elem.Size(), false)
		return
	}
	if e.Op == ast.Add && yt.IsPtr() && xt.IsInteger() {
		// Evaluate left to right: scale the integer first.
		lw.exprConv(e.X, types.LongType)
		if sz := yt.Elem.Size(); sz != 1 {
			lw.emit(ir.Instr{Op: ir.ConstI, Imm: sz})
			lw.emit(ir.Instr{Op: ir.Mul, A: uint8(ir.I64)})
		}
		lw.expr(e.Y)
		lw.emit(ir.Instr{Op: ir.Add, A: uint8(ir.U64)})
		return
	}
	if e.Op == ast.Sub && xt.IsPtr() && yt.IsInteger() {
		lw.ptrOffset(e.X, e.Y, xt.Elem.Size(), true)
		return
	}
	if e.Op == ast.Sub && xt.IsPtr() && yt.IsPtr() {
		// Pointer difference: UB across objects (CWE-469); the result
		// is whatever the addresses make it.
		lw.expr(e.X)
		lw.expr(e.Y)
		lw.emit(ir.Instr{Op: ir.Sub, A: uint8(ir.I64)})
		if sz := xt.Elem.Size(); sz != 1 {
			lw.emit(ir.Instr{Op: ir.ConstI, Imm: sz})
			lw.emit(ir.Instr{Op: ir.Div, A: uint8(ir.I64)})
		}
		return
	}

	// Comparisons (including the UB unrelated-pointer relations).
	if op, isCmp := binOpToIR(e.Op); isCmp {
		common := e.CommonType
		tc := ir.U64
		if common != nil && !common.IsPtr() {
			tc = typeCode(common)
		}
		if common != nil && common.IsPtr() {
			lw.expr(e.X)
			lw.expr(e.Y)
		} else {
			ct := common
			if ct == nil {
				ct = types.ULongType
			}
			lw.exprOperand(e.X, ct)
			lw.exprOperand(e.Y, ct)
		}
		lw.emit(ir.Instr{Op: op, A: uint8(tc)})
		return
	}

	// FMA contraction: a*b + c in double, fused into one rounding.
	if e.Op == ast.Add && lw.ps.ContractFMA && typeCode(e.CommonType) == ir.F64 {
		if mul, ok := e.X.(*ast.Binary); ok && mul.Op == ast.Mul && typeCode(mul.CommonType) == ir.F64 {
			if _, folded := lw.dec.folded(e.X); !folded {
				lw.passBits |= PassContractFMA
				lw.exprOperand(mul.X, e.CommonType)
				lw.exprOperand(mul.Y, e.CommonType)
				lw.exprOperand(e.Y, e.CommonType)
				lw.emit(ir.Instr{Op: ir.FMulAdd, A: uint8(ir.F64)})
				return
			}
		}
	}

	common := e.CommonType
	tc := typeCode(common)
	op, _ := binOpToIR(e.Op)
	if tc.IsFloat() {
		switch e.Op {
		case ast.Add:
			op = ir.FAdd
		case ast.Sub:
			op = ir.FSub
		case ast.Mul:
			op = ir.FMul
		case ast.Div:
			op = ir.FDiv
		}
		lw.exprOperand(e.X, common)
		lw.exprOperand(e.Y, common)
		lw.emit(ir.Instr{Op: op, A: uint8(tc)})
		return
	}
	lw.exprOperand(e.X, common)
	if e.Op == ast.Shl || e.Op == ast.Shr {
		lw.exprConv(e.Y, types.LongType) // shift count
	} else {
		lw.exprOperand(e.Y, common)
	}
	lw.emit(ir.Instr{Op: op, A: uint8(tc)})
}

// exprOperand converts an operand to the operation's common type,
// applying the widening hook.
func (lw *lowerer) exprOperand(e ast.Expr, common *types.Type) {
	lw.exprConv(e, common)
}

// ptrOffset lowers ptr ± intExpr*size.
func (lw *lowerer) ptrOffset(p, idx ast.Expr, size int64, sub bool) {
	lw.expr(p)
	lw.exprConv(idx, types.LongType)
	if size != 1 {
		lw.emit(ir.Instr{Op: ir.ConstI, Imm: size})
		lw.emit(ir.Instr{Op: ir.Mul, A: uint8(ir.I64)})
	}
	op := ir.Add
	if sub {
		op = ir.Sub
	}
	lw.emit(ir.Instr{Op: op, A: uint8(ir.U64)})
}

func (lw *lowerer) lowerShortCircuit(e *ast.Binary) {
	if e.Op == ast.LogAnd {
		lw.truthy(e.X)
		j1 := lw.emit(ir.Instr{Op: ir.Jz})
		lw.truthy(e.Y)
		j2 := lw.emit(ir.Instr{Op: ir.Jz})
		lw.emit(ir.Instr{Op: ir.ConstI, Imm: 1})
		jend := lw.emit(ir.Instr{Op: ir.Jmp})
		lw.patch(j1)
		lw.patch(j2)
		lw.emit(ir.Instr{Op: ir.ConstI, Imm: 0})
		lw.patch(jend)
		return
	}
	lw.truthy(e.X)
	j1 := lw.emit(ir.Instr{Op: ir.Jnz})
	lw.truthy(e.Y)
	j2 := lw.emit(ir.Instr{Op: ir.Jnz})
	lw.emit(ir.Instr{Op: ir.ConstI, Imm: 0})
	jend := lw.emit(ir.Instr{Op: ir.Jmp})
	lw.patch(j1)
	lw.patch(j2)
	lw.emit(ir.Instr{Op: ir.ConstI, Imm: 1})
	lw.patch(jend)
}

func (lw *lowerer) lowerCond(e *ast.Cond) {
	lw.truthy(e.C)
	jz := lw.emit(ir.Instr{Op: ir.Jz})
	lw.exprConv(e.X, e.Type())
	jend := lw.emit(ir.Instr{Op: ir.Jmp})
	lw.patch(jz)
	lw.exprConv(e.Y, e.Type())
	lw.patch(jend)
}

// lowerAssign lowers plain and compound assignment.
func (lw *lowerer) lowerAssign(e *ast.Assign, needValue bool) {
	lhsT := lvalueType(e.LHS)

	if e.Op == ast.PlainAssign {
		if needValue {
			lw.exprConv(e.RHS, lhsT)
			lw.emit(ir.Instr{Op: ir.TSet})
			lw.addr(e.LHS)
			lw.emit(ir.Instr{Op: ir.TGet})
			lw.store(lhsT)
			lw.emit(ir.Instr{Op: ir.TGet})
			lw.emit(ir.Instr{Op: ir.TPop})
			return
		}
		lw.addr(e.LHS)
		lw.exprConv(e.RHS, lhsT)
		lw.store(lhsT)
		return
	}

	// Compound assignment: load, operate, store back.
	lw.addr(e.LHS)
	lw.emit(ir.Instr{Op: ir.Dup})
	lw.load(lhsT)

	if lhsT.IsPtr() && (e.Op == ast.Add || e.Op == ast.Sub) {
		lw.exprConv(e.RHS, types.LongType)
		if sz := lhsT.Elem.Size(); sz != 1 {
			lw.emit(ir.Instr{Op: ir.ConstI, Imm: sz})
			lw.emit(ir.Instr{Op: ir.Mul, A: uint8(ir.I64)})
		}
		op := ir.Add
		if e.Op == ast.Sub {
			op = ir.Sub
		}
		lw.emit(ir.Instr{Op: op, A: uint8(ir.U64)})
	} else {
		common := types.Common(lhsT, e.RHS.Type())
		tc := typeCode(common)
		lw.convCode(typeCode(lhsT), tc)
		if e.Op == ast.Shl || e.Op == ast.Shr {
			common = types.Promote(lhsT)
			tc = typeCode(common)
			// The loaded value was converted to Common above; correct
			// the conversion target for shifts (left-operand type).
		}
		op, _ := binOpToIR(e.Op)
		if tc.IsFloat() {
			switch e.Op {
			case ast.Add:
				op = ir.FAdd
			case ast.Sub:
				op = ir.FSub
			case ast.Mul:
				op = ir.FMul
			case ast.Div:
				op = ir.FDiv
			}
		}
		if e.Op == ast.Shl || e.Op == ast.Shr {
			lw.exprConv(e.RHS, types.LongType)
		} else {
			lw.exprConv(e.RHS, common)
		}
		lw.emit(ir.Instr{Op: op, A: uint8(tc)})
		// Convert the result back to the storage type.
		lw.convCode(tc, typeCode(lhsT))
	}

	if needValue {
		lw.emit(ir.Instr{Op: ir.TSet})
		lw.emit(ir.Instr{Op: ir.TGet})
		lw.store(lhsT)
		lw.emit(ir.Instr{Op: ir.TGet})
		lw.emit(ir.Instr{Op: ir.TPop})
		return
	}
	lw.store(lhsT)
}

// ---------------------------------------------------------------------------
// Calls

func (lw *lowerer) lowerCall(e *ast.Call) {
	sym := e.Fun.Sym
	if sym == nil {
		lw.emit(ir.Instr{Op: ir.Unreach})
		return
	}
	rtl := lw.ps.ArgsRightToLeft
	emitArgs := func(paramType func(i int) *types.Type) {
		for k := range e.Args {
			i := k
			if rtl {
				i = len(e.Args) - 1 - k
			}
			a := e.Args[i]
			if pt := paramType(i); pt != nil {
				lw.exprConv(a, pt)
			} else {
				// Default argument promotions for varargs/extra args.
				at := a.Type()
				switch {
				case at.Kind == types.Float:
					lw.exprConv(a, types.DoubleType)
				case at.IsInteger():
					lw.exprConv(a, types.Promote(at))
				default:
					lw.expr(a)
				}
			}
		}
	}

	rtlFlag := uint8(0)
	if rtl {
		rtlFlag = 1
	}

	if sym.Kind == ast.SymBuiltin {
		sig := sema.Builtins[sym.Builtin]
		emitArgs(func(i int) *types.Type {
			if i < len(sig.Params) {
				return sig.Params[i]
			}
			return nil
		})
		lw.emit(ir.Instr{Op: ir.CallB, Imm: int64(sym.Builtin), A: uint8(len(e.Args)), B: rtlFlag})
		return
	}

	fn := sym.Func
	emitArgs(func(i int) *types.Type {
		if fn != nil && i < len(fn.Params) {
			return fn.Params[i].DeclType
		}
		return nil
	})
	lw.emit(ir.Instr{Op: ir.Call, Imm: int64(lw.funcIdx[fn.Name]), A: uint8(len(e.Args)), B: rtlFlag})
}
