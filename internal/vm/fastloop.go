package vm

import (
	"math"

	"compdiff/internal/ir"
)

// The production interpreter loop. Where the reference step() re-derives
// everything per instruction — frame pointer, code slice, step-budget
// check, all through Machine fields — runLoop hoists the current
// frame's code slice, base address, pc, AND the operand stack (slot
// array + stack pointer) into locals, re-loading them only when the
// frame actually changes (Call/Ret) or a helper that touches machine
// state runs, and keeps the step counter in a register, reconciling
// with the budget only at batch boundaries (every stepBatch
// instructions) while preserving exact per-instruction accounting.
// The observable semantics are byte-identical to step(); the
// differential self-test enforces this over the golden corpus and
// crasher inputs.
//
// Local-state discipline: `sp`/`ops` are authoritative inside the
// inner loop. Every exit (return, halt check) writes m.sp back; every
// helper call that reads or writes the machine stack (callS, ret,
// builtin, execDivMod, execShift) is bracketed by a write-back and a
// re-load; callS and builtin take their argument window as an in-place
// alias of the popped slots instead of a marshalled copy. report() and trap() never touch the operand stack,
// so the inline cases may fire them freely before falling into the
// halt check.

// stepBatch is how many instructions run between step-limit checks.
// The batch never overruns the budget: each batch is clamped to the
// remaining allowance, so a program that would trap at limit (or
// limit±1) reports the same Steps and exit under both loops.
const stepBatch = 64

func (m *Machine) runLoop() {
	steps := m.steps
	limit := m.limit
	trace := m.opts.TraceLines
	ubsan := m.opts.San == SanUBSan
	// With no ASan shadow and no MSan taint map, checkAccess reduces to
	// the mapped/segment test and loadTaint/markInit are no-ops: the
	// common memory ops can validate inline and skip those calls.
	// Both maps are fixed at machine construction, so this is loop
	// invariant.
	plain := m.asanShadow == nil && m.msanInit == nil

outer:
	for !m.halt {
		// Hoist the frame and operand stack: reloaded only here, after
		// a Call, Ret, or batch boundary — never per instruction.
		fr := &m.frames[len(m.frames)-1]
		code := fr.fn.Code
		base := fr.base
		pc := fr.pc
		ops := m.ops
		sp := m.sp

		rem := limit - steps
		if rem <= 0 {
			// The next instruction would exceed the budget: it counts
			// (the reference loop increments before the check) but does
			// not execute.
			m.sp = sp
			m.steps = steps + 1
			m.trap(StepLimit)
			return
		}
		batch := int64(stepBatch)
		if batch > rem {
			batch = rem
		}
		target := steps + batch
		n := batch

		for n > 0 {
			if uint(pc) >= uint(len(code)) {
				m.sp = sp
				m.steps = target - n + 1
				m.trap(VMFault)
				return
			}
			in := &code[pc]
			pc++
			n--
			if trace {
				m.traceLine(in.Line)
			}

			switch in.Op {
			case ir.Nop:
				continue
			case ir.ConstI:
				v := uint64(in.Imm)
				// Fused ConstI+Conv and ConstI+Cmp* (+Jz/Jnz): the
				// conversion or comparison folds into the push. Guards
				// keep this observationally identical to the separate
				// dispatches — every fused instruction fits in the
				// current batch (so limit accounting is unchanged), and
				// trace mode records per-instruction lines, so it never
				// fuses.
				if uint(pc) < uint(len(code)) && !trace && n > 1 {
					switch nx := &code[pc]; nx.Op {
					case ir.Conv:
						pc++
						n--
						if from, to := ir.TypeCode(nx.A), ir.TypeCode(nx.B); !from.IsFloat() && !to.IsFloat() {
							v = ir.Canon(to, v)
						} else {
							v = ir.ConvWord(from, to, v)
						}
					case ir.CmpEq, ir.CmpNe, ir.CmpLt, ir.CmpLe, ir.CmpGt, ir.CmpGe:
						// Compare-with-immediate: the lhs is already on
						// the stack, so the push/pop round trip
						// disappears. Float codes keep the unfused path
						// (the immediate is an integer by construction).
						if tc := ir.TypeCode(nx.A); !tc.IsFloat() && sp > 0 {
							pc++
							n--
							a := ops[sp-1]
							res := ir.IntCmp(nx.Op, tc, a.v, v)
							// Chained branch: consti,cmp,jz is the
							// dominant conditional shape. An untainted
							// operand is required — a tainted branch is
							// MSan's core report, handled unfused.
							if uint(pc) < uint(len(code)) && !a.t && n > 1 {
								if br := &code[pc]; br.Op == ir.Jz || br.Op == ir.Jnz {
									pc++
									n--
									sp--
									if (br.Op == ir.Jz) != res {
										pc = int(br.Imm)
									}
									continue
								}
							}
							r := uint64(0)
							if res {
								r = 1
							}
							ops[sp-1] = slot{v: r, t: a.t}
							continue
						}
					}
				}
				if sp == len(ops) {
					m.sp = sp
					m.growOps()
					ops = m.ops
				}
				ops[sp] = slot{v: v}
				sp++
				continue
			case ir.ConstF:
				if sp == len(ops) {
					m.sp = sp
					m.growOps()
					ops = m.ops
				}
				ops[sp] = slot{v: math.Float64bits(in.FImm)}
				sp++
				continue
			case ir.StrAddr:
				if sp == len(ops) {
					m.sp = sp
					m.growOps()
					ops = m.ops
				}
				ops[sp] = slot{v: ir.RodataBase + uint64(in.Imm)}
				sp++
				continue
			case ir.FrameAddr:
				addr := base + uint64(in.Imm)
				// Fused FrameAddr+Load: a local-variable read skips the
				// address push/pop round trip. Only taken when the plain
				// mapped-access fast path applies (no sanitizer
				// bookkeeping, no trap possible) and both instructions
				// fit in the current batch; anything else falls back to
				// the plain push and lets the Load case handle it.
				if uint(pc) < uint(len(code)) && code[pc].Op == ir.Load && !trace && n > 1 {
					nx := &code[pc]
					w := uint64(nx.A)
					if end := addr + w; plain && addr >= ir.NullTop && end >= addr && end <= ir.MemSize {
						pc++
						n--
						raw := m.rawLoad(addr, int(nx.A))
						var v uint64
						switch nx.B {
						case 1: // sign-extend
							switch nx.A {
							case 1:
								v = uint64(int64(int8(raw)))
							case 4:
								v = uint64(int64(int32(raw)))
							default:
								v = raw
							}
						case 2: // float32
							v = f32val(uint32(raw))
						default: // zero-extend or float64
							v = raw
						}
						// Third link of the FrameAddr+Load chain: a
						// trailing Conv folds into the same push.
						if uint(pc) < uint(len(code)) && code[pc].Op == ir.Conv && n > 1 {
							cv := &code[pc]
							pc++
							n--
							if from, to := ir.TypeCode(cv.A), ir.TypeCode(cv.B); !from.IsFloat() && !to.IsFloat() {
								v = ir.Canon(to, v)
							} else {
								v = ir.ConvWord(from, to, v)
							}
						}
						if sp == len(ops) {
							m.sp = sp
							m.growOps()
							ops = m.ops
						}
						ops[sp] = slot{v: v}
						sp++
						continue
					}
				}
				if sp == len(ops) {
					m.sp = sp
					m.growOps()
					ops = m.ops
				}
				ops[sp] = slot{v: addr}
				sp++
				continue
			case ir.GlobalAddr:
				if sp == len(ops) {
					m.sp = sp
					m.growOps()
					ops = m.ops
				}
				ops[sp] = slot{v: ir.GlobalsBase + uint64(in.Imm)}
				sp++
				continue
			case ir.Dup:
				if sp == len(ops) {
					m.sp = sp
					m.growOps()
					ops = m.ops
				}
				ops[sp] = ops[sp-1]
				sp++
				continue
			case ir.Pop:
				sp--
				continue
			case ir.Swap:
				ops[sp-1], ops[sp-2] = ops[sp-2], ops[sp-1]
				continue

			case ir.Load:
				sp--
				s := ops[sp]
				if s.t {
					m.report("msan", "use-of-uninitialized-value", in.Line)
					break
				}
				w := uint64(in.A)
				var t bool
				if end := s.v + w; plain && s.v >= ir.NullTop && end >= s.v && end <= ir.MemSize {
					// Mapped and no sanitizer bookkeeping: skip the calls.
				} else {
					if !m.checkAccess(s.v, w, false, in.Line) {
						break
					}
					t = m.loadTaint(s.v, w)
				}
				raw := m.rawLoad(s.v, int(in.A))
				var v uint64
				switch in.B {
				case 1: // sign-extend
					switch in.A {
					case 1:
						v = uint64(int64(int8(raw)))
					case 4:
						v = uint64(int64(int32(raw)))
					default:
						v = raw
					}
				case 2: // float32
					v = f32val(uint32(raw))
				default: // zero-extend or float64
					v = raw
				}
				// Fused Load+Conv: the widening that follows nearly every
				// sub-word load folds into the push (taint is untouched —
				// Conv propagates it unchanged).
				if uint(pc) < uint(len(code)) && code[pc].Op == ir.Conv && !trace && n > 1 {
					nx := &code[pc]
					pc++
					n--
					if from, to := ir.TypeCode(nx.A), ir.TypeCode(nx.B); !from.IsFloat() && !to.IsFloat() {
						v = ir.Canon(to, v)
					} else {
						v = ir.ConvWord(from, to, v)
					}
				}
				ops[sp] = slot{v: v, t: t}
				sp++
				continue

			case ir.Store:
				sp -= 2
				val := ops[sp+1]
				addr := ops[sp]
				if addr.t {
					m.report("msan", "use-of-uninitialized-value", in.Line)
					break
				}
				w := uint64(in.A)
				if end := addr.v + w; plain && addr.v >= ir.GlobalsBase && end >= addr.v && end <= ir.MemSize {
					// Mapped, writable, and no sanitizer bookkeeping.
					raw := val.v
					if in.B == 2 {
						raw = uint64(f32bits(val.v))
					}
					m.rawStore(addr.v, int(in.A), raw)
					continue
				}
				if !m.checkAccess(addr.v, w, true, in.Line) {
					break
				}
				raw := val.v
				if in.B == 2 {
					raw = uint64(f32bits(val.v))
				}
				m.rawStore(addr.v, int(in.A), raw)
				m.markInit(addr.v, w, !val.t)
				continue

			case ir.Add, ir.Sub, ir.Mul, ir.BitAnd, ir.BitOr, ir.BitXor:
				sp--
				b := ops[sp]
				a := ops[sp-1]
				tc := ir.TypeCode(in.A)
				if ubsan && ir.OverflowSigned(in.Op, tc, a.v, b.v) {
					sp--
					m.report("ubsan", "signed-integer-overflow", in.Line)
					break
				}
				var r uint64
				switch in.Op {
				case ir.Add:
					r = ir.Canon(tc, a.v+b.v)
				case ir.Sub:
					r = ir.Canon(tc, a.v-b.v)
				case ir.Mul:
					r = ir.Canon(tc, a.v*b.v)
				case ir.BitAnd:
					r = ir.Canon(tc, a.v&b.v)
				case ir.BitOr:
					r = ir.Canon(tc, a.v|b.v)
				default:
					r = ir.Canon(tc, a.v^b.v)
				}
				ops[sp-1] = slot{v: r, t: a.t || b.t}
				continue

			case ir.Div, ir.Mod:
				m.sp = sp
				m.execDivMod(in)
				sp = m.sp
				ops = m.ops

			case ir.Neg:
				s := ops[sp-1]
				tc := ir.TypeCode(in.A)
				if ubsan && ir.OverflowSigned(ir.Neg, tc, s.v, 0) {
					sp--
					m.report("ubsan", "signed-integer-overflow", in.Line)
					break
				}
				ops[sp-1] = slot{v: ir.Canon(tc, -s.v), t: s.t}
				continue

			case ir.BitNot:
				s := ops[sp-1]
				ops[sp-1] = slot{v: ir.Canon(ir.TypeCode(in.A), ^s.v), t: s.t}
				continue

			case ir.Shl, ir.Shr:
				m.sp = sp
				m.execShift(in)
				sp = m.sp
				ops = m.ops

			case ir.CmpEq, ir.CmpNe, ir.CmpLt, ir.CmpLe, ir.CmpGt, ir.CmpGe:
				sp--
				b := ops[sp]
				a := ops[sp-1]
				tc := ir.TypeCode(in.A)
				var res bool
				if tc.IsFloat() {
					x, y := math.Float64frombits(a.v), math.Float64frombits(b.v)
					switch in.Op {
					case ir.CmpEq:
						res = x == y
					case ir.CmpNe:
						res = x != y
					case ir.CmpLt:
						res = x < y
					case ir.CmpLe:
						res = x <= y
					case ir.CmpGt:
						res = x > y
					case ir.CmpGe:
						res = x >= y
					}
				} else if tc.Signed() {
					x, y := int64(a.v), int64(b.v)
					switch in.Op {
					case ir.CmpEq:
						res = x == y
					case ir.CmpNe:
						res = x != y
					case ir.CmpLt:
						res = x < y
					case ir.CmpLe:
						res = x <= y
					case ir.CmpGt:
						res = x > y
					default:
						res = x >= y
					}
				} else {
					switch in.Op {
					case ir.CmpEq:
						res = a.v == b.v
					case ir.CmpNe:
						res = a.v != b.v
					case ir.CmpLt:
						res = a.v < b.v
					case ir.CmpLe:
						res = a.v <= b.v
					case ir.CmpGt:
						res = a.v > b.v
					default:
						res = a.v >= b.v
					}
				}
				// Fused Cmp*+Jz/Jnz: the comparison feeds the branch
				// directly instead of round-tripping a 0/1 through the
				// stack. Tainted operands keep the unfused path so the
				// branch-on-uninitialized MSan report fires from the
				// plain Jz/Jnz case with its own line number.
				if uint(pc) < uint(len(code)) && !a.t && !b.t && !trace && n > 1 {
					if nx := &code[pc]; nx.Op == ir.Jz || nx.Op == ir.Jnz {
						pc++
						n--
						sp--
						if (nx.Op == ir.Jz) != res {
							pc = int(nx.Imm)
						}
						continue
					}
				}
				v := uint64(0)
				if res {
					v = 1
				}
				ops[sp-1] = slot{v: v, t: a.t || b.t}
				continue

			case ir.Conv:
				s := ops[sp-1]
				from, to := ir.TypeCode(in.A), ir.TypeCode(in.B)
				var v uint64
				if !from.IsFloat() && !to.IsFloat() {
					// Integer narrowing/widening is just canonicalization;
					// skipping the ConvWord call keeps the dominant case
					// inline.
					v = ir.Canon(to, s.v)
				} else {
					v = ir.ConvWord(from, to, s.v)
				}
				// Fused Conv+Add: the widen-then-add shape of C's usual
				// arithmetic conversions. A UBSan overflow falls back to
				// the plain push so the Add case reports it with its own
				// operand handling.
				if uint(pc) < uint(len(code)) && sp > 1 && !trace && n > 1 {
					if nx := &code[pc]; nx.Op == ir.Add {
						tc := ir.TypeCode(nx.A)
						a := ops[sp-2]
						if !(ubsan && ir.OverflowSigned(ir.Add, tc, a.v, v)) {
							pc++
							n--
							sp--
							ops[sp-1] = slot{v: ir.Canon(tc, a.v+v), t: a.t || s.t}
							continue
						}
					}
				}
				ops[sp-1] = slot{v: v, t: s.t}
				continue

			case ir.FAdd, ir.FSub, ir.FMul, ir.FDiv:
				sp--
				b := ops[sp]
				a := ops[sp-1]
				x, y := math.Float64frombits(a.v), math.Float64frombits(b.v)
				var r float64
				switch in.Op {
				case ir.FAdd:
					r = x + y
				case ir.FSub:
					r = x - y
				case ir.FMul:
					r = x * y
				default:
					r = x / y
				}
				if ir.TypeCode(in.A) == ir.F32 {
					r = float64(float32(r))
				}
				ops[sp-1] = slot{v: math.Float64bits(r), t: a.t || b.t}
				continue

			case ir.FNeg:
				s := ops[sp-1]
				ops[sp-1] = slot{v: math.Float64bits(-math.Float64frombits(s.v)), t: s.t}
				continue

			case ir.FMulAdd:
				sp -= 2
				c := ops[sp+1]
				b := ops[sp]
				a := ops[sp-1]
				r := math.FMA(math.Float64frombits(a.v), math.Float64frombits(b.v), math.Float64frombits(c.v))
				ops[sp-1] = slot{v: math.Float64bits(r), t: a.t || b.t || c.t}
				continue

			case ir.Jmp:
				pc = int(in.Imm)
				continue

			case ir.Jz, ir.Jnz:
				sp--
				s := ops[sp]
				if s.t {
					// Branch on uninitialized data: MSan's core check.
					m.report("msan", "use-of-uninitialized-value", in.Line)
					break
				}
				if (in.Op == ir.Jz) == (s.v == 0) {
					pc = int(in.Imm)
				}
				continue

			case ir.Call:
				// Write the caller's resume point and stack back before
				// the frame stack changes; the hoisted locals are
				// re-derived for the callee at the top of the outer loop.
				fr.pc = pc
				steps = target - n
				m.steps = steps
				sp -= int(in.A)
				m.sp = sp
				m.callS(int(in.Imm), ops[sp:sp+int(in.A)], in.B == 1)
				continue outer

			case ir.CallB:
				// Builtins never touch the frame stack, so the hoisted
				// frame stays valid; they do push results and may halt
				// (exit, trap, sanitizer report), so the operand stack is
				// synced both ways and the common halt check below runs.
				// The argument window aliases the popped stack slots in
				// place (see builtin's aliasing invariant) — no
				// marshalling copy on the hot path.
				sp -= int(in.A)
				m.sp = sp
				m.builtin(int(in.Imm), ops[sp:sp+int(in.A)], in.B == 1, in.Line)
				sp = m.sp
				ops = m.ops

			case ir.Ret:
				// The caller's pc was written back when it executed the
				// Call; dropping this frame needs no writeback.
				steps = target - n
				m.steps = steps
				m.sp = sp
				m.ret(in.A == 1)
				continue outer

			case ir.TSet:
				sp--
				if m.tsp == len(m.temps) {
					m.growTemps()
				}
				m.temps[m.tsp] = ops[sp]
				m.tsp++
				continue
			case ir.TGet:
				if sp == len(ops) {
					m.sp = sp
					m.growOps()
					ops = m.ops
				}
				ops[sp] = m.temps[m.tsp-1]
				sp++
				continue
			case ir.TPop:
				m.tsp--
				continue

			case ir.Edge:
				if m.cov != nil {
					m.hitEdge(in.Imm)
				}
				continue

			case ir.Poison:
				if sp == len(ops) {
					m.sp = sp
					m.growOps()
					ops = m.ops
				}
				ops[sp] = slot{v: m.poison(uint64(in.Imm))}
				sp++
				continue

			case ir.LdLoc:
				// Fused FrameAddr+Load superinstruction: the Load fast
				// path with the address taken straight from the frame.
				// Frame displacements can never carry taint, so the
				// tainted-address report of the unfused pair is
				// unreachable here.
				addr := base + uint64(in.Imm)
				w := uint64(in.A)
				var t bool
				if end := addr + w; plain && addr >= ir.NullTop && end >= addr && end <= ir.MemSize {
					// Mapped and no sanitizer bookkeeping: skip the calls.
				} else {
					if !m.checkAccess(addr, w, false, in.Line) {
						break
					}
					t = m.loadTaint(addr, w)
				}
				raw := m.rawLoad(addr, int(in.A))
				var v uint64
				switch in.B {
				case 1: // sign-extend
					switch in.A {
					case 1:
						v = uint64(int64(int8(raw)))
					case 4:
						v = uint64(int64(int32(raw)))
					default:
						v = raw
					}
				case 2: // float32
					v = f32val(uint32(raw))
				default: // zero-extend or float64
					v = raw
				}
				// Same trailing-Conv fold as Load.
				if uint(pc) < uint(len(code)) && code[pc].Op == ir.Conv && !trace && n > 1 {
					nx := &code[pc]
					pc++
					n--
					if from, to := ir.TypeCode(nx.A), ir.TypeCode(nx.B); !from.IsFloat() && !to.IsFloat() {
						v = ir.Canon(to, v)
					} else {
						v = ir.ConvWord(from, to, v)
					}
				}
				if sp == len(ops) {
					m.sp = sp
					m.growOps()
					ops = m.ops
				}
				ops[sp] = slot{v: v, t: t}
				sp++
				continue

			case ir.CmpImm:
				// Fused ConstI+Cmp* superinstruction, with the same
				// trailing Jz/Jnz dispatch fusion as Cmp (a tainted
				// operand falls through so the branch reports it).
				a := ops[sp-1]
				res := ir.IntCmp(ir.CmpEq+ir.Op(in.B), ir.TypeCode(in.A), a.v, uint64(in.Imm))
				if uint(pc) < uint(len(code)) && !a.t && !trace && n > 1 {
					if nx := &code[pc]; nx.Op == ir.Jz || nx.Op == ir.Jnz {
						pc++
						n--
						sp--
						if (nx.Op == ir.Jz) != res {
							pc = int(nx.Imm)
						}
						continue
					}
				}
				v := uint64(0)
				if res {
					v = 1
				}
				ops[sp-1] = slot{v: v, t: a.t}
				continue

			case ir.AluImm:
				// Fused ConstI+ALU superinstruction.
				a := ops[sp-1]
				tc := ir.TypeCode(in.A)
				op := ir.Add + ir.Op(in.B)
				if ubsan && ir.OverflowSigned(op, tc, a.v, uint64(in.Imm)) {
					m.report("ubsan", "signed-integer-overflow", in.Line)
					break
				}
				ops[sp-1] = slot{v: ir.IntAlu(op, tc, a.v, uint64(in.Imm)), t: a.t}
				continue

			case ir.Unreach:
				m.trap(VMFault)

			default:
				m.trap(VMFault)
			}

			// Only cases that may halt (traps, sanitizer reports,
			// builtins, exhausted UB policies) fall through to here;
			// the plain data ops above `continue` past it.
			if m.halt {
				m.sp = sp
				m.steps = target - n
				return
			}
		}

		// Batch boundary inside one frame: persist the resume point and
		// stack, and let the outer loop re-check the budget.
		steps = target
		fr.pc = pc
		m.sp = sp
	}
	m.steps = steps
}
