package compiler

import (
	"slices"

	"compdiff/internal/ir"
)

// Compile-time constant folds over the lowered bytecode. These are
// the static half of the superinstruction work: the fast loop fuses
// hot fallthrough pairs at dispatch time, and this pass removes the
// pairs whose fusion needs no runtime information at all, so every
// implementation's binary executes fewer steps to produce the same
// observable output. Two shapes, both chosen from the corpus
// opcode-pair histogram (`report -opcode-pairs`):
//
//	ConstI; Conv                  -> ConstI with the converted imm
//	(Frame|Global|Str)Addr; ConstI; Add(u64) -> Addr with summed imm
//
// plus the superinstruction rewrites, which fuse the top remaining
// pairs into the dedicated opcodes both interpreter loops implement:
//
//	FrameAddr; Load               -> LdLoc
//	ConstI; Cmp* (integer)        -> CmpImm
//	ConstI; Add|Sub|Mul|BitAnd|BitOr|BitXor -> AluImm
//
// Both are output-invariant: Conv of a constant is ir.ConvWord at
// compile time, and a u64 add onto an address base commutes into the
// base's displacement (unsigned, so no sanitizer report can be
// elided). Only Result.Steps shrinks, and step counts never enter
// divergence signatures (Result.EncodeTo hashes exit+output only).
// The pass runs for every configuration, so it cannot introduce a
// cross-implementation divergence either.

// foldCode rewrites the current function's emitted code (lw.code) to a
// fixpoint of the folds above, remapping branch targets around removed
// instructions, and returns it as an exact-size copy. The passes
// ping-pong between lw.code and the scratch buffer, which both stay
// with the lowerer; the copy keeps their slack capacity out of the
// retained program, where progcache's byte budget would not see it.
func (lw *lowerer) foldCode() []ir.Instr {
	code, spare := lw.code, lw.spare
	for {
		out, changed := lw.foldOnce(code, spare[:0])
		if !changed {
			spare = out
			break
		}
		code, spare = out, code
	}
	lw.code, lw.spare = code, spare
	exact := make([]ir.Instr, len(code))
	copy(exact, code)
	return exact
}

// foldOnce runs one pass over code, appending the rewritten code to
// out. It reports whether anything folded; if not, out holds no
// meaningful code and code is the fixpoint.
func (sc *scratch) foldOnce(code, out []ir.Instr) ([]ir.Instr, bool) {
	n := len(code)
	// A fold window may only swallow instructions no branch lands on;
	// jumping into the middle of a fused pair would change behaviour.
	sc.isTarget = slices.Grow(sc.isTarget[:0], n+1)[:n+1]
	clear(sc.isTarget)
	isTarget := sc.isTarget
	for i := range code {
		switch code[i].Op {
		case ir.Jmp, ir.Jz, ir.Jnz:
			if t := code[i].Imm; t >= 0 && t <= int64(n) {
				isTarget[t] = true
			}
		}
	}
	sc.newIdx = slices.Grow(sc.newIdx[:0], n+1)[:n+1]
	newIdx := sc.newIdx
	out = slices.Grow(out, n)
	changed := false
	i := 0
	for i < n {
		newIdx[i] = len(out)
		in := code[i]
		if in.Op == ir.ConstI && i+1 < n && code[i+1].Op == ir.Conv && !isTarget[i+1] {
			cv := &code[i+1]
			in.Imm = int64(ir.ConvWord(ir.TypeCode(cv.A), ir.TypeCode(cv.B), uint64(in.Imm)))
			newIdx[i+1] = len(out)
			out = append(out, in)
			i += 2
			changed = true
			continue
		}
		if (in.Op == ir.FrameAddr || in.Op == ir.GlobalAddr || in.Op == ir.StrAddr) &&
			i+2 < n && code[i+1].Op == ir.ConstI && code[i+2].Op == ir.Add &&
			ir.TypeCode(code[i+2].A) == ir.U64 && !isTarget[i+1] && !isTarget[i+2] {
			in.Imm += code[i+1].Imm
			newIdx[i+1] = len(out)
			newIdx[i+2] = len(out)
			out = append(out, in)
			i += 3
			changed = true
			continue
		}
		if in.Op == ir.FrameAddr && i+1 < n && code[i+1].Op == ir.Load && !isTarget[i+1] {
			ld := &code[i+1]
			out = append(out, ir.Instr{Op: ir.LdLoc, A: ld.A, B: ld.B, Imm: in.Imm, Line: ld.Line})
			newIdx[i+1] = len(out) - 1
			i += 2
			changed = true
			continue
		}
		if in.Op == ir.ConstI && i+1 < n && !isTarget[i+1] {
			switch nx := &code[i+1]; nx.Op {
			case ir.CmpEq, ir.CmpNe, ir.CmpLt, ir.CmpLe, ir.CmpGt, ir.CmpGe:
				if !ir.TypeCode(nx.A).IsFloat() {
					out = append(out, ir.Instr{Op: ir.CmpImm, A: nx.A, B: uint8(nx.Op - ir.CmpEq), Imm: in.Imm, Line: nx.Line})
					newIdx[i+1] = len(out) - 1
					i += 2
					changed = true
					continue
				}
			case ir.Add, ir.Sub, ir.Mul, ir.BitAnd, ir.BitOr, ir.BitXor:
				out = append(out, ir.Instr{Op: ir.AluImm, A: nx.A, B: uint8(nx.Op - ir.Add), Imm: in.Imm, Line: nx.Line})
				newIdx[i+1] = len(out) - 1
				i += 2
				changed = true
				continue
			}
		}
		out = append(out, in)
		i++
	}
	newIdx[n] = len(out)
	if !changed {
		return out, false
	}
	for j := range out {
		switch out[j].Op {
		case ir.Jmp, ir.Jz, ir.Jnz:
			out[j].Imm = int64(newIdx[out[j].Imm])
		}
	}
	return out, true
}
