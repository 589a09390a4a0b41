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

// foldCode rewrites the current function's emitted code (lw.code) to
// the fixpoint of the folds above, remapping branch targets around
// removed instructions, and returns it as an exact-size copy.
//
// The fixpoint is the one a loop of greedy left-to-right passes
// reaches — each pass folding a window at the first instruction it
// matches and resuming after it, until a pass folds nothing — but it
// is built in one pass over the output tail. Every fold ends at a
// Conv, Load, Cmp* or ALU instruction and starts at a ConstI or
// address, and no instruction is both, so each window is complete,
// with its final neighbours, the moment its last instruction is
// appended: windows are folded there. The one choice this leaves is
// FrameAddr/GlobalAddr/StrAddr; ConstI; Add(u64), which the ConstI;
// Add fold competes for. The loop folds a window in the pass after
// the latest of the passes that produced its instructions, and within
// a pass the earlier window; tailInfo.pass records those passes, so
// the tail picks the window the loop would have.
//
// The output goes to the scratch buffer, which stays with the
// lowerer; the copy keeps its slack capacity out of the retained
// program, where progcache's byte budget would not see it.
func (lw *lowerer) foldCode() []ir.Instr {
	code := lw.code
	n := len(code)
	// A fold window may only swallow instructions no branch lands on;
	// jumping into the middle of a fused pair would change behaviour.
	isTarget := grown(&lw.isTarget, n+1)
	clear(isTarget)
	for i := range code {
		switch code[i].Op {
		case ir.Jmp, ir.Jz, ir.Jnz:
			if t := code[i].Imm; t >= 0 && t <= int64(n) {
				isTarget[t] = true
			}
		}
	}
	newIdx := grown(&lw.newIdx, n+1)
	out := slices.Grow(lw.spare[:0], n)
	tail := slices.Grow(lw.tail[:0], n)
	for i, in := range code {
		k := len(out)
		newIdx[i] = k
		out = append(out, in)
		tail = append(tail, tailInfo{target: isTarget[i]})
		if isTarget[i] || k == 0 || out[k-1].Op != ir.ConstI && out[k-1].Op != ir.FrameAddr {
			continue
		}
		prev := &out[k-1]
		switch {
		case in.Op == ir.Conv && prev.Op == ir.ConstI:
			prev.Imm = int64(ir.ConvWord(ir.TypeCode(in.A), ir.TypeCode(in.B), uint64(prev.Imm)))
			tail[k-1].pass++
		case in.Op == ir.Load && prev.Op == ir.FrameAddr:
			*prev = ir.Instr{Op: ir.LdLoc, A: in.A, B: in.B, Imm: prev.Imm, Line: in.Line}
		case prev.Op != ir.ConstI:
			continue
		case in.Op >= ir.CmpEq && in.Op <= ir.CmpGe:
			if ir.TypeCode(in.A).IsFloat() {
				continue
			}
			*prev = ir.Instr{Op: ir.CmpImm, A: in.A, B: uint8(in.Op - ir.CmpEq), Imm: prev.Imm, Line: in.Line}
		case in.Op == ir.Add && ir.TypeCode(in.A) == ir.U64 && k >= 2 && !tail[k-1].target &&
			isAddr(out[k-2].Op) && tail[k-2].pass <= tail[k-1].pass:
			out[k-2].Imm += prev.Imm
			tail[k-2].pass = tail[k-1].pass + 1
			out, tail = out[:k-1], tail[:k-1]
			continue
		case in.Op == ir.Add || in.Op == ir.Sub || in.Op == ir.Mul ||
			in.Op == ir.BitAnd || in.Op == ir.BitOr || in.Op == ir.BitXor:
			*prev = ir.Instr{Op: ir.AluImm, A: in.A, B: uint8(in.Op - ir.Add), Imm: prev.Imm, Line: in.Line}
		default:
			continue
		}
		out, tail = out[:k], tail[:k]
	}
	newIdx[n] = len(out)
	if len(out) < n { // every fold removes an instruction
		for j := range out {
			switch out[j].Op {
			case ir.Jmp, ir.Jz, ir.Jnz:
				out[j].Imm = int64(newIdx[out[j].Imm])
			}
		}
	}
	lw.spare, lw.tail = out, tail
	exact := make([]ir.Instr, len(out))
	copy(exact, out)
	return exact
}

// tailInfo is what foldCode keeps per output instruction: the pass of
// the iterate-to-fixpoint loop that would have produced it (0 for an
// input instruction copied unchanged) and whether a branch lands on it.
type tailInfo struct {
	pass   int32
	target bool
}

func isAddr(op ir.Op) bool {
	return op == ir.FrameAddr || op == ir.GlobalAddr || op == ir.StrAddr
}

// grown returns (*buf)[:n], growing the buffer if needed.
func grown[T any](buf *[]T, n int) []T {
	*buf = slices.Grow((*buf)[:0], n)[:n]
	return *buf
}
