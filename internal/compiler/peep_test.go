package compiler

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"compdiff/internal/ir"
)

// FuzzPeepholeFixpoint holds foldCode, which folds in one pass over
// its output tail, to the loop it replaced: greedy left-to-right
// passes repeated until one folds nothing (oldFoldCode). Inputs decode
// to instruction sequences dense in the folds' opcodes, with branches
// landing anywhere, out of range included; both must return the same
// code or panic with the same text. Each input runs twice on one
// lowerer, so the second run reuses the first one's buffers.
func FuzzPeepholeFixpoint(f *testing.F) {
	// Three bytes per instruction: opcode, type, immediate (peepOps).
	f.Add([]byte{})
	// FrameAddr; ConstI 1; Add u64; ConstI 2; Add u64; Load: the loop
	// folds the first window to an address and the second ConstI; Add
	// to AluImm, never the two displacements together.
	f.Add([]byte{2, 0, 8, 0, 0, 1, 5, 1, 0, 0, 0, 2, 5, 1, 0, 8, 0, 0})
	// FrameAddr; ConstI; Add u64; ConstI; Conv; Add u64: both halves
	// fold in the first pass, so the second folds the ConstI into the
	// address, not into an AluImm.
	f.Add([]byte{2, 0, 8, 0, 0, 1, 5, 1, 0, 0, 0, 2, 1, 2, 0, 5, 1, 0})
	// ConstI; Conv; Conv; Cmp: one fold per pass, three passes.
	f.Add([]byte{0, 0, 7, 1, 2, 0, 1, 3, 0, 12, 2, 0})
	// FrameAddr; ConstI; Conv; Add u64; Load, with a branch to the end.
	f.Add([]byte{2, 0, 8, 0, 0, 3, 1, 2, 0, 5, 1, 0, 8, 0, 0, 14, 0, 6})
	// A branch into the middle of ConstI; Add.
	f.Add([]byte{0, 0, 1, 5, 0, 0, 14, 0, 1})
	// An out-of-range branch after a fold.
	f.Add([]byte{0, 0, 7, 1, 2, 0, 14, 200, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		code := decodePeep(data)
		want, wantPanic := foldResult(func() []ir.Instr { return oldFoldCode(slices.Clone(code)) })
		lw := &lowerer{}
		for run := 0; run < 2; run++ {
			got, gotPanic := foldResult(func() []ir.Instr {
				lw.code = append(lw.code[:0], code...)
				return lw.foldCode()
			})
			if gotPanic != wantPanic {
				t.Fatalf("run %d: panic %q, the fixpoint loop panics %q\ncode %v", run, gotPanic, wantPanic, code)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("run %d: folded code differs from the fixpoint loop's\ncode %v\n got %v\nwant %v", run, code, got, want)
			}
			if got != nil && cap(got) != len(got) {
				t.Fatalf("run %d: folded code has %d slack slots", run, cap(got)-len(got))
			}
		}
	})
}

// peepOps are the opcodes decodePeep draws from: every opcode a fold
// reads, plus branches and a few that no fold touches.
var peepOps = []ir.Op{
	ir.ConstI, ir.Conv, ir.FrameAddr, ir.GlobalAddr, ir.StrAddr, ir.Add,
	ir.Sub, ir.Mul, ir.Load, ir.BitAnd, ir.BitOr, ir.BitXor, ir.CmpEq,
	ir.CmpNe, ir.Jmp, ir.Jz, ir.Jnz, ir.CmpLt, ir.CmpGe, ir.Pop, ir.Dup,
	ir.ConstF,
}

// peepTypes are the type codes decodePeep draws from.
var peepTypes = []ir.TypeCode{ir.I32, ir.U64, ir.I64, ir.F64, ir.I8, ir.U32}

// decodePeep turns fuzz bytes into an instruction sequence, three bytes
// per instruction. A branch's target is its immediate modulo one more
// than the length, so it may land on the end; a type byte at or above
// 200 makes it out of range instead.
func decodePeep(data []byte) []ir.Instr {
	n := len(data) / 3
	code := make([]ir.Instr, n)
	for i := range code {
		op, ty, imm := data[3*i], data[3*i+1], data[3*i+2]
		in := ir.Instr{
			Op:   peepOps[int(op)%len(peepOps)],
			A:    uint8(peepTypes[int(ty)%len(peepTypes)]),
			B:    uint8(peepTypes[int(ty/8)%len(peepTypes)]),
			Imm:  int64(int8(imm)),
			Line: int32(i + 1),
		}
		switch in.Op {
		case ir.Jmp, ir.Jz, ir.Jnz:
			in.Imm = int64(imm) % int64(n+1)
			if ty >= 200 {
				in.Imm = int64(n) + 1 + int64(imm)
			}
		case ir.Load:
			in.A, in.B = 4, ty%4
		}
		code[i] = in
	}
	return code
}

// foldResult runs fold, turning a panic into its text.
func foldResult(fold func() []ir.Instr) (code []ir.Instr, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			code, panicked = nil, fmt.Sprint(r)
		}
	}()
	return fold(), ""
}

// oldFoldCode is the peephole's former loop: oldFoldOnce repeated
// until a pass folds nothing.
func oldFoldCode(code []ir.Instr) []ir.Instr {
	for {
		out, changed := oldFoldOnce(code)
		if !changed {
			return code
		}
		code = out
	}
}

// oldFoldOnce is one greedy left-to-right pass of the former peephole,
// unchanged but for fresh buffers.
func oldFoldOnce(code []ir.Instr) ([]ir.Instr, bool) {
	n := len(code)
	isTarget := make([]bool, n+1)
	for i := range code {
		switch code[i].Op {
		case ir.Jmp, ir.Jz, ir.Jnz:
			if t := code[i].Imm; t >= 0 && t <= int64(n) {
				isTarget[t] = true
			}
		}
	}
	newIdx := make([]int, n+1)
	out := make([]ir.Instr, 0, n)
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
