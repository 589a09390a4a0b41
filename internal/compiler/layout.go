package compiler

import (
	"cmp"
	"slices"

	"compdiff/internal/hash"
	"compdiff/internal/ir"
	"compdiff/internal/minic/ast"
	"compdiff/internal/minic/types"
)

// frameLayout assigns frame offsets to a function's parameters and
// locals. Slot ordering is an implementation choice: it never affects
// a defined program, but it decides which object an out-of-bounds
// stack access hits and what uninitialized locals contain, so each
// implementation orders slots differently.
type frameLayout struct {
	offsets   map[*ast.Symbol]int64
	size      int64
	slots     []ir.Slot
	paramOff  []int64
	paramKind []ir.TypeCode
}

// planFrame computes the layout for fn under the lowerer's
// configuration.
func (lw *lowerer) planFrame(fn *ast.FuncDecl, params, locals []*ast.Symbol) *frameLayout {
	cfg := lw.cfg
	type entry struct {
		sym   *ast.Symbol
		param bool
		src   int
		key   int64  // size for the size orders
		hash  uint64 // for orderHash
	}
	n := len(params) + len(locals)
	entries := make([]entry, 0, n)
	for i, s := range params {
		entries = append(entries, entry{sym: s, param: true, src: i})
	}
	for i, s := range locals {
		entries = append(entries, entry{sym: s, param: false, src: len(params) + i})
	}

	// Order per implementation. O0 keeps source order for both
	// families; higher levels reorder, differently per family. Each
	// entry's sort key is computed once, before the stable sort; ties
	// fall back to source order.
	switch orderRule(cfg) {
	case orderSizeDesc:
		for i := range entries {
			entries[i].key = -entries[i].sym.Type.Size()
		}
		slices.SortStableFunc(entries, func(a, b entry) int { return cmp.Compare(a.key, b.key) })
	case orderSizeAsc:
		for i := range entries {
			entries[i].key = entries[i].sym.Type.Size()
		}
		slices.SortStableFunc(entries, func(a, b entry) int { return cmp.Compare(a.key, b.key) })
	case orderReverse:
		slices.Reverse(entries)
	case orderHash:
		for i := range entries {
			lw.keyBuf = append(append(append(lw.keyBuf[:0], fn.Name...), '.'), entries[i].sym.Name...)
			entries[i].hash = hash.Sum64(lw.keyBuf, uint32(lw.seed))
		}
		slices.SortStableFunc(entries, func(a, b entry) int { return cmp.Compare(a.hash, b.hash) })
	}

	fl := &frameLayout{offsets: make(map[*ast.Symbol]int64, n)}
	if n > 0 {
		fl.slots = make([]ir.Slot, 0, n)
	}
	var off int64
	redzone := int64(0)
	if cfg.ASan {
		redzone = 16
	}
	off += redzone
	for _, e := range entries {
		t := e.sym.Type
		off = alignUp(off, t.Align())
		fl.offsets[e.sym] = off
		fl.slots = append(fl.slots, ir.Slot{Name: e.sym.Name, Off: off, Size: t.Size(), Param: e.param})
		off += t.Size()
		off += redzone
	}
	fl.size = alignUp(off, 16)
	if fl.size == 0 {
		fl.size = 16
	}

	fl.paramOff = make([]int64, len(params))
	fl.paramKind = make([]ir.TypeCode, len(params))
	for i, s := range params {
		fl.paramOff[i] = fl.offsets[s]
		fl.paramKind[i] = typeCode(s.Type)
	}
	return fl
}

type slotOrder int

const (
	orderSource slotOrder = iota
	orderSizeDesc
	orderSizeAsc
	orderReverse
	orderHash
)

func orderRule(cfg Config) slotOrder {
	if cfg.Opt == O0 {
		return orderSource
	}
	if cfg.Family == GCC {
		switch cfg.Opt {
		case O1:
			return orderSizeDesc
		case O2:
			return orderSizeAsc
		case O3:
			return orderHash
		default: // Os
			return orderReverse
		}
	}
	switch cfg.Opt {
	case O1:
		return orderSizeAsc
	case O2:
		return orderSizeDesc
	case O3:
		return orderReverse
	default: // Os
		return orderHash
	}
}

// planGlobals assigns offsets in the globals segment. Source order at
// O0; a personality-keyed order otherwise (seed is cfg's personality).
// Globals are always zero-initialized (C semantics), so ordering
// matters only to UB.
func planGlobals(cfg Config, seed uint64, globals []*ast.Symbol) (map[*ast.Symbol]int64, int64) {
	type entry struct {
		sym  *ast.Symbol
		hash uint64
	}
	order := make([]entry, len(globals))
	for i, s := range globals {
		order[i].sym = s
	}
	if cfg.Opt != O0 {
		for i := range order {
			order[i].hash = hash.Sum64([]byte(order[i].sym.Name), uint32(seed))
		}
		slices.SortStableFunc(order, func(a, b entry) int {
			if c := cmp.Compare(a.hash, b.hash); c != 0 {
				return c
			}
			return cmp.Compare(a.sym.Index, b.sym.Index)
		})
	}
	offsets := make(map[*ast.Symbol]int64, len(order))
	var off int64
	for _, e := range order {
		s := e.sym
		off = alignUp(off, s.Type.Align())
		offsets[s] = off
		off += s.Type.Size()
	}
	return offsets, alignUp(off, 8)
}

func alignUp(n, a int64) int64 {
	if a <= 1 {
		return n
	}
	return (n + a - 1) &^ (a - 1)
}

// typeCode maps a MiniC type to its machine type code.
func typeCode(t *types.Type) ir.TypeCode {
	switch t.Kind {
	case types.Char:
		return ir.I8
	case types.UChar:
		return ir.U8
	case types.Int:
		return ir.I32
	case types.UInt:
		return ir.U32
	case types.Long:
		return ir.I64
	case types.ULong, types.Ptr, types.Array:
		return ir.U64
	case types.Float:
		return ir.F32
	case types.Double:
		return ir.F64
	}
	return ir.I64
}

// storeWidth returns the memory width in bytes for a type.
func storeWidth(t *types.Type) int64 {
	if t.Kind == types.Ptr {
		return 8
	}
	return t.Size()
}
