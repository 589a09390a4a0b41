// Package fuzz implements a coverage-guided greybox fuzzer in the
// AFL++ mold: a 64 KiB edge bitmap with hit-count bucketing, a seed
// queue with favored-entry culling, deterministic and havoc mutation
// stages, and splicing. CompDiff-AFL++ (package difffuzz) plugs its
// differential oracle into the execution hook without touching this
// core loop, mirroring how the paper integrates CompDiff into AFL++
// without changing the fuzzer's logic (Algorithm 1).
package fuzz

import (
	"encoding/binary"
	"math/bits"

	"compdiff/internal/vm"
)

// MapSize is the coverage bitmap size, pinned to vm.CovMapSize: the VM
// writes edges modulo its map, the fuzzer classifies the same bytes.
const MapSize = 1 << 16

// Compile-time equality assertion, both directions — a negative
// constant does not convert to uint, so either drift refuses to build.
// The pass-coverage bitmap (compiler.NumPassKinds) is guarded the same
// way next to its definition.
const (
	_ = uint(MapSize - vm.CovMapSize)
	_ = uint(vm.CovMapSize - MapSize)
)

// classLookup buckets raw edge hit counts the way AFL does, so that
// loop-count changes register as new coverage without exploding the
// map: 0, 1, 2, 3, 4-7, 8-15, 16-31, 32-127, 128-255.
var classLookup = buildClassLookup()

func buildClassLookup() [256]byte {
	var l [256]byte
	l[0] = 0
	l[1] = 1
	l[2] = 2
	l[3] = 4
	for i := 4; i < 8; i++ {
		l[i] = 8
	}
	for i := 8; i < 16; i++ {
		l[i] = 16
	}
	for i := 16; i < 32; i++ {
		l[i] = 32
	}
	for i := 32; i < 128; i++ {
		l[i] = 64
	}
	for i := 128; i < 256; i++ {
		l[i] = 128
	}
	return l
}

// The bitmap walkers below take the map together with its
// touched-word summary (vm.CovWordsLen): bit b&63 of words[b>>6] marks
// bytes [8b, 8b+8) of cov, and every non-zero byte of cov lies in a
// marked word. They visit the marked words in ascending order and
// nothing else, so a run costs what it touched, not the 64 KiB map.
// A marked word may be all zero (a hit counter that wrapped); each
// walker skips it like the dense scan skips any zero word, so the
// results equal a full scan of cov.

// summarize builds the touched-word summary of cov with one scan,
// reusing dst: the fallback for executors that keep no summary of
// their own.
func summarize(dst []uint64, cov []byte) []uint64 {
	n := (len(cov) + 511) / 512
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	clear(dst)
	i := 0
	for ; i+8 <= len(cov); i += 8 {
		if binary.LittleEndian.Uint64(cov[i:]) != 0 {
			dst[i>>9] |= 1 << (i >> 3 & 63)
		}
	}
	for ; i < len(cov); i++ {
		if cov[i] != 0 {
			dst[i>>9] |= 1 << (i >> 3 & 63)
		}
	}
	return dst
}

// wordAt is the marked word starting at byte i, clipped to a map whose
// length is not a multiple of eight.
func wordAt(cov []byte, i int) []byte { return cov[i:min(i+8, len(cov))] }

// Classify rewrites a raw hit-count map into bucketed form, in place.
// Each marked word is visited once: bucketing is not idempotent
// (3 -> 4 -> 8).
func Classify(cov []byte, words []uint64) {
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			i := (w<<6 + bits.TrailingZeros64(word)) << 3
			c := wordAt(cov, i)
			for j, v := range c {
				c[j] = classLookup[v]
			}
		}
	}
}

// HasNewBits reports whether classified coverage cov contains bits not
// yet in virgin, updating virgin. Return values follow AFL: 2 when a
// brand-new edge was hit, 1 when only hit counts changed, 0 otherwise.
// A word whose bits are all already in virgin neither updates nor
// changes the return, so after the first few executions nearly every
// marked word is one load and a compare.
func HasNewBits(virgin, cov []byte, words []uint64) int {
	ret := 0
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			i := (w<<6 + bits.TrailingZeros64(word)) << 3
			if i+8 <= len(cov) {
				cw := binary.LittleEndian.Uint64(cov[i:])
				if binary.LittleEndian.Uint64(virgin[i:])&cw == cw {
					continue
				}
			}
			for k, v := range wordAt(cov, i) {
				j := i + k
				if virgin[j]&v != v {
					if virgin[j] == 0 {
						ret = 2
					} else if ret == 0 {
						ret = 1
					}
					virgin[j] |= v
				}
			}
		}
	}
	return ret
}

// CountBits returns the number of set bucket bits (queue scoring).
func CountBits(cov []byte, words []uint64) int {
	n := 0
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			i := (w<<6 + bits.TrailingZeros64(word)) << 3
			for _, v := range wordAt(cov, i) {
				n += bits.OnesCount8(v)
			}
		}
	}
	return n
}

// CovHash is a cheap FNV-style fingerprint of a byte map: every
// non-zero byte contributes its index and value, in index order.
// ForceSeed hashes raw inputs with it; coverage goes through
// CoverageHash, which must return the same digest, because both kinds
// of hash share one dedup set and its checkpoints.
func CovHash(b []byte) uint64 {
	var h uint64 = 0xcbf29ce484222325
	i := 0
	for ; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) == 0 {
			continue
		}
		for j := i; j < i+8; j++ {
			h = covHashStep(h, j, b[j])
		}
	}
	for ; i < len(b); i++ {
		h = covHashStep(h, i, b[i])
	}
	return h
}

// CoverageHash is CovHash(cov) computed from the marked words only:
// a fingerprint of a classified bitmap, used to detect "same path"
// executions. Ascending words keep CovHash's index order, and the
// unmarked words are zero, so the digest is identical.
func CoverageHash(cov []byte, words []uint64) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			i := (w<<6 + bits.TrailingZeros64(word)) << 3
			for k, v := range wordAt(cov, i) {
				h = covHashStep(h, i+k, v)
			}
		}
	}
	return h
}

// covHashStep folds byte v at index j into h; zero bytes never
// contribute.
func covHashStep(h uint64, j int, v byte) uint64 {
	if v == 0 {
		return h
	}
	return (h ^ (uint64(j)<<8 | uint64(v))) * 0x100000001b3
}
