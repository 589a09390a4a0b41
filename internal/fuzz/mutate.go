package fuzz

import "math/rand"

// interesting values, as in AFL.
var (
	interesting8  = []int8{-128, -1, 0, 1, 16, 32, 64, 100, 127}
	interesting16 = []int16{-32768, -129, 128, 255, 256, 512, 1000, 1024, 4096, 32767}
	interesting32 = []int32{-2147483648, -100663046, -32769, 32768, 65535, 65536, 100663045, 2147483647}
)

// Mutator produces mutated inputs. It owns a deterministic RNG so
// campaigns are reproducible; the RNG sits behind a counting source so
// checkpoints can record and restore the exact stream position.
type Mutator struct {
	rng  *rand.Rand
	cs   *countingSource
	seed int64
	max  int // maximum input length
}

// NewMutator returns a mutator with the given seed and size cap.
func NewMutator(seed int64, maxLen int) *Mutator {
	if maxLen <= 0 {
		maxLen = 4096
	}
	cs := newCountingSource(seed)
	return &Mutator{rng: rand.New(cs), cs: cs, seed: seed, max: maxLen}
}

// Cursor returns the RNG stream position (underlying state advances
// consumed so far) — the value Seek restores.
func (mu *Mutator) Cursor() uint64 { return mu.cs.draws }

// Seek rewinds the mutator's RNG to the given checkpointed cursor by
// replaying the stream from the construction seed.
func (mu *Mutator) Seek(n uint64) { mu.cs.seek(mu.seed, n) }

// Deterministic runs the AFL-style deterministic stage over data,
// invoking yield for each mutant. The stage is bounded to keep small
// corpora fast: bit flips, byte flips, byte arithmetic, and
// interesting-value substitution.
func (mu *Mutator) Deterministic(data []byte, yield func([]byte) bool) {
	buf := make([]byte, len(data))
	emit := func() bool {
		out := make([]byte, len(buf))
		copy(out, buf)
		return yield(out)
	}
	// Walking bit flips.
	for i := 0; i < len(data)*8; i++ {
		copy(buf, data)
		buf[i/8] ^= 1 << (i % 8)
		if !emit() {
			return
		}
	}
	// Byte flips.
	for i := range data {
		copy(buf, data)
		buf[i] ^= 0xff
		if !emit() {
			return
		}
	}
	// Arithmetic +-1..8.
	for i := range data {
		for d := 1; d <= 8; d++ {
			copy(buf, data)
			buf[i] = data[i] + byte(d)
			if !emit() {
				return
			}
			copy(buf, data)
			buf[i] = data[i] - byte(d)
			if !emit() {
				return
			}
		}
	}
	// Interesting bytes.
	for i := range data {
		for _, v := range interesting8 {
			copy(buf, data)
			buf[i] = byte(v)
			if !emit() {
				return
			}
		}
	}
	// Interesting 32-bit values (little-endian), where they fit.
	for i := 0; i+4 <= len(data); i++ {
		for _, v := range interesting32 {
			copy(buf, data)
			putLE32(buf[i:], uint32(v))
			if !emit() {
				return
			}
		}
	}
}

func putLE32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// Havoc applies 1..n random stacked mutations and returns the mutant.
func (mu *Mutator) Havoc(data []byte) []byte {
	out := make([]byte, len(data))
	copy(out, data)
	if len(out) == 0 {
		// An empty seed (an empty seed file, or a restored queue entry)
		// gets one random byte to mutate, as an op that empties the
		// mutant does below.
		out = []byte{byte(mu.rng.Intn(256))}
	}
	stack := 1 << (1 + mu.rng.Intn(5)) // 2..32 stacked ops
	for s := 0; s < stack; s++ {
		out = mu.havocOne(out)
		if len(out) == 0 {
			out = []byte{byte(mu.rng.Intn(256))}
		}
	}
	if len(out) > mu.max {
		out = out[:mu.max]
	}
	return out
}

func (mu *Mutator) havocOne(out []byte) []byte {
	r := mu.rng
	switch r.Intn(12) {
	case 0: // flip a bit
		i := r.Intn(len(out))
		out[i] ^= 1 << r.Intn(8)
	case 1: // set interesting byte
		out[r.Intn(len(out))] = byte(interesting8[r.Intn(len(interesting8))])
	case 2: // set interesting 16-bit
		if len(out) >= 2 {
			i := r.Intn(len(out) - 1)
			v := uint16(interesting16[r.Intn(len(interesting16))])
			out[i], out[i+1] = byte(v), byte(v>>8)
		}
	case 3: // set interesting 32-bit
		if len(out) >= 4 {
			i := r.Intn(len(out) - 3)
			putLE32(out[i:], uint32(interesting32[r.Intn(len(interesting32))]))
		}
	case 4: // random byte arithmetic
		i := r.Intn(len(out))
		out[i] += byte(1 + r.Intn(35))
	case 5:
		i := r.Intn(len(out))
		out[i] -= byte(1 + r.Intn(35))
	case 6: // random byte
		out[r.Intn(len(out))] = byte(r.Intn(256))
	case 7: // delete a block
		if len(out) > 1 {
			from := r.Intn(len(out))
			n := 1 + r.Intn(len(out)-from)
			out = append(out[:from], out[from+n:]...)
		}
	case 8: // clone/insert a block
		if len(out) < mu.max {
			from := r.Intn(len(out))
			n := 1 + r.Intn(len(out)-from)
			if len(out)+n > mu.max {
				n = mu.max - len(out)
			}
			if n > 0 {
				at := r.Intn(len(out) + 1)
				block := append([]byte(nil), out[from:from+n]...)
				out = append(out[:at], append(block, out[at:]...)...)
			}
		}
	case 9: // overwrite with a block from elsewhere
		if len(out) > 2 {
			from := r.Intn(len(out))
			n := 1 + r.Intn(len(out)-from)
			to := r.Intn(len(out) - n + 1)
			copy(out[to:to+n], out[from:from+n])
		}
	case 10: // overwrite with repeated byte
		if len(out) > 1 {
			from := r.Intn(len(out))
			n := 1 + r.Intn(len(out)-from)
			c := byte(r.Intn(256))
			for i := from; i < from+n; i++ {
				out[i] = c
			}
		}
	case 11: // swap two bytes
		if len(out) > 1 {
			i, j := r.Intn(len(out)), r.Intn(len(out))
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
}

// Splice combines the head of a with the tail of b (AFL's splice
// stage) and then havocs the result.
func (mu *Mutator) Splice(a, b []byte) []byte {
	if len(a) < 2 || len(b) < 2 {
		return mu.Havoc(a)
	}
	cutA := 1 + mu.rng.Intn(len(a)-1)
	cutB := mu.rng.Intn(len(b))
	spliced := append(append([]byte(nil), a[:cutA]...), b[cutB:]...)
	if len(spliced) > mu.max {
		spliced = spliced[:mu.max]
	}
	return mu.Havoc(spliced)
}
