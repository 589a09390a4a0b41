package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"compdiff/internal/hash"
	"compdiff/internal/progen"
	"compdiff/internal/vm"
)

// Property tests on the core data structures and invariants.

func TestQuickNormalizerIdempotent(t *testing.T) {
	n := DefaultNormalizer()
	f := func(data []byte) bool {
		once := n.Apply(data)
		twice := n.Apply(once)
		return string(once) == string(twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNormalizerPreservesCleanText(t *testing.T) {
	n := DefaultNormalizer()
	f := func(words []string) bool {
		// ASCII words without digits or 'x' cannot match either rule.
		clean := ""
		for _, w := range words {
			for _, c := range w {
				if c >= 'a' && c <= 'w' {
					clean += string(c)
				}
			}
			clean += " "
		}
		return string(n.Apply([]byte(clean))) == clean
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// DiffStore invariants: Total >= len(Unique); adding the same outcome
// twice never creates two entries; counts accumulate.
func TestQuickDiffStoreInvariants(t *testing.T) {
	s := build(t, `
int main() {
    char b[4];
    long n = read_input(b, 4L);
    int x;
    if (n > 0 && b[0] > 64) { printf("%d\n", x); } else { printf("low\n"); }
    return 0;
}`)
	st := NewDiffStore("")
	f := func(b0 byte) bool {
		o := s.Run([]byte{b0})
		st.Add(o)
		if st.Total() < len(st.Unique()) {
			return false
		}
		sum := 0
		for _, d := range st.Unique() {
			sum += d.Count
		}
		return sum == st.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Signature stability: the signature depends only on the partition
// shape, so running the same input twice gives the same signature.
func TestQuickSignatureDeterministic(t *testing.T) {
	s := build(t, `
int main() {
    int x;
    printf("%d\n", x);
    return 0;
}`)
	f := func(seed byte) bool {
		in := []byte{seed}
		a := s.Run(in)
		b := s.Run(in)
		if a.Diverged != b.Diverged {
			return false
		}
		if !a.Diverged {
			return true
		}
		return a.Signature() == b.Signature()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Outcome invariant: Diverged iff the hash set has >= 2 members.
func TestQuickDivergedMatchesGroups(t *testing.T) {
	s := build(t, progen.Generate(3).Src)
	f := func(data []byte) bool {
		o := s.Run(data)
		return o.Diverged == (len(o.Groups()) > 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// groupsSignature is Signature as it was first written: the partition
// read from the Groups map, fed to a streaming digest two bytes at a
// time. Bucket keys and checkpoints carry its values.
func groupsSignature(o *Outcome) uint64 {
	d := hash.New128(0x5161)
	groups := o.Groups()
	for i := range o.Hashes {
		rep := i
		for _, j := range groups[o.Hashes[i]] {
			if j < rep {
				rep = j
			}
		}
		d.Write([]byte{byte(rep), byte(o.Results[i].Exit)})
	}
	h1, _ := d.Sum128()
	return h1
}

// TestSignatureMatchesGroups holds Signature to the Groups-map version
// on edge cases (no binaries, all agreeing, all different, more
// binaries than its stack buffer holds) and on random outcomes over
// few distinct hashes and every exit kind.
func TestSignatureMatchesGroups(t *testing.T) {
	outcome := func(hashes []uint64, exits []vm.ExitKind) *Outcome {
		o := &Outcome{Hashes: hashes}
		for _, e := range exits {
			o.Results = append(o.Results, &vm.Result{Exit: e})
		}
		return o
	}
	seq := func(n int, f func(i int) uint64) []uint64 {
		h := make([]uint64, n)
		for i := range h {
			h[i] = f(i)
		}
		return h
	}
	kinds := func(n int, f func(i int) vm.ExitKind) []vm.ExitKind {
		e := make([]vm.ExitKind, n)
		for i := range e {
			e[i] = f(i)
		}
		return e
	}
	cases := []*Outcome{
		outcome(nil, nil),
		outcome([]uint64{7}, []vm.ExitKind{vm.SigSegv}),
		outcome(seq(10, func(int) uint64 { return 1 }), kinds(10, func(int) vm.ExitKind { return vm.Exited })),
		outcome(seq(10, func(i int) uint64 { return uint64(i) }), kinds(10, func(i int) vm.ExitKind { return vm.ExitKind(i % 7) })),
		outcome(seq(10, func(i int) uint64 { return uint64(9 - i/3) }), kinds(10, func(int) vm.ExitKind { return vm.StepLimit })),
		outcome(seq(40, func(i int) uint64 { return uint64(i % 3) }), kinds(40, func(i int) vm.ExitKind { return vm.ExitKind(i % 7) })),
	}
	rng := rand.New(rand.NewSource(1))
	for range 2000 {
		n := rng.Intn(21)
		distinct := 1 + rng.Intn(n+1)
		cases = append(cases, outcome(
			seq(n, func(int) uint64 { return rng.Uint64() % uint64(distinct) * 0x9e3779b97f4a7c15 }),
			kinds(n, func(int) vm.ExitKind { return vm.ExitKind(rng.Intn(7)) })))
	}
	for _, o := range cases {
		if got, want := o.Signature(), groupsSignature(o); got != want {
			t.Fatalf("hashes %v: Signature %#x, Groups version %#x", o.Hashes, got, want)
		}
	}
}
