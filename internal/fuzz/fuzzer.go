package fuzz

import (
	"math/rand"
	"sort"

	"compdiff/internal/vm"
)

// Executor runs a target binary on an input and exposes its coverage
// bitmap. *vm.Machine with coverage enabled satisfies it.
type Executor interface {
	Run(input []byte) *vm.Result
	Coverage() []byte
}

// SharedExecutor is an optional Executor extension for the zero-copy
// fast path: RunShared returns a result aliasing executor-owned
// buffers, valid only until the executor's next run. The fuzzer
// prefers it when available and clones before retaining anything
// (crash store). *vm.Machine satisfies it.
type SharedExecutor interface {
	Executor
	RunShared(input []byte) *vm.Result
}

// coverageWords is the optional Executor extension that keeps the
// touched-word summary of its bitmap (see vm.CovWordsLen), so the
// fuzzer walks only the words a run touched. *vm.Machine satisfies it;
// for any other executor the fuzzer builds the summary itself with one
// scan of the map per execution.
type coverageWords interface {
	CoverageWords() []uint64
}

// Seed is one queue entry.
type Seed struct {
	Data    []byte
	CovBits int
	Hash    uint64
	Favored bool
	Execs   int // fuzzing rounds spent on this seed
}

// Crash is a saved crashing input, deduplicated by a coarse signature.
type Crash struct {
	Input  []byte
	Result *vm.Result
}

// Stats summarizes a campaign.
type Stats struct {
	Execs         int64
	Seeds         int
	UniqueCrashes int
	Cycles        int
	LastNewPath   int64 // exec count at the last queue addition
}

// Options configures a fuzzer.
type Options struct {
	// Seed is the RNG seed (campaign reproducibility).
	Seed int64
	// MaxInputLen caps generated inputs. Default 4096.
	MaxInputLen int
	// SkipDeterministic disables the deterministic stage (useful for
	// large seeds, as with AFL's -d).
	SkipDeterministic bool
	// OnExec, if set, observes every generated input and its result on
	// the instrumented binary. This is CompDiff's integration point:
	// Algorithm 1 adds its differential oracle here, leaving the
	// fuzzing loop untouched.
	//
	// When the executor implements SharedExecutor, res aliases
	// executor-owned buffers and is valid only for the duration of the
	// callback; use res.Clone() to retain it.
	OnExec func(input []byte, res *vm.Result)
}

// Fuzzer is an AFL++-style coverage-guided fuzzer. A Fuzzer (queue,
// stats, coverage bitmaps) is confined to one goroutine: the sharded
// campaign pool gives each shard its own Fuzzer and only touches
// queues and stats at synchronization barriers, after every shard
// goroutine has joined.
type Fuzzer struct {
	exec   Executor
	shared SharedExecutor // non-nil when exec supports the zero-copy path
	cw     coverageWords  // non-nil when exec keeps its coverage summary
	words  []uint64       // summary scratch for executors without one
	opts   Options
	mut    *Mutator
	rng    *rand.Rand
	rngCS  *countingSource // splice RNG stream cursor (checkpointing)
	virgin []byte
	queue  []*Seed
	hashes map[uint64]bool
	crash  map[uint64]*Crash
	stats  Stats
}

// New creates a fuzzer over the executor with initial seeds. Seeds
// that crash outright are kept as crashes, not queue entries.
func New(exec Executor, seeds [][]byte, opts Options) *Fuzzer {
	if opts.MaxInputLen <= 0 {
		opts.MaxInputLen = 4096
	}
	cs := newCountingSource(opts.Seed ^ 0x5eed)
	f := &Fuzzer{
		exec:   exec,
		opts:   opts,
		mut:    NewMutator(opts.Seed, opts.MaxInputLen),
		rng:    rand.New(cs),
		rngCS:  cs,
		virgin: make([]byte, MapSize),
		hashes: map[uint64]bool{},
		crash:  map[uint64]*Crash{},
	}
	if se, ok := exec.(SharedExecutor); ok {
		f.shared = se
	}
	if cw, ok := exec.(coverageWords); ok {
		f.cw = cw
	}
	if len(seeds) == 0 {
		seeds = [][]byte{[]byte("\x00")}
	}
	for _, s := range seeds {
		f.ingest(append([]byte(nil), s...))
	}
	if len(f.queue) == 0 {
		// All seeds crashed or duplicated; keep one anyway so the loop
		// has something to mutate.
		f.queue = append(f.queue, &Seed{Data: append([]byte(nil), seeds[0]...)})
	}
	f.cull()
	return f
}

// Stats returns campaign statistics so far.
func (f *Fuzzer) Stats() Stats {
	f.stats.Seeds = len(f.queue)
	f.stats.UniqueCrashes = len(f.crash)
	return f.stats
}

// Queue exposes the current seed corpus.
func (f *Fuzzer) Queue() []*Seed { return f.queue }

// Crashes returns the deduplicated crashing inputs.
func (f *Fuzzer) Crashes() []*Crash {
	var out []*Crash
	for _, c := range f.crash {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		return string(out[i].Input) < string(out[j].Input)
	})
	return out
}

// ingest executes an input and updates the queue/crash stores: the
// body of Algorithm 1 lines 4-8.
func (f *Fuzzer) ingest(data []byte) {
	var res *vm.Result
	if f.shared != nil {
		// Zero-copy path: res aliases executor buffers for the span of
		// this call; anything retained below is cloned first.
		res = f.shared.RunShared(data)
	} else {
		res = f.exec.Run(data)
	}
	f.stats.Execs++
	cov := f.exec.Coverage()
	var words []uint64
	if f.cw != nil {
		words = f.cw.CoverageWords()
	} else {
		f.words = summarize(f.words, cov)
		words = f.words
	}
	Classify(cov, words)

	if f.opts.OnExec != nil {
		f.opts.OnExec(data, res)
	}

	if res.Crashed() {
		sig := crashSig(res)
		if _, dup := f.crash[sig]; !dup {
			if f.shared != nil {
				res = res.Clone()
			}
			f.crash[sig] = &Crash{Input: append([]byte(nil), data...), Result: res}
		}
		return
	}
	if HasNewBits(f.virgin, cov, words) > 0 {
		h := CoverageHash(cov, words)
		if !f.hashes[h] {
			f.hashes[h] = true
			f.queue = append(f.queue, &Seed{
				Data:    append([]byte(nil), data...),
				CovBits: CountBits(cov, words),
				Hash:    h,
			})
			f.stats.LastNewPath = f.stats.Execs
		}
	}
}

func crashSig(res *vm.Result) uint64 {
	h := uint64(res.Exit) * 0x9e3779b97f4a7c15
	if res.San != nil {
		for _, c := range res.San.Kind {
			h = h*31 + uint64(c)
		}
		h = h*31 + uint64(res.San.Line)
	}
	return h
}

// ForceSeed inserts an input into the queue regardless of coverage —
// the hook for divergence-guided feedback (the NEZHA-style extension
// the paper sketches as future work): inputs that triggered new
// behavioral asymmetries are worth mutating even when they add no new
// edges. Content-deduplicated; returns true when the queue grew.
func (f *Fuzzer) ForceSeed(data []byte) bool {
	h := CovHash(data) // reuse the FNV fingerprint over raw bytes
	if f.hashes[h] {
		return false
	}
	f.hashes[h] = true
	f.queue = append(f.queue, &Seed{
		Data:    append([]byte(nil), data...),
		CovBits: 1,
		Hash:    h,
	})
	f.stats.LastNewPath = f.stats.Execs
	return true
}

// cull marks a favored subset of the queue: smallest input per
// coverage level, AFL-style (approximated by bit count).
func (f *Fuzzer) cull() {
	sort.SliceStable(f.queue, func(i, j int) bool {
		if f.queue[i].CovBits != f.queue[j].CovBits {
			return f.queue[i].CovBits > f.queue[j].CovBits
		}
		return len(f.queue[i].Data) < len(f.queue[j].Data)
	})
	for i, s := range f.queue {
		s.Favored = i < (len(f.queue)+3)/4
	}
}

// energy returns the havoc rounds to spend on a seed.
func (f *Fuzzer) energy(s *Seed) int {
	e := 32
	if s.Favored {
		e = 96
	}
	if s.Execs > 4 {
		e /= 2
	}
	return e
}

// Run fuzzes until the execution budget is spent and returns stats
// (Algorithm 1's main loop).
func (f *Fuzzer) Run(budget int64) Stats {
	limit := f.stats.Execs + budget
	for f.stats.Execs < limit {
		f.stats.Cycles++
		qlen := len(f.queue)
		for qi := 0; qi < qlen && f.stats.Execs < limit; qi++ {
			seed := f.queue[qi]
			seed.Execs++

			if !f.opts.SkipDeterministic && seed.Execs == 1 && len(seed.Data) <= 64 {
				f.mut.Deterministic(seed.Data, func(mutant []byte) bool {
					f.ingest(mutant)
					return f.stats.Execs < limit
				})
			}
			for i := 0; i < f.energy(seed) && f.stats.Execs < limit; i++ {
				f.ingest(f.mut.Havoc(seed.Data))
			}
			// Splice stage.
			if len(f.queue) > 1 && f.stats.Execs < limit {
				other := f.queue[f.rng.Intn(len(f.queue))]
				f.ingest(f.mut.Splice(seed.Data, other.Data))
			}
		}
		f.cull()
	}
	return f.Stats()
}
