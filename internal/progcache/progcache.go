// Package progcache is a compiled-program cache: a byte-bounded LRU
// of k-way compilation records keyed by the murmur3-128 of the
// program source. The compile-stage oracle pays one front-end pass
// plus k lowerings per corpus program; corpora with duplicate
// programs (minimized pools, generated corpora, and especially the
// progen revisit path, where an evolutionary mutator keeps proposing
// programs it has tried before) pay it again for every revisit. The
// cache makes a revisit one 128-bit hash and a map probe.
//
// A miss runs the front end once, unless the caller hands in its own
// checked result for the source (GetChecked), and then
// compiler.CompileAll, which analyses the program once for all k
// configurations and lowers each configuration into buffers it reuses.
// The record's byte cost counts len(Code) of every lowered function;
// CompileAll retains each Code as an exact-size copy, so the count is
// the live size, not the size of a grown scratch buffer.
//
// A cached record is a pure function of the source text: the front
// end and every lowering are deterministic, so serving a hit instead
// of recompiling cannot change a campaign's findings — which is why
// cache settings stay out of the campaign options hash. Records are
// immutable after construction; eviction merely unlinks them, so a
// reader holding a *Compiled across an eviction keeps a fully valid
// record (the fuzz layer hammers exactly this property).
package progcache

import (
	"sync"

	"compdiff/internal/compiler"
	"compdiff/internal/hash"
	"compdiff/internal/ir"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
)

// keySeed namespaces the source hash; independent from the seeds used
// by output checksums (0xaf1d), signatures, and campaign hashes.
const keySeed = 0x9c0d

// DefaultBudget is the byte budget New applies when given 0.
const DefaultBudget = 64 << 20

// Key identifies a program source by its murmur3-128.
type Key struct{ Lo, Hi uint64 }

// KeyOf hashes one source text.
func KeyOf(src string) Key {
	lo, hi := hash.Sum128([]byte(src), keySeed)
	return Key{Lo: lo, Hi: hi}
}

// Compiled is one immutable compilation record: either a uniform
// front-end reject, or one compiler.Result per configuration
// (positional). Accepting results carry the lowered *ir.Program,
// which machines share read-only, so a record may safely back any
// number of concurrent suites.
type Compiled struct {
	// FrontendErr is the parse or sema error; when non-nil, Results
	// is nil (the front end is shared, so a reject is uniform across
	// implementations and never a finding).
	FrontendErr error
	// Results holds the guarded per-configuration compile results in
	// the order the configs were given.
	Results []compiler.Result

	// size is the record's cost against the cache budget: an estimate
	// of the retained bytecode, rodata, and diagnostics.
	size int64
}

// Compile runs the shared front end once and then lowers under every
// configuration through compiler.CompileAll, k-way in parallel when
// parallelism > 1. It is also usable standalone as a guarded "compile
// under all configs" helper.
func Compile(src string, cfgs []compiler.Config, parallelism int) *Compiled {
	return compile(src, nil, cfgs, parallelism)
}

// compile is the miss path. info, when non-nil, is sema's result for
// exactly src, already computed by the caller, and stands in for the
// front end.
func compile(src string, info *sema.Info, cfgs []compiler.Config, parallelism int) *Compiled {
	if info == nil {
		prog, err := parser.Parse(src)
		if err != nil {
			return &Compiled{FrontendErr: err, size: recordOverhead + int64(len(err.Error()))}
		}
		if info, err = sema.Check(prog); err != nil {
			return &Compiled{FrontendErr: err, size: recordOverhead + int64(len(err.Error()))}
		}
	}
	results := compiler.CompileAll(info, cfgs, parallelism)
	c := &Compiled{Results: results, size: recordOverhead}
	for i := range results {
		c.size += resultBytes(&results[i])
	}
	return c
}

// Cost-model constants: close enough for a budget, not an accounting
// audit. instrBytes is sizeof(ir.Instr) rounded up.
const (
	recordOverhead = 256
	instrBytes     = 32
	funcOverhead   = 128
)

func resultBytes(r *compiler.Result) int64 {
	n := int64(64)
	for _, d := range r.Diags {
		n += int64(len(d)) + 16
	}
	n += int64(len(r.ICE))
	if r.Err != nil {
		n += int64(len(r.Err.Error()))
	}
	if r.Prog != nil {
		n += progBytes(r.Prog)
	}
	return n
}

func progBytes(p *ir.Program) int64 {
	n := int64(len(p.Rodata)) + 128
	for _, gi := range p.GlobalInit {
		n += int64(len(gi.Data)) + 16
	}
	for _, f := range p.Funcs {
		n += funcOverhead + int64(len(f.Code))*instrBytes
	}
	return n
}

// Cache is the byte-bounded LRU. Safe for concurrent use; the k-way
// compile on a miss runs outside the lock, so a slow lowering never
// blocks hits. Two goroutines missing on the same key may both
// compile — the first insert wins and the loser adopts it, keeping
// exactly one record per key resident.
type Cache struct {
	mu     sync.Mutex
	budget int64
	size   int64
	m      map[Key]*entry
	// Intrusive LRU list: head is most recent, tail the eviction end.
	head, tail *entry

	hits, misses, evictions int64
}

type entry struct {
	key        Key
	val        *Compiled
	prev, next *entry
}

// Stats is a point-in-time cache summary.
type Stats struct {
	Hits, Misses, Evictions int64
	Entries                 int
	Bytes                   int64
}

// New builds a cache with the given byte budget. budget == 0 selects
// DefaultBudget; a negative budget disables bounding (never evicts).
func New(budget int64) *Cache {
	if budget == 0 {
		budget = DefaultBudget
	}
	return &Cache{budget: budget, m: make(map[Key]*entry)}
}

// Get returns the compilation record for src, compiling under cfgs
// (parallelism-way) on a miss. The returned record is immutable and
// remains valid regardless of later evictions.
func (c *Cache) Get(src string, cfgs []compiler.Config, parallelism int) *Compiled {
	return c.GetChecked(src, nil, cfgs, parallelism)
}

// GetChecked is Get for a caller that has already run the front end:
// info, when non-nil, is sema's result for exactly src, and a miss
// lowers it instead of parsing and checking src again. Hits ignore it.
// The record is the same either way, as the front end is
// deterministic.
func (c *Cache) GetChecked(src string, info *sema.Info, cfgs []compiler.Config, parallelism int) *Compiled {
	k := KeyOf(src)
	c.mu.Lock()
	if e := c.m[k]; e != nil {
		c.hits++
		c.moveFront(e)
		v := e.val
		c.mu.Unlock()
		return v
	}
	c.misses++
	c.mu.Unlock()

	v := compile(src, info, cfgs, parallelism)

	c.mu.Lock()
	if e := c.m[k]; e != nil {
		// A concurrent miss inserted first; adopt its record so every
		// caller observes one canonical value per key.
		c.moveFront(e)
		v = e.val
		c.mu.Unlock()
		return v
	}
	e := &entry{key: k, val: v}
	c.m[k] = e
	c.pushFront(e)
	c.size += v.size
	if c.budget > 0 {
		for c.size > c.budget && c.tail != nil {
			c.evict(c.tail)
		}
	}
	c.mu.Unlock()
	return v
}

// Len is the resident entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats reports cumulative hit/miss/eviction counts and residency.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: len(c.m), Bytes: c.size,
	}
}

func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) moveFront(e *entry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *Cache) evict(e *entry) {
	c.unlink(e)
	delete(c.m, e.key)
	c.size -= e.val.size
	c.evictions++
}
