package triage

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"

	"compdiff/internal/core"
)

// Bucket is one deduplicated finding: a fingerprint, a representative
// outcome (the first seen), and hit counters. The representative is
// what a reducer or a human starts from; the counters are the
// per-bucket telemetry campaign reports surface.
type Bucket struct {
	Fingerprint Fingerprint
	Key         uint64
	// Outcome is the first diverging outcome that opened the bucket.
	// Nil for compile-stage buckets, which carry Compile instead.
	Outcome *core.Outcome
	// Compile is the representative compile-stage record for buckets
	// produced by the compile oracle (Fingerprint.Kind != KindRuntime).
	Compile *core.CompileOutcome
	// Count is the number of diverging inputs that landed here.
	Count int
	// Signatures counts the distinct triage signatures merged into
	// this bucket — >1 means the fingerprint actually coalesced
	// findings the raw signature would have reported separately.
	Signatures int

	sigs map[uint64]bool
}

// BucketStore deduplicates diverging outcomes by fingerprint. All
// methods are safe for concurrent use; a sharded campaign merges
// shard-local stores into a pool-wide one at synchronization
// barriers, exactly like core.DiffStore.
type BucketStore struct {
	mu    sync.Mutex
	byKey map[uint64]*Bucket
	order []uint64
	total int
}

// NewBucketStore creates an empty store.
func NewBucketStore() *BucketStore {
	return &BucketStore{byKey: map[uint64]*Bucket{}}
}

// Add records a diverging outcome. It returns the bucket the outcome
// landed in and whether that bucket is new (the new-bucket-only
// reporting predicate). Non-diverging outcomes are ignored.
func (bs *BucketStore) Add(o *core.Outcome) (*Bucket, bool) {
	if o == nil || !o.Diverged {
		return nil, false
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return bs.addLocked(o, 1, o.Signature())
}

func (bs *BucketStore) addLocked(o *core.Outcome, count int, sig uint64) (*Bucket, bool) {
	return bs.insertLocked(Of(o), o, nil, count, sig)
}

// AddCompile records a compile-stage outcome. Outcomes that are not
// findings (all implementations accept, or all reject with identical
// normalized diagnostics) are ignored.
func (bs *BucketStore) AddCompile(co *core.CompileOutcome) (*Bucket, bool) {
	if co == nil {
		return nil, false
	}
	fp, ok := OfCompile(co)
	if !ok {
		return nil, false
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return bs.insertLocked(fp, nil, co, 1, co.Signature())
}

func (bs *BucketStore) insertLocked(fp Fingerprint, o *core.Outcome, co *core.CompileOutcome, count int, sig uint64) (*Bucket, bool) {
	bs.total += count
	key := fp.Key()
	if b, ok := bs.byKey[key]; ok {
		b.Count += count
		if !b.sigs[sig] {
			b.sigs[sig] = true
			b.Signatures++
		}
		return b, false
	}
	b := &Bucket{
		Fingerprint: fp,
		Key:         key,
		Outcome:     o,
		Compile:     co,
		Count:       count,
		Signatures:  1,
		sigs:        map[uint64]bool{sig: true},
	}
	bs.byKey[key] = b
	bs.order = append(bs.order, key)
	return b, true
}

// KindCounts breaks the unique-bucket count down by finding kind.
func (bs *BucketStore) KindCounts() [NumKinds]int {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	var out [NumKinds]int
	for _, b := range bs.byKey {
		if k := b.Fingerprint.Kind; int(k) < NumKinds {
			out[k]++
		}
	}
	return out
}

// Absorb merges another store's buckets (typically a shard-local
// delta) into bs, summing counts for known keys. It returns the
// buckets whose keys were new to bs.
func (bs *BucketStore) Absorb(buckets []*Bucket) []*Bucket {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	var fresh []*Bucket
	for _, b := range buckets {
		if cur, ok := bs.byKey[b.Key]; ok {
			cur.Count += b.Count
			for sig := range b.sigs {
				if !cur.sigs[sig] {
					cur.sigs[sig] = true
					cur.Signatures++
				}
			}
			bs.total += b.Count
			continue
		}
		c := &Bucket{
			Fingerprint: b.Fingerprint,
			Key:         b.Key,
			Outcome:     b.Outcome,
			Compile:     b.Compile,
			Count:       b.Count,
			Signatures:  b.Signatures,
			sigs:        map[uint64]bool{},
		}
		for sig := range b.sigs {
			c.sigs[sig] = true
		}
		bs.byKey[c.Key] = c
		bs.order = append(bs.order, c.Key)
		bs.total += c.Count
		fresh = append(fresh, c)
	}
	return fresh
}

// Since returns the buckets from discovery index `from` on — the
// delta a synchronization barrier hands to Absorb. Out-of-range
// cursors clamp.
func (bs *BucketStore) Since(from int) []*Bucket {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from > len(bs.order) {
		from = len(bs.order)
	}
	out := make([]*Bucket, 0, len(bs.order)-from)
	for _, key := range bs.order[from:] {
		out = append(out, bs.byKey[key])
	}
	return out
}

// Recount overwrites per-bucket counts and the pre-dedup total with
// authoritative values, keyed by bucket key. The pool calls it at
// every barrier so the shared store's counts equal the sum over
// shard-local stores, independent of merge interleaving.
func (bs *BucketStore) Recount(counts map[uint64]int) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	total := 0
	for _, c := range counts {
		total += c
	}
	bs.total = total
	for key, b := range bs.byKey {
		if c, ok := counts[key]; ok {
			b.Count = c
		}
	}
}

// Counts snapshots the per-bucket input counts keyed by bucket key.
func (bs *BucketStore) Counts() map[uint64]int {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	out := make(map[uint64]int, len(bs.byKey))
	for key, b := range bs.byKey {
		out[key] = b.Count
	}
	return out
}

// Buckets returns the buckets in discovery order.
func (bs *BucketStore) Buckets() []*Bucket {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	out := make([]*Bucket, 0, len(bs.order))
	for _, key := range bs.order {
		out = append(out, bs.byKey[key])
	}
	return out
}

// Len is the number of unique buckets.
func (bs *BucketStore) Len() int {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return len(bs.order)
}

// Total is the number of diverging inputs seen (before deduplication).
func (bs *BucketStore) Total() int {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return bs.total
}

// Keys returns the sorted bucket-key set — the order-independent
// fingerprint of a campaign's triaged findings, the bucket analog of
// difffuzz.Pool.Signatures.
func (bs *BucketStore) Keys() []uint64 {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	keys := make([]uint64, len(bs.order))
	copy(keys, bs.order)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// BucketSnapshot is one bucket in checkpoint wire form: the private
// signature set flattened to a sorted slice so the encoding is
// deterministic and round-trips byte-identically.
type BucketSnapshot struct {
	Fingerprint Fingerprint          `json:"fingerprint"`
	Key         uint64               `json:"key"`
	Outcome     *core.Outcome        `json:"outcome,omitempty"`
	Compile     *core.CompileOutcome `json:"compile,omitempty"`
	Count       int                  `json:"count"`
	Signatures  []uint64             `json:"signatures"`
}

// Export snapshots the store for checkpointing: buckets in discovery
// order plus the pre-dedup total. The snapshot shares outcome pointers
// with the store (outcomes are immutable once stored).
func (bs *BucketStore) Export() ([]BucketSnapshot, int) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	out := make([]BucketSnapshot, 0, len(bs.order))
	for _, key := range bs.order {
		b := bs.byKey[key]
		sigs := make([]uint64, 0, len(b.sigs))
		for sig := range b.sigs {
			sigs = append(sigs, sig)
		}
		sort.Slice(sigs, func(i, j int) bool { return sigs[i] < sigs[j] })
		out = append(out, BucketSnapshot{
			Fingerprint: b.Fingerprint,
			Key:         b.Key,
			Outcome:     b.Outcome,
			Compile:     b.Compile,
			Count:       b.Count,
			Signatures:  sigs,
		})
	}
	return out, bs.total
}

// RestoreBucketStore rebuilds a store from an Export snapshot,
// preserving discovery order, counts, and the per-bucket signature
// sets. Snapshots may carry nil Outcomes (shard-local skeletons);
// such buckets still deduplicate and recount exactly.
func RestoreBucketStore(snaps []BucketSnapshot, total int) *BucketStore {
	bs := NewBucketStore()
	for _, s := range snaps {
		b := &Bucket{
			Fingerprint: s.Fingerprint,
			Key:         s.Key,
			Outcome:     s.Outcome,
			Compile:     s.Compile,
			Count:       s.Count,
			Signatures:  len(s.Signatures),
			sigs:        make(map[uint64]bool, len(s.Signatures)),
		}
		for _, sig := range s.Signatures {
			b.sigs[sig] = true
		}
		bs.byKey[b.Key] = b
		bs.order = append(bs.order, b.Key)
	}
	bs.total = total
	return bs
}

// Report renders one bucket as a human-readable finding: the
// fingerprint, the hit counters, and the representative input with
// the disagreeing implementation groups and their outputs.
func (b *Bucket) Report(names []string) string {
	if b.Compile != nil {
		return b.reportCompile()
	}
	o := b.Outcome
	var s strings.Builder
	fmt.Fprintf(&s, "bucket %016x %s (%d inputs, %d signatures)\n",
		b.Key, b.Fingerprint, b.Count, b.Signatures)
	fmt.Fprintf(&s, "representative input (%d bytes): %q\n", len(o.Input), core.Truncate(o.Input, 64))
	groups := o.Groups()
	type grp struct {
		impls []int
		out   string
	}
	var gs []grp
	for _, idxs := range groups {
		sort.Ints(idxs)
		gs = append(gs, grp{impls: idxs, out: string(o.Results[idxs[0]].Encode())})
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i].impls[0] < gs[j].impls[0] })
	for _, g := range gs {
		s.WriteString("reproducers:")
		for _, i := range g.impls {
			s.WriteString(" [" + names[i] + "]")
		}
		s.WriteString("\noutput:\n")
		for _, line := range strings.SplitAfter(g.out, "\n") {
			if line == "" {
				continue
			}
			s.WriteString("    " + line)
		}
		if !strings.HasSuffix(g.out, "\n") {
			s.WriteString("\n")
		}
	}
	return s.String()
}

// reportCompile renders a compile-stage bucket: per-implementation
// status with the diagnostics (or crash text) that define the bucket.
func (b *Bucket) reportCompile() string {
	co := b.Compile
	var s strings.Builder
	fmt.Fprintf(&s, "bucket %016x %s (%d programs, %d signatures)\n",
		b.Key, b.Fingerprint, b.Count, b.Signatures)
	for _, im := range co.Impls {
		fmt.Fprintf(&s, "[%s] %s\n", im.Name, im.Status)
		if im.ICE != "" {
			s.WriteString("    " + im.ICE + "\n")
			continue
		}
		for _, d := range im.Diags {
			s.WriteString("    " + d + "\n")
		}
	}
	return s.String()
}

// Table renders the bucketed summary: one row per bucket with its
// key, hit count, merged signature count, divergence stage, and
// partition/class shape — the campaign-end triage overview.
func (bs *BucketStore) Table() string {
	buckets := bs.Buckets()
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "bucket\tinputs\tsigs\tstage\tfingerprint")
	for _, bk := range buckets {
		fmt.Fprintf(tw, "%016x\t%d\t%d\t%d\t%s\n",
			bk.Key, bk.Count, bk.Signatures, bk.Fingerprint.Stage, bk.Fingerprint)
	}
	tw.Flush()
	return b.String()
}
