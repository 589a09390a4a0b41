package difffuzz

import (
	"context"
	"testing"
)

// twoFlavorSrc is one underlying bug (division by an input-size-derived
// zero) reachable through two surface flavors: the default path traps
// with SIGFPE at O0/O1, and the 'w' path aborts in a double free first
// (SIGABRT at O0/O1, silent corruption at O2+). Both flavors produce
// the same implementation partition and the same outcome classes, so
// the raw discrepancy signatures differ while the divergence
// fingerprint — and therefore the triage bucket — is shared.
const twoFlavorSrc = `
int main() {
    char buf[4];
    long n = read_input(buf, 4L);
    int d = (int)(n % 1L);
    if (n >= 1 && buf[0] == 'w') {
        char* p = (char*)malloc(8L);
        free(p);
        free(p);
        printf("w %d\n", 100 / d);
        return 0;
    }
    printf("d %d\n", 100 / d);
    return 0;
}
`

// TestPoolBucketDedupAcrossShards is the ISSUE's regression: a
// two-shard pool in which every shard hits the same underlying bug
// (through both flavors) must end with exactly one pool-wide bucket,
// even though the signature-keyed diff store reports two distinct
// discrepancies.
func TestPoolBucketDedupAcrossShards(t *testing.T) {
	p, err := NewPool(twoFlavorSrc, [][]byte{nil, []byte("w")}, Options{
		FuzzSeed:  11,
		Shards:    2,
		SyncEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Run(context.Background(), 300)

	// Both shards must have hit the bug locally; the seeds alone
	// guarantee it, since each shard ingests the full seed corpus.
	for si := 0; si < 2; si++ {
		if n := p.shards[si].c.buckets.Len(); n != 1 {
			t.Fatalf("shard %d has %d buckets, want 1", si, n)
		}
	}

	if st.UniqueDiffs < 2 {
		t.Fatalf("found %d signatures, want >= 2 (both flavors)", st.UniqueDiffs)
	}
	if st.UniqueBuckets != 1 {
		t.Fatalf("pool has %d buckets, want exactly 1", st.UniqueBuckets)
	}

	buckets := p.Buckets()
	if len(buckets) != 1 {
		t.Fatalf("Buckets() returned %d, want 1", len(buckets))
	}
	b := buckets[0]
	if b.Signatures != st.UniqueDiffs {
		t.Fatalf("bucket merged %d signatures, diff store has %d", b.Signatures, st.UniqueDiffs)
	}
	// After the barrier recount, the single bucket's hit count is the
	// exact pool-wide diverging-input total.
	if b.Count != p.TotalDiffInputs() {
		t.Fatalf("bucket count %d != pool diverging inputs %d", b.Count, p.TotalDiffInputs())
	}
	if keys := p.BucketKeys(); len(keys) != 1 || keys[0] != b.Key {
		t.Fatalf("BucketKeys() = %v, want [%016x]", keys, b.Key)
	}
}

// TestPoolBucketKeysDeterministic extends the pool determinism
// guarantee to the triage layer: identical options must yield the
// identical bucket-key set, and the bucket view must stay consistent
// with the signature view (never more buckets than signatures, hit
// totals equal).
func TestPoolBucketKeysDeterministic(t *testing.T) {
	opts := Options{FuzzSeed: 7, Shards: 2, SyncEvery: 300}
	a := runPool(t, opts, 1000)
	b := runPool(t, opts, 1000)

	ka, kb := a.BucketKeys(), b.BucketKeys()
	if len(ka) == 0 {
		t.Fatal("campaign found no buckets; the determinism check is vacuous")
	}
	if len(ka) != len(kb) {
		t.Fatalf("bucket-key sets differ in size: %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("bucket keys differ at %d: %016x vs %016x", i, ka[i], kb[i])
		}
	}

	st := a.Stats()
	if st.UniqueBuckets > st.UniqueDiffs {
		t.Fatalf("%d buckets exceed %d signatures; the fingerprint must coarsen",
			st.UniqueBuckets, st.UniqueDiffs)
	}
	if got := a.BucketStore().Total(); got != a.TotalDiffInputs() {
		t.Fatalf("bucket hit total %d != diverging input total %d", got, a.TotalDiffInputs())
	}
}
