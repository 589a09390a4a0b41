package core

// Regression tests for the DiffStore delta/merge path and the
// rune-safety of report truncation.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestDiffStoreSinceOutOfRange: Since must clamp any from index — the
// cross-shard barrier calls it with a cursor the shard tracked itself,
// and a disagreement (or a future refactor bug) must degrade to an
// empty delta, not a slice panic.
func TestDiffStoreSinceOutOfRange(t *testing.T) {
	s := build(t, listing1Src)
	st := NewDiffStore("")
	if _, err := st.Add(s.Run([]byte{0xff, 0xff, 0xff, 0x7f, 0x01, 0, 0, 0})); err != nil {
		t.Fatal(err)
	}

	for _, from := range []int{-5, -1, 0, 1, 2, 1000} {
		got := st.Since(from)
		want := st.Len() - from
		if from < 0 {
			want = st.Len()
		}
		if want < 0 {
			want = 0
		}
		if len(got) != want {
			t.Fatalf("Since(%d) returned %d entries, want %d", from, len(got), want)
		}
	}
}

// TestDiffStoreBarrierPathStaleCursor replays the synchronization
// barrier's merge loop with a cursor beyond the shard store's length —
// the shape of the bug a stale diffsSynced would produce.
func TestDiffStoreBarrierPathStaleCursor(t *testing.T) {
	s := build(t, listing1Src)
	shardLocal := NewDiffStore("")
	shared := NewDiffStore("")

	if _, err := shardLocal.Add(s.Run([]byte{0xff, 0xff, 0xff, 0x7f, 0x01, 0, 0, 0})); err != nil {
		t.Fatal(err)
	}

	// A healthy barrier: cursor 0, one fresh entry crosses over.
	delta := shardLocal.Since(0)
	fresh, err := shared.Absorb(delta)
	if err != nil || len(fresh) != 1 {
		t.Fatalf("absorb: fresh=%d err=%v", len(fresh), err)
	}

	// A stale cursor far past the store: empty delta, no panic, and the
	// shared store is untouched.
	delta = shardLocal.Since(shardLocal.Len() + 7)
	if len(delta) != 0 {
		t.Fatalf("stale cursor produced %d entries", len(delta))
	}
	if fresh, err := shared.Absorb(delta); err != nil || len(fresh) != 0 {
		t.Fatalf("absorbing empty delta: fresh=%d err=%v", len(fresh), err)
	}
	if shared.Len() != 1 || shared.Total() != 1 {
		t.Fatalf("shared store corrupted: len=%d total=%d", shared.Len(), shared.Total())
	}
}

// TestDiffStorePersistNoOverwrite: two stores over one DiffDir — a
// second process pointed at the evidence directory of an earlier run —
// must not silently overwrite the earlier run's representative inputs.
// File names derive from each store's own discovery index, so the
// second store regenerates the first store's names; O_EXCL turns that
// into a collision resolved by suffixing.
func TestDiffStorePersistNoOverwrite(t *testing.T) {
	s := build(t, listing1Src)
	dir := t.TempDir()
	divergeA := []byte{0xff, 0xff, 0xff, 0x7f, 0x01, 0, 0, 0}
	divergeB := []byte{0xff, 0xff, 0xff, 0x7f, 0x02, 0, 0, 0}

	st1 := NewDiffStore(dir)
	oA := s.Run(divergeA)
	if fresh, err := st1.Add(oA); err != nil || !fresh {
		t.Fatalf("first add: fresh=%v err=%v", fresh, err)
	}

	// A new process over the same directory: same discovery index, and
	// — because the signature is input-independent — the same file
	// name. The second outcome reuses the first's divergence shape with
	// a different representative input, the way a re-run finds the same
	// bug through a different mutant.
	st2 := NewDiffStore(dir)
	oB := *oA
	oB.Input = divergeB
	if oB.Signature() != oA.Signature() {
		t.Fatalf("signature became input-dependent (%016x vs %016x)", oA.Signature(), oB.Signature())
	}
	if fresh, err := st2.Add(&oB); err != nil || !fresh {
		t.Fatalf("second add: fresh=%v err=%v", fresh, err)
	}

	entries, err := os.ReadDir(filepath.Join(dir, "diffs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("diffs/ holds %v, want the original plus a suffixed file", names)
	}
	// The first run's evidence must be intact, byte for byte.
	base := entries[0].Name()
	got, err := os.ReadFile(filepath.Join(dir, "diffs", base))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(divergeA) {
		t.Fatalf("original evidence file %s overwritten: %q", base, got)
	}
	suffixed, err := os.ReadFile(filepath.Join(dir, "diffs", entries[1].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if string(suffixed) != string(divergeB) {
		t.Fatalf("suffixed file %s holds %q", entries[1].Name(), suffixed)
	}
}

// TestDiffStorePersistErrorReturned: an unexpected filesystem failure
// (here: the diffs/ path is occupied by a regular file) must surface
// to the caller, not be swallowed — the campaign layers count it.
func TestDiffStorePersistErrorReturned(t *testing.T) {
	s := build(t, listing1Src)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "diffs"), []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	st := NewDiffStore(dir)
	fresh, err := st.Add(s.Run([]byte{0xff, 0xff, 0xff, 0x7f, 0x01, 0, 0, 0}))
	if err == nil {
		t.Fatal("persistence failure was swallowed")
	}
	if !fresh {
		t.Fatal("in-memory record must survive a persistence failure")
	}
	if st.Len() != 1 {
		t.Fatalf("store len = %d", st.Len())
	}
}

// TestTruncateRuneBoundary: Truncate must never split a multi-byte
// rune that was valid in the original bytes.
func TestTruncateRuneBoundary(t *testing.T) {
	cases := []struct {
		name string
		in   string
		n    int
		want string
	}{
		{"ascii-short", "hello", 64, "hello"},
		{"ascii-cut", "hello", 3, "hel"},
		{"two-byte-clean", "héllo", 3, "hé"},
		{"two-byte-split", "héllo", 2, "h"},
		{"three-byte-split-1", "a€", 2, "a"}, // € is 3 bytes; cut after byte 1
		{"three-byte-split-2", "a€", 3, "a"}, // cut after byte 2
		{"three-byte-clean", "a€", 4, "a€"},
		{"four-byte-split", "ab\U0001F600", 5, "ab"}, // 😀 is 4 bytes
		{"four-byte-clean", "ab\U0001F600", 6, "ab\U0001F600"},
		{"empty", "", 4, ""},
		{"zero-n", "héllo", 0, ""},
	}
	for _, tc := range cases {
		got := Truncate([]byte(tc.in), tc.n)
		if string(got) != tc.want {
			t.Errorf("%s: Truncate(%q, %d) = %q, want %q", tc.name, tc.in, tc.n, got, tc.want)
		}
		if !utf8.Valid(got) {
			t.Errorf("%s: result %q is invalid UTF-8", tc.name, got)
		}
	}

	// Bytes that were never valid UTF-8 pass through untouched — a
	// fuzzer input is arbitrary binary and must not be "repaired".
	raw := []byte{0xff, 0xfe, 0x80, 0x81}
	if got := Truncate(raw, 2); len(got) != 2 || got[0] != 0xff {
		t.Errorf("binary input mangled: %v", got)
	}
	// A lone dangling continuation run with no lead byte stays as-is.
	cont := []byte{0x80, 0x80, 0x80, 0x80}
	if got := Truncate(cont, 3); len(got) != 3 {
		t.Errorf("continuation-only input mangled: %v", got)
	}
}

// TestReportTruncatesInputOnRuneBoundary drives the whole Report path
// with a MiniC program that prints non-ASCII bytes and a long
// multi-byte input whose 64-byte cut lands mid-rune.
func TestReportTruncatesInputOnRuneBoundary(t *testing.T) {
	s := build(t, `
int main() {
    int x;
    printf("caf\xc3\xa9 value=%d\n", x);
    return 0;
}
`)
	// 63 ASCII bytes, then a 3-byte € straddling the 64-byte cut.
	input := []byte(strings.Repeat("a", 63) + "€€")
	o := s.Run(input)
	if !o.Diverged {
		t.Fatal("uninitialized read should diverge")
	}
	st := NewDiffStore("")
	if _, err := st.Add(o); err != nil {
		t.Fatal(err)
	}
	rep := st.Unique()[0].Report(s.Names())
	if !utf8.ValidString(rep) {
		t.Fatalf("report is invalid UTF-8:\n%s", rep)
	}
	// The quoted input must end at the rune boundary: 63 a's, no
	// escaped partial-rune bytes.
	if strings.Contains(rep, `\xe2`) {
		t.Fatalf("report leaked a split rune:\n%s", rep)
	}
	if !strings.Contains(rep, `caf\xc3\xa9`) && !strings.Contains(rep, "café") {
		t.Logf("report for reference:\n%s", rep)
	}
}
