package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"compdiff/internal/core"
	"compdiff/internal/fuzz"
	"compdiff/internal/telemetry"
	"compdiff/internal/triage"
	"compdiff/internal/vm"
)

// sampleState builds a representative snapshot exercising every wire
// field: multiple shards, queue entries, crashes, full and skeletal
// diff entries, buckets with signature sets, and telemetry.
func sampleState(seq int) *State {
	outcome := &core.Outcome{
		Input: []byte{0x01, 0xff, 0x00, 0x7f},
		Results: []*vm.Result{
			{Exit: vm.Exited, Stdout: []byte("a=1\n"), Steps: 120},
			{Exit: vm.Exited, Stdout: []byte("a=2\n"), Steps: 130,
				San: &vm.SanReport{Tool: "msan", Kind: "uninit-read", Func: "main", Line: 3}},
		},
		Hashes:   []uint64{0x1111, 0x2222},
		Diverged: true,
	}
	fs := &fuzz.State{
		MutCursor: 12345 + uint64(seq),
		RngCursor: 678,
		Virgin:    make([]byte, fuzz.MapSize),
		Queue: []*fuzz.Seed{
			{Data: []byte("seed-a"), CovBits: 9, Hash: 0xaaa, Favored: true, Execs: 3},
			{Data: []byte{0, 1, 2}, CovBits: 4, Hash: 0xbbb},
		},
		Hashes: []uint64{0xaaa, 0xbbb},
		Crashes: []*fuzz.Crash{
			{Input: []byte("boom"), Result: &vm.Result{Exit: vm.SigSegv, Code: 11}},
		},
		Execs:       4000,
		Cycles:      7,
		LastNewPath: 3500,
	}
	fs.Virgin[17] = 0x80
	return &State{
		OptionsHash:   0xdeadbeefcafef00d,
		SpentExecs:    int64(4000 * seq),
		PersistErrors: 2,
		Shards: []ShardState{
			{
				Index:     0,
				Fuzzer:    fs,
				QueueSeen: []uint64{0xaaa, 0xbbb},
				DiffExecs: 8000,
				Diffs:     []*core.StoredDiff{{Signature: 0x51, Count: 5}},
				DiffTotal: 5,
				Buckets: []triage.BucketSnapshot{{
					Fingerprint: triage.Fingerprint{Partition: []uint8{0, 1}, Classes: []uint8{0, 0}, Stage: 2},
					Key:         0x7e57,
					Count:       5,
					Signatures:  []uint64{0x51},
				}},
				BucketTotal: 5,
				Metrics: &MetricsState{
					Execs:     4000,
					DiffExecs: 8000,
					Classes:   [telemetry.NumClasses]int64{3990, 3, 2, 5},
					Impls: []telemetry.ImplSummary{
						{Name: "clang-O0", Outcomes: [telemetry.NumClasses]int64{4000, 0, 0, 0},
							Latency: telemetry.HistogramSnapshot{Count: 4000, Sum: 999, Min: 1, Max: 40}},
					},
				},
			},
			{Index: 1, Dead: true, Fuzzer: fs},
		},
		Diffs:       []*core.StoredDiff{{Signature: 0x51, Outcome: outcome, Count: 5}},
		DiffTotal:   5,
		Buckets:     []triage.BucketSnapshot{{Key: 0x7e57, Outcome: outcome, Count: 5, Signatures: []uint64{0x51}}},
		BucketTotal: 5,
	}
}

// TestSaveLoadRoundTrip pins the core property: snapshot → save →
// load → snapshot is byte-identical.
func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSaver(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := sampleState(1)
	if err := s.Save(st); err != nil {
		t.Fatal(err)
	}
	got, man, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Seq != 1 || man.OptionsHash != st.OptionsHash || man.Shards != 2 {
		t.Fatalf("manifest %+v", man)
	}
	a, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("round trip not byte-identical:\n%s\nvs\n%s", a, b)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatal("round trip not structurally identical")
	}
}

func TestLoadMissing(t *testing.T) {
	if _, _, err := Load(t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
	if Exists(t.TempDir()) {
		t.Fatal("Exists on empty dir")
	}
}

// saveOne writes one checkpoint into a fresh dir and returns the dir
// and the manifest's state-file path.
func saveOne(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := NewSaver(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(sampleState(1)); err != nil {
		t.Fatal(err)
	}
	man, err := loadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	return dir, filepath.Join(dir, man.StateFile)
}

// TestLoadDetectsTruncation: a state file cut short (a torn write that
// somehow survived, or disk damage) must fail with ErrCorrupt.
func TestLoadDetectsTruncation(t *testing.T) {
	dir, stateFile := saveOne(t)
	data, err := os.ReadFile(stateFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stateFile, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestLoadDetectsBitFlip: same-size corruption passes the size check
// and must be caught by the checksum.
func TestLoadDetectsBitFlip(t *testing.T) {
	dir, stateFile := saveOne(t)
	data, err := os.ReadFile(stateFile)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x40
	if err := os.WriteFile(stateFile, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestLoadDetectsManifestDamage(t *testing.T) {
	for name, content := range map[string]string{
		"garbage":       "{not json",
		"wrong-version": `{"version":99,"state_file":"state-000001.ckpt"}`,
		"traversal":     `{"version":1,"state_file":"../../etc/passwd"}`,
		"missing-state": `{"version":1,"state_file":"state-999999.ckpt"}`,
	} {
		dir, _ := saveOne(t)
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// dirEntries lists dir's names, sorted, and their total size.
func dirEntries(t *testing.T, dir string) ([]string, int64) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, e.Name())
		total += info.Size()
	}
	return names, total
}

// stateName is the state file Save writes for seq.
func stateName(seq int) string { return fmt.Sprintf("state-%06d.ckpt", seq) }

// TestSaveGC pins what a checkpoint directory holds: from the second
// save on, exactly the manifest, the current state file, one spare
// state file and one spare manifest — the two files the next save
// recycles. Leftovers of an earlier process, including a spare
// manifest it owned, are collected by the first save and never reused.
// Over 100 saves neither the entry count nor the bytes on disk grow.
func TestSaveGC(t *testing.T) {
	dir := t.TempDir()
	for _, junk := range []string{"state-000000.ckpt", "state-000007.ckpt.tmp", manifestName + tmpSuffix, spareManifestName} {
		if err := os.WriteFile(filepath.Join(dir, junk), []byte("leftover"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewSaver(dir)
	if err != nil {
		t.Fatal(err)
	}
	stateSize := int64(len(savedBytes(t, sampleState(1))))
	var prevManifest int64
	for seq := 1; seq <= 100; seq++ {
		// The same content every time, so only the manifest's digits
		// may change the directory's size.
		if err := s.Save(sampleState(1)); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(filepath.Join(dir, manifestName))
		if err != nil {
			t.Fatal(err)
		}
		names, total := dirEntries(t, dir)
		want := []string{manifestName, stateName(seq)}
		wantTotal := stateSize + info.Size()
		if seq > 1 {
			want = []string{manifestName, spareManifestName, stateName(seq - 1), stateName(seq)}
			wantTotal += stateSize + prevManifest
		}
		if !reflect.DeepEqual(names, want) || total != wantTotal {
			t.Fatalf("save %d: dir holds %v (%d bytes), want %v (%d bytes)", seq, names, total, want, wantTotal)
		}
		prevManifest = info.Size()
	}
	if man, err := loadManifest(dir); err != nil || man.Seq != 100 {
		t.Fatalf("latest generation not current: %+v, %v", man, err)
	}
}

// TestSaverResumesSequence: a new saver over an existing directory
// (the resume path) continues the sequence instead of reusing numbers.
func TestSaverResumesSequence(t *testing.T) {
	dir, _ := saveOne(t)
	s2, err := NewSaver(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Seq() != 1 {
		t.Fatalf("resumed saver seq = %d, want 1", s2.Seq())
	}
	if err := s2.Save(sampleState(2)); err != nil {
		t.Fatal(err)
	}
	if _, man, err := Load(dir); err != nil || man.Seq != 2 {
		t.Fatalf("seq after resume-save = %v (err %v), want 2", man, err)
	}
}

// TestFaultInjectionAtomicity is the kill-at-any-instant property: a
// save interrupted after any number of file operations leaves the
// directory loadable — the previous checkpoint intact, never a torn
// or half-visible new one.
func TestFaultInjectionAtomicity(t *testing.T) {
	// Count the operations a full save spends so the sweep covers every
	// interruption point (and one beyond, which must succeed).
	probe := t.TempDir()
	s, err := NewSaver(probe)
	if err != nil {
		t.Fatal(err)
	}
	s.InjectFault(1 << 20)
	if err := s.Save(sampleState(2)); err != nil {
		t.Fatal(err)
	}
	totalOps := (1 << 20) - s.fault.budget
	if totalOps < 4 {
		t.Fatalf("probe counted only %d ops", totalOps)
	}

	for ops := 0; ops <= totalOps; ops++ {
		dir := t.TempDir()
		s, err := NewSaver(dir)
		if err != nil {
			t.Fatal(err)
		}
		first := sampleState(1)
		if err := s.Save(first); err != nil {
			t.Fatal(err)
		}
		s.InjectFault(ops)
		err = s.Save(sampleState(2))
		if ops < totalOps && !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("ops=%d: err = %v, want ErrInjectedFault", ops, err)
		}

		st, man, lerr := Load(dir)
		if lerr != nil {
			t.Fatalf("ops=%d: checkpoint unloadable after simulated kill: %v", ops, lerr)
		}
		switch man.Seq {
		case 1:
			if st.SpentExecs != first.SpentExecs {
				t.Fatalf("ops=%d: old checkpoint content changed", ops)
			}
		case 2:
			if st.SpentExecs != sampleState(2).SpentExecs {
				t.Fatalf("ops=%d: new checkpoint content wrong", ops)
			}
		default:
			t.Fatalf("ops=%d: unexpected seq %d", ops, man.Seq)
		}
	}

	// From an empty directory, an interrupted first save must leave
	// either no checkpoint or a complete one — never ErrCorrupt.
	for ops := 0; ops <= totalOps; ops++ {
		dir := t.TempDir()
		s, err := NewSaver(dir)
		if err != nil {
			t.Fatal(err)
		}
		s.InjectFault(ops)
		_ = s.Save(sampleState(1))
		if _, _, err := Load(dir); err != nil && !errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("ops=%d: first-save kill left %v, want complete or ErrNoCheckpoint", ops, err)
		}
	}
}

// savedBytes is the state file Save writes for st.
func savedBytes(t *testing.T, st *State) []byte {
	t.Helper()
	st.Version = Version
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// loadedSeq loads dir, checks that the checkpoint is one of seqs and
// holds sampleState(seq) byte for byte, and returns its seq.
func loadedSeq(t *testing.T, dir string, seqs ...int) int {
	t.Helper()
	st, man, err := Load(dir)
	if err != nil {
		t.Fatalf("checkpoint unloadable: %v", err)
	}
	if !slices.Contains(seqs, man.Seq) {
		t.Fatalf("loaded seq %d, want one of %v", man.Seq, seqs)
	}
	if got, want := savedBytes(t, st), savedBytes(t, sampleState(man.Seq)); !bytes.Equal(got, want) {
		t.Fatalf("seq %d: loaded content differs from what was saved", man.Seq)
	}
	return man.Seq
}

// TestFaultInjectionSteadyState is the kill-at-any-instant sweep over a
// save that recycles: after four saves the saver owns a spare state
// file and a spare manifest, so the fifth spends the spare renames and
// the link. A kill at each of its operations must leave the fourth or
// the fifth checkpoint, and a fresh saver — a restarted process — must
// then save three more times, each loading back exactly. The
// link-before-rename kill, where the spare manifest name is the live
// manifest, gets its own sweep over the restarted saver's first save,
// which must not rewrite the live manifest in place.
func TestFaultInjectionSteadyState(t *testing.T) {
	const prior = 4
	// killedAt returns a directory holding prior saves and a kill of
	// the next save after ops operations, and the ops that save spent.
	killedAt := func(ops int) (string, int) {
		dir := t.TempDir()
		s, err := NewSaver(dir)
		if err != nil {
			t.Fatal(err)
		}
		for seq := 1; seq <= prior; seq++ {
			if err := s.Save(sampleState(seq)); err != nil {
				t.Fatal(err)
			}
		}
		s.InjectFault(ops)
		if err := s.Save(sampleState(prior + 1)); err != nil && !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("ops=%d: %v", ops, err)
		}
		return dir, ops - s.fault.budget
	}
	_, totalOps := killedAt(1 << 20)
	firstOps := countFirstSaveOps(t)
	if totalOps != firstOps+2 {
		t.Fatalf("a recycling save spends %d ops, a first save %d; want the two spare renames on top", totalOps, firstOps)
	}

	linkStates := 0
	for ops := 0; ops <= totalOps; ops++ {
		dir, _ := killedAt(ops)
		base := loadedSeq(t, dir, prior, prior+1)
		if ops == totalOps && base != prior+1 {
			t.Fatalf("a save with its full budget did not complete")
		}
		if linkedBeforeRename(t, dir) {
			linkStates++
			restartOverLink(t, func() string { d, _ := killedAt(ops); return d }, base)
			continue
		}
		s, err := NewSaver(dir)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 3; k++ {
			if err := s.Save(sampleState(base + k)); err != nil {
				t.Fatalf("ops=%d: restarted save %d: %v", ops, k, err)
			}
			loadedSeq(t, dir, base+k)
		}
		names, _ := dirEntries(t, dir)
		if want := []string{manifestName, spareManifestName, stateName(base + 2), stateName(base + 3)}; !reflect.DeepEqual(names, want) {
			t.Fatalf("ops=%d: after three restarted saves the dir holds %v, want %v", ops, names, want)
		}
	}
	if linkStates != 1 {
		t.Fatalf("%d kill points left the spare linked before the rename, want 1", linkStates)
	}
}

// countFirstSaveOps counts the operations of a first save into an
// empty directory.
func countFirstSaveOps(t *testing.T) int {
	t.Helper()
	dir := t.TempDir()
	s, err := NewSaver(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.InjectFault(1 << 20)
	if err := s.Save(sampleState(1)); err != nil {
		t.Fatal(err)
	}
	return (1 << 20) - s.fault.budget
}

// linkedBeforeRename reports whether a kill left the spare manifest
// name on the live manifest's inode, with the complete new manifest
// still under its temp name.
func linkedBeforeRename(t *testing.T, dir string) bool {
	t.Helper()
	live, err := os.Stat(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	spare, err := os.Stat(filepath.Join(dir, spareManifestName))
	return err == nil && os.SameFile(live, spare)
}

// restartOverLink sweeps kills over the first save of a saver restarted
// on a link-before-rename directory holding checkpoint base; fresh
// rebuilds that directory. The live manifest inode, read through a
// descriptor opened before the restart, must keep its bytes however
// far that save gets, and every kill must leave base or base+1. The
// saver that completes it saves twice more.
func restartOverLink(t *testing.T, fresh func() string, base int) {
	t.Helper()
	for ops := 0; ; ops++ {
		dir := fresh()
		f, err := os.Open(filepath.Join(dir, manifestName))
		if err != nil {
			t.Fatal(err)
		}
		before, err := io.ReadAll(f)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSaver(dir)
		if err != nil {
			t.Fatal(err)
		}
		s.InjectFault(ops)
		serr := s.Save(sampleState(base + 1))
		after := make([]byte, len(before)+1)
		n, _ := f.ReadAt(after, 0)
		f.Close()
		if !bytes.Equal(after[:n], before) {
			t.Fatalf("restart ops=%d: the restarted saver rewrote the live manifest inode in place", ops)
		}
		loadedSeq(t, dir, base, base+1)
		if serr != nil {
			continue
		}
		s.fault = nil
		for k := 1; k <= 3; k++ {
			if k > 1 {
				if err := s.Save(sampleState(base + k)); err != nil {
					t.Fatal(err)
				}
			}
			loadedSeq(t, dir, base+k)
		}
		return
	}
}

// TestConcurrentReadersSeeWholeVersions: recycled inodes are rewritten
// while another process may still read them. One goroutine saves 500
// times while another loops over ReadManifest and Load; every manifest
// and state the reader accepts must be byte-identical to one that was
// saved. Run it under -race.
func TestConcurrentReadersSeeWholeVersions(t *testing.T) {
	const saves = 500
	dir := t.TempDir()
	s, err := NewSaver(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Three state sizes in turn: a save recycles the files of the save
	// before last, so recycled files both shrink and grow under the
	// reader. They differ by a few hundred bytes; a shrink that frees
	// whole blocks would cost each save a discard.
	state := func(seq int) *State {
		st := sampleState(seq)
		st.Shards[0].Fuzzer.Queue[0].Data = make([]byte, 100*(seq%3))
		return st
	}
	manifests := make([][]byte, saves+1) // by seq, read back by the saver
	var (
		stop     atomic.Bool
		accepted []*Manifest
		loaded   []*State
		loads    []int
		wg       sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if man, err := ReadManifest(dir); err == nil {
				accepted = append(accepted, man)
			} else if !errors.Is(err, ErrNoCheckpoint) && !errors.Is(err, ErrCorrupt) {
				t.Errorf("ReadManifest: %v", err)
			}
			if st, man, err := Load(dir); err == nil {
				loaded, loads = append(loaded, st), append(loads, man.Seq)
			} else if !errors.Is(err, ErrNoCheckpoint) && !errors.Is(err, ErrCorrupt) {
				t.Errorf("Load: %v", err)
			}
		}
	}()
	for seq := 1; seq <= saves; seq++ {
		if err := s.Save(state(seq)); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err != nil {
			t.Fatal(err)
		}
		manifests[seq] = data
		// With no other writer, the saver's own read must succeed.
		st, _, err := Load(dir)
		if err != nil {
			t.Fatalf("save %d: %v", seq, err)
		}
		if !bytes.Equal(savedBytes(t, st), savedBytes(t, state(seq))) {
			t.Fatalf("save %d loads back different content", seq)
		}
	}
	stop.Store(true)
	wg.Wait()

	for _, man := range accepted {
		got, err := json.Marshal(man)
		if err != nil {
			t.Fatal(err)
		}
		if man.Seq < 1 || man.Seq > saves || !bytes.Equal(got, manifests[man.Seq]) {
			t.Fatalf("reader accepted a manifest no save wrote: %s", got)
		}
	}
	for i, st := range loaded {
		if !bytes.Equal(savedBytes(t, st), savedBytes(t, state(loads[i]))) {
			t.Fatalf("reader loaded a seq %d state no save wrote", loads[i])
		}
	}
	if len(accepted) == 0 || len(loaded) == 0 {
		t.Fatalf("reader accepted %d manifests and %d states; the race went unexercised", len(accepted), len(loaded))
	}
	t.Logf("reader accepted %d manifests and %d states over %d saves", len(accepted), len(loaded), saves)
}

// TestManifestReadDetectsRecycling replays, one step at a time, what a
// slow reader of the manifest can meet: the inode it opened is retired
// by the next save and rewritten — and made live again — by the save
// after. Either must make the read not count.
func TestManifestReadDetectsRecycling(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSaver(dir)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 3; seq++ {
		if err := s.Save(sampleState(seq)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, manifestName)
	// open opens the live manifest as a reader would, before reading.
	open := func() (*os.File, os.FileInfo) {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		fi, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		return f, fi
	}
	check := func(what string, f *os.File, before os.FileInfo, want bool) {
		t.Helper()
		if got, err := unchanged(f, path, before); err != nil || got != want {
			t.Fatalf("%s: unchanged = %v (%v), want %v", what, got, err, want)
		}
	}
	f, before := open()
	check("no save", f, before, true)

	if err := s.Save(sampleState(4)); err != nil {
		t.Fatal(err)
	}
	check("retired by one save", f, before, false)

	f, before = open()
	for seq := 5; seq <= 6; seq++ {
		if err := s.Save(sampleState(seq)); err != nil {
			t.Fatal(err)
		}
	}
	now, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, now) {
		t.Fatal("two saves did not bring the reader's inode back as the live manifest")
	}
	after, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() == before.Size() && changeTime(after) == changeTime(before) && after.ModTime().Equal(before.ModTime()) {
		t.Skip("this filesystem's timestamps did not move across two saves; nothing can tell the versions apart")
	}
	check("rewritten and live again", f, before, false)
}

// TestSaveRefusesAfterTrip: once the injected kill fires, the saver
// stays dead — like the process it simulates.
func TestSaveRefusesAfterTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSaver(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.InjectFault(1)
	if err := s.Save(sampleState(1)); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("err = %v", err)
	}
	if err := s.Save(sampleState(2)); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("post-trip save err = %v, want ErrInjectedFault", err)
	}
}

func TestNewSaverRejectsEmptyDir(t *testing.T) {
	if _, err := NewSaver(""); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("err = %v", err)
	}
}
