package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"compdiff/internal/fuzz"
)

// FuzzCheckpointLoad feeds Load mutated manifest and state bytes: a
// checkpoint directory is input from outside the process. Load must
// not panic, must fail only with ErrCorrupt or ErrNoCheckpoint, and a
// state it returns must round-trip — saved again and loaded back, it
// encodes to the same bytes. An empty manifest means no manifest file.
// With repin set, a manifest that decodes has its state size and
// checksum re-pinned to the state bytes, so mutations reach the state
// decoder and its cross-checks instead of stopping at the checksum.
func FuzzCheckpointLoad(f *testing.F) {
	// A small seed state keeps every input the fuzzer derives from it
	// small enough to minimize: minimization tries on the order of n²
	// candidates for an n-byte input.
	st := &State{OptionsHash: 7, SpentExecs: 40, Shards: []ShardState{{
		Fuzzer:    &fuzz.State{Queue: []*fuzz.Seed{{Data: []byte("a"), CovBits: 1, Hash: 1}}, Hashes: []uint64{1}},
		QueueSeen: []uint64{1},
	}}}
	seed := f.TempDir()
	s, err := NewSaver(seed)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Save(st); err != nil {
		f.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(seed, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	state, err := os.ReadFile(filepath.Join(seed, stateName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(manifest, state, false)
	f.Add(manifest, state, true)
	f.Add(manifest, []byte(`{"version":1,"shards":[{"fuzzer":null}]}`), true)
	f.Add([]byte(nil), state, false)

	// One input directory and one round-trip saver per fuzzing process,
	// reused across inputs. Each input's files replace the last ones by
	// unlink and create: those files were never written back, so no
	// disk blocks are freed, whereas truncating them or a fresh
	// directory per input frees blocks, and on a filesystem mounted with
	// discard the round trip's fsyncs then wait seconds. The saver is
	// warmed up to its steady state, so every round trip recycles its
	// files and covers the same code.
	in := f.TempDir()
	rt, err := NewSaver(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	for range 2 {
		if err := rt.Save(st); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, manifest, state []byte, repin bool) {
		if repin {
			var m Manifest
			if json.Unmarshal(manifest, &m) == nil {
				m.StateSize, m.StateSum = int64(len(state)), sumHex(state)
				var err error
				if manifest, err = json.Marshal(&m); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, name := range []string{manifestName, stateName(1)} {
			if err := os.Remove(filepath.Join(in, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				t.Fatal(err)
			}
		}
		if len(manifest) > 0 {
			if err := os.WriteFile(filepath.Join(in, manifestName), manifest, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(in, stateName(1)), state, 0o644); err != nil {
			t.Fatal(err)
		}
		st, _, err := Load(in)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("Load failed outside its sentinels: %v", err)
			}
			return
		}
		want, err := json.Marshal(st)
		if err != nil {
			t.Fatalf("loaded state does not encode: %v", err)
		}
		if err := rt.Save(st); err != nil {
			t.Fatalf("loaded state does not save: %v", err)
		}
		again, _, err := Load(rt.dir)
		if err != nil {
			t.Fatalf("saved state does not load: %v", err)
		}
		got, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("state does not round-trip:\n%s\nvs\n%s", want, got)
		}
	})
}
