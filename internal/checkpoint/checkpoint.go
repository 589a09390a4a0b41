// Package checkpoint makes long fuzzing campaigns durable: it
// serializes a campaign pool's complete state — per-shard fuzzer
// queues and RNG cursors, the shared DiffStore and triage BucketStore,
// telemetry counters, and a hash of the campaign options — into a
// versioned on-disk snapshot that survives SIGKILL at any instant.
//
// Crash safety comes from the classic write-ahead protocol:
//
//  1. the state file is written to a temp name, fsynced, and
//     atomically renamed into place;
//  2. only then is MANIFEST.json (which names the state file and pins
//     its size and checksum) itself written via the same
//     temp+fsync+rename dance;
//  3. only after the new manifest is durable do the old state file
//     and the old manifest inode become spares, which the next save
//     overwrites in place as its temp files.
//
// A kill between any two steps leaves either the previous checkpoint
// (manifest still points at the old, still-present state file) or the
// new one — never a torn mix. Load verifies the manifest's size and
// MurmurHash3 checksum against the state file before decoding, so
// truncation or bit rot is detected as ErrCorrupt rather than
// mis-loaded.
//
// Step 3 recycles instead of deleting because a save must free no
// disk blocks: unlinking a file, renaming over one or truncating one
// costs tens of milliseconds on a filesystem mounted with discard,
// while every shard waits at the barrier. The price is a directory of
// four files — the manifest, the current state file, a spare state
// file and MANIFEST.json.spare — holding up to twice the state size.
// Only spares this saver retired are rewritten; those an earlier
// process left are collected.
//
// The snapshot is taken at a pool synchronization barrier, which is
// the one moment a sharded campaign is single-threaded and its shard
// stores, shared stores, and counters are mutually consistent — the
// same reasoning that makes barriers the merge point (DESIGN §8.2)
// makes them the consistency point here.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"compdiff/internal/core"
	"compdiff/internal/evolve"
	"compdiff/internal/fuzz"
	"compdiff/internal/hash"
	"compdiff/internal/telemetry"
	"compdiff/internal/triage"
)

// Version is the snapshot schema version. Load rejects any other.
const Version = 1

const (
	manifestName = "MANIFEST.json"
	// spareManifestName keeps the previous manifest inode between saves.
	spareManifestName = "MANIFEST.json.spare"
	statePrefix       = "state-"
	stateSuffix       = ".ckpt"
	tmpSuffix         = ".tmp"
)

var (
	// ErrNoCheckpoint reports that the directory holds no manifest —
	// callers typically fall back to a fresh start.
	ErrNoCheckpoint = errors.New("checkpoint: no checkpoint found")
	// ErrCorrupt reports a manifest or state file that is unreadable,
	// truncated, or fails its checksum. Never returned for a merely
	// absent checkpoint.
	ErrCorrupt = errors.New("checkpoint: corrupt or truncated checkpoint")
	// ErrMismatch reports a checkpoint whose campaign options hash does
	// not match the resuming campaign — a user error (exit 2 in the
	// CLI), not a corruption.
	ErrMismatch = errors.New("checkpoint: campaign options do not match checkpoint")
	// ErrInjectedFault is returned by Save when a test-injected fault
	// budget runs out, simulating a SIGKILL mid-save.
	ErrInjectedFault = errors.New("checkpoint: injected fault (simulated kill)")
)

// State is one complete campaign snapshot. Every field round-trips
// through JSON exactly (slices in deterministic order, no maps), so
// save → load → save is byte-identical — the property the round-trip
// test pins.
type State struct {
	Version     int    `json:"version"`
	OptionsHash uint64 `json:"options_hash"`
	// SpentExecs is the cumulative per-shard execution budget consumed
	// across all Run calls so far.
	SpentExecs int64 `json:"spent_execs"`
	// PersistErrors is the pool-level count of DiffStore persistence
	// failures (satellite telemetry, carried across resume).
	PersistErrors int64        `json:"persist_errors,omitempty"`
	Shards        []ShardState `json:"shards"`
	// Diffs and DiffTotal mirror the shared pool DiffStore: unique
	// discrepancies in discovery order, with full outcomes so resumed
	// campaigns can still render reports.
	Diffs     []*core.StoredDiff `json:"diffs"`
	DiffTotal int                `json:"diff_total"`
	// Buckets and BucketTotal mirror the pool triage BucketStore.
	Buckets     []triage.BucketSnapshot `json:"buckets"`
	BucketTotal int                     `json:"bucket_total"`
	// Compile is set only by compile-oracle (program-corpus)
	// campaigns, which have no fuzzer shards: their durable state is a
	// corpus cursor plus per-shard counters and bucket skeletons.
	Compile *CompileCampaignState `json:"compile,omitempty"`
	// Evolve is set only by evolutionary campaigns: the current
	// population, generation, cumulative pass coverage, and counters.
	Evolve *EvolveCampaignState `json:"evolve,omitempty"`
}

// ShardState is one shard's slice of the snapshot.
type ShardState struct {
	Index int  `json:"index"`
	Dead  bool `json:"dead,omitempty"`
	// Fuzzer is the shard's complete fuzzer state (queue, coverage,
	// RNG cursors).
	Fuzzer *fuzz.State `json:"fuzzer"`
	// QueueSeen lists the queue-entry hashes this shard has already
	// cross-pollinated to its siblings, sorted.
	QueueSeen []uint64 `json:"queue_seen,omitempty"`
	DiffExecs int64    `json:"diff_execs"`
	// PersistErrors is the shard campaign's DiffStore error count.
	PersistErrors int64 `json:"persist_errors,omitempty"`
	// Diffs/DiffTotal are the shard-local store in skeleton form
	// (signatures and counts, no outcomes): enough to keep dedup
	// freshness and barrier recounts exact across a resume.
	Diffs     []*core.StoredDiff `json:"shard_diffs,omitempty"`
	DiffTotal int                `json:"shard_diff_total"`
	// Buckets/BucketTotal are the shard-local triage store, likewise
	// skeletal.
	Buckets     []triage.BucketSnapshot `json:"shard_buckets,omitempty"`
	BucketTotal int                     `json:"shard_bucket_total"`
	// Metrics is nil when the campaign ran without telemetry.
	Metrics *MetricsState `json:"metrics,omitempty"`
}

// CompileCampaignState is a compile-oracle campaign's slice of the
// snapshot: which prefix of the program corpus is fully processed and
// merged, plus the per-shard counters and bucket skeletons needed to
// make resume equivalent to an uninterrupted run.
type CompileCampaignState struct {
	// Cursor is the number of corpus programs processed and merged;
	// resume continues from this index.
	Cursor int `json:"cursor"`
	// CorpusLen pins the corpus size the cursor indexes into.
	CorpusLen int                 `json:"corpus_len"`
	Shards    []CompileShardState `json:"shards"`
}

// CompileShardState is one compile-oracle shard's counters plus its
// shard-local bucket store in skeleton form (no representative
// outcomes — enough for dedup freshness and exact recounts).
type CompileShardState struct {
	Index           int                     `json:"index"`
	Dead            bool                    `json:"dead,omitempty"`
	Programs        int64                   `json:"programs"`
	Accepted        int64                   `json:"accepted"`
	FrontendRejects int64                   `json:"frontend_rejects"`
	Findings        int64                   `json:"findings"`
	Buckets         []triage.BucketSnapshot `json:"shard_buckets,omitempty"`
	BucketTotal     int                     `json:"shard_bucket_total"`
}

// EvolveCampaignState is an evolutionary campaign's slice of the
// snapshot. Snapshots are taken only at generation barriers — the one
// moment the population, cumulative coverage, and bucket store are
// mutually consistent — so no RNG or mid-generation state appears
// here: every per-generation RNG stream is re-derived from
// (seed, generation), and a kill mid-generation resumes by
// re-evaluating the checkpointed population deterministically.
type EvolveCampaignState struct {
	// Generation is the next generation to evaluate.
	Generation int `json:"generation"`
	// Genomes is the current population in index order.
	Genomes []evolve.Genome `json:"genomes"`
	// CumBits is the cumulative per-implementation fired-rewrite
	// bitmap (suite order), the base NewBits fitness is scored against.
	CumBits []uint32 `json:"cum_bits"`
	// Counters, cumulative across the campaign.
	Programs        int64 `json:"programs"`
	FrontendRejects int64 `json:"frontend_rejects"`
	Findings        int64 `json:"findings"`
	// BestFitness and MeanFitness are the last evaluated generation's
	// fitness telemetry, so a resumed-and-complete campaign reprints
	// the same summary as the run that wrote the checkpoint.
	BestFitness float64 `json:"best_fitness,omitempty"`
	MeanFitness float64 `json:"mean_fitness,omitempty"`
}

// MetricsState is one shard's telemetry counters.
type MetricsState struct {
	Execs     int64                       `json:"execs"`
	DiffExecs int64                       `json:"diff_execs"`
	Classes   [telemetry.NumClasses]int64 `json:"classes"`
	Impls     []telemetry.ImplSummary     `json:"impls,omitempty"`
}

// Manifest points at the current state file and pins its integrity.
type Manifest struct {
	Version     int    `json:"version"`
	OptionsHash uint64 `json:"options_hash"`
	Seq         int    `json:"seq"`
	StateFile   string `json:"state_file"`
	StateSize   int64  `json:"state_size"`
	// StateSum is the MurmurHash3-128 of the state file bytes, hex.
	StateSum   string `json:"state_sum"`
	SpentExecs int64  `json:"spent_execs"`
	Shards     int    `json:"shards"`
}

// Exists reports whether dir holds a checkpoint manifest (readable or
// not) — the guard a fresh campaign uses to refuse clobbering one.
func Exists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// fault is the test seam that simulates a SIGKILL mid-save: each file
// operation spends one unit of budget (writes may also stop halfway),
// and once the budget is gone every subsequent operation fails — as
// after a real kill, nothing later in the protocol runs.
type fault struct {
	budget  int
	tripped bool
}

// Saver writes snapshots into one directory with increasing sequence
// numbers. Not safe for concurrent use; the pool calls it only at
// barriers.
type Saver struct {
	dir string
	seq int
	// live is the state file the durable manifest names; "" before the
	// first save into an empty directory.
	live string
	// spareState and spareManifest are the files this saver retired
	// after a durable manifest switch: the previous state file, and the
	// previous manifest inode kept under spareManifestName. The next
	// Save rewrites them in place as its temp files. Freeing a file's
	// blocks (unlink, rename over it, O_TRUNC) costs tens of
	// milliseconds on a filesystem mounted with discard; overwriting
	// blocks already allocated costs no more than writing new ones.
	spareState    string
	spareManifest bool
	fault         *fault
}

// NewSaver prepares dir for checkpointing. If a manifest already
// exists, the sequence continues after it (the resume path); callers
// that want to refuse an existing checkpoint should consult Exists
// first. Spare files an earlier process left behind are never reused:
// the first successful Save collects them.
func NewSaver(dir string) (*Saver, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	s := &Saver{dir: dir}
	if man, err := loadManifest(dir); err == nil {
		s.seq, s.live = man.Seq, man.StateFile
	}
	return s, nil
}

// Seq returns the sequence number of the last successful Save (or of
// the manifest the saver resumed after).
func (s *Saver) Seq() int { return s.seq }

// InjectFault arms the test seam: the next Save fails — leaving
// whatever partial files a kill would leave — once ops file
// operations have been spent. All Saves after the trip fail too.
func (s *Saver) InjectFault(ops int) { s.fault = &fault{budget: ops} }

// op spends one unit of fault budget; once spent, the saver behaves
// as a killed process: nothing further succeeds.
func (s *Saver) op() error {
	if s.fault == nil {
		return nil
	}
	if s.fault.tripped || s.fault.budget <= 0 {
		s.fault.tripped = true
		return ErrInjectedFault
	}
	s.fault.budget--
	return nil
}

// Save writes st as the next checkpoint and returns once the new
// manifest is durable. On any error (including an injected kill) the
// previous checkpoint remains loadable; the new one becomes visible
// only when its manifest rename completes.
func (s *Saver) Save(st *State) error {
	st.Version = Version
	data, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	seq := s.seq + 1
	stateFile := fmt.Sprintf("%s%06d%s", statePrefix, seq, stateSuffix)
	spare := s.spareState
	s.spareState = ""
	if err := s.writeTemp(stateFile+tmpSuffix, data, spare); err != nil {
		return err
	}
	if err := s.commit(stateFile+tmpSuffix, stateFile); err != nil {
		return err
	}
	man := Manifest{
		Version:     Version,
		OptionsHash: st.OptionsHash,
		Seq:         seq,
		StateFile:   stateFile,
		StateSize:   int64(len(data)),
		StateSum:    sumHex(data),
		SpentExecs:  st.SpentExecs,
		Shards:      len(st.Shards),
	}
	mdata, err := json.Marshal(&man)
	if err != nil {
		return fmt.Errorf("checkpoint: encode manifest: %w", err)
	}
	spare = ""
	if s.spareManifest {
		spare = spareManifestName
	}
	s.spareManifest = false
	if err := s.writeTemp(manifestName+tmpSuffix, mdata, spare); err != nil {
		return err
	}
	if err := s.op(); err != nil {
		return err
	}
	linked := s.linkSpareManifest()
	if err := s.commit(manifestName+tmpSuffix, manifestName); err != nil {
		return err
	}
	s.seq = seq
	s.spareManifest = linked
	s.spareState, s.live = s.live, stateFile
	s.gc()
	return nil
}

// writeTemp writes data to tmp and fsyncs it. A non-empty spare names a
// file this saver retired; it is renamed to tmp — a rename to a fresh
// name frees nothing — and overwritten in place. Without a spare, or
// when the rename fails, tmp is created afresh.
func (s *Saver) writeTemp(tmp string, data []byte, spare string) error {
	path := filepath.Join(s.dir, tmp)
	flag := os.O_CREATE | os.O_TRUNC | os.O_WRONLY
	if spare != "" {
		if err := s.op(); err != nil {
			return err
		}
		if os.Rename(filepath.Join(s.dir, spare), path) == nil {
			flag = os.O_WRONLY
		}
	}
	if err := s.op(); err != nil {
		return err
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if ferr := s.op(); ferr != nil {
		// Simulated kill mid-write: leave a torn temp file behind,
		// exactly what a real kill during write(2) can produce.
		_, _ = f.Write(data[:len(data)/2])
		f.Close()
		return ferr
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	// A recycled file may be longer than data; a fresh one is not.
	if err := f.Truncate(int64(len(data))); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if ferr := s.op(); ferr != nil {
		f.Close()
		return ferr
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// commit renames the fsynced tmp over name and fsyncs the directory. A
// kill at any point leaves either the old name intact or the new
// content fully in place; .tmp leftovers are ignored by Load and
// collected by gc.
func (s *Saver) commit(tmp, name string) error {
	if err := s.op(); err != nil {
		return err
	}
	if err := os.Rename(filepath.Join(s.dir, tmp), filepath.Join(s.dir, name)); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := s.op(); err != nil {
		return err
	}
	syncDir(s.dir)
	return nil
}

// linkSpareManifest hard-links the live manifest to spareManifestName,
// so the rename of the new manifest over it drops a link instead of
// freeing an inode. A spare name already there was left by an earlier
// process and is replaced; after a kill between this link and the
// rename it is the live manifest itself, so dropping the name frees
// nothing. Reports whether the spare now exists; it does not before the
// first save into an empty directory.
func (s *Saver) linkSpareManifest() bool {
	live, spare := filepath.Join(s.dir, manifestName), filepath.Join(s.dir, spareManifestName)
	err := os.Link(live, spare)
	if errors.Is(err, fs.ErrExist) {
		_ = os.Remove(spare)
		err = os.Link(live, spare)
	}
	return err == nil
}

// gc removes what neither the durable manifest nor this saver's spares
// name: older state files, stale temp files, and a spare manifest the
// saver does not own. In steady state there is nothing to remove.
// Failures are ignored: leftovers are harmless and re-collected by the
// next successful save.
func (s *Saver) gc() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case name == manifestName || name == s.live || name == s.spareState:
			continue
		case name == spareManifestName:
			if s.spareManifest {
				continue
			}
		case strings.HasSuffix(name, tmpSuffix):
		case strings.HasPrefix(name, statePrefix) && strings.HasSuffix(name, stateSuffix):
		default:
			continue
		}
		if s.op() != nil {
			return
		}
		_ = os.Remove(filepath.Join(s.dir, name))
	}
}

// syncDir fsyncs a directory so a completed rename is durable. Best
// effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

func sumHex(data []byte) string {
	d := hash.New128(0x5afe)
	d.Write(data)
	h1, h2 := d.Sum128()
	return fmt.Sprintf("%016x%016x", h1, h2)
}

// readRetries bounds how often a reader retries a read that a
// concurrent Save overlapped.
const readRetries = 8

func loadManifest(dir string) (*Manifest, error) {
	data, err := readManifestFile(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNoCheckpoint
		}
		return nil, fmt.Errorf("%w: reading manifest: %v", ErrCorrupt, err)
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	if man.Version != Version {
		return nil, fmt.Errorf("%w: manifest version %d, want %d", ErrCorrupt, man.Version, Version)
	}
	if man.StateFile == "" || man.StateFile != filepath.Base(man.StateFile) {
		return nil, fmt.Errorf("%w: manifest names invalid state file %q", ErrCorrupt, man.StateFile)
	}
	return &man, nil
}

// readManifestFile returns the manifest's bytes as one version of the
// file held them. A retired manifest inode is rewritten by the save
// after next, and the manifest carries no checksum of its own, so a
// reader in another process (the supervisor's Status) that is still
// reading a retired inode could see a mix of two manifests. A read
// counts only when the file's size, mtime and ctime are the same
// before and after it and the name still leads to the inode read;
// otherwise it is retried.
func readManifestFile(dir string) ([]byte, error) {
	path := filepath.Join(dir, manifestName)
	for try := 0; ; try++ {
		data, stable, err := readStable(path)
		if err != nil || stable {
			return data, err
		}
		if try == readRetries {
			return nil, fmt.Errorf("manifest changed during %d reads", readRetries+1)
		}
	}
}

// readStable reads path and reports whether the read overlapped no
// change to the file (see readManifestFile).
func readStable(path string) ([]byte, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	before, err := f.Stat()
	if err != nil {
		return nil, false, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, false, err
	}
	stable, err := unchanged(f, path, before)
	return data, stable, err
}

// unchanged reports whether f, opened as path and stat'ed as before,
// still has the same size, mtime and ctime, and whether path still
// names it.
func unchanged(f *os.File, path string, before os.FileInfo) (bool, error) {
	after, err := f.Stat()
	if err != nil {
		return false, err
	}
	now, err := os.Stat(path)
	if err != nil {
		return false, nil
	}
	return before.Size() == after.Size() && before.ModTime().Equal(after.ModTime()) &&
		changeTime(before) == changeTime(after) && os.SameFile(after, now), nil
}

// Load reads and verifies the current checkpoint in dir. It returns
// ErrNoCheckpoint when no manifest exists, and ErrCorrupt (wrapped
// with detail) when the manifest or state file is damaged — never a
// partially-decoded state.
func Load(dir string) (*State, *Manifest, error) {
	for try := 0; ; try++ {
		man, err := loadManifest(dir)
		if err != nil {
			return nil, nil, err
		}
		st, err := loadState(dir, man)
		if err == nil {
			return st, man, nil
		}
		// A concurrent Save recycles a state file two saves after the
		// manifest that named it; retry only if the manifest moved on.
		if try == readRetries {
			return nil, nil, err
		}
		if now, merr := loadManifest(dir); merr != nil || *now == *man {
			return nil, nil, err
		}
	}
}

// loadState reads and verifies the state file man names.
func loadState(dir string, man *Manifest) (*State, error) {
	data, err := os.ReadFile(filepath.Join(dir, man.StateFile))
	if err != nil {
		return nil, fmt.Errorf("%w: state file %s: %v", ErrCorrupt, man.StateFile, err)
	}
	if int64(len(data)) != man.StateSize {
		return nil, fmt.Errorf("%w: state file %s is %d bytes, manifest pins %d",
			ErrCorrupt, man.StateFile, len(data), man.StateSize)
	}
	if sum := sumHex(data); sum != man.StateSum {
		return nil, fmt.Errorf("%w: state file %s checksum %s, manifest pins %s",
			ErrCorrupt, man.StateFile, sum, man.StateSum)
	}
	var st State
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("%w: state decode: %v", ErrCorrupt, err)
	}
	if st.Version != man.Version || st.OptionsHash != man.OptionsHash || len(st.Shards) != man.Shards {
		return nil, fmt.Errorf("%w: state/manifest disagree", ErrCorrupt)
	}
	return &st, nil
}
