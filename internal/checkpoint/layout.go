package checkpoint

// Per-worker directory layout for a supervised fuzzing farm. The
// supervisor (internal/supervisor) runs N worker processes under one
// farm root; each worker owns a self-contained subtree holding its
// crash-safe checkpoint, its telemetry (plot.jsonl + heartbeat), its
// diff evidence, and its captured log:
//
//	<farm>/workers/worker-000/
//	    checkpoint/   MANIFEST.json, the current state-*.ckpt, and the
//	                  spares the next save rewrites: the previous
//	                  state-*.ckpt and MANIFEST.json.spare (this package)
//	    stats/        plot.jsonl, STATUS.json heartbeat
//	    diffs/        evidence files (core.DiffStore)
//	    worker.log    combined stdout+stderr of the worker process
//
// The layout lives here rather than in the supervisor because the
// checkpoint protocol is the worker hand-off format: a worker killed
// at any instant resumes from <dir>/checkpoint exactly like a
// single-process campaign resumes, and the supervisor only ever
// *reads* the subtree (manifest watermarks, heartbeats, plot tails,
// checkpointed finding sets).

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const workersSubdir = "workers"

// WorkerDirs names one worker's subtree of a farm root.
type WorkerDirs struct {
	// Root is the worker's directory, <farm>/workers/worker-NNN.
	Root string
	// Checkpoint holds the crash-safe campaign snapshot (Saver/Load).
	Checkpoint string
	// Stats holds plot.jsonl and the STATUS.json heartbeat.
	Stats string
	// Diff is the DiffStore directory (evidence under Diff/diffs/).
	Diff string
	// Heartbeat is the atomic per-barrier status file.
	Heartbeat string
	// Log is the worker process's combined stdout+stderr capture.
	Log string
}

// WorkerLayout computes (without creating) worker index's directories
// under the farm root.
func WorkerLayout(farm string, index int) WorkerDirs {
	root := filepath.Join(farm, workersSubdir, fmt.Sprintf("worker-%03d", index))
	return WorkerDirs{
		Root:       root,
		Checkpoint: filepath.Join(root, "checkpoint"),
		Stats:      filepath.Join(root, "stats"),
		Diff:       root,
		Heartbeat:  filepath.Join(root, "stats", "STATUS.json"),
		Log:        filepath.Join(root, "worker.log"),
	}
}

// EnsureWorker creates worker index's directories under the farm root
// (idempotent) and returns the layout.
func EnsureWorker(farm string, index int) (WorkerDirs, error) {
	d := WorkerLayout(farm, index)
	for _, dir := range []string{d.Root, d.Checkpoint, d.Stats} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return WorkerDirs{}, fmt.Errorf("checkpoint: worker layout: %w", err)
		}
	}
	return d, nil
}

// ListWorkers returns the sorted indexes of the worker directories
// that exist under the farm root. A missing workers/ directory is an
// empty farm, not an error — a fresh -serve run starts there.
func ListWorkers(farm string) ([]int, error) {
	entries, err := os.ReadDir(filepath.Join(farm, workersSubdir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("checkpoint: list workers: %w", err)
	}
	var out []int
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "worker-") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimPrefix(e.Name(), "worker-"))
		if err != nil || n < 0 {
			continue
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}

// ReadManifest loads and validates just the checkpoint manifest in
// dir — the cheap watermark read the supervisor performs after every
// worker exit (SpentExecs is the durable progress watermark; loading
// the full state would decode every stored finding).
func ReadManifest(dir string) (*Manifest, error) {
	return loadManifest(dir)
}
