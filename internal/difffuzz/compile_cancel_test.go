package difffuzz

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compdiff/internal/telemetry"
)

// TestCompilePoolCancelFlushesTelemetry is the compile-oracle mirror
// of TestPoolCancelFlushesTelemetry: a ctx-cancelled sweep must leave
// a complete plot.jsonl — the final post-cancel snapshot recorded,
// flushed, and the recorder closed — rather than truncating the
// series at the last pre-cancel barrier as it used to.
func TestCompilePoolCancelFlushesTelemetry(t *testing.T) {
	corpus := compileCorpus()
	dir := t.TempDir()
	p, err := NewCompilePool(corpus, CompilePoolOptions{Shards: 2, SyncEvery: 2, StatsDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.hook = func(epoch, _ int) {
		if epoch == 2 {
			cancel()
		}
	}
	st := p.Run(ctx)
	if st.Programs >= int64(len(corpus)) {
		t.Fatal("cancellation did not stop the sweep")
	}

	data, err := os.ReadFile(filepath.Join(dir, "plot.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	snaps := p.Snapshots()
	if len(lines) != len(snaps) || len(snaps) < 2 {
		t.Fatalf("plot.jsonl has %d lines, in-memory series %d snapshots", len(lines), len(snaps))
	}
	var tail telemetry.Snapshot
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tail); err != nil {
		t.Fatalf("tail line does not parse: %v", err)
	}
	want := snaps[len(snaps)-1]
	if tail.Programs != want.Programs || tail.UniqueBuckets != want.UniqueBuckets ||
		tail.CompileDivergences != want.CompileDivergences || tail.ICEs != want.ICEs ||
		tail.DiagMismatches != want.DiagMismatches {
		t.Fatalf("tail line %+v does not match final snapshot %+v", tail, want)
	}
	// Cancellation is observed at epoch boundaries, so two epochs ran
	// two barrier records; the cancel path must append one more final
	// snapshot (the line a signal-driven exit would otherwise lose).
	if len(lines) != 3 {
		t.Fatalf("plot.jsonl has %d lines, want 3 (2 barriers + post-cancel flush)", len(lines))
	}
	if tail.Programs != st.Programs {
		t.Fatalf("tail records %d programs, Run returned %d", tail.Programs, st.Programs)
	}
	// The recorder was closed by the cancelled Run; Close is a no-op.
	p.Close()
}
