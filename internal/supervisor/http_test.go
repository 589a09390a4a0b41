package supervisor

// Control-plane handler tests over a synthetic farm: worker subtrees
// with hand-written checkpoints and plot files, so the merge and
// dedup arithmetic is exact, plus method/parameter enforcement.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	pathpkg "path"
	"path/filepath"
	"strings"
	"testing"

	"compdiff/internal/checkpoint"
	"compdiff/internal/core"
	"compdiff/internal/telemetry"
	"compdiff/internal/triage"
)

// synthWorker lays out worker index under farm with a checkpoint
// holding the given findings and a plot.jsonl of the given snapshots.
func synthWorker(t testing.TB, farm string, index int, spent int64, diffs []*core.StoredDiff, buckets []triage.BucketSnapshot, snaps ...telemetry.Snapshot) {
	t.Helper()
	dirs, err := checkpoint.EnsureWorker(farm, index)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := checkpoint.NewSaver(dirs.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	dt, bt := 0, 0
	for _, d := range diffs {
		dt += d.Count
	}
	for _, b := range buckets {
		bt += b.Count
	}
	st := &checkpoint.State{OptionsHash: 0xfa4e, SpentExecs: spent,
		Diffs: diffs, DiffTotal: dt, Buckets: buckets, BucketTotal: bt}
	if err := sv.Save(st); err != nil {
		t.Fatal(err)
	}
	var plot strings.Builder
	for _, s := range snaps {
		line, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		plot.Write(line)
		plot.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(dirs.Stats, "plot.jsonl"), []byte(plot.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// synthFarm lays out a two-worker synthetic farm whose merge and dedup
// arithmetic TestControlPlaneMergesSyntheticFarm checks.
func synthFarm(t testing.TB) string {
	t.Helper()
	farm := t.TempDir()
	bucket := func(key uint64, kind triage.Kind, count int) triage.BucketSnapshot {
		return triage.BucketSnapshot{Key: key, Fingerprint: triage.Fingerprint{Kind: kind}, Count: count}
	}
	// Worker 0 and worker 1 overlap on signature 0xaa and bucket 0x1:
	// the dedup union must count them once, the totals must sum.
	synthWorker(t, farm, 0, 600,
		[]*core.StoredDiff{{Signature: 0xaa, Count: 3}, {Signature: 0xbb, Count: 1}},
		[]triage.BucketSnapshot{bucket(0x1, triage.KindRuntime, 3), bucket(0x2, triage.KindICE, 1)},
		telemetry.Snapshot{UnixMs: 100, ElapsedMs: 2000, Execs: 1200, OK: 1190, Diff: 10, UniqueDiffs: 2, Queue: 7},
		telemetry.Snapshot{UnixMs: 200, ElapsedMs: 4000, Execs: 2400, OK: 2380, Diff: 20, UniqueDiffs: 2, Queue: 9})
	synthWorker(t, farm, 1, 400,
		[]*core.StoredDiff{{Signature: 0xaa, Count: 2}, {Signature: 0xcc, Count: 5}},
		[]triage.BucketSnapshot{bucket(0x1, triage.KindRuntime, 2)},
		telemetry.Snapshot{UnixMs: 150, ElapsedMs: 1000, Execs: 600, OK: 595, Diff: 5, UniqueDiffs: 2, Queue: 3})
	return farm
}

func TestControlPlaneMergesSyntheticFarm(t *testing.T) {
	s, err := New(Config{Farm: synthFarm(t), Workers: 2, Command: fakeCommand("fail", 0, 0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var health struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
		Paused  bool   `json:"paused"`
	}
	getJSON(t, srv.URL+"/healthz", &health)
	if health.Status != "ok" || health.Paused {
		t.Fatalf("healthz = %+v", health)
	}

	var stats FarmStats
	getJSON(t, srv.URL+"/stats", &stats)
	if stats.Merged.Execs != 3000 {
		t.Fatalf("merged execs = %d, want 2400+600", stats.Merged.Execs)
	}
	if stats.Merged.Queue != 12 {
		t.Fatalf("merged queue = %d, want 9+3 (latest lines only)", stats.Merged.Queue)
	}
	if stats.UniqueSignatures != 3 {
		t.Fatalf("unique signatures = %d, want 3 (aa shared)", stats.UniqueSignatures)
	}
	if stats.UniqueBuckets != 2 {
		t.Fatalf("unique buckets = %d, want 2 (0x1 shared)", stats.UniqueBuckets)
	}
	if stats.Merged.UniqueDiffs != 4 {
		t.Fatalf("summed per-worker unique diffs = %d, want 4 (the pre-dedup upper bound)", stats.Merged.UniqueDiffs)
	}
	if stats.TotalDiffInputs != 11 || stats.BucketTotal != 6 {
		t.Fatalf("totals = %d/%d, want 11/6", stats.TotalDiffInputs, stats.BucketTotal)
	}

	var findings struct {
		Unique   int           `json:"unique"`
		Findings []FarmFinding `json:"findings"`
	}
	getJSON(t, srv.URL+"/findings", &findings)
	if findings.Unique != 3 {
		t.Fatalf("findings unique = %d", findings.Unique)
	}
	// 0xcc has the highest merged count (5), then 0xaa (3+2 = 5 ties,
	// smaller signature first... 0xaa < 0xcc with equal counts).
	if findings.Findings[0].Signature != 0xaa || findings.Findings[0].Count != 5 || findings.Findings[0].Workers != 2 {
		t.Fatalf("top finding = %+v", findings.Findings[0])
	}

	var buckets struct {
		Unique  int          `json:"unique"`
		Buckets []FarmBucket `json:"buckets"`
	}
	getJSON(t, srv.URL+"/buckets", &buckets)
	if buckets.Unique != 2 {
		t.Fatalf("buckets unique = %d", buckets.Unique)
	}
	if b := buckets.Buckets[0]; b.Key != 0x1 || b.Count != 5 || b.Workers != 2 || b.Kind != "runtime" {
		t.Fatalf("top bucket = %+v", b)
	}
	if b := buckets.Buckets[1]; b.Key != 0x2 || b.Kind != "ice" {
		t.Fatalf("second bucket = %+v", b)
	}

	// /plot tails raw JSONL. Worker 0 has two lines; n=1 keeps the last.
	resp, err := http.Get(srv.URL + "/plot?worker=0&n=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 1 {
		t.Fatalf("plot tail has %d lines", len(lines))
	}
	var tail telemetry.Snapshot
	if err := json.Unmarshal([]byte(lines[0]), &tail); err != nil {
		t.Fatal(err)
	}
	if tail.Execs != 2400 {
		t.Fatalf("plot tail execs = %d", tail.Execs)
	}
	// A worker with no plot yet streams nothing, not an error.
	resp, err = http.Get(srv.URL + "/plot?worker=9")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != 0 {
		t.Fatalf("missing plot: %d %q", resp.StatusCode, body)
	}
}

func TestControlPlaneMutationsAndMethods(t *testing.T) {
	s, err := New(Config{Farm: t.TempDir(), Workers: 1, Command: fakeCommand("fail", 0, 0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Mutations are POST-only.
	for _, path := range []string{"/pause", "/resume", "/reshard?workers=2"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s = %d, want 405", path, resp.StatusCode)
		}
	}
	// Reads reject POST.
	resp, err := http.Post(srv.URL+"/stats", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /stats = %d, want 405", resp.StatusCode)
	}

	post := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post("/pause"); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /pause = %d", resp.StatusCode)
	}
	if !s.Paused() {
		t.Fatal("pause did not take")
	}
	var health struct {
		Paused bool `json:"paused"`
	}
	getJSON(t, srv.URL+"/healthz", &health)
	if !health.Paused {
		t.Fatal("healthz does not reflect pause")
	}
	if resp := post("/resume"); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /resume = %d", resp.StatusCode)
	}
	if s.Paused() {
		t.Fatal("resume did not take")
	}

	// Reshard parameter validation, and conflict before Start.
	if resp := post("/reshard"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /reshard without workers = %d, want 400", resp.StatusCode)
	}
	if resp := post("/reshard?workers=0"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /reshard?workers=0 = %d, want 400", resp.StatusCode)
	}
	if resp := post("/reshard?workers=2"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("POST /reshard before Start = %d, want 409", resp.StatusCode)
	}

	// Events: watermark arithmetic over the supervisor's own log.
	s.events.add(0, EventSpawn, "pid 1")
	s.events.add(0, EventExit, "exit 0, spent 0")
	var events struct {
		Events    []Event `json:"events"`
		Gap       bool    `json:"gap"`
		NextSince int64   `json:"next_since"`
	}
	getJSON(t, srv.URL+"/events", &events)
	// The pause/resume above also logged farm events.
	if len(events.Events) < 2 || events.Gap {
		t.Fatalf("events = %+v", events)
	}
	if events.NextSince != events.Events[len(events.Events)-1].Seq {
		t.Fatalf("next_since = %d", events.NextSince)
	}
	getJSON(t, srv.URL+fmt.Sprintf("/events?since=%d", events.NextSince), &events)
	if len(events.Events) != 0 || events.Gap {
		t.Fatalf("caught-up events = %+v", events)
	}
	resp, err = http.Get(srv.URL + "/events?since=junk")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since = %d, want 400", resp.StatusCode)
	}
}

// FuzzSupervisorHandler drives the control plane with arbitrary
// requests: method, path, raw query and body. The supervisor is never
// started, so no request can launch a worker (/reshard answers 409).
// Every request must be answered without a panic, with a status the
// handlers can produce, and with a decodable body whenever the
// response claims JSON. Paths are cleaned first: the mux answers an
// unclean path with a redirect before any handler runs.
func FuzzSupervisorHandler(f *testing.F) {
	f.Add("GET", "/healthz", "", "")
	f.Add("GET", "/stats", "", "")
	f.Add("GET", "/plot", "worker=0&n=1", "")
	f.Add("GET", "/plot", "worker=-3&n=-1", "")
	f.Add("GET", "/buckets", "", "")
	f.Add("GET", "/findings", "", "")
	f.Add("GET", "/events", "since=x", "")
	f.Add("POST", "/pause", "", "{}")
	f.Add("POST", "/resume", "", "")
	f.Add("POST", "/reshard", "workers=2", "")
	f.Add("POST", "/reshard", "workers=%zz;", "")
	f.Add("DELETE", "/nope", "", "\x00")
	s, err := New(Config{Farm: synthFarm(f), Workers: 2, Command: fakeCommand("fail", 0, 0, 0)})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, method, path, query, body string) {
		req := &http.Request{
			Method: method,
			URL:    &url.URL{Path: pathpkg.Clean("/" + path), RawQuery: query},
			Header: http.Header{},
			Body:   io.NopCloser(strings.NewReader(body)),
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed, http.StatusConflict:
		default:
			t.Fatalf("%s %s?%s: status %d", method, req.URL.Path, query, rec.Code)
		}
		if rec.Header().Get("Content-Type") == "application/json" {
			var v any
			if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
				t.Fatalf("%s %s?%s: %d body is not JSON: %v\n%s", method, req.URL.Path, query, rec.Code, err, rec.Body.Bytes())
			}
		}
		if n := len(s.Status()); n != 0 {
			t.Fatalf("%s %s?%s started %d workers", method, req.URL.Path, query, n)
		}
	})
}
