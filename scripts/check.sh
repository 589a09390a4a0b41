#!/bin/sh
# Tier-1 gate; `make check` runs it. Vet, build, race-enabled tests
# and the named equivalence steps, the bench and native-fuzz smokes,
# coverage floors and the CLI smokes. Usage: scripts/check.sh
# [fuzztime], e.g. `scripts/check.sh 30s`.
set -eu

cd "$(dirname "$0")/.."
FUZZTIME="${1:-10s}"

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

# benchmark/ is a nested module, so ./... above never reaches it. Its
# driver-equals-pool tests pin the campaign engine's behavior for
# every mode, including byte-identical Pool checkpoint JSON.
echo "== benchmark module (vet, test)"
(cd benchmark && go vet . && go test .)

# The interpreter differential self-test must hold under the race
# detector: the fast loop and the reference loop share machine state,
# and this is the gate that keeps them observationally identical. The
# full ./... run above includes it; naming it here makes the guard
# explicit and fails fast if the test is ever renamed away. The image
# test holds the page-restore rule to the full-size reference image,
# and the coverage self-test holds the edge bitmap and its touched-word
# summary equal between the loops. The rebind test holds a machine
# rebound across programs to a new machine of the new program. The
# soak test holds the mapping count and resident set flat while
# machines whose memory is a copy-on-write mapping come and go, and
# the cross builds keep the Go-heap fallback of other platforms
# compiling.
echo "== vm differential self-test (-race)"
go test -race -run 'TestDifferentialSelfTest|TestRunSharedMatchesRun|TestStepLimitBatchAccounting|TestMachineImageMatchesReference|TestDifferentialSelfTestCoverage|TestMachineRebindMatchesNew|TestMachineMemorySoak' \
	-count=1 ./internal/vm
GOOS=darwin GOARCH=arm64 go vet ./internal/vm
GOOS=linux GOARCH=386 go build ./...

# The fuzzer's bitmap walkers visit only the words the coverage summary
# marks; this holds them to the dense reference scans per exec, and a
# fuzzer over an executor without a summary to one over the machine.
# The campaign queues every input OnExec hands it without a copy, so
# the fuzzer must never write an input again once the hook has seen it.
echo "== fuzz sparse-coverage equivalence (-race)"
go test -race -run 'TestSparseBitmapMatchesDense|TestSparseBitmapWrappedCounters|TestFuzzerSummaryAdaptor|TestOnExecInputsAreFresh' \
	-count=1 ./internal/fuzz

# The batch-executor self-test is the same guard one layer up:
# Suite.RunBatch must be byte-identical to per-input Run over the
# golden corpus and the generated sweep, sequentially and with the
# parallel cross-check, under the race detector. Suites built from
# recycled machine sets must match fresh suites the same way, also
# where a released set fits the new suite only in some slots, and
# warmed suites must hold complete sets. The compile and evolve pools
# must build one machine set per shard per Run, however many epochs it
# has, and keep none once Run returns. A sequential RunFast whose
# binaries agree allocates its outcome and hash slice, nothing more.
echo "== core batch-executor self-test (-race)"
go test -race -run 'TestRunBatchMatchesRun|TestRunBatchMatchesRunParallel|TestRunBatchSingletonIsRunFast|TestRecycledSuitesMatchFresh|TestSparesMismatchedSlotsMatchFresh|TestWarm|TestSuiteRunConcurrent|TestPoolSparesLastOneRun|TestRunFastSequentialAllocs' \
	-count=1 ./internal/core

# The lowering equivalence gates: CompileAll, which shares one
# per-program analysis across configurations and lowers them
# concurrently, must equal per-configuration CompileGuarded; both must
# match the lowering digest pinned in internal/compiler/testdata; a
# shared-analysis panic must stay each configuration's own ICE; every
# retained function body must be an exact-size slice; and the
# per-program constant table must equal recursive constant evaluation
# on every expression.
echo "== compiler lowering equivalence (-race)"
go test -race -run 'TestLoweringMatchesParent|TestCompileAllMatchesCompileGuarded|TestSharedAnalysisPanicIsICE|TestRetainedCodeIsExact|TestConstTableMatchesEvalConst' \
	-count=1 ./internal/compiler

# The front-end equivalence gates: the lexer and parser must match the
# parse digest pinned in internal/minic/parser/testdata, reductions the
# reduce digest in internal/triage/testdata, and evolve campaigns
# (fresh, and resumed from a checkpoint the parent wrote) the digest in
# testdata; the printer must round-trip negative literals and
# multi-declarator statements; the trees and checked front ends evolve
# keeps must equal fresh parses; breeding a generation on many
# goroutines must equal the serial Mutate loop slot by slot, also where
# edits fail the gate; and a miss fed a checked front end must equal a
# cold compile. The one expression traversal in package ast, which the
# lowerings, the static-analyzer baselines, the reducer and evolve all
# walk with, must keep its visit order, prune where asked, and write no
# slot it does not replace, so goroutines can walk one shared tree; the
# Coverity taint rule and the Table 3 static-tool finding read through
# it. Kept out of internal/difffuzz, whose -race suite is the slow one.
echo "== front-end equivalence (-race)"
go test -race -run 'TestParseMatchesParent|TestErrorTextBounded|TestErrorsCapped|TestPrintNegativeLiteralOperands|TestPrintMultiDeclarators|TestEditExprsOrder|TestEditExprPrunes|TestEditExprsReadOnly|TestReduceMatchesParent|TestEvolveMatchesParent|TestEvolveResumesParentCheckpoint|TestMutateTreesMatchParse|TestNextGenerationMatchesSerial|TestGetCheckedMatchesCompile|TestCoverityDivZeroTaintHeuristic|TestFinding1StaticToolsWeakerWithFPs' \
	-count=1 ./internal/minic/... ./internal/triage ./internal/evolve ./internal/progcache ./internal/analyzer ./internal/bench .

# The reducer step cap rests on one VM premise, that a run finishing
# within a step limit finishes identically under any larger one; on
# Suite.RunCapped equalling Run whenever it returns an outcome; and on
# the reducer rejecting looping candidates at the cap with the same
# reduction as the uncapped path, taking the uncapped path where it
# must, at any parallelism. Kept out of internal/difffuzz, whose -race
# suite is the slow one.
echo "== reducer step cap (-race)"
go test -race -run 'TestLargerLimitKeepsFinishedRun|TestRunCappedMatchesRun|TestRunCappedMetricsCountFullRuns|TestReduceStepCap|TestReduceDeterministicAcrossParallelism' \
	-count=1 ./internal/vm ./internal/core ./internal/triage

# The CLI mode table: every mode's summary and bucket reports, fresh
# and resumed from a finished checkpoint, must match the ones pinned in
# cmd/compdiff-fuzz/testdata/summary.golden, which the parent wrote;
# and every mode must reject a flag it does not read instead of
# ignoring it.
echo "== CLI mode table (-race)"
go test -race -run 'TestSummaryMatchesParent|TestValidateRejectsUnreadFlags' \
	-count=1 ./cmd/compdiff-fuzz

# Benchmark smoke: the headline hot-path benchmark must still run (10
# iterations — correctness of the harness, not a timing gate).
echo "== bench smoke (BenchmarkOverheadFullTen, 10x)"
go test -run='^$' -bench='^BenchmarkOverheadFullTen$' -benchtime=10x -benchmem .

# Batch/cache/construction bench smoke: the persistent-mode batch
# executor, the compiled-program cache, the machine-construction,
# checkpoint-save, lowering, compile-pool, front-end, reducer and
# evolve-breeding benchmarks must exist and produce rows bench.sh can
# parse into the trajectory record (guards both the benchmarks and the
# bench.sh JSON pipeline).
echo "== bench smoke (SuiteRunBatch64 + ProgCacheHit + MachineNew + MachineRebind + FuzzerExec + CheckpointSave + LowerTenImplementations + CompilePoolCorpus + ParseSema + ReduceGolden + NextGeneration via bench.sh)"
BENCH_SMOKE_JSON="$(mktemp)"
scripts/bench.sh "$BENCH_SMOKE_JSON" 'SuiteRunBatch64|ProgCacheHit|MachineNew|MachineRebind|FuzzerExec|CheckpointSave|LowerTenImplementations|CompilePoolCorpus|ParseSema|ReduceGolden|NextGeneration' 10x >/dev/null 2>&1
for b in BenchmarkSuiteRunBatch64 BenchmarkProgCacheHit BenchmarkMachineNew BenchmarkMachineRebind BenchmarkFuzzerExec BenchmarkCheckpointSave BenchmarkLowerTenImplementations BenchmarkCompilePoolCorpus BenchmarkParseSema BenchmarkReduceGolden BenchmarkNextGeneration; do
	grep -q "\"name\": \"$b\", \"ns_per_op\": [0-9]" "$BENCH_SMOKE_JSON" || {
		echo "bench smoke: $b missing from bench.sh output" >&2
		cat "$BENCH_SMOKE_JSON" >&2
		rm -f "$BENCH_SMOKE_JSON"
		exit 1
	}
done
rm -f "$BENCH_SMOKE_JSON"

echo "== fuzz smoke ($FUZZTIME each)"
go test -fuzz=FuzzParse -fuzztime="$FUZZTIME" -run='^$' ./internal/minic/parser
go test -fuzz=FuzzSuiteRun -fuzztime="$FUZZTIME" -run='^$' .
go test -fuzz=FuzzReduce -fuzztime="$FUZZTIME" -run='^$' ./internal/triage
go test -fuzz=FuzzCompileOracle -fuzztime="$FUZZTIME" -run='^$' .
go test -fuzz=FuzzProgCache -fuzztime="$FUZZTIME" -run='^$' ./internal/progcache
go test -fuzz=FuzzEvolveMutate -fuzztime="$FUZZTIME" -run='^$' ./internal/evolve
go test -fuzz=FuzzCoverageWords -fuzztime="$FUZZTIME" -run='^$' ./internal/fuzz
go test -fuzz=FuzzRestoreState -fuzztime="$FUZZTIME" -run='^$' ./internal/fuzz
go test -fuzz=FuzzMachineRebind -fuzztime="$FUZZTIME" -run='^$' ./internal/vm
go test -fuzz=FuzzSupervisorHandler -fuzztime="$FUZZTIME" -run='^$' ./internal/supervisor
go test -fuzz=FuzzCheckpointLoad -fuzztime="$FUZZTIME" -run='^$' ./internal/checkpoint
go test -fuzz=FuzzPeepholeFixpoint -fuzztime="$FUZZTIME" -run='^$' ./internal/compiler

# Coverage gate: per-package table plus hard floors on the triage
# layer, whose whole contract lives in its tests.
echo "== coverage gate"
scripts/cover.sh

# Telemetry smoke: a short sharded campaign with -stats must produce a
# plot.jsonl whose lines carry a nonzero execs/sec. The telemetry unit
# and determinism tests already ran under -race above; this checks the
# CLI-to-plot-file path end to end.
echo "== telemetry smoke (4 shards, 2000 execs)"
STATS_DIR="$(mktemp -d)"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$STATS_DIR" "$SMOKE_DIR"' EXIT
go run ./cmd/compdiff-fuzz -target tcpdump -execs 2000 -shards 4 -sync 500 \
	-stats "$STATS_DIR" >/dev/null
grep -q '"execs_per_sec":[0-9]*[1-9]' "$STATS_DIR/plot.jsonl" || {
	echo "telemetry smoke: no nonzero execs_per_sec in plot.jsonl" >&2
	cat "$STATS_DIR/plot.jsonl" >&2
	exit 1
}
# One-shard leg: the default run is a one-shard pool whose -stats-every
# records come from inside the shard — 7 periodic ones at 3000 execs,
# plus the final barrier's.
echo "== telemetry smoke (1 shard, 3000 execs, -stats-every 400)"
SOLO_STATS="$STATS_DIR/solo"
go run ./cmd/compdiff-fuzz -target tcpdump -execs 3000 -stats "$SOLO_STATS" \
	-stats-every 400 >/dev/null
LINES="$(wc -l <"$SOLO_STATS/plot.jsonl" | tr -d " ")"
if [ "$LINES" -lt 8 ]; then
	echo "telemetry smoke: one-shard plot.jsonl has $LINES lines, want >= 8" >&2
	cat "$SOLO_STATS/plot.jsonl" >&2
	exit 1
fi

# Resume smoke: start a checkpointed campaign, SIGKILL it mid-run the
# moment a checkpoint is durable, and resume. The resumed summary must
# show the budget continuing past the resumed run's own -execs, and a
# clean persistence record. Built (not `go run`) so the kill reaches
# the fuzzer itself, not a parent go process.
echo "== resume smoke (kill -9 mid-campaign, -resume)"
go build -o "$SMOKE_DIR/compdiff-fuzz" ./cmd/compdiff-fuzz
CKPT_DIR="$SMOKE_DIR/ckpt"
"$SMOKE_DIR/compdiff-fuzz" -target tcpdump -execs 50000000 -shards 2 -sync 500 \
	-checkpoint "$CKPT_DIR" >"$SMOKE_DIR/first.log" 2>&1 &
SMOKE_PID=$!
i=0
while [ ! -f "$CKPT_DIR/MANIFEST.json" ]; do
	i=$((i + 1))
	if [ "$i" -gt 300 ]; then
		echo "resume smoke: no checkpoint after 60s" >&2
		kill -9 "$SMOKE_PID" 2>/dev/null || true
		cat "$SMOKE_DIR/first.log" >&2
		exit 1
	fi
	sleep 0.2
done
kill -9 "$SMOKE_PID" 2>/dev/null || true
wait "$SMOKE_PID" 2>/dev/null || true
"$SMOKE_DIR/compdiff-fuzz" -target tcpdump -execs 2000 -shards 2 -sync 500 \
	-checkpoint "$CKPT_DIR" -resume >"$SMOKE_DIR/resume.log" 2>&1
grep -q 'resumed from checkpoint' "$SMOKE_DIR/resume.log" || {
	echo "resume smoke: resume fell back to a fresh start" >&2
	cat "$SMOKE_DIR/resume.log" >&2
	exit 1
}
SPENT="$(awk -F'[: ]+' '/^spent budget/ { print $3 }' "$SMOKE_DIR/resume.log")"
if [ -z "$SPENT" ] || [ "$SPENT" -le 2000 ]; then
	echo "resume smoke: spent budget '$SPENT' does not continue past the resumed -execs 2000" >&2
	cat "$SMOKE_DIR/resume.log" >&2
	exit 1
fi
grep -q '^persist errors : 0' "$SMOKE_DIR/resume.log" || {
	echo "resume smoke: nonzero (or missing) persist-error count" >&2
	cat "$SMOKE_DIR/resume.log" >&2
	exit 1
}

# Compile-oracle smoke: a -programs campaign over the three compile
# goldens must bucket exactly one finding per compile-stage class, and
# resuming the finished campaign from its checkpoint must reconstruct
# the same buckets instead of starting over.
echo "== compile-oracle smoke (-programs over testdata/golden/compile_*)"
PROG_DIR="$SMOKE_DIR/programs"
mkdir -p "$PROG_DIR"
cp testdata/golden/compile_*.mc "$PROG_DIR/"
CCKPT_DIR="$SMOKE_DIR/compile-ckpt"
"$SMOKE_DIR/compdiff-fuzz" -programs "$PROG_DIR" -shards 1 \
	-checkpoint "$CCKPT_DIR" >"$SMOKE_DIR/compile.log" 2>&1
grep -q '^compile classes: 1 accept/reject divergences, 1 ICEs, 1 diagnostic mismatches, 0 runtime' \
	"$SMOKE_DIR/compile.log" || {
	echo "compile-oracle smoke: campaign did not report one finding per compile class" >&2
	cat "$SMOKE_DIR/compile.log" >&2
	exit 1
}
"$SMOKE_DIR/compdiff-fuzz" -programs "$PROG_DIR" -shards 1 \
	-checkpoint "$CCKPT_DIR" -resume >"$SMOKE_DIR/compile-resume.log" 2>&1
grep -q 'resumed from checkpoint' "$SMOKE_DIR/compile-resume.log" || {
	echo "compile-oracle smoke: resume fell back to a fresh start" >&2
	cat "$SMOKE_DIR/compile-resume.log" >&2
	exit 1
}
grep -q '^findings       : 3 (3 triage buckets)' "$SMOKE_DIR/compile-resume.log" || {
	echo "compile-oracle smoke: resumed campaign lost buckets" >&2
	cat "$SMOKE_DIR/compile-resume.log" >&2
	exit 1
}

# Serve smoke: a two-worker farm must come up, answer the control
# plane, survive kill -9 of a worker (restart event + stats that keep
# the killed worker's progress), and drain cleanly on SIGTERM.
echo "== serve smoke (2 workers, kill -9 one, SIGTERM drain)"
FARM_DIR="$SMOKE_DIR/farm"
SERVE_ADDR="127.0.0.1:18479"
"$SMOKE_DIR/compdiff-fuzz" -serve "$SERVE_ADDR" -farm "$FARM_DIR" -workers 2 \
	-target tcpdump -execs-total 50000000 -sync 500 >"$SMOKE_DIR/serve.log" 2>&1 &
SERVE_PID=$!
i=0
until curl -sf "http://$SERVE_ADDR/healthz" >/dev/null 2>&1; do
	i=$((i + 1))
	if [ "$i" -gt 150 ] || ! kill -0 "$SERVE_PID" 2>/dev/null; then
		echo "serve smoke: control plane never came up" >&2
		kill -9 "$SERVE_PID" 2>/dev/null || true
		cat "$SMOKE_DIR/serve.log" >&2
		exit 1
	fi
	sleep 0.2
done
# Wait for both workers to report durable progress, then kill one.
i=0
until [ -f "$FARM_DIR/workers/worker-000/checkpoint/MANIFEST.json" ] &&
	[ -f "$FARM_DIR/workers/worker-001/checkpoint/MANIFEST.json" ]; do
	i=$((i + 1))
	if [ "$i" -gt 300 ]; then
		echo "serve smoke: workers made no durable progress after 60s" >&2
		kill -9 "$SERVE_PID" 2>/dev/null || true
		cat "$SMOKE_DIR/serve.log" >&2
		exit 1
	fi
	sleep 0.2
done
WORKER_PID="$(curl -s "http://$SERVE_ADDR/stats" |
	sed -n 's/.*"pid": \([0-9][0-9]*\).*/\1/p' | head -1)"
if [ -z "$WORKER_PID" ]; then
	echo "serve smoke: /stats reported no worker pid" >&2
	kill -9 "$SERVE_PID" 2>/dev/null || true
	exit 1
fi
kill -9 "$WORKER_PID"
i=0
until curl -s "http://$SERVE_ADDR/events" | grep -q '"kind": "restart"'; do
	i=$((i + 1))
	if [ "$i" -gt 150 ]; then
		echo "serve smoke: no restart event after killing worker $WORKER_PID" >&2
		curl -s "http://$SERVE_ADDR/events" >&2 || true
		kill -9 "$SERVE_PID" 2>/dev/null || true
		exit 1
	fi
	sleep 0.2
done
curl -s "http://$SERVE_ADDR/stats" | grep -q '"spent_execs": [1-9]' || {
	echo "serve smoke: merged stats show no spent execs" >&2
	kill -9 "$SERVE_PID" 2>/dev/null || true
	exit 1
}
kill -TERM "$SERVE_PID"
i=0
while kill -0 "$SERVE_PID" 2>/dev/null; do
	i=$((i + 1))
	if [ "$i" -gt 150 ]; then
		echo "serve smoke: supervisor did not drain within 30s of SIGTERM" >&2
		kill -9 "$SERVE_PID" 2>/dev/null || true
		cat "$SMOKE_DIR/serve.log" >&2
		exit 1
	fi
	sleep 0.2
done
grep -q '^farm spent' "$SMOKE_DIR/serve.log" || {
	echo "serve smoke: no farm summary after drain" >&2
	cat "$SMOKE_DIR/serve.log" >&2
	exit 1
}

# Evolve smoke: a micro evolutionary campaign must fire optimizer
# passes and stream per-generation fitness telemetry into plot.jsonl.
# The fitness and pass_coverage fields are omitempty, so their mere
# presence in a plot line proves they were nonzero.
echo "== evolve smoke (-evolve, pop 6, 3 generations)"
EVOLVE_STATS="$SMOKE_DIR/evolve-stats"
"$SMOKE_DIR/compdiff-fuzz" -evolve -pop 6 -generations 3 -seed 7 \
	-stats "$EVOLVE_STATS" >"$SMOKE_DIR/evolve.log" 2>&1
grep -q '^pass coverage  : [1-9]' "$SMOKE_DIR/evolve.log" || {
	echo "evolve smoke: campaign reported no cumulative pass coverage" >&2
	cat "$SMOKE_DIR/evolve.log" >&2
	exit 1
}
grep -q '"generation":' "$EVOLVE_STATS/plot.jsonl" || {
	echo "evolve smoke: no per-generation snapshots in plot.jsonl" >&2
	cat "$EVOLVE_STATS/plot.jsonl" >&2
	exit 1
}
grep -q '"pass_coverage":' "$EVOLVE_STATS/plot.jsonl" || {
	echo "evolve smoke: no pass-coverage telemetry in plot.jsonl" >&2
	cat "$EVOLVE_STATS/plot.jsonl" >&2
	exit 1
}
grep -Eq '"(best|mean)_fitness":' "$EVOLVE_STATS/plot.jsonl" || {
	echo "evolve smoke: no fitness telemetry in plot.jsonl" >&2
	cat "$EVOLVE_STATS/plot.jsonl" >&2
	exit 1
}

echo "== check OK"
