#!/bin/sh
# Benchmark-trajectory harness: run the tier-1 benchmark set with
# -benchmem and emit a BENCH_<date>.json record (name, ns/op, B/op,
# allocs/op, plus run metadata) in the repo root. The ROADMAP
# re-anchor reads these files to see whether the hot path is getting
# faster or quietly regressing.
#
# Usage: scripts/bench.sh [outfile] [bench-regex] [benchtime]
#   outfile      defaults to BENCH_<YYYY-MM-DD>.json
#   bench-regex  defaults to the perf-tracked set (differential
#                overhead + suite hot path + batch/cache/campaign +
#                compilation, lowering alone, the front end alone,
#                machine construction and rebinding +
#                the fuzzer loop on one B_fuzz machine + a steady-state
#                checkpoint save + reduction of the golden reproducers)
#   benchtime    defaults to 1s
#
#        scripts/bench.sh -diff OLD.json NEW.json
#   compares two records benchmark-by-benchmark and prints the deltas
#   (negative = faster).
#
# Examples:
#   scripts/bench.sh                                # trajectory record
#   scripts/bench.sh BENCH_baseline.json            # named record
#   scripts/bench.sh /dev/stdout 'SuiteRun' 100x    # quick look
#   scripts/bench.sh -diff BENCH_2026-08-06.json BENCH_2026-08-08.json
set -eu

cd "$(dirname "$0")/.."

# extract_rows FILE: one "name ns_per_op" pair per line from a
# bench.sh JSON record (the records are line-structured by
# construction: one benchmark object per line).
extract_rows() {
    awk '
    /"name"/ {
        line = $0
        name = line; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
        ns = line; sub(/.*"ns_per_op": /, "", ns); sub(/[,}].*/, "", ns)
        if (name != "" && ns != "") print name, ns
    }' "$1"
}

if [ "${1:-}" = "-diff" ]; then
    [ $# -eq 3 ] || { echo "usage: scripts/bench.sh -diff OLD.json NEW.json" >&2; exit 2; }
    OLD="$2"; NEW="$3"
    [ -r "$OLD" ] || { echo "bench.sh: cannot read $OLD" >&2; exit 1; }
    [ -r "$NEW" ] || { echo "bench.sh: cannot read $NEW" >&2; exit 1; }
    { extract_rows "$OLD" | sed 's/^/old /'; extract_rows "$NEW" | sed 's/^/new /'; } | awk '
    $1 == "old" { old[$2] = $3; order[n++] = $2 }
    $1 == "new" { new[$2] = $3; if (!($2 in old)) order[n++] = $2 }
    END {
        printf "%-36s %12s %12s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta"
        both = 0
        for (i = 0; i < n; i++) {
            name = order[i]
            if (seen[name]++) continue
            if (name in old && name in new) {
                delta = (new[name] - old[name]) / old[name] * 100
                printf "%-36s %12.1f %12.1f %+8.1f%%\n", name, old[name], new[name], delta
                both++
            } else if (name in old) {
                printf "%-36s %12.1f %12s %9s\n", name, old[name], "-", "gone"
            } else {
                printf "%-36s %12s %12.1f %9s\n", name, "-", new[name], "new"
            }
        }
        if (both == 0) { print "bench.sh: no common benchmarks between the two records" > "/dev/stderr"; exit 1 }
    }'
    exit 0
fi

OUT="${1:-BENCH_$(date +%Y-%m-%d).json}"
BENCH="${2:-OverheadSingleBinary|OverheadRecommendedPair|OverheadFullTen|SuiteRunSequential|SuiteRunFast|SuiteRunParallel\$|SuiteRunBatch64|ProgCacheHit|CampaignFourShards|DifferentialRunListing1|CompileTenImplementations|LowerTenImplementations|ParseSema|MachineNew|MachineRebind|FuzzerExec|CheckpointSave|ReduceGolden}"
BENCHTIME="${3:-1s}"

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench "$BENCH" -benchmem -benchtime "$BENCHTIME" . | tee "$RAW" >&2

awk -v date="$(date +%Y-%m-%d)" -v benchtime="$BENCHTIME" \
    -v gover="$(go env GOVERSION)" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ && /ns\/op/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; bop = ""; aop = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns  = $(i-1)
        if ($i == "B/op")      bop = $(i-1)
        if ($i == "allocs/op") aop = $(i-1)
    }
    if (ns == "") next
    row = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s", name, ns)
    if (bop != "") row = row sprintf(", \"b_per_op\": %s", bop)
    if (aop != "") row = row sprintf(", \"allocs_per_op\": %s", aop)
    row = row "}"
    rows[nrows++] = row
}
END {
    if (nrows == 0) { print "bench.sh: no benchmark rows parsed" > "/dev/stderr"; exit 1 }
    printf "{\n"
    printf "  \"date\": \"%s\",\n", date
    printf "  \"go\": \"%s\",\n", gover
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"benchmarks\": [\n"
    for (i = 0; i < nrows; i++) printf "%s%s\n", rows[i], (i < nrows-1 ? "," : "")
    printf "  ]\n}\n"
}' "$RAW" > "$OUT"

[ "$OUT" = /dev/stdout ] || echo "wrote $OUT" >&2

# Corpus opcode-pair histogram: the evidence behind the compile-time
# peephole folds and the LdLoc/CmpImm/AluImm superinstruction set
# (internal/compiler/peep.go picks its patterns from these pairs).
echo >&2
echo "== corpus opcode-pair histogram (superinstruction selection) ==" >&2
go run ./cmd/report -opcode-pairs -opcode-pairs-top 12 >&2 || true
