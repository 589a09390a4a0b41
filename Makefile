# Tier-1 gate and developer targets. `make check` is what CI runs:
# scripts/check.sh, the one list of gate steps (vet, build, the race
# suite and its named equivalence steps, the benchmark module, the
# bench and native-fuzz smokes, coverage floors and the CLI smokes).
# FUZZTIME is each fuzz target's budget there.

GO ?= go
FUZZTIME ?= 10s

.PHONY: check vet build test race cover bench bench-quick golden

check:
	scripts/check.sh $(FUZZTIME)

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Per-package coverage table with hard floors on the triage layer
# (internal/triage, internal/difffuzz); see scripts/cover.sh.
cover:
	scripts/cover.sh

# Benchmark trajectory: run the tier-1 benchmark set with -benchmem
# and record a BENCH_<date>.json snapshot (see scripts/bench.sh for
# knobs). bench-quick is the old smoke: every benchmark once, no file.
bench:
	scripts/bench.sh

bench-quick:
	$(GO) test -run='^$$' -bench=. -benchtime=1x .

# Regenerate testdata/golden/*.golden after an *intentional* semantic
# change; review the diff before committing.
golden:
	$(GO) test -run TestGoldenCorpus -update .
