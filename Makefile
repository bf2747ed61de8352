# Convenience entry points mirroring the CI pipeline. `make lint` is the
# local pre-push check for the determinism contracts; see DESIGN.md §12
# for what each analyzer enforces.

GO ?= go

.PHONY: all build test race lint vet fmt check bench-check bench-smoke bench cover

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

# The eantlint multichecker: five analyzers (rngonly, noclock, maporder,
# floatsum, statsmut), each checking one package at a time. Every finding
# exits non-zero with a file:line diagnostic; there is no debt ledger.
lint:
	$(GO) run ./cmd/eantlint ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

check: fmt vet build lint test bench-check

# bench/ is its own Go module, so `go vet ./...` and `go test ./...` at the
# root skip it; build, vet and test it here (its digests are pinned for
# amd64).
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

bench-smoke:
	$(GO) test -run xxx -bench SimulatorThroughput -benchtime=1x -benchmem .
	$(GO) test -run xxx -bench BenchmarkDisabledProbe -benchtime=1000x -benchmem ./internal/probe

# The full scale grid plus the warm/cold sweep pair: fixed iteration
# counts (not -benchtime=Ns) so allocs/op is comparable across commits, and
# COUNT-many repetitions to show the spread. ns/offer counts every offer
# made, including idle offers the driver counts without calling the
# policy, so it is not comparable with BENCH_*.json values recorded
# before that change. For an end-to-end comparison of two commits use the
# in-repo comparator, run from each checkout:
#   bash bench/run.sh -json > base.jsonl    (on the base commit)
#   bash bench/run.sh -json > change.jsonl  (on your branch)
#   bash bench/run.sh -compare base.jsonl change.jsonl
# BENCH_*.json record the committed history of these numbers. On shared
# hardware, trust grid-wide trends over single cells (EXPERIMENTS.md).
COUNT ?= 5
bench:
	$(GO) test -run xxx -bench 'BenchmarkScale$$' -benchtime=10x -benchmem -count=$(COUNT) .
	$(GO) test -run xxx -bench 'BenchmarkRunManyWarm$$' -benchtime=20x -benchmem -count=$(COUNT) .

# Per-package statement coverage for the observability packages, the
# world-state core and the driver; CI enforces floors on these (see
# .github/workflows/ci.yml).
cover:
	$(GO) test -cover ./internal/probe ./internal/metrics ./internal/cluster ./internal/mapreduce
