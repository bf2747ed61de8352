# Convenience entry points mirroring the CI pipeline. `make lint` is the
# local pre-push check for the determinism/hot-path contracts; see
# DESIGN.md §12 for what each analyzer enforces.

GO ?= go

.PHONY: all build test race lint vet fmt check bench-smoke bench cover

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

# The eantlint multichecker: rngonly, noclock, maporder, floatsum,
# statsmut, hotalloc, resetstate —
# interprocedural since the call-graph layer landed, so the whole
# module is analyzed as one unit.
# Every finding exits non-zero with a file:line diagnostic; there is no
# debt ledger.
lint:
	$(GO) run ./cmd/eantlint ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

check: fmt vet build lint test

bench-smoke:
	$(GO) test -run xxx -bench SimulatorThroughput -benchtime=1x -benchmem .
	$(GO) test -run xxx -bench BenchmarkDisabledProbe -benchtime=1000x -benchmem ./internal/probe

# The full scale grid plus the warm/cold sweep pair, benchstat-friendly:
# fixed iteration counts (not -benchtime=Ns) so allocs/op is comparable
# across commits, and COUNT-many repetitions so benchstat can attach
# confidence intervals. Pipe two runs into benchstat to compare:
#   make bench > /tmp/old.txt  (on the base commit)
#   make bench > /tmp/new.txt  (on your branch)
#   benchstat /tmp/old.txt /tmp/new.txt
# BENCH_*.json record the committed history of these numbers. On shared
# hardware, trust grid-wide trends over single cells (EXPERIMENTS.md).
COUNT ?= 5
bench:
	$(GO) test -run xxx -bench 'BenchmarkScale$$' -benchtime=10x -benchmem -count=$(COUNT) .
	$(GO) test -run xxx -bench 'BenchmarkRunManyWarm$$' -benchtime=20x -benchmem -count=$(COUNT) .

# Per-package statement coverage for the observability packages and the
# world-state core; CI enforces floors on these (see
# .github/workflows/ci.yml).
cover:
	$(GO) test -cover ./internal/probe ./internal/metrics ./internal/cluster
