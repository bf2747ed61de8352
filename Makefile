# Convenience entry points mirroring the CI pipeline. The determinism
# contracts are tests (TestSourceContracts, the goldens and the replays;
# DESIGN.md §12), so `make test` checks them.

GO ?= go

.PHONY: all build test race vet fmt check bench-check bench-smoke bench cover

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

check: fmt vet build test bench-check

# bench/ is its own Go module, so `go vet ./...` and `go test ./...` at the
# root skip it; build, vet and test it here (its digests are pinned for
# amd64).
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

bench-smoke:
	$(GO) test -run xxx -bench SimulatorThroughput -benchtime=1x -benchmem .
	$(GO) test -run xxx -bench BenchmarkDisabledProbe -benchtime=1000x -benchmem ./internal/probe
	$(GO) test -run xxx -bench BenchmarkHostIndexBuild -benchtime=1000x -benchmem ./internal/core

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

# Per-package statement coverage floors for the observability packages,
# the world-state core, the driver, HDFS placement, the experiment runner,
# the policies and the power model: the floors of CI's coverage job, whose
# comment gives the measurements they sit below (.github/workflows/ci.yml).
COVER_FLOORS = probe:88 metrics:95 cluster:85 mapreduce:89 hdfs:83 experiments:77 sched:89 core:92 power:70
cover:
	@for pf in $(COVER_FLOORS); do \
		pkg=./internal/$${pf%%:*}; floor=$${pf##*:}; \
		line=$$($(GO) test -cover $$pkg | tail -1); echo "$$line"; \
		pct=$$(echo "$$line" | grep -oE '[0-9]+\.[0-9]+% of statements' | grep -oE '^[0-9]+\.[0-9]+'); \
		if [ -z "$$pct" ]; then echo "could not parse coverage for $$pkg"; exit 1; fi; \
		awk -v p="$$pct" -v f="$$floor" 'BEGIN { exit !(p >= f) }' || { echo "$$pkg coverage $$pct% is below the $$floor% floor"; exit 1; }; \
	done
