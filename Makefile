GO ?= go

# Samples per benchmark group for `make bench` — each sample is one
# fresh `go test` process. 5 is the smallest count where benchdiff's
# Mann-Whitney gate can flag wall-clock metrics at alpha 0.05 with
# headroom; drop to 3 for a quick advisory run.
BENCH_COUNT ?= 5

# Base commit for `make benchdiff` (compare HEAD against this).
BASE ?= HEAD~1

.PHONY: build test race bench bench-headline benchdiff baselines fmt vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench regenerates BENCH_simulator.json (schema lpbuf/bench/v2): the
# paper-figure benchmarks plus the raw simulator throughput bench, each
# sampled in BENCH_COUNT fresh processes so in-process caches cannot
# flatter the numbers and benchdiff gets real per-metric variance. CI
# runs this target and gates on the result.
bench:
	$(GO) run ./cmd/benchjson -benchtime 1x -count $(BENCH_COUNT) -out BENCH_simulator.json

# bench-headline additionally covers every paper figure (slower).
bench-headline:
	$(GO) run ./cmd/benchjson -benchtime 1x -count $(BENCH_COUNT) -out BENCH_simulator.json \
		-bench 'BenchmarkFigure7Traditional|BenchmarkFigure7Aggressive,BenchmarkFigure8a|BenchmarkFigure8b|BenchmarkFigure3|BenchmarkFigure5|BenchmarkHeadline,BenchmarkSimulatorThroughput,BenchmarkSimsPerSec|BenchmarkSimsPerSecPMU,./internal/sched/optimal:BenchmarkExactSearch'

# benchdiff benchmarks BASE (default HEAD~1) in a detached worktree,
# benchmarks the current tree, and runs the statistical comparison.
# Today's harness binary is used for both sides (the base commit may
# predate the multi-sample schema), so the two artifacts are always
# comparable. Usage: make benchdiff [BASE=v1.2] [BENCH_COUNT=5]
benchdiff:
	@rm -rf .benchdiff-base
	$(GO) build -o bin/benchjson ./cmd/benchjson
	$(GO) build -o bin/benchdiff ./cmd/benchdiff
	git worktree add --detach .benchdiff-base $(BASE)
	cd .benchdiff-base && ../bin/benchjson -benchtime 1x -count $(BENCH_COUNT) -out ../bench-old.json; \
	status=$$?; cd ..; git worktree remove --force .benchdiff-base; \
	exit $$status
	./bin/benchjson -benchtime 1x -count $(BENCH_COUNT) -out bench-new.json
	./bin/benchdiff bench-old.json bench-new.json

# baselines regenerates the golden sim-stat document after an
# intentional functional change (then commit the file).
baselines:
	$(GO) run ./cmd/benchdiff -update-baselines

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...
