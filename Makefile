# Developer entry points; CI runs the same commands (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test lint bench benchdiff profile

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint fails on any Go file gofmt would change. testdata is exempt: the
# hotdirective fixture misplaces a directive on purpose, and gofmt would move
# it. Hidden directories (.git, .bench_build) are skipped.
lint:
	@unformatted=$$(gofmt -l $$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.*')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/lukewarmlint ./...

# bench captures the performance trajectory: the fleet-simulation benchmarks,
# the raw simulator-throughput benchmark, the REAP restore path, the arrival
# forecasters, the pre-warm sweep kernel and the representative cache-path
# benchmarks (ns/access over a mixed data stream and a ~600 KB fetch
# footprint, one 64 Ki-access pass per iteration), one iteration each,
# serialized to BENCH_$(PR).json via cmd/benchjson. Refresh
# the committed snapshot when simulator performance changes materially.
#
# PR defaults to one past the highest committed BENCH_<n>.json so each PR's
# `make bench` lands a fresh snapshot without editing this file; override
# with `make bench PR=ci` (or any explicit tag) to write elsewhere.
PR ?= $(shell ls BENCH_*.json 2>/dev/null | sed -n 's/^BENCH_\([0-9]*\)\.json$$/\1/p' | sort -n | tail -1 | awk '{print $$1 + 1}')
bench:
	$(GO) test -run '^$$' -bench 'Fleet|ExtensionCluster|SimulationThroughput|ReapRestore|Forecast|PrewarmSweep|HierarchyDataMixed|HierarchyFetchFootprint' -benchtime 1x ./internal/cluster ./internal/reap ./internal/predict ./internal/serverless ./internal/mem . \
		| $(GO) run ./cmd/benchjson > BENCH_$(PR).json
	@echo "wrote BENCH_$(PR).json"

# benchdiff compares the two newest committed BENCH_<n>.json snapshots and
# fails when the simulator-throughput trajectory regresses by more than 10%;
# other benches (fleet sweeps dominated by scheduling noise) only warn.
benchdiff:
	$(GO) run ./cmd/benchdiff

# profile captures CPU and heap profiles of the simulator's hot loop (the
# throughput benchmark); inspect with `go tool pprof cpu.prof`. The same
# seams exist on the CLI: `lukewarm -cpuprofile cpu.prof <experiment>`.
profile:
	$(GO) test -run '^$$' -bench SimulationThroughput -benchtime 20x \
		-cpuprofile cpu.prof -memprofile mem.prof .
	@echo "wrote cpu.prof mem.prof (go tool pprof cpu.prof)"
