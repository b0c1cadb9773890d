# Developer entry points; CI runs the same commands (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test lint fmagate bench benchdiff profile

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

# fmagate cross-compiles the CLI for arm64 and fails if a package that holds
# simulation state contains a fused multiply-add: the walker, the core, the
# MMU, the caches, the scheduler, the forecasters, the server, the fleet,
# the fault plans and auditors, and the statistics. The Go spec lets arm64
# fuse x*y + z, rounding once where amd64 rounds twice, so a fused op there
# could change instruction streams, timings or arrival gaps across GOARCH;
# an explicit float64(...) conversion around the product prevents it. The
# experiment table renderers are not gated yet.
fmagate:
	GOARCH=arm64 $(GO) build -o .lukewarm-arm64 ./cmd/lukewarm
	$(GO) tool objdump .lukewarm-arm64 > .lukewarm-arm64.s
	@grep -q '^TEXT lukewarm/internal/program[.]' .lukewarm-arm64.s || { echo "fmagate: no internal/program code in the disassembly"; exit 1; }
	@fused=$$(awk '/^TEXT /{fn=$$2} /FMADDD|FMSUBD|FNMADDD|FNMSUBD/{print fn}' .lukewarm-arm64.s | grep -E '^lukewarm/internal/(program|cpu|vm|mem|sched|predict|serverless|cluster|faults|stats)[.]' | sort | uniq -c); \
	rm -f .lukewarm-arm64 .lukewarm-arm64.s; \
	if [ -n "$$fused" ]; then echo "fused multiply-adds (count, function):"; echo "$$fused"; exit 1; fi; \
	echo "fmagate: no fused multiply-adds in internal/{program,cpu,vm,mem,sched,predict,serverless,cluster,faults,stats}"

# bench captures the performance trajectory: the fleet-simulation benchmarks,
# the raw simulator-throughput benchmark, the REAP restore path, the arrival
# forecasters, the pre-warm sweep kernel, the representative cache-path
# benchmarks (ns/access over a mixed data stream and a ~600 KB fetch
# footprint, one 64 Ki-access pass per iteration) and the stage-1 front end
# (ns/instr of walk plus translate over four suite functions), one
# iteration each, five runs of each, serialized to BENCH_$(PR).json via
# cmd/benchjson, which records each bench's median, min and max. Refresh
# the committed snapshot when simulator performance changes materially.
#
# PR defaults to one past the highest committed BENCH_<n>.json so each PR's
# `make bench` lands a fresh snapshot without editing this file; override
# with `make bench PR=ci` (or any explicit tag) to write elsewhere.
PR ?= $(shell ls BENCH_*.json 2>/dev/null | sed -n 's/^BENCH_\([0-9]*\)\.json$$/\1/p' | sort -n | tail -1 | awk '{print $$1 + 1}')
bench:
	$(GO) test -run '^$$' -bench 'Fleet|ExtensionCluster|SimulationThroughput|ReapRestore|Forecast|PrewarmSweep|HierarchyDataMixed|HierarchyFetchFootprint|FrontEndFill' -benchtime 1x -count 5 ./internal/cluster ./internal/reap ./internal/predict ./internal/serverless ./internal/mem ./internal/cpu . \
		| $(GO) run ./cmd/benchjson > BENCH_$(PR).json
	@echo "wrote BENCH_$(PR).json"

# benchdiff compares the two newest committed BENCH_<n>.json snapshots and
# fails when the simulator-throughput median regresses by more than 10%;
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
