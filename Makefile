# Developer entry points; CI runs the same commands (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test lint fmagate results bench benchdiff profile

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

# fmagate cross-compiles the CLI for the four architectures whose Go backend
# may fuse x*y + z (arm64, ppc64le, riscv64, s390x) and fails if any
# lukewarm/ function contains a fused multiply-add. The Go spec lets them
# round once where amd64 rounds twice, so a fused op could change
# instruction streams, timings, arrival gaps or a rendered table across
# GOARCH; an explicit float64(...) conversion around the product prevents
# it. Each architecture has its own mnemonics in `go tool objdump` (s390x
# prints the compiler's fused ops as MADBR/MSDBR, its vector forms as
# WFMADB/WFMSDB). The runtime itself has fused ops on all four, so a pattern
# that matches nothing anywhere in the binary is a typo and fails too.
fmagate:
	@rc=0; for arch in arm64 ppc64le riscv64 s390x; do \
		case $$arch in \
		arm64|riscv64) pat='FN?M(ADD|SUB)[DS]' ;; \
		ppc64le) pat='FN?M(ADD|SUB)S?' ;; \
		s390x) pat='W?FN?M[AS][DS]B|M[AS][DE]BR?' ;; \
		esac; \
		GOARCH=$$arch $(GO) build -o .lukewarm-$$arch ./cmd/lukewarm || exit 1; \
		$(GO) tool objdump .lukewarm-$$arch > .lukewarm-$$arch.s || exit 1; \
		ops=$$(awk -v re="^($$pat)$$" '$$4 ~ re' .lukewarm-$$arch.s | wc -l); \
		ours=$$(grep -c '^TEXT lukewarm/' .lukewarm-$$arch.s); \
		fused=$$(awk -v re="^($$pat)$$" '/^TEXT /{fn=$$2} $$4 ~ re {print fn}' .lukewarm-$$arch.s | grep '^lukewarm/' | sort | uniq -c); \
		rm -f .lukewarm-$$arch .lukewarm-$$arch.s; \
		if [ "$$ops" -eq 0 ]; then echo "fmagate: $$arch: /$$pat/ matches no instruction in the binary"; rc=1; \
		elif [ "$$ours" -eq 0 ]; then echo "fmagate: $$arch: no lukewarm/ code in the disassembly"; rc=1; \
		elif [ -n "$$fused" ]; then echo "fmagate: $$arch: fused multiply-adds (count, function):"; echo "$$fused"; rc=1; \
		else echo "fmagate: $$arch: no fused multiply-adds in lukewarm/ ($$ops elsewhere in the binary)"; fi; \
	done; exit $$rc

# results regenerates the paper-scale results ledger that EXPERIMENTS.md
# cites: results_all.txt (the output of `lukewarm all` at default scale,
# without its wall-clock "completed in" line, so it is deterministic) and
# results_csv/ (one CSV per table). About 6.5 min on 2 vCPUs. CI reruns it
# and fails when either artifact differs from the committed copy, so a change
# that moves a paper-scale number must update the ledger in the same diff.
results:
	rm -rf results_csv
	$(GO) run ./cmd/lukewarm -csv results_csv all > .results_all.raw
	grep -v 'completed in' .results_all.raw > results_all.txt
	rm -f .results_all.raw

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
