#!/usr/bin/env bash
# Runs every workload untraced once per seed and keeps each run's result
# line, the data the bounds in BENCHMARK.json are set from. Run it from the
# repository root:
#
#   bash bench/calibrate.sh <out-dir> [seeds] [seconds]
#
# It writes <out-dir>/<workload>.jsonl (seeds 1..N, default 10; 30 s runs);
# summarize a set, or compare two, with
#
#   (cd bench && go run ./cmd/benchspread <out-dir>/<workload>.jsonl [<other-dir>/<workload>.jsonl])
set -euo pipefail

out=${1:?usage: calibrate.sh <out-dir> [seeds] [seconds]}
seeds=${2:-10}
seconds=${3:-30}
mkdir -p "$out"
for w in warm-ref lukewarm-jbreap fleet-tiny sweep; do
	: >"$out/$w.jsonl"
	for s in $(seq 1 "$seeds"); do
		bash bench/run.sh --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1 >>"$out/$w.jsonl"
	done
done
