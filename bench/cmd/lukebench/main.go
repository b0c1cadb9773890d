// Command lukebench runs one workload of lukewarm's benchmark and prints its
// result as a JSON object on the last line of standard output; everything
// else (per-pass digests, problems, attribution tables) goes to standard
// error.
//
// Usage:
//
//	lukebench -workload <name> [-seed N] [-seconds S] [-trace 0|1] [-spans file]
//
// With -trace 0 it measures the end-to-end metrics for -seconds; with
// -trace 1 it makes the traced run, prints the per-layer metrics and writes
// the spans to -spans (default .bench_build/lukebench-<workload>-spans.json).
// bash bench/run.sh builds it from the checkout and passes its arguments on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"lukewarm/bench"
)

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(bench.WorkloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed every input derives from")
	seconds := flag.Float64("seconds", 25, "how long an untraced run measures")
	trace := flag.Int("trace", 0, "1 makes the traced run and reports per-layer metrics")
	spans := flag.String("spans", "", "where a traced run writes its spans")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg := bench.Config{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1}
	res, tr, err := bench.Run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lukebench:", err)
		os.Exit(1)
	}
	if tr != nil {
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "lukebench-"+*name+"-spans.json")
		}
		if err := writeSpans(path, tr); err != nil {
			fmt.Fprintln(os.Stderr, "lukebench:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lukebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func writeSpans(path string, tr *bench.Tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
