// Command benchdiff compares two benchmark snapshots produced by
// cmd/benchjson and enforces the repository's throughput trajectory: the
// simulator's instruction rate must not silently regress between PRs.
//
// Usage:
//
//	benchdiff [-dir DIR] [-threshold PCT] [-strict] [old.json new.json]
//
// With explicit file arguments it diffs those two snapshots; with none it
// picks the two highest-numbered BENCH_<n>.json files in -dir (default ".").
// Every metric present in both snapshots is reported. Each value compared is
// the median of the snapshot's samples (benchjson records it as the metric,
// with the extremes beside it); a snapshot from before -count runs holds a
// single sample, which serves as its median. A median drop of more than
// -threshold percent (default 10) in the SimulationThroughput benchmark's
// Minstr/s is a hard failure (exit 1); regressions in other benchmarks —
// fleet and experiment benches dominated by scheduling noise — are warnings
// only, unless -strict promotes every over-threshold regression to a
// failure. Higher-is-better metrics (Minstr/s and friends) and
// lower-is-better ones (ns/op) are both handled.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// entry mirrors cmd/benchjson's output element; its metrics are medians.
// The min and max beside them are not read.
type entry struct {
	Name       string             `json:"name"`
	Package    string             `json:"package"`
	Iterations int                `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// key identifies one metric of one benchmark across snapshots.
type key struct {
	bench, metric string
}

// gatedBench is the benchmark whose throughput trajectory is load-bearing:
// PR 9's flattened timing core is only a win if it stays won.
const (
	gatedBench  = "BenchmarkSimulationThroughput"
	gatedMetric = "Minstr/s"
)

// lowerIsBetter reports whether a metric improves downward: times (ns/op
// and per-operation units such as ns/access) and allocation counts.
func lowerIsBetter(metric string) bool {
	switch metric {
	case "B/op", "allocs/op":
		return true
	}
	return strings.HasPrefix(metric, "ns/")
}

func load(path string) (map[key]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m := map[key]float64{}
	for _, e := range entries {
		bench := procsSuffix.ReplaceAllString(e.Name, "")
		for name, v := range e.Metrics {
			m[key{bench, name}] = v
		}
	}
	return m, nil
}

// procsSuffix matches the -<GOMAXPROCS> suffix go test appends to a
// benchmark's name when GOMAXPROCS is above one; load drops it so
// snapshots taken on hosts with different CPU counts still line up.
var procsSuffix = regexp.MustCompile(`-\d+$`)

var benchFile = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// latestPair returns the two highest-numbered BENCH_<n>.json paths in dir,
// oldest first.
func latestPair(dir string) (string, string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", "", err
	}
	type snap struct {
		n    int
		path string
	}
	var snaps []snap
	for _, p := range names {
		m := benchFile.FindStringSubmatch(filepath.Base(p))
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			continue
		}
		snaps = append(snaps, snap{n, p})
	}
	if len(snaps) < 2 {
		return "", "", fmt.Errorf("need at least two BENCH_<n>.json snapshots in %s, found %d", dir, len(snaps))
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].n < snaps[j].n })
	return snaps[len(snaps)-2].path, snaps[len(snaps)-1].path, nil
}

// compare diffs every metric present in both snapshots. rows holds one
// rendered table line per shared metric in (bench, metric) order; failures
// holds one message per tripped gate — the gated throughput metric past
// threshold, any over-threshold regression when strict is set, and the gated
// metric going missing from the new snapshot.
func compare(oldM, newM map[key]float64, threshold float64, strict bool) (rows, failures []string) {
	keys := make([]key, 0, len(newM))
	for k := range newM {
		if _, ok := oldM[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].bench != keys[j].bench {
			return keys[i].bench < keys[j].bench
		}
		return keys[i].metric < keys[j].metric
	})

	for _, k := range keys {
		ov, nv := oldM[k], newM[k]
		if ov == 0 {
			continue
		}
		deltaPct := (nv - ov) / ov * 100
		regressPct := deltaPct // higher is better: a drop is negative
		if lowerIsBetter(k.metric) {
			regressPct = -deltaPct
		}
		status := "ok"
		if regressPct < -threshold {
			gated := k.bench == gatedBench && k.metric == gatedMetric
			if gated || strict {
				status = "FAIL"
				failures = append(failures, fmt.Sprintf("%s %s regressed %.1f%% (threshold %.0f%%)",
					k.bench, k.metric, -regressPct, threshold))
			} else {
				status = "warn"
			}
		}
		rows = append(rows, fmt.Sprintf("  %-4s %-50s %-10s %12.4g -> %-12.4g (%+.1f%%)",
			status, k.bench, k.metric, ov, nv, deltaPct))
	}
	if _, ok := newM[key{gatedBench, gatedMetric}]; !ok {
		failures = append(failures, fmt.Sprintf("gated metric %s %s missing from the new snapshot",
			gatedBench, gatedMetric))
	}
	return rows, failures
}

func main() {
	dir := flag.String("dir", ".", "directory holding BENCH_<n>.json snapshots")
	threshold := flag.Float64("threshold", 10, "max tolerated %% regression in the gated throughput metric")
	strict := flag.Bool("strict", false, "fail on any over-threshold regression, not just the gated metric")
	flag.Parse()

	var oldPath, newPath string
	var err error
	switch flag.NArg() {
	case 0:
		oldPath, newPath, err = latestPair(*dir)
	case 2:
		oldPath, newPath = flag.Arg(0), flag.Arg(1)
	default:
		err = fmt.Errorf("want zero or two file arguments, got %d", flag.NArg())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	oldM, err := load(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newM, err := load(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	fmt.Printf("benchdiff: %s -> %s\n", oldPath, newPath)
	rows, failures := compare(oldM, newM, *threshold, *strict)
	for _, row := range rows {
		fmt.Println(row)
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "benchdiff:", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
}
