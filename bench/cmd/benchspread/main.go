// Command benchspread summarizes repeated lukebench runs of one workload:
// for every metric, the median, the quartiles and the spread (quartile
// distance over median) next to the metric's bound from BENCHMARK.json. Given
// a second set of runs it also reports how far each median moved and whether
// that is worse than the bound allows.
//
// Usage:
//
//	benchspread [-bounds ../BENCHMARK.json] first.jsonl [second.jsonl]
//
// Each file holds the last output line of each run, one JSON object a line
// (calibrate.sh writes them). It exits 1 when a spread exceeds its bound or
// a median regressed past it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"

	"lukewarm/bench"
)

type bound struct {
	Name   string       `json:"name"`
	Better bench.Better `json:"better"`
	Bound  float64      `json:"bound"`
}

func main() {
	boundsPath := flag.String("bounds", "../BENCHMARK.json", "BENCHMARK.json to read the bounds from")
	flag.Parse()
	if flag.NArg() < 1 || flag.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: benchspread [-bounds BENCHMARK.json] first.jsonl [second.jsonl]")
		os.Exit(2)
	}
	bounds, err := readBounds(*boundsPath)
	if err != nil {
		fail(err)
	}
	var sets []map[string][]float64
	for _, path := range flag.Args() {
		s, err := readRuns(path)
		if err != nil {
			fail(err)
		}
		sets = append(sets, s)
	}
	var names []string
	for name := range sets[0] {
		names = append(names, name)
	}
	sort.Strings(names)

	bad := false
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tn\tmedian\tq1\tq3\tspread\tbound\tspread/bound\tsecond median\tworse by\t")
	for _, name := range names {
		xs := sets[0][name]
		q1, q3 := bench.Quartiles(xs)
		b, hasBound := bounds[name]
		row := fmt.Sprintf("%s\t%d\t%.6g\t%.6g\t%.6g\t%.4f\t", name, len(xs), bench.Median(xs), q1, q3, bench.Spread(xs))
		if !hasBound {
			fmt.Fprintln(tw, row+"\t\t\t\t")
			continue
		}
		row += fmt.Sprintf("%.3f\t%.2f\t", b.Bound, bench.Spread(xs)/b.Bound)
		if name != "setup_s" && bench.Spread(xs) > b.Bound {
			bad = true
			row += "SPREAD "
		}
		if len(sets) == 2 {
			ys := sets[1][name]
			row += fmt.Sprintf("%.6g\t%+.4f\t", bench.Median(ys), bench.Worse(bench.Median(xs), bench.Median(ys), b.Better))
			if bench.Regressed(xs, ys, b.Better, b.Bound) {
				bad = true
				row += "REGRESSED"
			}
		} else {
			row += "\t\t"
		}
		fmt.Fprintln(tw, row)
	}
	tw.Flush()
	if bad {
		os.Exit(1)
	}
}

// readBounds maps every end-to-end metric of BENCHMARK.json to its bound.
func readBounds(path string) (map[string]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m := map[string]bound{}
	for _, x := range b.EndToEnd {
		m[x.Name] = x
	}
	return m, nil
}

// readRuns collects every metric's values across the runs in path.
func readRuns(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	vals := map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r bench.Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s:%d: run reported incorrect output", path, line)
		}
		for name, m := range r.Metrics {
			vals[name] = append(vals[name], m.Value)
		}
	}
	return vals, sc.Err()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchspread:", err)
	os.Exit(2)
}
