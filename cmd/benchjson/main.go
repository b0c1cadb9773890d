// Command benchjson converts `go test -bench` text output on stdin into a
// stable JSON document on stdout, so benchmark runs can be checked in and
// diffed as a performance trajectory (BENCH_*.json; see the Makefile's
// bench target).
//
// Usage:
//
//	go test -run '^$' -bench . -count 5 ./... | benchjson > BENCH_N.json
//
// Each benchmark becomes one record carrying the package it ran in, the
// iteration count, and every reported metric (ns/op, B/op, custom
// b.ReportMetric units). A benchmark run several times (go test -count N)
// becomes one record whose metrics are the medians of its samples, with
// the minimum and maximum beside them. Non-benchmark lines are ignored, so
// the tool tolerates interleaved PASS/ok/pkg chatter.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
)

// record is one benchmark result.
type record struct {
	Name       string `json:"name"`
	Package    string `json:"package,omitempty"`
	Iterations int64  `json:"iterations"`
	// Samples is the number of runs summarized; snapshots from before
	// -count runs omit it and carry one sample.
	Samples int `json:"samples,omitempty"`
	// Metrics maps unit to the median of the samples: "ns/op", "B/op",
	// "allocs/op" and any custom units (encoding/json sorts keys, so output
	// is stable).
	Metrics map[string]float64 `json:"metrics"`
	// Min and Max map unit to the extreme samples.
	Min map[string]float64 `json:"min,omitempty"`
	Max map[string]float64 `json:"max,omitempty"`
}

// summarize folds the samples of each (package, name) pair into one record
// in first-seen order: metrics become medians, with Min and Max beside
// them. The iteration count is the first sample's.
func summarize(samples []record) []record {
	type id struct{ pkg, name string }
	var order []id
	groups := map[id][]record{}
	for _, r := range samples {
		k := id{r.Package, r.Name}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	out := make([]record, 0, len(order))
	for _, k := range order {
		g := groups[k]
		r := record{Name: k.name, Package: k.pkg, Iterations: g[0].Iterations, Samples: len(g),
			Metrics: map[string]float64{}, Min: map[string]float64{}, Max: map[string]float64{}}
		for unit := range g[0].Metrics {
			var vs []float64
			for _, s := range g {
				if v, ok := s.Metrics[unit]; ok {
					vs = append(vs, v)
				}
			}
			slices.Sort(vs)
			m := len(vs) / 2
			r.Metrics[unit] = vs[m]
			if len(vs)%2 == 0 {
				r.Metrics[unit] = (vs[m-1] + vs[m]) / 2
			}
			r.Min[unit], r.Max[unit] = vs[0], vs[len(vs)-1]
		}
		out = append(out, r)
	}
	return out
}

// parse consumes go test -bench output and returns one record per
// benchmark line, in input order.
func parse(sc *bufio.Scanner) ([]record, error) {
	var recs []record
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then value/unit pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := record{Name: fields[0], Package: pkg, Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad value %q in %q", fields[i], line)
			}
			r.Metrics[fields[i+1]] = v
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

func main() {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	recs, err := parse(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(recs) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(summarize(recs)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
