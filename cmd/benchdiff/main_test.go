package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustLoad(t *testing.T, name string) map[key]float64 {
	t.Helper()
	m, err := load(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// countStatus tallies rows whose status column matches want.
func countStatus(rows []string, want string) int {
	n := 0
	for _, r := range rows {
		if strings.HasPrefix(strings.TrimSpace(r), want+" ") {
			n++
		}
	}
	return n
}

// TestCompareRegression exercises BENCH_1 -> BENCH_2: the gated throughput
// drops 20% (FAIL), and every other shared metric regresses past the
// default threshold too (warn without -strict).
func TestCompareRegression(t *testing.T) {
	oldM, newM := mustLoad(t, "BENCH_1.json"), mustLoad(t, "BENCH_2.json")
	rows, failures := compare(oldM, newM, 10, false)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3 shared metrics:\n%s", len(rows), strings.Join(rows, "\n"))
	}
	if len(failures) != 1 || !strings.Contains(failures[0], gatedBench) {
		t.Fatalf("want exactly the gated-metric failure, got %v", failures)
	}
	if got := countStatus(rows, "warn"); got != 2 {
		t.Fatalf("got %d warn rows, want 2 (ungated ns/op regressions):\n%s", got, strings.Join(rows, "\n"))
	}
}

// TestCompareStrictPromotesWarnings pins the -strict contract: the same pair
// turns every over-threshold regression into a failure and leaves no warns.
func TestCompareStrictPromotesWarnings(t *testing.T) {
	oldM, newM := mustLoad(t, "BENCH_1.json"), mustLoad(t, "BENCH_2.json")
	rows, failures := compare(oldM, newM, 10, true)
	if len(failures) != 3 {
		t.Fatalf("strict: got %d failures, want 3: %v", len(failures), failures)
	}
	if got := countStatus(rows, "warn"); got != 0 {
		t.Fatalf("strict: got %d warn rows, want 0:\n%s", got, strings.Join(rows, "\n"))
	}
	if got := countStatus(rows, "FAIL"); got != 3 {
		t.Fatalf("strict: got %d FAIL rows, want 3:\n%s", got, strings.Join(rows, "\n"))
	}
}

// TestCompareImprovement exercises BENCH_1 -> BENCH_3: everything improves,
// so even -strict reports nothing.
func TestCompareImprovement(t *testing.T) {
	oldM, newM := mustLoad(t, "BENCH_1.json"), mustLoad(t, "BENCH_3.json")
	rows, failures := compare(oldM, newM, 10, true)
	if len(failures) != 0 {
		t.Fatalf("improvement pair failed: %v", failures)
	}
	if got := countStatus(rows, "ok"); got != 3 {
		t.Fatalf("got %d ok rows, want 3:\n%s", got, strings.Join(rows, "\n"))
	}
}

// TestCompareMissingGatedBench pins the missing-bench gate: a new snapshot
// without the gated throughput metric fails even when nothing regressed.
func TestCompareMissingGatedBench(t *testing.T) {
	oldM, newM := mustLoad(t, "BENCH_1.json"), mustLoad(t, "missing.json")
	_, failures := compare(oldM, newM, 10, false)
	if len(failures) != 1 || !strings.Contains(failures[0], "missing") {
		t.Fatalf("want exactly the missing-metric failure, got %v", failures)
	}
}

// TestCompareToleratesNewBench pins that a bench the previous snapshot
// lacks is skipped, not failed, even under -strict, and that per-access
// times count as lower-is-better.
func TestCompareToleratesNewBench(t *testing.T) {
	oldM := mustLoad(t, "BENCH_1.json")
	newM := map[key]float64{{"BenchmarkHierarchyDataMixed", "ns/access"}: 60}
	for k, v := range oldM {
		newM[k] = v
	}
	rows, failures := compare(oldM, newM, 10, true)
	if len(failures) != 0 || len(rows) != len(oldM) {
		t.Fatalf("new bench: %d rows (want %d), failures %v", len(rows), len(oldM), failures)
	}
	if !lowerIsBetter("ns/access") || lowerIsBetter("Minstr/s") {
		t.Fatal("ns/access must be lower-is-better and Minstr/s higher-is-better")
	}
}

// TestLoadDropsProcsSuffix pins that a snapshot taken with GOMAXPROCS > 1
// (names like BenchmarkX-4) lines up with one taken on a single CPU.
func TestLoadDropsProcsSuffix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_9.json")
	doc := `[{"name":"BenchmarkSimulationThroughput-4","iterations":1,"metrics":{"Minstr/s":12}},` +
		`{"name":"BenchmarkForecast/ewma-2","iterations":1,"metrics":{"ns/op":400}}]`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if m[key{gatedBench, gatedMetric}] != 12 || m[key{"BenchmarkForecast/ewma", "ns/op"}] != 400 {
		t.Fatalf("suffixed names not normalized: %v", m)
	}
}

// TestLoadMalformed pins the exit-2 input path: a snapshot that is not a
// benchmark array reports a decode error naming the file.
func TestLoadMalformed(t *testing.T) {
	if _, err := load(filepath.Join("testdata", "malformed.json")); err == nil {
		t.Fatal("malformed snapshot loaded without error")
	} else if !strings.Contains(err.Error(), "malformed.json") {
		t.Fatalf("error does not name the file: %v", err)
	}
	if _, err := load(filepath.Join("testdata", "absent.json")); err == nil {
		t.Fatal("absent snapshot loaded without error")
	}
}

// TestLatestPair pins snapshot selection: the two highest-numbered
// BENCH_<n>.json files win, oldest first, and non-matching names are
// ignored.
func TestLatestPair(t *testing.T) {
	oldPath, newPath, err := latestPair("testdata")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(oldPath) != "BENCH_2.json" || filepath.Base(newPath) != "BENCH_3.json" {
		t.Fatalf("got pair (%s, %s), want (BENCH_2.json, BENCH_3.json)", oldPath, newPath)
	}
	if _, _, err := latestPair(t.TempDir()); err == nil {
		t.Fatal("empty dir produced a pair")
	}
}

// TestCompareGatesOnMedian runs the gate on five-sample snapshots of a
// throughput that swings ±15% run to run. The base samples are 16.4, 19.0,
// 19.5, 20.1 and 21.9 Minstr/s. A clean rerun (16.6, 18.9, 19.8, 20.6,
// 22.4) passes even though its slowest sample sits 15% below the base
// median, which a single-sample gate could have drawn. A real regression
// (15.0, 16.5, 17.16, 18.0, 19.6) moves the median 12% and fails, though
// its fastest sample beats the base median.
func TestCompareGatesOnMedian(t *testing.T) {
	base := mustLoad(t, "noisy_base.json")
	if _, failures := compare(base, mustLoad(t, "noisy_clean.json"), 10, false); len(failures) != 0 {
		t.Fatalf("clean noisy run failed the gate: %v", failures)
	}
	_, failures := compare(base, mustLoad(t, "noisy_regress.json"), 10, false)
	if len(failures) != 1 || !strings.Contains(failures[0], "regressed 12.0%") {
		t.Fatalf("want the 12%% median regression to fail the gate, got %v", failures)
	}
}
