// Package check is the repository's validation subsystem: an independent
// line of evidence that the microarchitectural structures underneath every
// figure are right.
//
// It has three layers:
//
//   - Differential oracles (oracles.go): small, obviously-correct reference
//     models — a per-set recency-list LRU cache, a map-based direct-map BTB,
//     a naive two-level TLB walk, an in-order fetch accountant — cross-checked
//     access-by-access against internal/mem, internal/cpu, and internal/vm on
//     seeded random and trace-derived address streams.
//   - Metamorphic properties (properties.go): invariants that must hold
//     across related runs — a larger cache never misses more, a zero-length
//     inter-arrival gap is the warm steady state, a disabled Jukebox is
//     bit-identical to no Jukebox, the Top-Down stack sums to the measured
//     cycles, and ServeTraffic conserves invocations.
//   - Golden-figure regression (golden.go, golden_test.go): canonical
//     small-config runs of every entry of the experiment registry,
//     snapshotted under testdata/golden, held to an exact match cell by
//     cell, and refreshed via `go test ./internal/check -run Golden -update`.
//
// The oracle and property layers run in plain unit tests and behind the
// `lukewarm check` subcommand (Run); the golden layer is test-only because
// it needs the checked-in testdata.
package check

import (
	"fmt"

	"lukewarm/internal/stats"
)

// namedCheck is one entry of the validation battery.
type namedCheck struct {
	name string
	fn   func() error
}

// Result is one check's outcome.
type Result struct {
	// Name identifies the check, e.g. "oracle/cache/random".
	Name string
	// Err is nil for a pass.
	Err error
}

// Report collects the battery's outcomes.
type Report struct {
	Results []Result
}

// Failures reports how many checks failed.
func (r *Report) Failures() int {
	n := 0
	for _, res := range r.Results {
		if res.Err != nil {
			n++
		}
	}
	return n
}

// Err summarizes the report as an error: nil when everything passed,
// otherwise the first failure annotated with the failure count.
func (r *Report) Err() error {
	for _, res := range r.Results {
		if res.Err != nil {
			return fmt.Errorf("check: %d of %d checks failed, first: %s: %w",
				r.Failures(), len(r.Results), res.Name, res.Err)
		}
	}
	return nil
}

// Table renders the report.
func (r *Report) Table() *stats.Table {
	t := stats.NewTable("Validation battery: differential oracles + metamorphic properties",
		"check", "status", "detail")
	for _, res := range r.Results {
		status, detail := "ok", ""
		if res.Err != nil {
			status, detail = "FAIL", res.Err.Error()
		}
		t.AddRow(res.Name, status, detail)
	}
	return t
}

// battery returns every oracle and property check in execution order. Tests
// and Run share it, so the CLI battery and `go test ./internal/check` can
// never drift apart.
func battery() []namedCheck {
	var checks []namedCheck
	checks = append(checks, oracleChecks()...)
	checks = append(checks, pagetableChecks()...)
	checks = append(checks, propertyChecks()...)
	return checks
}

// Run executes the full oracle + property battery and returns its report.
// The golden-figure regression layer is excluded: it lives in the test
// binary, next to its testdata.
func Run() *Report {
	r := &Report{}
	for _, c := range battery() {
		r.Results = append(r.Results, Result{Name: c.name, Err: c.fn()})
	}
	return r
}
