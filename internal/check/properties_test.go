package check

import (
	"strings"
	"sync"
	"testing"
)

// The oracle and property battery runs once per test binary, through Run,
// the entry point the CLI uses; TestOracles, TestPageTableDifferential,
// TestProperties and TestRunReport all report that one run.
var (
	batteryOnce   sync.Once
	batteryReport *Report
)

// ranBattery returns Run's report, running the battery on first use.
func ranBattery() *Report {
	batteryOnce.Do(func() { batteryReport = Run() })
	return batteryReport
}

// runChecks reports each of checks as a subtest, named by name, from the
// battery's report.
func runChecks(t *testing.T, checks []namedCheck, name func(string) string) {
	t.Helper()
	errs := map[string]error{}
	for _, res := range ranBattery().Results {
		errs[res.Name] = res.Err
	}
	for _, c := range checks {
		t.Run(name(c.name), func(t *testing.T) {
			err, ok := errs[c.name]
			if !ok {
				t.Fatalf("%s is missing from the battery's report", c.name)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestProperties runs every metamorphic invariant as a subtest.
func TestProperties(t *testing.T) {
	runChecks(t, propertyChecks(), func(n string) string { return strings.TrimPrefix(n, "property/") })
}

// TestRunReport exercises the battery entry point the CLI uses: every check
// is present in the report and the report renders.
func TestRunReport(t *testing.T) {
	r := ranBattery()
	if want := len(battery()); len(r.Results) != want {
		t.Fatalf("report has %d results, battery has %d checks", len(r.Results), want)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Failures() != 0 {
		t.Fatalf("%d failures", r.Failures())
	}
	out := r.Table().String()
	if !strings.Contains(out, "oracle/cache/random") || !strings.Contains(out, "property/traffic-conservation") {
		t.Fatalf("report table missing expected checks:\n%s", out)
	}
}
