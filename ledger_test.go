package lukewarm

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// ledgerMarker matches a `<!-- ledger: TABLE ROW COLUMN -->` marker not
// quoted in backticks; ledgerField splits its fields, a quoted field holding
// spaces.
var (
	ledgerMarker = regexp.MustCompile("(?:^|[^`])(<!-- ledger: (.*?) -->)")
	ledgerField  = regexp.MustCompile(`"[^"]*"|\S+`)
	// proseNumber is a signed decimal as the prose writes it (− is U+2212),
	// with an optional M (millions) after it.
	proseNumber = regexp.MustCompile(`([−+-]?\d+(?:\.\d+)?)\s*(M\b)?`)
)

// checkLedgerMarkers checks every marker in doc: the last number before it
// on its line (after any earlier marker) must equal the named cell rounded
// to the number's own decimals. table reads results_csv/<name>.csv.
func checkLedgerMarkers(doc string, table func(name string) ([][]string, error)) (markers int, errs []error) {
	for ln, line := range strings.Split(doc, "\n") {
		from := 0
		for _, loc := range ledgerMarker.FindAllStringSubmatchIndex(line, -1) {
			markers++
			text, spec := line[from:loc[2]], line[loc[4]:loc[5]]
			from = loc[3]
			fail := func(format string, args ...any) {
				errs = append(errs, fmt.Errorf("EXPERIMENTS.md:%d: ledger %s: %s", ln+1, spec, fmt.Sprintf(format, args...)))
			}
			f := ledgerField.FindAllString(spec, -1)
			if len(f) != 3 {
				fail("want TABLE ROW COLUMN")
				continue
			}
			for i := range f {
				f[i] = strings.Trim(f[i], `"`)
			}
			rows, err := table(f[0])
			if err != nil {
				fail("%v", err)
				continue
			}
			cell, err := ledgerCell(rows, f[1], f[2])
			if err != nil {
				fail("%v", err)
				continue
			}
			nums := proseNumber.FindAllStringSubmatch(text, -1)
			if len(nums) == 0 {
				fail("no number before the marker")
				continue
			}
			got, scale := strings.ReplaceAll(nums[len(nums)-1][1], "−", "-"), 1.0
			if nums[len(nums)-1][2] == "M" {
				scale = 1e6
			}
			want, err := strconv.ParseFloat(strings.NewReplacer("%", "", " ", "", "MB", "", "KB", "").Replace(cell), 64)
			if err != nil {
				fail("cell %q is not a number", cell)
				continue
			}
			decimals := 0
			if i := strings.IndexByte(got, '.'); i >= 0 {
				decimals = len(got) - i - 1
			}
			if strings.TrimPrefix(got, "+") != strconv.FormatFloat(want/scale, 'f', decimals, 64) {
				fail("prose says %s, the ledger cell is %s", strings.TrimSpace(nums[len(nums)-1][0]), cell)
			}
		}
	}
	return markers, errs
}

// ledgerCell returns the cell of rows in the first row whose first field is
// row, under the header column (or the n-th field for "#n").
func ledgerCell(rows [][]string, row, column string) (string, error) {
	if len(rows) == 0 {
		return "", fmt.Errorf("empty table")
	}
	col := -1
	if n, err := strconv.Atoi(strings.TrimPrefix(column, "#")); err == nil && strings.HasPrefix(column, "#") {
		col = n - 1
	}
	for i, h := range rows[0] {
		if h == column {
			col = i
		}
	}
	if col < 0 {
		return "", fmt.Errorf("no column %q in header %q", column, rows[0])
	}
	for _, r := range rows[1:] {
		if len(r) > 0 && r[0] == row {
			if col >= len(r) {
				return "", fmt.Errorf("row %q has no field %d", row, col+1)
			}
			return r[col], nil
		}
	}
	return "", fmt.Errorf("no row %q", row)
}

// readLedgerTable reads results_csv/<name>.csv.
func readLedgerTable(name string) ([][]string, error) {
	f, err := os.Open(filepath.Join("results_csv", name+".csv"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.FieldsPerRecord = -1
	return r.ReadAll()
}

// TestLedgerMarkers ties every number EXPERIMENTS.md marks to its cell in
// the results ledger, so prose cannot drift from `make results`.
func TestLedgerMarkers(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	n, errs := checkLedgerMarkers(string(doc), readLedgerTable)
	for _, err := range errs {
		t.Error(err)
	}
	if n < 30 {
		t.Errorf("found %d ledger markers; the headline and ablation tables carry more", n)
	}
}

// TestLedgerMarkersCatchDrift plants a stale number, an unknown cell and a
// misscaled value and requires each to fail, and a marker quoted in prose
// to be skipped.
func TestLedgerMarkersCatchDrift(t *testing.T) {
	table := func(string) ([][]string, error) {
		return [][]string{{"Function", "Speedup", "p99"}, {"GEOMEAN", "18.6%", "26637746"}}, nil
	}
	for doc, bad := range map[string]bool{
		"| 18.6 %<!-- ledger: t GEOMEAN Speedup --> |":                                       false,
		"| 18.7 %<!-- ledger: t GEOMEAN Speedup --> |":                                       true,
		"| 18.6 %<!-- ledger: t GEOMEAN Jukebox --> |":                                       true,
		"| 26.6 M<!-- ledger: t GEOMEAN p99 --> |":                                           false,
		"| 26.6<!-- ledger: t GEOMEAN p99 --> |":                                             true,
		"| −2 % / 18.6 %<!-- ledger: t GEOMEAN Speedup --> |":                                false,
		"| 19 %<!-- ledger: t GEOMEAN Speedup --> / 18.6 %":                                  false,
		"| 18.6 %<!-- ledger: t GEOMEAN Speedup --> / 8.6<!-- ledger: t GEOMEAN Speedup -->": true,
		"a `<!-- ledger: TABLE ROW COLUMN -->` marker":                                       false,
	} {
		if _, errs := checkLedgerMarkers(doc, table); (len(errs) > 0) != bad {
			t.Errorf("%q: errors %v, want failure %v", doc, errs, bad)
		}
	}
}
