package check

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"lukewarm/internal/stats"
)

// GoldenTable is the serialized snapshot of one experiment table: its
// rendered cells. The simulator is bit-deterministic, so future runs must
// reproduce every cell exactly.
type GoldenTable struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// tableCells extracts a table's header and rows through its CSV rendering,
// the one machine-readable surface stats.Table exposes.
func tableCells(t *stats.Table) ([]string, [][]string, error) {
	var buf bytes.Buffer
	if err := t.WriteCSV(&buf); err != nil {
		return nil, nil, err
	}
	cr := csv.NewReader(&buf)
	cr.FieldsPerRecord = -1 // tables may have ragged rows (e.g. section breaks)
	all, err := cr.ReadAll()
	if err != nil {
		return nil, nil, fmt.Errorf("check: re-reading %q as CSV: %w", t.Title, err)
	}
	if len(all) == 0 {
		return nil, nil, fmt.Errorf("check: table %q rendered empty", t.Title)
	}
	return all[0], all[1:], nil
}

// Snapshot captures t as a golden table.
func Snapshot(t *stats.Table) (GoldenTable, error) {
	header, rows, err := tableCells(t)
	if err != nil {
		return GoldenTable{}, err
	}
	return GoldenTable{Title: t.Title, Header: header, Rows: rows}, nil
}

// Compare checks the current rendering of t against the golden snapshot and
// describes the first divergence.
func (g GoldenTable) Compare(t *stats.Table) error {
	header, rows, err := tableCells(t)
	if err != nil {
		return err
	}
	if t.Title != g.Title {
		return fmt.Errorf("title %q, golden has %q", t.Title, g.Title)
	}
	if fmt.Sprint(header) != fmt.Sprint(g.Header) {
		return fmt.Errorf("header %v, golden has %v", header, g.Header)
	}
	if len(rows) != len(g.Rows) {
		return fmt.Errorf("%d rows, golden has %d", len(rows), len(g.Rows))
	}
	for i, want := range g.Rows {
		got := rows[i]
		if len(got) != len(want) {
			return fmt.Errorf("row %d: %d cells, golden has %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				return fmt.Errorf("row %d (%s), column %q: got %q, golden has %q",
					i, strings.Join(got, " | "), g.Header[j], got[j], want[j])
			}
		}
	}
	return nil
}

// ReadGolden loads a golden snapshot from path.
func ReadGolden(path string) (GoldenTable, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return GoldenTable{}, fmt.Errorf("check: reading golden (run `go test ./internal/check -run Golden -update` to create it): %w", err)
	}
	var g GoldenTable
	if err := json.Unmarshal(data, &g); err != nil {
		return GoldenTable{}, fmt.Errorf("check: parsing golden %s: %w", path, err)
	}
	return g, nil
}

// WriteGolden stores a golden snapshot at path, creating the directory.
func WriteGolden(path string, g GoldenTable) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("check: creating golden dir: %w", err)
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return fmt.Errorf("check: encoding golden %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
