package experiments

import (
	"slices"
	"testing"
)

// TestRegistryNames checks that every command-line name selects exactly one
// table or entry: entry names and table names are unique across entries, no
// name shadows the CLI's own `all` and `check` commands, and every entry is
// reachable by at least one name.
func TestRegistryNames(t *testing.T) {
	reserved := map[string]bool{"all": true, "check": true}
	entries := map[string]bool{}
	tableOwner := map[string]string{}
	for _, e := range All() {
		if e.Name == "" || reserved[e.Name] || entries[e.Name] {
			t.Errorf("entry name %q is empty, reserved or repeated", e.Name)
		}
		entries[e.Name] = true
		if e.Usage == "" || e.Run == nil {
			t.Errorf("%s: missing usage line or runner", e.Name)
		}
		named := 0
		for _, tb := range e.Tables {
			if tb == "" {
				continue
			}
			named++
			if reserved[tb] {
				t.Errorf("%s: table name %q is reserved", e.Name, tb)
			}
			if prev, dup := tableOwner[tb]; dup {
				t.Errorf("table name %q declared by both %s and %s", tb, prev, e.Name)
			}
			tableOwner[tb] = e.Name
		}
		if named == 0 {
			t.Errorf("%s: no command-line name reaches it", e.Name)
		}
	}
	for name := range entries {
		if owner, ok := tableOwner[name]; ok && owner != name {
			t.Errorf("entry name %q is also a table name of %s", name, owner)
		}
	}
}

// TestRegistryOrder pins the entry order: `lukewarm all` prints in it, so a
// reordering changes the CLI's output.
func TestRegistryOrder(t *testing.T) {
	want := []string{
		"table1", "table2", "fig1", "fig2-5", "fig6", "fig8", "fig9", "fig10-12",
		"fig13", "table3", "crrb", "compaction", "snapshot", "dynmeta",
		"baselines", "server", "scaling", "sched", "chaos", "cluster",
		"coldstart", "prewarm",
	}
	var got []string
	for _, e := range All() {
		got = append(got, e.Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("registry order\n got %v\nwant %v", got, want)
	}
}
