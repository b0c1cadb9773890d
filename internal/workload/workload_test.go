package workload

import (
	"strings"
	"testing"

	"lukewarm/internal/stats"
)

func TestSuiteShape(t *testing.T) {
	ws := Suite()
	if len(ws) != 20 {
		t.Fatalf("suite has %d functions, want 20", len(ws))
	}
	counts := map[Lang]int{}
	for _, w := range ws {
		counts[w.Lang]++
		wantSuffix := map[Lang]string{Python: "-P", NodeJS: "-N", Go: "-G"}[w.Lang]
		if !strings.HasSuffix(w.Name, wantSuffix) {
			t.Errorf("%s: name/language mismatch (%v)", w.Name, w.Lang)
		}
		if w.Program == nil {
			t.Errorf("%s: nil program", w.Name)
		}
		if w.App == "" {
			t.Errorf("%s: missing app attribution", w.Name)
		}
	}
	// Table 2: 5 Python, 5 NodeJS, 10 Go.
	if counts[Python] != 5 || counts[NodeJS] != 5 || counts[Go] != 10 {
		t.Errorf("language counts = %v", counts)
	}
}

func TestNamesMatchSuite(t *testing.T) {
	ws := Suite()
	ns := Names()
	if len(ns) != len(ws) {
		t.Fatalf("Names() length %d", len(ns))
	}
	for i := range ws {
		if ws[i].Name != ns[i] {
			t.Errorf("order mismatch at %d: %s vs %s", i, ws[i].Name, ns[i])
		}
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("Auth-G")
	if err != nil || w.Name != "Auth-G" || w.Lang != Go {
		t.Errorf("ByName(Auth-G) = %+v, %v", w, err)
	}
	if _, err := ByName("Nope-X"); err == nil {
		t.Error("unknown name accepted")
	}
	// Programs are built once per process and shared.
	if again, _ := ByName("Auth-G"); again.Program != w.Program {
		t.Error("ByName rebuilt the program")
	}
	for _, s := range Suite() {
		if s.Name == "Auth-G" && s.Program != w.Program {
			t.Error("Suite and ByName hold different programs")
		}
	}
}

func TestRepresentativesExist(t *testing.T) {
	for _, name := range Representatives() {
		if _, err := ByName(name); err != nil {
			t.Errorf("representative %s: %v", name, err)
		}
	}
}

// TestFootprintCalibration checks the Fig. 6a reproduction targets: each
// function's measured per-invocation instruction footprint is within its
// band, all are inside roughly 300-800 KB, and Go < NodeJS < Python on
// average.
func TestFootprintCalibration(t *testing.T) {
	byLang := map[Lang]*stats.Summary{Python: {}, NodeJS: {}, Go: {}}
	for _, w := range Suite() {
		var s stats.Summary
		for inv := uint64(0); inv < 5; inv++ {
			fpKB := float64(len(w.Program.FootprintBlocks(inv))) * 64 / 1024
			s.Add(fpKB)
		}
		if s.Mean() < 230 || s.Mean() > 820 {
			t.Errorf("%s: mean footprint %.0fKB outside the paper's range", w.Name, s.Mean())
		}
		// Fig. 6a: "notably low variance for the vast majority".
		if cv := s.StdDev() / s.Mean(); cv > 0.15 {
			t.Errorf("%s: footprint CV %.3f too high", w.Name, cv)
		}
		byLang[w.Lang].Add(s.Mean())
	}
	if !(byLang[Go].Mean() < byLang[NodeJS].Mean() && byLang[NodeJS].Mean() < byLang[Python].Mean()) {
		t.Errorf("language ordering broken: Go=%.0f Node=%.0f Py=%.0f",
			byLang[Go].Mean(), byLang[NodeJS].Mean(), byLang[Python].Mean())
	}
}

// TestCommonalityCalibration checks the Fig. 6b targets: mean pairwise
// Jaccard > 0.9 for all but the three designated outliers, which still stay
// above ~0.75.
func TestCommonalityCalibration(t *testing.T) {
	outliers := map[string]bool{"Email-P": true, "Curr-N": true, "RecH-G": true}
	lowCount := 0
	for _, w := range Suite() {
		const n = 5
		sets := make([]map[uint64]struct{}, n)
		for i := range sets {
			sets[i] = w.Program.FootprintBlocks(uint64(i))
		}
		var s stats.Summary
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s.Add(stats.Jaccard(sets[i], sets[j]))
			}
		}
		mean := s.Mean()
		if outliers[w.Name] {
			if mean >= 0.92 {
				t.Errorf("%s: designated outlier has commonality %.3f", w.Name, mean)
			}
			if mean < 0.72 {
				t.Errorf("%s: outlier commonality %.3f below the paper's floor", w.Name, mean)
			}
			lowCount++
		} else {
			if mean < 0.87 {
				t.Errorf("%s: commonality %.3f below the >0.9 target", w.Name, mean)
			}
		}
		if s.Min() < 0.6 {
			t.Errorf("%s: pairwise minimum %.3f implausibly low", w.Name, s.Min())
		}
	}
	if lowCount != 3 {
		t.Errorf("found %d designated outliers, want 3", lowCount)
	}
}

func TestSuiteDeterministic(t *testing.T) {
	for i, w := range Suite() {
		if build(specs[i]).DynamicLength(3) != w.Program.DynamicLength(3) {
			t.Errorf("%s: non-deterministic rebuild", w.Name)
		}
	}
}

func TestStressor(t *testing.T) {
	s := Stressor()
	if got := s.StaticFootprintBytes(); got < 1<<20 {
		t.Errorf("stressor footprint %d too small to thrash an LLC slice", got)
	}
	if s.DynamicLength(0) == 0 {
		t.Error("stressor produces no instructions")
	}
}

func TestLangString(t *testing.T) {
	if Python.String() != "Python" || NodeJS.String() != "NodeJS" || Go.String() != "Go" || Lang(9).String() != "Lang?" {
		t.Error("Lang strings wrong")
	}
}
