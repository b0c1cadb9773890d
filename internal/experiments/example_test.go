package experiments_test

import (
	"fmt"

	"lukewarm/internal/experiments"
)

// ExampleFig8 measures Jukebox's metadata requirement for one function and
// confirms the paper's 1 KB region-size optimum.
func ExampleFig8() {
	opt := experiments.Options{Functions: []string{"Email-P"}, Measure: 1}
	r, err := experiments.Fig8(opt)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("best region size:", r.BestRegionSize(), "bytes")
	// Output:
	// best region size: 1024 bytes
}
