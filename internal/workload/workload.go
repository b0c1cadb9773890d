// Package workload defines the paper's evaluation suite (Table 2): twenty
// short-running serverless functions drawn from DeathStarBench Hotel
// Reservation, Google Online Boutique, AWS authentication samples, and
// FunctionBench, implemented in Python, NodeJS, and Go.
//
// Each function is realized as a synthetic program (package program) whose
// address-stream properties are calibrated to the paper's own measurements:
//
//   - Per-invocation instruction footprints of ~300-800 KB with low variance
//     (Fig. 6a), Go functions leanest, Python largest.
//   - Cross-invocation Jaccard commonality above 0.9 for all but three
//     functions, which straddle 0.8-0.9 (Fig. 6b).
//   - The paper's observation that implementation language is the single
//     biggest determinant of runtime behavior (Sec. 5.1, footnote 4):
//     interpreters (Python) have large footprints, heavy indirect dispatch
//     and pointer chasing; JIT runtimes (NodeJS) sit in between; compiled Go
//     is leanest and most predictable.
package workload

import (
	"sync"

	"lukewarm/internal/cfgerr"
	"lukewarm/internal/program"
)

// Lang is the implementation language of a function (Table 2's legend).
type Lang uint8

// Languages of the suite.
const (
	Python Lang = iota
	NodeJS
	Go
)

// String implements fmt.Stringer using the paper's abbreviations.
func (l Lang) String() string {
	switch l {
	case Python:
		return "Python"
	case NodeJS:
		return "NodeJS"
	case Go:
		return "Go"
	}
	return "Lang?"
}

// Workload is one function of the suite.
type Workload struct {
	// Name is the paper's abbreviation (e.g. "Auth-P", "Ship-G").
	Name string
	// App is the source application (Hotel Reservation, Online Boutique...).
	App string
	// Lang is the implementation language.
	Lang Lang
	// Program is the synthetic function realizing the workload.
	Program *program.Program
}

// spec is the calibration record a workload is built from.
type spec struct {
	name      string
	app       string
	lang      Lang
	codeKB    int
	dynMul    float64 // dynamic instructions per code KB, relative to base
	dataKB    int
	hotKB     int
	lowCommon bool // one of the three Fig. 6b outliers
}

// specs lists the suite in the paper's figure order.
var specs = []spec{
	{"Fib-P", "FunctionBench", Python, 580, 1.4, 96, 16, false},
	{"AES-P", "FunctionBench", Python, 620, 1.5, 160, 24, false},
	{"Auth-P", "AWS Auth", Python, 700, 1.0, 144, 24, false},
	{"Email-P", "Online Boutique", Python, 760, 1.0, 192, 24, true},
	{"RecO-P", "Online Boutique", Python, 650, 1.0, 176, 24, false},
	{"Fib-N", "FunctionBench", NodeJS, 460, 1.4, 112, 16, false},
	{"AES-N", "FunctionBench", NodeJS, 500, 1.5, 176, 24, false},
	{"Auth-N", "AWS Auth", NodeJS, 560, 1.0, 144, 24, false},
	{"Curr-N", "Online Boutique", NodeJS, 620, 1.0, 160, 24, true},
	{"Pay-N", "Online Boutique", NodeJS, 700, 1.0, 208, 32, false},
	{"Fib-G", "FunctionBench", Go, 300, 1.4, 80, 16, false},
	{"AES-G", "FunctionBench", Go, 330, 1.5, 144, 24, false},
	{"Auth-G", "AWS Auth", Go, 360, 1.0, 112, 16, false},
	{"Geo-G", "Hotel Reservation", Go, 420, 1.0, 160, 24, false},
	{"ProdL-G", "Online Boutique", Go, 330, 1.0, 128, 16, false},
	{"Prof-G", "Hotel Reservation", Go, 450, 1.0, 176, 24, false},
	{"Rate-G", "Hotel Reservation", Go, 390, 1.0, 144, 16, false},
	{"RecH-G", "Hotel Reservation", Go, 520, 1.0, 160, 24, true},
	{"User-G", "Hotel Reservation", Go, 360, 1.0, 112, 16, false},
	{"Ship-G", "Online Boutique", Go, 440, 1.0, 144, 16, false},
}

// dynPerKB converts code footprint to dynamic length: roughly 70 dynamic
// instructions per footprint cache line (short handlers re-touch their code
// a few dozen times per invocation, spread across the whole footprint).
const dynPerKB = 1100

// build constructs the program for one spec.
func build(s spec) *program.Program {
	cfg := program.Config{
		Name:          s.name,
		Seed:          program.Mix(0x570C4A57, hashName(s.name)),
		CodeKB:        s.codeKB,
		DynamicInstrs: int(float64(s.codeKB*dynPerKB) * s.dynMul),
		InstrPerLine:  16,
		DataKB:        s.dataKB,
		HotDataKB:     s.hotKB,
		HotDataFrac:   0.68,
		ColdDataFrac:  0.05,
		CondFrac:      0.30,
		CondBias:      0.90,
		NoisyFrac:     0.025,
	}
	switch s.lang {
	case Python:
		cfg.CoreFrac = 0.78
		cfg.OptionalProb = 0.75
		cfg.RareFrac = 0.05
		cfg.RareProb = 0.04
		cfg.LoadFrac = 0.27
		cfg.StoreFrac = 0.10
		cfg.IndirectFrac = 0.35
		cfg.CallFrac = 0.65
		cfg.SkipFrac = 0.05
		cfg.DepLoadFrac = 0.30
		cfg.KernelFrac = 0.12
	case NodeJS:
		cfg.CoreFrac = 0.76
		cfg.OptionalProb = 0.72
		cfg.RareFrac = 0.05
		cfg.RareProb = 0.05
		cfg.LoadFrac = 0.25
		cfg.StoreFrac = 0.10
		cfg.IndirectFrac = 0.25
		cfg.CallFrac = 0.48
		cfg.SkipFrac = 0.06
		cfg.DepLoadFrac = 0.25
		cfg.KernelFrac = 0.12
	case Go:
		cfg.CoreFrac = 0.85
		cfg.OptionalProb = 0.75
		cfg.RareFrac = 0.04
		cfg.RareProb = 0.04
		cfg.LoadFrac = 0.24
		cfg.StoreFrac = 0.09
		cfg.IndirectFrac = 0.12
		cfg.CallFrac = 0.35
		cfg.SkipFrac = 0.04
		cfg.DepLoadFrac = 0.15
		cfg.KernelFrac = 0.15
	}
	if s.lowCommon {
		// The Fig. 6b outliers: more per-invocation variation.
		cfg.CoreFrac -= 0.17
		cfg.OptionalProb -= 0.12
		cfg.RareFrac += 0.03
	}
	return program.New(cfg)
}

// hashName derives a stable per-function seed component.
func hashName(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// programs holds each spec's program, built on first use and shared by
// every caller for the life of the process: programs are immutable, so
// concurrent cells and instances may walk one.
var programs = make([]struct {
	once sync.Once
	p    *program.Program
}, len(specs))

// at returns the workload of specs[i].
func at(i int) Workload {
	s, b := specs[i], &programs[i]
	b.once.Do(func() { b.p = build(s) })
	return Workload{Name: s.name, App: s.app, Lang: s.lang, Program: b.p}
}

// Suite returns the full 20-function suite in the paper's figure order.
// Every call shares the same programs.
func Suite() []Workload {
	ws := make([]Workload, len(specs))
	for i := range specs {
		ws[i] = at(i)
	}
	return ws
}

// Names lists the suite's function names in figure order.
func Names() []string {
	ns := make([]string, len(specs))
	for i, s := range specs {
		ns[i] = s.name
	}
	return ns
}

// ByName returns the named workload, or an error listing valid names. The
// program is built once per process and shared by every call.
func ByName(name string) (Workload, error) {
	for i, s := range specs {
		if s.name == name {
			return at(i), nil
		}
	}
	return Workload{}, cfgerr.New("workload: unknown function %q (see workload.Names)", name)
}

// Representatives returns the per-language representatives the paper plots
// in Figs. 9 and 13: Email-P, Pay-N, ProdL-G.
func Representatives() []string { return []string{"Email-P", "Pay-N", "ProdL-G"} }

// WithChurnSlide returns a copy of w whose program's churned-heap window
// slides by kb KB per invocation instead of flipping between two whole
// generations (program.Config.ChurnSlideKB). A gradual slide makes a frozen
// page manifest go stale monotonically with age — the axis the REAP
// staleness sweep measures. The canonical suite keeps the default.
func WithChurnSlide(w Workload, kb int) Workload {
	cfg := w.Program.Config()
	cfg.ChurnSlideKB = kb
	w.Program = program.New(cfg)
	return w
}

// Stressor builds the cache/BTB/TLB-thrashing program standing in for
// stress-ng (Sec. 2.3): a large-footprint streaming workload whose execution
// on the same core obliterates the function's microarchitectural state.
func Stressor() *program.Program {
	return program.New(program.Config{
		Name:          "stress-ng",
		Seed:          0x57E55,
		CodeKB:        2048,
		DynamicInstrs: 2048 * 40,
		CoreFrac:      0.95,
		OptionalProb:  0.5,
		RareFrac:      0.02,
		RareProb:      0.05,
		InstrPerLine:  16,
		LoadFrac:      0.30,
		StoreFrac:     0.15,
		CondFrac:      0.2,
		CondBias:      0.9,
		NoisyFrac:     0.02,
		IndirectFrac:  0.1,
		CallFrac:      0.2,
		SkipFrac:      0.02,
		DataKB:        8192,
		HotDataKB:     4096,
		HotDataFrac:   0.3,
		ColdDataFrac:  0.6,
		DepLoadFrac:   0.1,
		KernelFrac:    0.05,
	})
}
