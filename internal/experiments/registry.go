package experiments

import (
	"fmt"

	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/stats"
)

// Output is what one experiment run renders.
type Output struct {
	// Note is a line printed before the tables (prewarm's oracle summary).
	Note string
	// Tables holds the rendered tables, in Experiment.Tables order.
	Tables []*stats.Table
	// Headline holds the run's headline metrics, keyed as in the CLI's
	// -report JSON.
	Headline map[string]float64
}

// Experiment is one entry of the paper's evaluation, as `lukewarm all` runs
// it.
type Experiment struct {
	// Name labels the entry's step in `lukewarm all`.
	Name string
	// Tables holds the command-line name of each table Run returns, in
	// order. A name equal to Name selects the whole entry; any other name
	// selects its table alone (fig3 of fig2-5); "" marks a table that only
	// the whole entry shows.
	Tables []string
	// Usage describes the entry in one line of the CLI usage text.
	Usage string
	// Run executes the experiment. When the error reports a failed check
	// (chaos), Output still holds every table.
	Run func(Options) (Output, error)
}

// All lists the paper's figures and tables, plus this reproduction's
// ablations and extensions, in paper order: the one place that enumerates
// them.
func All() []Experiment {
	return []Experiment{
		{"table1", []string{"table1"}, "simulated processor parameters", func(Options) (Output, error) {
			return tables(nil, Table1()), nil
		}},
		{"table2", []string{"table2"}, "serverless functions and their runtimes", func(Options) (Output, error) {
			return tables(nil, Table2()), nil
		}},
		{"fig1", []string{"fig1"}, "CPI vs inter-arrival time", func(o Options) (Output, error) {
			return one(Fig1(o))
		}},
		{"fig2-5", []string{"fig2", "fig3", "fig4", "fig5a", "fig5b"},
			"Top-Down characterization; L2 / LLC MPKI breakdowns", func(o Options) (Output, error) {
				r, err := Characterize(o)
				if err != nil {
					return Output{}, err
				}
				return tables(map[string]float64{"fig2_mean_cpi_uplift_pct": r.MeanUplift() * 100},
					r.Fig2Table(), r.Fig3Table(), r.Fig4Table(), r.Fig5aTable(), r.Fig5bTable()), nil
			}},
		{"fig6", []string{"fig6a", "fig6b"}, "instruction footprints and commonality", func(o Options) (Output, error) {
			r, err := Footprints(o, 25)
			if err != nil {
				return Output{}, err
			}
			return tables(nil, r.Fig6aTable(), r.Fig6bTable()), nil
		}},
		{"fig8", []string{"fig8"}, "metadata size vs region size", func(o Options) (Output, error) {
			return one(Fig8(o))
		}},
		{"fig9", []string{"fig9"}, "speedup vs metadata budget", func(o Options) (Output, error) {
			return one(Fig9(o))
		}},
		{"fig10-12", []string{"fig10", "fig11", "fig12"}, "Jukebox performance, coverage, bandwidth", func(o Options) (Output, error) {
			r, err := Performance(o, cpu.SkylakeConfig(), core.DefaultConfig())
			if err != nil {
				return Output{}, err
			}
			jb, _ := r.GeomeanSpeedups()
			return tables(map[string]float64{"fig10_geomean_speedup_pct": jb},
				r.Fig10Table(), r.Fig11Table(), r.Fig12Table()), nil
		}},
		{"fig13", []string{"fig13"}, "comparison with PIF", func(o Options) (Output, error) {
			return one(Fig13(o))
		}},
		{"table3", []string{"table3"}, "Skylake vs Broadwell MPKI reductions", func(o Options) (Output, error) {
			return one(Table3(o))
		}},
		{"crrb", []string{"crrb"}, "CRRB-size sensitivity (Sec. 5.1)", func(o Options) (Output, error) {
			return one(CRRBAblation(o))
		}},
		{"compaction", []string{"compaction"}, "virtual-vs-physical metadata ablation (Sec. 3.3)", func(o Options) (Output, error) {
			return one(Compaction(o))
		}},
		{"snapshot", []string{"snapshot"}, "snapshot/cold-boot replay extension (Sec. 3.4.2)", func(o Options) (Output, error) {
			return one(Snapshot(o))
		}},
		{"dynmeta", []string{"dynmeta"}, "per-function metadata sizing extension", func(o Options) (Output, error) {
			return one(DynamicMetadata(o))
		}},
		{"baselines", []string{"baselines"}, "Jukebox vs next-line and RECAP-style restoration (Sec. 6)", func(o Options) (Output, error) {
			return one(Baselines(o))
		}},
		{"server", []string{"server"}, "system-level Poisson-traffic simulation", func(o Options) (Output, error) {
			return one(ServerSim(o))
		}},
		{"scaling", []string{"scaling"}, "multi-core scaling under saturating traffic", func(o Options) (Output, error) {
			return one(Scaling(o))
		}},
		{"sched", []string{"sched", "", ""}, "placement and keep-alive policy sweep", func(o Options) (Output, error) {
			r, err := Sched(o)
			if err != nil {
				return Output{}, err
			}
			_, delta := r.BestPolicyCPIDeltaPct()
			return tables(map[string]float64{"sched_best_policy_cpi_delta_pct": delta},
				r.Table(), r.KeepAliveTable(), r.PerFuncTable()), nil
		}},
		{"chaos", []string{"chaos"}, "fault-injection sweep with graceful-degradation checks", func(o Options) (Output, error) {
			r, err := Chaos(o)
			if err != nil {
				return Output{}, err
			}
			if n := r.Failures(); n > 0 {
				err = fmt.Errorf("chaos: %d of %d cells failed", n, len(r.Cells))
			}
			return tables(nil, r.Table()), err
		}},
		{"cluster", []string{"cluster", ""}, "fault-tolerant fleet sweep: nodes x failure rate x placement", func(o Options) (Output, error) {
			r, err := Cluster(o)
			if err != nil {
				return Output{}, err
			}
			return tables(map[string]float64{
				"cluster_heavy_availability_pct": r.HeavyAvailabilityPct(),
				"cluster_wasted_hedge_pct":       r.WastedHedgePct(),
			}, r.Table(), r.LatencyTable()), nil
		}},
		{"coldstart", []string{"coldstart", "", ""}, "REAP page-prefetch vs Jukebox vs PIF across start conditions", func(o Options) (Output, error) {
			r, err := Coldstart(o)
			if err != nil {
				return Output{}, err
			}
			return tables(map[string]float64{
				"coldstart_reapjb_cold_speedup_pct": r.ColdSpeedupPct(),
				"coldstart_crossover_iat_ms":        r.CrossoverIATms,
			}, r.Table(), r.CrossoverTable(), r.StalenessTable()), nil
		}},
		{"prewarm", []string{"prewarm"}, "predictive pre-warm sweep: forecaster x lead x arrival shape", func(o Options) (Output, error) {
			r, err := Prewarm(o)
			if err != nil {
				return Output{}, err
			}
			shape, lead, pct := r.OracleBestPenaltyRemovedPct()
			out := tables(map[string]float64{
				"prewarm_oracle_best_penalty_removed_pct": pct,
				"prewarm_oracle_best_lead_ms":             lead,
				"prewarm_bursty_histpeak_wasted_frac":     r.BurstyHistpeakWastedFraction(),
			}, r.Table())
			out.Note = fmt.Sprintf("oracle best: %s at lead %g ms removes %.0f%% of the lukewarm CPI penalty",
				shape, lead, pct)
			return out, nil
		}},
	}
}

// tables assembles an Output from its headline metrics and tables.
func tables(headline map[string]float64, ts ...*stats.Table) Output {
	return Output{Tables: ts, Headline: headline}
}

// one adapts a runner whose result renders a single table.
func one[R interface{ Table() *stats.Table }](r R, err error) (Output, error) {
	if err != nil {
		return Output{}, err
	}
	return tables(nil, r.Table()), nil
}
