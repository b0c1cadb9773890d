package bench

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// layerRow is one line of an attribution table: a layer's cost per op, the
// op count the simulator kept, and their product in whole nanoseconds.
type layerRow struct {
	layer   string
	nsPerOp float64
	ops     uint64
	estNs   int64
}

// estimate is a row whose cost comes from a replay: ns/op times ops.
func estimate(layer string, nsPerOp float64, ops uint64) layerRow {
	return layerRow{layer, nsPerOp, ops, int64(math.Round(nsPerOp * float64(ops)))}
}

// exact is a row whose cost is the summed duration of its own spans.
func exact(layer string, ns int64, ops uint64) layerRow {
	return layerRow{layer, perOp(ns, ops), ops, ns}
}

// attribution splits an end-to-end time into layer estimates and whatever
// they leave unexplained. Everything is whole nanoseconds, so the estimates
// plus the residual equal the total exactly.
type attribution struct {
	title    string
	totalNs  int64
	rows     []layerRow
	residual string // what the residual holds
	ops      uint64 // the workload's ops, for the residual per op
}

// residualNs is the part of the total no row accounts for.
func (a attribution) residualNs() int64 {
	r := a.totalNs
	for _, row := range a.rows {
		r -= row.estNs
	}
	return r
}

// residualPct is the residual as a percentage of the total.
func (a attribution) residualPct() float64 {
	return 100 * float64(a.residualNs()) / float64(a.totalNs)
}

// write prints the table: one row per layer, then the residual and total.
func (a attribution) write(w io.Writer) {
	fmt.Fprintf(w, "\n%s\n", a.title)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "layer\tns/op\tops\test. s\tshare\t")
	share := func(ns int64) string { return fmt.Sprintf("%.1f%%", 100*float64(ns)/float64(a.totalNs)) }
	for _, r := range a.rows {
		fmt.Fprintf(tw, "%s\t%.2f\t%d\t%.4f\t%s\t\n", r.layer, r.nsPerOp, r.ops, float64(r.estNs)/1e9, share(r.estNs))
	}
	res := a.residualNs()
	fmt.Fprintf(tw, "residual: %s\t%.2f\t%d\t%.4f\t%s\t\n", a.residual, perOp(res, a.ops), a.ops, float64(res)/1e9, share(res))
	fmt.Fprintf(tw, "total\t\t\t%.4f\t100.0%%\t\n", float64(a.totalNs)/1e9)
	tw.Flush()
}
