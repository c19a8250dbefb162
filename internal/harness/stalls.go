package harness

import (
	"fmt"
	"strings"

	"rats/internal/probe"
	"rats/internal/sim/system"
	"rats/internal/workloads"
)

// StallRow is one configuration's aggregated stall attribution for a
// workload: total cycles lost per reason, summed over all warps.
type StallRow struct {
	Config string
	Cycles int64 // run length
	Totals [probe.NumStallReasons]int64
}

// StallSweep runs one workload under each named configuration with a
// stall-attribution sink attached, returning the per-config breakdown.
// It shows where each consistency model spends its waiting time — e.g.
// DRF0's consistency stalls melting away under DRFrlx while memory
// stalls stay put. opts applies as in LatencySweep.
func StallSweep(entry workloads.Entry, scale workloads.Scale, cfgNames []string, opts *RunOptions) ([]StallRow, error) {
	runs := grid([]workloads.Entry{entry}, cfgNames)
	sinks := make([]*probe.StallSink, len(runs))
	for i := range runs {
		sinks[i] = probe.NewStallSink()
		runs[i].hub = probe.NewHub()
		runs[i].hub.Attach(sinks[i])
	}
	cycles := make([]int64, len(runs))
	if err := sweep(runs, scale, opts, func(i int, res *system.Result) { cycles[i] = res.Stats.Cycles }); err != nil {
		return nil, err
	}
	rows := make([]StallRow, len(runs))
	for i, r := range runs {
		rows[i] = StallRow{Config: r.cfg, Cycles: cycles[i], Totals: sinks[i].ReasonTotals()}
	}
	return rows, nil
}

// RenderStallSweep draws the sweep as a config × reason table.
func RenderStallSweep(workload string, rows []StallRow) string {
	reasons := []probe.StallReason{
		probe.StallIssue, probe.StallMemory, probe.StallBarrier,
		probe.StallStoreBufferFull, probe.StallConsistency,
	}
	var b strings.Builder
	fmt.Fprintf(&b, "stall attribution sweep: %s (summed warp-cycles per reason)\n", workload)
	fmt.Fprintf(&b, "  %-8s %10s", "config", "cycles")
	for _, r := range reasons {
		fmt.Fprintf(&b, " %18s", r)
	}
	b.WriteString("\n")
	for _, row := range rows {
		fmt.Fprintf(&b, "  %-8s %10d", row.Config, row.Cycles)
		for _, r := range reasons {
			fmt.Fprintf(&b, " %18d", row.Totals[r])
		}
		b.WriteString("\n")
	}
	return b.String()
}
