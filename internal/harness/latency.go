package harness

import (
	"fmt"
	"strings"

	"rats/internal/hist"
	"rats/internal/probe"
	"rats/internal/sim/system"
	"rats/internal/workloads"
)

// LatencyCell is one (workload, config) run's per-transaction latency
// aggregates: the run length plus the histogram/segment decomposition
// for every (op class, hit level) observed.
type LatencyCell struct {
	Workload string
	Config   string
	Cycles   int64
	Entries  map[probe.LatencyKey]probe.LatencyEntry
}

// LatencySweep runs every workload under every named configuration with
// a span-stitching latency sink attached, returning one cell per run in
// (workload-major, config-minor) order. Runs execute in parallel — each
// has its own hub and sink — but the returned order is deterministic.
// opts applies as in RunAllWith, except that the journal is not used:
// every run simulates so that its sink fills.
func LatencySweep(entries []workloads.Entry, scale workloads.Scale, cfgNames []string, opts *RunOptions) ([]LatencyCell, error) {
	runs := grid(entries, cfgNames)
	sinks := make([]*probe.LatencySink, len(runs))
	for i := range runs {
		sinks[i] = probe.NewLatencySink()
		runs[i].hub = probe.NewHub()
		runs[i].hub.Attach(sinks[i])
	}
	cycles := make([]int64, len(runs))
	if err := sweep(runs, scale, opts, func(i int, res *system.Result) { cycles[i] = res.Stats.Cycles }); err != nil {
		return nil, err
	}
	cells := make([]LatencyCell, len(runs))
	for i, r := range runs {
		if n := sinks[i].Open(); n > 0 {
			return nil, fmt.Errorf("%s/%s: %d spans left open at end of run", r.entry.Name, r.cfg, n)
		}
		cells[i] = LatencyCell{
			Workload: r.entry.Name,
			Config:   r.cfg,
			Cycles:   cycles[i],
			Entries:  sinks[i].Snapshot(),
		}
	}
	return cells, nil
}

// overall merges every (op, level) entry of a cell into one histogram.
func overall(entries map[probe.LatencyKey]probe.LatencyEntry) hist.Histogram {
	var h hist.Histogram
	for _, e := range entries {
		eh := e.Hist
		h.Merge(&eh)
	}
	return h
}

// RenderLatencySweep draws the sweep: first the overall per-run
// percentile table, then the per-config distributions split by op class
// (merged over workloads and hit levels) — the view that shows e.g.
// DRFrlx's atomics completing far earlier than DRF0's.
func RenderLatencySweep(cells []LatencyCell, cfgNames []string) string {
	var b strings.Builder
	b.WriteString("per-transaction memory latency sweep (cycles)\n")
	fmt.Fprintf(&b, "  %-10s %-8s %10s %9s %7s %7s %7s %7s %7s\n",
		"workload", "config", "cycles", "spans", "p50", "p90", "p99", "p99.9", "max")
	for _, c := range cells {
		h := overall(c.Entries)
		s := h.Summarize()
		fmt.Fprintf(&b, "  %-10s %-8s %10d %9d %7d %7d %7d %7d %7d\n",
			c.Workload, c.Config, c.Cycles, s.Count, s.P50, s.P90, s.P99, s.P999, s.Max)
	}

	b.WriteString("\nby op class, merged over workloads\n")
	fmt.Fprintf(&b, "  %-8s %-8s %9s %7s %7s %7s %7s %7s\n",
		"config", "op", "spans", "p50", "p90", "p99", "p99.9", "max")
	for _, cfg := range cfgNames {
		merged := map[probe.SpanOp]*hist.Histogram{}
		for _, c := range cells {
			if c.Config != cfg {
				continue
			}
			for k, e := range c.Entries {
				h := merged[k.Op]
				if h == nil {
					h = &hist.Histogram{}
					merged[k.Op] = h
				}
				eh := e.Hist
				h.Merge(&eh)
			}
		}
		for op := probe.SpanOp(0); op < probe.NumSpanOps; op++ {
			h := merged[op]
			if h == nil {
				continue
			}
			s := h.Summarize()
			fmt.Fprintf(&b, "  %-8s %-8s %9d %7d %7d %7d %7d %7d\n",
				cfg, op, s.Count, s.P50, s.P90, s.P99, s.P999, s.Max)
		}
	}
	return b.String()
}
