package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"rats/internal/rtrace"
)

// layerMetric is one per-layer metric of the traced run. Every traced
// run reports all of them; a layer a workload does not reach reads 0.
type layerMetric struct{ name, unit string }

var layerMetrics = []layerMetric{
	{"workloads.build_ms", "ms"},
	{"system.load_ms", "ms"},
	{"system.run_ms", "ms"},
	{"system.ns_per_event", "ns"},
	{"system.sim_cycles", "count"},
	{"cu.core_ops", "count"},
	{"memsys.l1_accesses", "count"},
	{"memsys.l1_hit_ratio", "ratio"},
	{"memsys.l2_accesses", "count"},
	{"memsys.dram_accesses", "count"},
	{"memsys.atomics", "count"},
	{"noc.messages", "count"},
	{"noc.flit_hops", "count"},
	{"memmodel.check_ms", "ms"},
	{"memmodel.enumerate_ms", "ms"},
	{"memmodel.analyze_ms", "ms"},
	{"memmodel.merge_ms", "ms"},
	{"memmodel.us_per_exec", "us"},
	{"memmodel.executions", "count"},
	{"memmodel.transitions", "count"},
	{"memmodel.pruned_pct", "%"},
	{"memmodel.analysis_workers", "count"},
	{"memmodel.idle_waits", "count"},
	{"memmodel.system_ms", "ms"},
	{"memmodel.system_memo_hits", "count"},
	{"memmodel.theorem_recheck_ms", "ms"},
	{"solve.check_ms", "ms"},
	{"solve.static_ms", "ms"},
	{"solve.search_ms", "ms"},
	{"solve.states_ms", "ms"},
	{"solve.decisions", "count"},
	{"solve.propagations", "count"},
	{"solve.conflicts", "count"},
	{"solve.learned", "count"},
	{"solve.search_execs", "count"},
	{"solve.search_share", "ratio"},
	{"litmus.parse_us", "us"},
	{"memmodel.canonicalize_us", "us"},
	{"serve.decode_ms", "ms"},
	{"serve.validate_ms", "ms"},
	{"serve.cache_ms", "ms"},
	{"serve.gates_ms", "ms"},
	{"serve.flight_ms", "ms"},
	{"serve.solve_ms", "ms"},
	{"serve.witness_ms", "ms"},
	{"serve.serialize_ms", "ms"},
	{"serve.outside_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.checked", "count"},
	{"serve.witness_searches", "count"},
	{"serve.rejected_input", "count"},
	{"serve.shed", "count"},
	{"serve.deadlines", "count"},
	{"trace.unaccounted_ms", "ms"},
	{"traced.ops_per_s", "1/s"},
	{"traced.op_p50_ms", "ms"},
	{"traced.op_p90_ms", "ms"},
}

// opTracer records one rtrace trace per op and keeps every finished
// trace in memory until the run ends. A nil *opTracer is the untraced
// mode: start returns a nil trace, whose methods all do nothing.
type opTracer struct {
	rt     *rtrace.Tracer
	mu     sync.Mutex
	traces []*rtrace.TraceData
}

func newOpTracer(on bool) *opTracer {
	if !on {
		return nil
	}
	return &opTracer{rt: rtrace.New(rtrace.Options{RingSize: 1})}
}

func (t *opTracer) start(name string) *rtrace.Trace {
	if t == nil {
		return nil
	}
	return t.rt.Start(name)
}

func (t *opTracer) finish(tr *rtrace.Trace) {
	if t == nil {
		return
	}
	td := tr.Finish()
	t.mu.Lock()
	t.traces = append(t.traces, td)
	t.mu.Unlock()
}

// bucketFunc maps a span, given the names on its path from the
// top-level phase down, to the layer metric its self time belongs to.
type bucketFunc func(path []string) string

// tiling is the self time of a set of traces, in microseconds, per
// group (the top-level phase's "program" attribute, "" when absent) and
// per layer bucket.
type tiling map[string]map[string]float64

// add tiles one trace: every microsecond of it is attributed to exactly
// one bucket. An instant covered by several innermost spans at once —
// analysis workers running beside the enumerator — is split evenly among
// them, so the buckets of a trace always sum to its duration. Time no
// span covers lands in the "" bucket.
func (tl tiling) add(td *rtrace.TraceData, bucket bucketFunc) {
	type iv struct {
		s, e   int64
		b      string
		parent int
		group  string
	}
	var ivs []iv
	var walk func(sd *rtrace.SpanData, path []string, parent int, group string)
	walk = func(sd *rtrace.SpanData, path []string, parent int, group string) {
		path = append(path, sd.Name)
		if parent < 0 {
			group = attr(sd.Attrs, "program")
		}
		id := len(ivs)
		ivs = append(ivs, iv{sd.StartUs, sd.EndUs, bucket(path), parent, group})
		for i := range sd.Children {
			walk(&sd.Children[i], path, id, group)
		}
	}
	for i := range td.Phases {
		walk(&td.Phases[i], nil, -1, "")
	}
	pts := []int64{0, td.DurationUs}
	for _, v := range ivs {
		pts = append(pts, v.s, v.e)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	active := make([]bool, len(ivs))
	inner := make([]bool, len(ivs))
	for k := 0; k+1 < len(pts); k++ {
		a, b := pts[k], pts[k+1]
		if b <= a || a < 0 || b > td.DurationUs {
			continue
		}
		for i, v := range ivs {
			active[i] = v.s <= a && v.e >= b
			inner[i] = false
		}
		for i, v := range ivs {
			if active[i] && v.parent >= 0 {
				inner[v.parent] = true
			}
		}
		var leaves []int
		for i := range ivs {
			if active[i] && !inner[i] {
				leaves = append(leaves, i)
			}
		}
		if len(leaves) == 0 {
			tl.put("", "", float64(b-a))
			continue
		}
		share := float64(b-a) / float64(len(leaves))
		for _, i := range leaves {
			tl.put(ivs[i].group, ivs[i].b, share)
		}
	}
}

func (tl tiling) put(group, bucket string, us float64) {
	if tl[group] == nil {
		tl[group] = map[string]float64{}
	}
	tl[group][bucket] += us
}

// total sums the tiling over groups, in microseconds per bucket.
func (tl tiling) total() map[string]float64 {
	out := map[string]float64{}
	for _, g := range tl {
		for b, us := range g {
			out[b] += us
		}
	}
	return out
}

func attr(attrs []rtrace.Attr, k string) string {
	v := ""
	for _, a := range attrs {
		if a.K == k {
			v = a.V
		}
	}
	return v
}

// writeLayerTable writes the per-layer self-time table: mean ms per op
// for each bucket, overall and per program group, plus the remainder no
// layer accounts for.
func writeLayerTable(cfg config, workload string, tl tiling, ops int, opMeanMs float64) error {
	path, err := artifact(cfg, workload+".layers.txt")
	if err != nil {
		return err
	}
	var b strings.Builder
	tot := tl.total()
	names := make([]string, 0, len(tot))
	var sum float64
	for n, us := range tot {
		names = append(names, n)
		sum += us
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "%s: per-layer self time, mean per op over %d traced ops\n", workload, ops)
	fmt.Fprintf(&b, "%-34s %12s %8s\n", "layer", "ms/op", "share")
	for _, n := range names {
		label := n
		if label == "" {
			label = "(no span)"
		}
		ms := tot[n] / 1e3 / float64(ops)
		fmt.Fprintf(&b, "%-34s %12.4f %7.1f%%\n", label, ms, 100*ms/opMeanMs)
	}
	rest := opMeanMs - sum/1e3/float64(ops)
	fmt.Fprintf(&b, "%-34s %12.4f %7.1f%%\n", "(outside every trace)", rest, 100*rest/opMeanMs)
	fmt.Fprintf(&b, "%-34s %12.4f\n", "op mean (benchmark clock)", opMeanMs)

	if len(tl) > 1 {
		groups := make([]string, 0, len(tl))
		for g := range tl {
			if g != "" {
				groups = append(groups, g)
			}
		}
		sort.Strings(groups)
		fmt.Fprintf(&b, "\nper program, ms per op\n%-24s", "program")
		for _, n := range names {
			fmt.Fprintf(&b, " %14s", strings.TrimSuffix(n, "_ms"))
		}
		b.WriteString("\n")
		for _, g := range groups {
			fmt.Fprintf(&b, "%-24s", g)
			for _, n := range names {
				fmt.Fprintf(&b, " %14.4f", tl[g][n]/1e3/float64(ops))
			}
			b.WriteString("\n")
		}
	}
	fmt.Fprint(os.Stderr, b.String())
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// writeChrome exports every kept trace as one Chrome/Perfetto trace.
func writeChrome(cfg config, workload string, traces []*rtrace.TraceData) error {
	path, err := artifact(cfg, workload+".chrome.json")
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rtrace.WriteChrome(f, traces...); err != nil {
		f.Close()
		return fmt.Errorf("chrome export: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d traces written to %s\n", len(traces), path)
	return nil
}

// finishLayers converts a tiling into per-op layer metrics (ms), writes
// the table and the Chrome trace, and fills trace.unaccounted_ms: the
// op time, on the benchmark's clock, that no layer's self time covers.
func finishLayers(cfg config, workload string, traces []*rtrace.TraceData, bucket bucketFunc, m *measurement, out map[string]float64) error {
	tl := tiling{}
	for _, td := range traces {
		tl.add(td, bucket)
	}
	ops := len(m.latMs)
	opMean := mean(m.latMs)
	var named float64
	for b, us := range tl.total() {
		if b == "" {
			continue
		}
		ms := us / 1e3 / float64(ops)
		out[b] += ms
		named += ms
	}
	out["trace.unaccounted_ms"] = opMean - named
	if err := writeLayerTable(cfg, workload, tl, ops, opMean); err != nil {
		return err
	}
	return writeChrome(cfg, workload, traces)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
