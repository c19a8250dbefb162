// Package harness runs the paper's experiments end to end: it sweeps
// workloads across the six configurations (GD0, GD1, GDR, DD0, DD1, DDR),
// regenerates every figure and table of the evaluation, and computes the
// summary statistics Section 6 quotes.
package harness

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"rats/internal/core"
	"rats/internal/fault"
	"rats/internal/memmodel/telemetry"
	"rats/internal/obs"
	"rats/internal/probe"
	"rats/internal/report"
	"rats/internal/sim/memsys"
	"rats/internal/sim/system"
	"rats/internal/workloads"
)

// ConfigOrder lists the six configurations in the paper's order.
var ConfigOrder = []string{"GD0", "GD1", "GDR", "DD0", "DD1", "DDR"}

// EnergyComponents lists the paper's energy breakdown components.
var EnergyComponents = []string{"GPU core+", "Scratch", "L1", "L2", "NoC"}

// ConfigFor returns the simulator configuration for a name like "GD0" or
// "DDR", or for Figure 1's discrete GPU, "discrete-" and a model name
// (e.g. "discrete-DRF0").
func ConfigFor(name string) (memsys.Config, error) {
	if m, ok := strings.CutPrefix(name, "discrete-"); ok {
		model, err := core.ParseModel(m)
		if err != nil {
			return memsys.Config{}, fmt.Errorf("harness: bad model in %q", name)
		}
		return memsys.Discrete(model), nil
	}
	if len(name) != 3 {
		return memsys.Config{}, fmt.Errorf("harness: bad config name %q", name)
	}
	var proto memsys.Protocol
	switch name[0] {
	case 'G':
		proto = memsys.ProtoGPU
	case 'D':
		proto = memsys.ProtoDeNovo
	default:
		return memsys.Config{}, fmt.Errorf("harness: bad protocol in %q", name)
	}
	var model core.Model
	switch name[1:] {
	case "D0":
		model = core.DRF0
	case "D1":
		model = core.DRF1
	case "DR":
		model = core.DRFrlx
	default:
		return memsys.Config{}, fmt.Errorf("harness: bad model in %q", name)
	}
	return memsys.Default(proto, model), nil
}

// Results maps workload name -> config name -> simulation result.
type Results map[string]map[string]*system.Result

// RunOptions controls the resilience and fault-injection behaviour of a
// sweep. The zero value reproduces the plain sweep: no timeouts, no
// journal, no injected faults, default watchdog.
type RunOptions struct {
	// Timeout, when positive, bounds each run's wall-clock time; an
	// expired run aborts with a diagnostic error instead of hanging the
	// sweep.
	Timeout time.Duration
	// Journal, when non-nil, records each completed run and lets an
	// interrupted sweep resume: already-journaled (workload, config) pairs
	// are restored instead of re-simulated.
	Journal *Journal
	// Faults and FaultSeed configure deterministic fault injection for
	// every run in the sweep.
	Faults    *fault.Spec
	FaultSeed int64
	// WatchdogWindow overrides the per-run liveness watchdog: positive
	// replaces the default no-progress window, negative disables the
	// watchdog, zero keeps the configuration default.
	WatchdogWindow int64
	// Progress, when non-nil, receives per-run lifecycle updates
	// (running/done/failed/restored) for the live /progress endpoint.
	Progress *obs.Progress
	// Checks, when non-nil, registers one telemetry check per semantics
	// check a litmus sweep (LitmusSweep) runs, feeding the obs server's
	// /checks endpoint and rats_check_* metrics. Simulation sweeps ignore
	// it.
	Checks *telemetry.Registry
	// TelemetryOut, when non-nil, receives the deterministic per-check
	// JSONL records when a litmus sweep completes — one JSON object per
	// check, in suite order, byte-identical across runs and worker counts.
	TelemetryOut io.Writer
}

// apply folds the options into a run configuration.
func (o *RunOptions) apply(cfg *memsys.Config) {
	cfg.Faults = o.Faults
	cfg.FaultSeed = o.FaultSeed
	switch {
	case o.WatchdogWindow > 0:
		cfg.WatchdogWindow = o.WatchdogWindow
	case o.WatchdogWindow < 0:
		cfg.WatchdogWindow = 0
	}
}

// run is one simulation of a sweep: a workload under a configuration
// ConfigFor resolves, with an optional probe hub. A run with a hub always
// simulates and is never journaled, because its caller reads the hub's
// sinks afterwards.
type run struct {
	entry workloads.Entry
	cfg   string
	hub   *probe.Hub
}

// grid lists every entry under every named configuration, entry-major.
func grid(entries []workloads.Entry, cfgNames []string) []run {
	var runs []run
	for _, e := range entries {
		for _, c := range cfgNames {
			runs = append(runs, run{entry: e, cfg: c})
		}
	}
	return runs
}

// forEach calls fn(worker, i) for every i in [0, n), handing the indices
// out in ascending order to min(workers, n) goroutines, and returns once
// every call has. worker identifies the goroutine that made the call.
func forEach(n, workers int, fn func(worker, i int)) {
	workers = max(min(workers, n), 1)
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(w, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// sweep runs every run on GOMAXPROCS workers and hands each result to
// keep(i, res) on the worker that produced it, so a caller that keeps
// only statistics lets the simulated machine go as soon as its run ends.
// Failures do not stop the sweep: a failed run is not kept, and its
// error, prefixed with workload/config, joins the returned error. With a
// journal, a run without a hub is restored when journaled and journaled
// when it completes.
func sweep(runs []run, scale workloads.Scale, opts *RunOptions, keep func(i int, res *system.Result)) error {
	if opts == nil {
		opts = &RunOptions{}
	}
	errs := make([]error, len(runs))
	forEach(len(runs), runtime.GOMAXPROCS(0), func(_, i int) {
		r := runs[i]
		jnl := opts.Journal
		if r.hub != nil {
			jnl = nil
		}
		if jnl != nil {
			if res, ok := jnl.Lookup(r.entry.Name, r.cfg); ok {
				keep(i, res)
				if opts.Progress != nil {
					opts.Progress.Restored(r.entry.Name, r.cfg, res.Stats.Cycles)
				}
				return
			}
		}
		if opts.Progress != nil {
			opts.Progress.Start(r.entry.Name, r.cfg)
		}
		res, err := runOne(r, scale, opts)
		if err != nil {
			errs[i] = fmt.Errorf("%s/%s: %w", r.entry.Name, r.cfg, err)
			if opts.Progress != nil {
				opts.Progress.Fail(r.entry.Name, r.cfg, err)
			}
			return
		}
		keep(i, res)
		if opts.Progress != nil {
			opts.Progress.Done(r.entry.Name, r.cfg, res.Stats.Cycles)
		}
		if jnl != nil {
			if err := jnl.Record(r.entry.Name, r.cfg, res); err != nil {
				errs[i] = fmt.Errorf("%s/%s: journal: %w", r.entry.Name, r.cfg, err)
			}
		}
	})
	return errors.Join(errs...)
}

// runOne builds, loads and runs one simulation under opts, with panic
// recovery and an optional wall-clock timeout. A panic anywhere in trace
// building or simulation is converted into an error carrying the stack,
// so one broken run cannot take down the rest of a sweep. The run's hub,
// if any, is attached before the trace loads and closed after the run.
func runOne(r run, scale workloads.Scale, opts *RunOptions) (res *system.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res = nil
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	cfg, err := ConfigFor(r.cfg)
	if err != nil {
		return nil, err
	}
	opts.apply(&cfg)
	tr := r.entry.Build(scale)
	if tr == nil {
		return nil, fmt.Errorf("workload %s built a nil trace", r.entry.Name)
	}
	sys := system.New(cfg)
	if r.hub != nil {
		sys.AttachProbe(r.hub)
	}
	if err := sys.Load(tr); err != nil {
		return nil, err
	}
	if d := opts.Timeout; d > 0 {
		t := time.AfterFunc(d, func() {
			sys.Abort(fmt.Sprintf("wall-clock timeout %s exceeded", d))
		})
		defer t.Stop()
	}
	res, err = sys.Run()
	if r.hub != nil {
		err = errors.Join(err, r.hub.Close())
	}
	return res, err
}

// RunAllWith simulates every entry under every named configuration, in
// parallel across runs (each simulation is single-threaded and
// independent). Failures do not stop the sweep: every run is attempted
// (or restored from the journal), all errors are joined into the
// returned error, and the Results hold every run that did succeed —
// callers get partial figures plus a full account of what failed.
func RunAllWith(entries []workloads.Entry, scale workloads.Scale, cfgNames []string, opts *RunOptions) (Results, error) {
	runs := grid(entries, cfgNames)
	res := make([]*system.Result, len(runs))
	err := sweep(runs, scale, opts, func(i int, r *system.Result) { res[i] = r })
	out := Results{}
	for i, r := range runs {
		if res[i] == nil {
			continue
		}
		if out[r.entry.Name] == nil {
			out[r.entry.Name] = map[string]*system.Result{}
		}
		out[r.entry.Name][r.cfg] = res[i]
	}
	return out, err
}

// Figure holds one reproduced figure: execution time and energy, plus the
// raw results.
type Figure struct {
	Title   string
	Order   []string // workload row order
	Time    *report.Table
	Energy  *report.StackedTable
	Results Results
}

// buildFigure assembles time/energy tables from results.
func buildFigure(title string, entries []workloads.Entry, res Results) *Figure {
	f := &Figure{Title: title, Results: res}
	f.Time = report.NewTable(title+" — execution time", "workload", ConfigOrder)
	f.Energy = report.NewStackedTable(title+" — energy", EnergyComponents, ConfigOrder)
	for _, e := range entries {
		f.Order = append(f.Order, e.Name)
		for _, c := range ConfigOrder {
			r := res[e.Name][c]
			if r == nil {
				continue
			}
			f.Time.Set(e.Name, c, float64(r.Stats.Cycles))
			br := r.Energy
			f.Energy.Set(e.Name, c, "GPU core+", br.Core)
			f.Energy.Set(e.Name, c, "Scratch", br.Scratch)
			f.Energy.Set(e.Name, c, "L1", br.L1)
			f.Energy.Set(e.Name, c, "L2", br.L2)
			f.Energy.Set(e.Name, c, "NoC", br.NoC)
		}
	}
	return f
}

// Render prints the figure in the paper's normalized form.
func (f *Figure) Render() string {
	var b strings.Builder
	b.WriteString(f.Time.Normalize("GD0").Render("%10.3f", true))
	b.WriteString("\n")
	b.WriteString(f.Energy.Render("GD0"))
	return b.String()
}

// Figure3With reproduces Figure 3: the seven microbenchmarks under all
// six configurations. A non-nil error still comes with the figure built
// from whatever runs succeeded.
func Figure3With(scale workloads.Scale, opts *RunOptions) (*Figure, error) {
	entries := workloads.Micro()
	res, err := RunAllWith(entries, scale, ConfigOrder, opts)
	return buildFigure("Figure 3: microbenchmarks", entries, res), err
}

// Figure4With reproduces Figure 4: UTS, BC 1-4, PR 1-4 under all six
// configurations; like Figure3With it returns the partial figure
// alongside any joined error.
func Figure4With(scale workloads.Scale, opts *RunOptions) (*Figure, error) {
	entries := workloads.Benchmarks()
	res, err := RunAllWith(entries, scale, ConfigOrder, opts)
	return buildFigure("Figure 4: benchmarks", entries, res), err
}

// Figure1Row is one bar of Figure 1.
type Figure1Row struct {
	App     string
	Speedup float64 // relaxed-atomic time over SC-atomic time on the discrete GPU
}

// Figure1 reproduces Figure 1: relaxed vs. SC atomics on a discrete GPU.
// Each application runs twice on the discrete configuration — once with
// every atomic strengthened to SC (DRF0) and once with its relaxed
// annotations honoured (DRFrlx) — and the speedup is reported. Like
// Figure3With, a non-nil error comes with the rows of every application
// whose two runs succeeded.
func Figure1(scale workloads.Scale, opts *RunOptions) ([]Figure1Row, error) {
	apps := workloads.Figure1Apps()
	runs := grid(apps, []string{"discrete-DRF0", "discrete-DRFrlx"})
	cycles := make([]int64, len(runs)) // 0 marks a failed run
	err := sweep(runs, scale, opts, func(i int, res *system.Result) { cycles[i] = res.Stats.Cycles })
	var rows []Figure1Row
	for i, app := range apps {
		if sc, rlx := cycles[2*i], cycles[2*i+1]; sc > 0 && rlx > 0 {
			rows = append(rows, Figure1Row{App: app.Name, Speedup: float64(sc) / float64(rlx)})
		}
	}
	return rows, err
}

// RenderFigure1 draws the Figure 1 bars.
func RenderFigure1(rows []Figure1Row) string {
	var b strings.Builder
	b.WriteString("Figure 1: relaxed-atomics speedup on a discrete GPU (SC time / relaxed time)\n")
	max := 0.0
	for _, r := range rows {
		if r.Speedup > max {
			max = r.Speedup
		}
	}
	for _, r := range rows {
		n := int(r.Speedup / max * 50)
		fmt.Fprintf(&b, "%-14s %s %.2fx\n", r.App, strings.Repeat("#", n), r.Speedup)
	}
	return b.String()
}

// Summary holds the Section 6 headline aggregates.
type Summary struct {
	// Reduction[weaker][stronger] style entries, as fractions (0.12 =
	// 12% execution-time reduction).
	MicroDRFrlxVsDRF0GPU    float64
	MicroDRFrlxVsDRF0DeNovo float64
	DeNovoTimeReduction     [3]float64 // vs GPU, per model DRF0/DRF1/DRFrlx
	DeNovoEnergyReduction   [3]float64
	DRF1TimeReduction       [2]float64 // vs DRF0: [GPU, DeNovo], all workloads
	DRFrlxTimeReduction     [2]float64 // vs DRF1: [GPU, DeNovo], all workloads
	MaxDRF1ReductionBCPR    [2]float64 // best-case DRF1 vs DRF0 on BC/PR
	MaxDRFrlxReductionBCPR  [2]float64 // best-case DRFrlx vs DRF1 on BC/PR
}

func reduction(times Results, rows []string, weakCfg, strongCfg string) float64 {
	var ratios []float64
	for _, r := range rows {
		a, b := times[r][weakCfg], times[r][strongCfg]
		if a != nil && b != nil && b.Stats.Cycles > 0 {
			ratios = append(ratios, float64(a.Stats.Cycles)/float64(b.Stats.Cycles))
		}
	}
	return 1 - report.Geomean(ratios)
}

func energyReduction(times Results, rows []string, weakCfg, strongCfg string) float64 {
	var ratios []float64
	for _, r := range rows {
		a, b := times[r][weakCfg], times[r][strongCfg]
		if a != nil && b != nil && b.Energy.Total() > 0 {
			ratios = append(ratios, a.Energy.Total()/b.Energy.Total())
		}
	}
	return 1 - report.Geomean(ratios)
}

func maxReduction(times Results, rows []string, weakCfg, strongCfg string) float64 {
	best := 0.0
	for _, r := range rows {
		a, b := times[r][weakCfg], times[r][strongCfg]
		if a == nil || b == nil || b.Stats.Cycles == 0 {
			continue
		}
		red := 1 - float64(a.Stats.Cycles)/float64(b.Stats.Cycles)
		if red > best {
			best = red
		}
	}
	return best
}

// Summarize computes the Section 6 aggregates from the two figures.
func Summarize(fig3, fig4 *Figure) *Summary {
	all := Results{}
	for k, v := range fig3.Results {
		all[k] = v
	}
	for k, v := range fig4.Results {
		all[k] = v
	}
	allRows := append(append([]string{}, fig3.Order...), fig4.Order...)
	var bcpr []string
	for _, r := range fig4.Order {
		if strings.HasPrefix(r, "BC") || strings.HasPrefix(r, "PR") {
			bcpr = append(bcpr, r)
		}
	}
	s := &Summary{
		MicroDRFrlxVsDRF0GPU:    reduction(fig3.Results, fig3.Order, "GDR", "GD0"),
		MicroDRFrlxVsDRF0DeNovo: reduction(fig3.Results, fig3.Order, "DDR", "DD0"),
	}
	for i, m := range []string{"D0", "D1", "DR"} {
		s.DeNovoTimeReduction[i] = reduction(all, allRows, "D"+m, "G"+m)
		s.DeNovoEnergyReduction[i] = energyReduction(all, allRows, "D"+m, "G"+m)
	}
	s.DRF1TimeReduction = [2]float64{
		reduction(all, allRows, "GD1", "GD0"),
		reduction(all, allRows, "DD1", "DD0"),
	}
	s.DRFrlxTimeReduction = [2]float64{
		reduction(all, allRows, "GDR", "GD1"),
		reduction(all, allRows, "DDR", "DD1"),
	}
	s.MaxDRF1ReductionBCPR = [2]float64{
		maxReduction(all, bcpr, "GD1", "GD0"),
		maxReduction(all, bcpr, "DD1", "DD0"),
	}
	s.MaxDRFrlxReductionBCPR = [2]float64{
		maxReduction(all, bcpr, "GDR", "GD1"),
		maxReduction(all, bcpr, "DDR", "DD1"),
	}
	return s
}

// Render prints the summary next to the paper's quoted numbers.
func (s *Summary) Render() string {
	var b strings.Builder
	b.WriteString("Section 6 headline aggregates (measured vs. paper)\n")
	f := func(name string, got float64, paper string) {
		fmt.Fprintf(&b, "  %-58s %6.1f%%   (paper: %s)\n", name, got*100, paper)
	}
	f("micro: DRFrlx vs DRF0 exec-time reduction, GPU", s.MicroDRFrlxVsDRF0GPU, "6%")
	f("micro: DRFrlx vs DRF0 exec-time reduction, DeNovo", s.MicroDRFrlxVsDRF0DeNovo, "10%")
	f("all: DRF1 vs DRF0 exec-time reduction, GPU", s.DRF1TimeReduction[0], "11%")
	f("all: DRF1 vs DRF0 exec-time reduction, DeNovo", s.DRF1TimeReduction[1], "11%")
	f("all: DRFrlx vs DRF1 exec-time reduction, GPU", s.DRFrlxTimeReduction[0], "9%")
	f("all: DRFrlx vs DRF1 exec-time reduction, DeNovo", s.DRFrlxTimeReduction[1], "7%")
	f("BC/PR: max DRF1 vs DRF0 reduction, GPU", s.MaxDRF1ReductionBCPR[0], "up to 49%")
	f("BC/PR: max DRF1 vs DRF0 reduction, DeNovo", s.MaxDRF1ReductionBCPR[1], "up to 53%")
	f("BC/PR: max DRFrlx vs DRF1 reduction, GPU", s.MaxDRFrlxReductionBCPR[0], "up to 37%")
	f("BC/PR: max DRFrlx vs DRF1 reduction, DeNovo", s.MaxDRFrlxReductionBCPR[1], "up to 29%")
	for i, m := range []string{"DRF0", "DRF1", "DRFrlx"} {
		f(fmt.Sprintf("DeNovo vs GPU exec-time reduction, %s", m), s.DeNovoTimeReduction[i], []string{"14%", "14%", "12%"}[i])
		f(fmt.Sprintf("DeNovo vs GPU energy reduction, %s", m), s.DeNovoEnergyReduction[i], []string{"16%", "18%", "18%"}[i])
	}
	return b.String()
}

// Table2 renders the simulated system parameters.
func Table2() string {
	cfg := memsys.Default(memsys.ProtoGPU, core.DRF0)
	var b strings.Builder
	b.WriteString("Table 2: simulated heterogeneous system parameters\n")
	rows := [][2]string{
		{"CPU cores", "1"},
		{"GPU CUs", fmt.Sprint(cfg.NumCUs)},
		{"Mesh", fmt.Sprintf("%dx%d", cfg.MeshWidth, cfg.MeshHeight)},
		{"L1 size", fmt.Sprintf("%d KB (%d sets, %d-way)", int64(cfg.L1Sets*cfg.L1Ways)*int64(cfg.LineSize)/1024, cfg.L1Sets, cfg.L1Ways)},
		{"L2 size", fmt.Sprintf("%d MB (%d banks, NUCA)", int64(cfg.L2SetsPerBank*cfg.L2Ways)*int64(cfg.LineSize)*int64(cfg.Nodes())/(1024*1024), cfg.Nodes())},
		{"Store buffer size", fmt.Sprintf("%d entries", cfg.StoreBuffer)},
		{"L1 MSHRs", fmt.Sprintf("%d entries", cfg.L1MSHRs)},
		{"L1 hit latency", fmt.Sprintf("%d cycle", cfg.L1HitLat)},
		{"Remote L1 hit latency", remoteL1Range(cfg)},
		{"L2 hit latency", l2Range(cfg)},
		{"Memory latency", memRange(cfg)},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-24s %s\n", r[0], r[1])
	}
	return b.String()
}

func l2Range(cfg memsys.Config) string {
	// Round trip: request hop(s) + bank latency + response hops.
	minLat := cfg.L2Lat + 2*cfg.HopLat
	maxLat := cfg.L2Lat + 2*int64(cfg.MeshWidth+cfg.MeshHeight-2)*cfg.HopLat + int64(cfg.DataFlits)
	return fmt.Sprintf("%d-%d cycles", minLat, maxLat)
}

func remoteL1Range(cfg memsys.Config) string {
	minLat := cfg.L2Lat + 4*cfg.HopLat + cfg.L1HitLat
	maxLat := cfg.L2Lat + 3*int64(cfg.MeshWidth+cfg.MeshHeight-2)*cfg.HopLat + cfg.L1HitLat + int64(cfg.DataFlits)
	return fmt.Sprintf("%d-%d cycles", minLat, maxLat)
}

func memRange(cfg memsys.Config) string {
	minLat := cfg.DRAMLat + cfg.L2Lat + 2*cfg.HopLat
	maxLat := cfg.DRAMLat + cfg.L2Lat + 2*int64(cfg.MeshWidth+cfg.MeshHeight-2)*cfg.HopLat + cfg.DRAMOcc
	return fmt.Sprintf("%d-%d cycles", minLat, maxLat)
}

// Table3 renders the benchmark table.
func Table3() string {
	var b strings.Builder
	b.WriteString("Table 3: benchmarks, input sizes, and relaxed atomics used\n")
	fmt.Fprintf(&b, "  %-8s %-14s %-22s %s\n", "name", "benchmark", "input", "atomic types")
	for _, e := range workloads.All() {
		fmt.Fprintf(&b, "  %-8s %-14s %-22s %s\n", e.Name, e.Full, e.Input, e.AtomicTypes)
	}
	return b.String()
}

// Table4 renders the qualitative benefits table from the model policies.
func Table4() string {
	var b strings.Builder
	b.WriteString("Table 4: benefits of DRF0, DRF1, and DRFrlx\n")
	fmt.Fprintf(&b, "  %-46s %6s %6s %8s\n", "benefit", "DRF0", "DRF1", "DRFrlx")
	mark := func(v bool) string {
		if v {
			return "yes"
		}
		return "no"
	}
	for _, row := range core.BenefitsTable() {
		fmt.Fprintf(&b, "  %-46s %6s %6s %8s\n", row.Name, mark(row.Has[0]), mark(row.Has[1]), mark(row.Has[2]))
	}
	return b.String()
}
