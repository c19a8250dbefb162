package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"rats/internal/core"
	"rats/internal/energy"
	"rats/internal/harness"
	"rats/internal/rtrace"
	"rats/internal/sim/memsys"
	"rats/internal/sim/system"
	"rats/internal/stats"
	"rats/internal/workloads"
)

// figuresRefJSON pins every paper-scale simulation's statistics and
// energy, keyed like simJob.key (regenerate with -pin).
//
//go:embed refs/figures-paper.json
var figuresRefJSON []byte

// simRef is one pinned simulation outcome.
type simRef struct {
	Stats  stats.Stats      `json:"stats"`
	Energy energy.Breakdown `json:"energy"`
}

// simJob is one (workload, configuration) simulation of the figure sweep.
type simJob struct {
	key   string
	entry workloads.Entry
	cfg   memsys.Config
}

// figureJobs lists the 114 simulations behind Figures 1, 3 and 4 in the
// order ratsfigures runs them: Figure 1's nine applications with SC and
// relaxed atomics on the discrete GPU, then the seven microbenchmarks and
// the nine benchmarks under the six configurations, entry-major as
// harness.RunAllWith orders them.
func figureJobs() ([]simJob, error) {
	var jobs []simJob
	for _, app := range workloads.Figure1Apps() {
		jobs = append(jobs,
			simJob{"fig1/" + app.Name + "/SC", app, memsys.Discrete(core.DRF0)},
			simJob{"fig1/" + app.Name + "/relaxed", app, memsys.Discrete(core.DRFrlx)})
	}
	groups := []struct {
		fig     string
		entries []workloads.Entry
	}{{"fig3", workloads.Micro()}, {"fig4", workloads.Benchmarks()}}
	for _, g := range groups {
		for _, e := range g.entries {
			for _, c := range harness.ConfigOrder {
				cfg, err := harness.ConfigFor(c)
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, simJob{g.fig + "/" + e.Name + "/" + c, e, cfg})
			}
		}
	}
	return jobs, nil
}

// runSim is the op: build the trace, assemble and load the machine, run
// it. tr (nil when untraced) gets one phase per module call.
func runSim(j simJob, scale workloads.Scale, tr *rtrace.Trace) (*system.Result, error) {
	tr.Phase("workloads.build")
	t := j.entry.Build(scale)
	if t == nil {
		return nil, fmt.Errorf("%s: nil trace", j.key)
	}
	tr.Phase("system.load")
	sys := system.New(j.cfg)
	if err := sys.Load(t); err != nil {
		return nil, err
	}
	tr.Phase("system.run")
	return sys.Run()
}

type figuresBench struct {
	cfg   config
	scale workloads.Scale
	jobs  []simJob
	refs  map[string]simRef
	tr    *opTracer
	// totals sums the simulated statistics of every successful traced op.
	totals stats.Stats
}

// figuresWarmupJob is the untimed warm-up op: a light microbenchmark.
const figuresWarmupJob = "fig3/H/GD0"

func setupFigures(cfg config) (bench, error) {
	return newFiguresBench(cfg, workloads.Paper)
}

func newFiguresBench(cfg config, scale workloads.Scale) (*figuresBench, error) {
	jobs, err := figureJobs()
	if err != nil {
		return nil, err
	}
	f := &figuresBench{cfg: cfg, scale: scale, jobs: jobs, tr: newOpTracer(cfg.traced)}
	if scale == workloads.Paper {
		if err := json.Unmarshal(figuresRefJSON, &f.refs); err != nil {
			return nil, fmt.Errorf("figures references: %w", err)
		}
		if len(f.refs) != len(jobs) {
			return nil, fmt.Errorf("figures references: %d entries for %d jobs", len(f.refs), len(jobs))
		}
	}
	for _, j := range jobs {
		if j.key == figuresWarmupJob {
			res, err := runSim(j, scale, nil)
			if err = f.verify(j, res, err); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return f, nil
}

// verify compares a finished op with its pinned reference. system.Run
// has already applied the trace's own FinalCheck.
func (f *figuresBench) verify(j simJob, res *system.Result, err error) error {
	if err != nil || f.refs == nil {
		return err
	}
	ref, ok := f.refs[j.key]
	if !ok {
		return fmt.Errorf("%s: no pinned reference", j.key)
	}
	if res.Stats != ref.Stats || res.Energy != ref.Energy {
		return fmt.Errorf("%s: statistics differ from the pinned reference", j.key)
	}
	return nil
}

// sweep runs every job once on nproc workers, in order, and returns each
// op's latency (ms), outcome and error. It keeps only the statistics and
// energy of a sim: a system.Result holds on to the whole machine.
func (f *figuresBench) sweep() ([]float64, []simRef, []error) {
	lat := make([]float64, len(f.jobs))
	outs := make([]simRef, len(f.jobs))
	errs := make([]error, len(f.jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				j := f.jobs[i]
				tr := f.tr.start("sim")
				if tr != nil {
					tr.SetAttr("program", j.key)
				}
				start := time.Now()
				res, err := runSim(j, f.scale, tr)
				lat[i] = float64(time.Since(start)) / 1e6
				f.tr.finish(tr)
				errs[i] = f.verify(j, res, err)
				if errs[i] != nil {
					continue
				}
				outs[i] = simRef{res.Stats, res.Energy}
				if f.tr != nil {
					f.tr.mu.Lock()
					f.totals.Add(&res.Stats)
					f.tr.mu.Unlock()
				}
			}
		}()
	}
	for i := range f.jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return lat, outs, errs
}

// figuresMinSweeps is the least number of sweeps a run measures. The
// sweeps of one run differ in rate by up to a fifth, so ops_per_s, their
// median, needs several; and a fixed count, rather than as many as fit
// in d, gives every run the same ops.
const figuresMinSweeps = 5

// measure runs whole sweeps, so every run sees the same job mix: at least
// figuresMinSweeps, it starts another sweep while half a sweep still fits
// in d, and until minOps ops succeeded or giveUp windows passed.
func (f *figuresBench) measure(d time.Duration, minOps int) (*measurement, error) {
	m := &measurement{}
	start := time.Now()
	for {
		s := time.Now()
		lat, _, errs := f.sweep()
		took := time.Since(s)
		ok := 0
		for i, err := range errs {
			m.attempted++
			if err != nil {
				m.failed++
				fmt.Fprintln(os.Stderr, "perfbench: failed op:", err)
				continue
			}
			ok++
			m.latMs = append(m.latMs, lat[i])
		}
		m.blockRates = append(m.blockRates, float64(ok)/took.Seconds())
		elapsed := time.Since(start)
		perSweep := elapsed / time.Duration(len(m.blockRates))
		if len(m.blockRates) >= figuresMinSweeps && elapsed+perSweep/2 >= d &&
			(len(m.latMs) >= minOps || elapsed >= giveUp*d) {
			return m, nil
		}
	}
}

func (f *figuresBench) layers(m *measurement) (map[string]float64, error) {
	out := map[string]float64{}
	bucket := func(path []string) string { return path[0] + "_ms" }
	if err := finishLayers(f.cfg, "figures-paper", f.tr.traces, bucket, m, out); err != nil {
		return nil, err
	}
	ops := float64(len(m.latMs))
	s := &f.totals
	events := s.CoreOps + s.L1Accesses + s.L2Accesses + s.DRAMAccesses + s.NoCMessages
	out["system.ns_per_event"] = out["system.run_ms"] * 1e6 * ops / float64(events)
	out["system.sim_cycles"] = float64(s.Cycles) / ops
	out["cu.core_ops"] = float64(s.CoreOps) / ops
	out["memsys.l1_accesses"] = float64(s.L1Accesses) / ops
	out["memsys.l1_hit_ratio"] = float64(s.L1Hits) / float64(s.L1Accesses)
	out["memsys.l2_accesses"] = float64(s.L2Accesses) / ops
	out["memsys.dram_accesses"] = float64(s.DRAMAccesses) / ops
	out["memsys.atomics"] = float64(s.Atomics) / ops
	out["noc.messages"] = float64(s.NoCMessages) / ops
	out["noc.flit_hops"] = float64(s.NoCFlitHops) / ops
	return out, nil
}

func (f *figuresBench) peakRSSMB() (float64, error) { return selfRSSMB() }
func (f *figuresBench) close() error                { return nil }
