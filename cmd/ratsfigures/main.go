// Command ratsfigures regenerates every table and figure of the paper's
// evaluation: Figure 1 (discrete-GPU speedups), Figure 2 (via the litmus
// engine), Figure 3 (microbenchmarks), Figure 4 (benchmarks), Tables 1-4,
// and the Section 6 summary aggregates.
//
// Usage:
//
//	ratsfigures                 # everything, test scale
//	ratsfigures -scale paper    # paper-scale inputs (slower)
//	ratsfigures -only fig3      # one artifact: fig1|fig3|fig4|table1..table4|summary
//	ratsfigures -stalls PR-3    # per-config stall attribution for one workload
//	ratsfigures -litmus         # litmus-suite verdict table via the streaming checker
//	ratsfigures -latency        # per-config transaction-latency percentiles (microbenchmarks)
//	ratsfigures -only fig3 -http :6060            # live /progress + /metrics while sweeping
//	ratsfigures -only fig3 -journal sweep.jsonl   # checkpointed (resumable) sweep
//	ratsfigures -only fig3 -faults 'delay:p=0.05,max=10' -fault-seed 3 -timeout 1m
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"rats/internal/core"
	"rats/internal/fault"
	"rats/internal/harness"
	"rats/internal/litmus"
	"rats/internal/memmodel"
	"rats/internal/memmodel/telemetry"
	"rats/internal/obs"
	"rats/internal/workloads"
)

func main() {
	var (
		scaleName  = flag.String("scale", "test", "workload scale: test or paper")
		only       = flag.String("only", "", "render a single artifact")
		stalls     = flag.String("stalls", "", "render the stall-attribution sweep for one workload and exit")
		litmusTab  = flag.Bool("litmus", false, "render the litmus-suite verdict table (streaming checker) and exit")
		latency    = flag.Bool("latency", false, "render the per-config transaction-latency sweep over the microbenchmarks and exit")
		httpAddr   = flag.String("http", "", "serve live /progress, /metrics, and pprof on this address while sweeping")
		journal    = flag.String("journal", "", "JSONL checkpoint file: completed runs are recorded and restored on rerun")
		timeout    = flag.Duration("timeout", 0, "wall-clock limit per simulation run (0 = none), e.g. 1m")
		faultSpec  = flag.String("faults", "", "fault-injection spec applied to every run (see internal/fault)")
		faultSeed  = flag.Int64("fault-seed", 1, "PRNG seed for fault injection")
		watchdog   = flag.Int64("watchdog", 0, "liveness watchdog window in cycles (>0 override, <0 disable, 0 default)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()
	scale := workloads.Test
	if *scaleName == "paper" {
		scale = workloads.Paper
	}

	want := func(name string) bool { return *only == "" || *only == name }
	die := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "ratsfigures:", err)
			os.Exit(1)
		}
	}
	// fail reports a sweep error without exiting, so partial figures still
	// render; the process exits non-zero at the end.
	exitCode := 0
	fail := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "ratsfigures:", err)
			exitCode = 1
		}
	}

	opts := &harness.RunOptions{Timeout: *timeout, FaultSeed: *faultSeed, WatchdogWindow: *watchdog}
	var server *obs.Server
	if *httpAddr != "" {
		opts.Progress = obs.NewProgress()
		server = obs.NewServer()
		server.SetRunInfo("command", "ratsfigures")
		server.SetRunInfo("scale", *scaleName)
		server.SetProgress(opts.Progress)
		addr, err := server.Start(*httpAddr)
		die(err)
		defer server.Close()
		fmt.Printf("observability server on http://%s (/progress /metrics /checks /debug/pprof)\n", addr)
	}
	if *faultSpec != "" {
		spec, err := fault.Parse(*faultSpec)
		die(err)
		opts.Faults = spec
	}
	if *journal != "" {
		j, err := harness.OpenJournal(*journal)
		die(err)
		defer j.Close()
		opts.Journal = j
		if n := j.Loaded(); n > 0 {
			fmt.Printf("journal %s: restored %d completed runs; re-simulating only the rest\n", *journal, n)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		die(err)
		defer f.Close()
		die(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			die(err)
			defer f.Close()
			runtime.GC()
			die(pprof.WriteHeapProfile(f))
		}()
	}

	if *litmusTab {
		// The verdict table doubles as a checker-telemetry summary: per
		// test, total executions explored across the three model checks,
		// the DRFrlx sleep-set pruning ratio, and total checker wall time.
		reg := telemetry.NewRegistry()
		opts.Checks = reg
		if server != nil {
			server.SetChecks(reg)
		}
		results, err := harness.LitmusSweep(litmus.Suite(), harness.LitmusSweepOptions{Run: opts})
		die(err)
		fmt.Println("Litmus suite verdicts (streaming race classification)")
		fmt.Printf("  %-26s %-8s %-8s %-8s %8s %8s %9s\n", "test", "DRF0", "DRF1", "DRFrlx", "execs", "pruned", "ms")
		for _, r := range results {
			fmt.Printf("  %-26s", r.Case.Prog.Name)
			for i := range core.Models() {
				cell := "illegal"
				if r.Verdicts[i].Legal {
					cell = "legal"
				}
				fmt.Printf(" %-8s", cell)
			}
			var execs int64
			var pruned, ms float64
			for _, c := range r.Checks {
				s := c.Snapshot()
				execs += s.Executions
				ms += s.ElapsedMs
				if c.Model() == core.DRFrlx.String() {
					pruned = s.PrunedPct
				}
			}
			fmt.Printf(" %8d %7.1f%% %9.2f\n", execs, pruned, ms)
		}
		return
	}

	if *stalls != "" {
		entry := workloads.ByName(*stalls)
		if entry == nil {
			fmt.Fprintf(os.Stderr, "ratsfigures: unknown workload %q\n", *stalls)
			os.Exit(1)
		}
		rows, err := harness.StallSweep(*entry, scale, harness.ConfigOrder, opts)
		die(err)
		fmt.Println(harness.RenderStallSweep(entry.Name, rows))
		return
	}

	if *latency {
		cells, err := harness.LatencySweep(workloads.Micro(), scale, harness.ConfigOrder, opts)
		die(err)
		fmt.Println(harness.RenderLatencySweep(cells, harness.ConfigOrder))
		return
	}

	if want("table1") {
		fmt.Println("Table 1: GPU relaxed atomic use cases")
		fmt.Printf("  %-28s %s\n", "category", "application")
		for _, tc := range litmus.Suite() {
			if tc.UseCase != "" {
				fmt.Printf("  %-28s %s\n", tc.UseCase, tc.App)
			}
		}
		fmt.Println()
	}
	if want("table2") {
		fmt.Println(harness.Table2())
	}
	if want("table3") {
		fmt.Println(harness.Table3())
	}
	if want("table4") {
		fmt.Println(harness.Table4())
	}
	if want("profile") {
		fmt.Println(workloads.ProfileTable(scale))
	}
	if want("fig1") {
		rows, err := harness.Figure1(scale, opts)
		fail(err)
		fmt.Println(harness.RenderFigure1(rows))
	}
	if want("fig2") {
		fmt.Println("Figure 2: non-ordering race detection")
		for _, p := range []*litmus.Program{litmus.Figure2a(), litmus.Figure2b()} {
			v, err := memmodel.CheckProgram(p, core.DRFrlx)
			die(err)
			fmt.Printf("  %s\n", v.Summary())
		}
		fmt.Println()
	}
	var fig3, fig4 *harness.Figure
	if want("fig3") || want("summary") {
		var err error
		fig3, err = harness.Figure3With(scale, opts)
		fail(err)
		if want("fig3") {
			fmt.Println(fig3.Render())
		}
	}
	if want("fig4") || want("summary") {
		var err error
		fig4, err = harness.Figure4With(scale, opts)
		fail(err)
		if want("fig4") {
			fmt.Println(fig4.Render())
		}
	}
	if want("summary") && fig3 != nil && fig4 != nil {
		fmt.Println(harness.Summarize(fig3, fig4).Render())
	}
	if exitCode != 0 {
		os.Exit(exitCode)
	}
}
