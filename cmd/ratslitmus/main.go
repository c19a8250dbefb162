// Command ratslitmus runs the litmus suite through both the
// programmer-centric race-classification model (Listing 7 of the paper)
// and the system-centric relaxed-execution model, reporting per-test
// verdicts under DRF0, DRF1, and DRFrlx, plus the Theorem 3.1 validation.
//
// Usage:
//
//	ratslitmus                   # full suite
//	ratslitmus -j 8              # suite with 8 parallel checkers
//	ratslitmus -mode solve       # constraint-solving backend; with -diff
//	                             # every verdict is cross-checked against
//	                             # streaming enumeration (exit 1 on any
//	                             # divergence)
//	ratslitmus -http :6060       # serve live /checks + /metrics during
//	                             # the suite run
//	ratslitmus -telemetry-out f  # write deterministic per-check JSONL
//	ratslitmus -table1           # Table 1 (use cases and applications)
//	ratslitmus -theorem          # Theorem 3.1 validation only
//	ratslitmus -file t.litmus    # check a litmus file (with -witness for
//	                             # a concrete racy execution)
//	ratslitmus -diff             # stable machine-diffable catalog verdicts
//	ratslitmus -serve-url URL    # check against a running ratsserve; the
//	                             # -diff output is byte-identical to a
//	                             # local run over the same programs
//	ratslitmus -list             # print catalog case names
//	ratslitmus -case IRIW -diff  # one catalog case
//
// Exit codes: 0 all verdicts produced and matched; 1 mismatch, checker
// failure, or I/O error; 2 parse error (bad program text or flags);
// 3 validation error (program parsed but is structurally invalid);
// 4 deadline or execution/transition budget exhausted.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"rats/internal/core"
	"rats/internal/harness"
	"rats/internal/litmus"
	"rats/internal/memmodel"
	"rats/internal/memmodel/telemetry"
	"rats/internal/obs"
)

func main() {
	var (
		table1   = flag.Bool("table1", false, "print Table 1 and exit")
		theorem  = flag.Bool("theorem", false, "run only the Theorem 3.1 validation")
		file     = flag.String("file", "", "check a single litmus file instead of the suite")
		witness  = flag.Bool("witness", false, "with -file: print a witness execution for the first illegal race")
		infer    = flag.Bool("infer", false, "with -file: infer the cheapest legal atomic labelling")
		jobs     = flag.Int("j", runtime.GOMAXPROCS(0), "suite-level parallelism (test cases checked concurrently)")
		mode     = flag.String("mode", "streaming", "checking backend: streaming (enumerate every SC execution) or solve (constraint solver)")
		httpAddr = flag.String("http", "", "serve live observability (/checks, /metrics, /progress, /buildinfo) on this address during the suite run")
		linger   = flag.Duration("http-linger", 0, "with -http: keep serving this long after the suite finishes")
		telOut   = flag.String("telemetry-out", "", "write deterministic per-check telemetry JSONL to this file")
		serveURL = flag.String("serve-url", "", "check via a running ratsserve at this base URL instead of checking locally")
		diffMode = flag.Bool("diff", false, "print stable machine-diffable verdicts (name/model/legal/races/sc_results) instead of the human report")
		caseName = flag.String("case", "", "check one named catalog case (see -list) instead of the whole suite")
		listOnly = flag.Bool("list", false, "print catalog case names and exit")
		deadline = flag.Duration("deadline", 0, "per-check wall-time budget for -file/-case/-diff checks (0 = none locally, server default via -serve-url); trips exit code 4")
	)
	flag.Parse()

	opts, err := pipelineOptions(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ratslitmus:", err)
		os.Exit(exitParse)
	}

	if *listOnly {
		for _, tc := range litmus.Suite() {
			fmt.Println(tc.Prog.Name)
		}
		return
	}
	if *file != "" {
		os.Exit(checkFile(*file, *witness, *infer, *serveURL, *diffMode, *deadline, opts))
	}
	if *caseName != "" || *diffMode || *serveURL != "" {
		os.Exit(runCatalog(*caseName, *serveURL, *jobs, *diffMode, *deadline, opts))
	}

	suite := litmus.Suite()
	if *table1 {
		fmt.Println("Table 1: GPU relaxed atomic use cases")
		fmt.Printf("  %-28s %s\n", "category", "application")
		for _, tc := range suite {
			if tc.UseCase != "" {
				fmt.Printf("  %-28s %s\n", tc.UseCase, tc.App)
			}
		}
		return
	}

	// Sweep-level integration: the obs server and the JSONL artifact both
	// hang off a telemetry registry; either flag turns instrumentation on.
	runOpts := &harness.RunOptions{}
	var srv *obs.Server
	if *httpAddr != "" || *telOut != "" {
		runOpts.Checks = telemetry.NewRegistry()
	}
	if *httpAddr != "" {
		runOpts.Progress = obs.NewProgress()
		srv = obs.NewServer()
		srv.SetRunInfo("suite", "litmus")
		srv.SetRunInfo("mode", *mode)
		srv.SetChecks(runOpts.Checks)
		srv.SetProgress(runOpts.Progress)
		addr, err := srv.Start(*httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ratslitmus:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "ratslitmus: serving /checks /metrics /progress /buildinfo on http://%s\n", addr)
	}
	var telFile *os.File
	if *telOut != "" {
		f, err := os.Create(*telOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ratslitmus:", err)
			os.Exit(1)
		}
		telFile = f
		runOpts.TelemetryOut = f
	}

	// Cases are checked on the sweep's worker pool and reported in suite
	// order, so the output is deterministic and identical to a serial run
	// regardless of -j.
	results, err := harness.LitmusSweep(suite, harness.LitmusSweepOptions{
		Workers:     *jobs,
		TheoremOnly: *theorem,
		Check:       opts,
		Run:         runOpts,
	})
	if telFile != nil {
		if cerr := telFile.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "ratslitmus:", cerr)
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ratslitmus:", err)
		os.Exit(1)
	}

	fail := 0
	for _, r := range results {
		out, nfail := renderCase(r, *theorem)
		fmt.Print(out)
		fail += nfail
	}
	if srv != nil && *linger > 0 {
		fmt.Fprintf(os.Stderr, "ratslitmus: suite finished; serving for another %s\n", *linger)
		time.Sleep(*linger)
	}
	if fail > 0 {
		fmt.Printf("\n%d mismatches\n", fail)
		os.Exit(1)
	}
	fmt.Println("\nall litmus verdicts match and Theorem 3.1 holds on every legal test")
}

// pipelineOptions maps the -mode flag onto CheckOptions.
func pipelineOptions(mode string) (memmodel.CheckOptions, error) {
	switch mode {
	case "streaming":
		return memmodel.CheckOptions{}, nil
	case "solve":
		return memmodel.CheckOptions{Mode: memmodel.ModeSolve}, nil
	}
	return memmodel.CheckOptions{}, fmt.Errorf("unknown -mode %q (want streaming or solve)", mode)
}

// renderCase formats one sweep result as the per-case report, returning
// it with the mismatch count.
func renderCase(r harness.LitmusCaseResult, theoremOnly bool) (string, int) {
	var b strings.Builder
	fail := 0
	tc := r.Case
	if !theoremOnly {
		fmt.Fprintf(&b, "%-26s %s\n", tc.Prog.Name, tc.Notes)
		for i, m := range core.Models() {
			v := r.Verdicts[i]
			status := "ok"
			if v.Legal != tc.Legal[i] {
				status = "MISMATCH"
				fail++
			}
			fmt.Fprintf(&b, "  %-8s legal=%-5v expected=%-5v %-9s %s\n",
				m, v.Legal, tc.Legal[i], status, raceSummary(v))
		}
	}
	rep := r.Theorem
	ok := !rep.Legal || rep.SystemSC
	status := "theorem holds"
	if !ok {
		status = "THEOREM VIOLATED, outside SC: " + strings.Join(rep.NonSCResults, " ")
		fail++
	}
	fmt.Fprintf(&b, "  %-8s system results=%d SC results=%d: %s\n", "sys", rep.SystemCount, rep.SCCount, status)
	return b.String(), fail
}

func raceSummary(v *memmodel.Verdict) string {
	if v.Legal {
		return ""
	}
	out := ""
	for _, k := range memmodel.RaceKinds() {
		if n := len(v.Races[k]); n > 0 {
			if out != "" {
				out += ", "
			}
			out += fmt.Sprintf("%d %s(s)", n, k)
		}
	}
	return out
}

// checkFile parses and checks one litmus file under all three models,
// locally or through -serve-url, and returns the process exit code.
// Parse, validation, and budget failures get distinct codes so callers
// can script against the difference (see the package comment).
func checkFile(path string, witness, infer bool, serveURL string, diffMode bool, deadline time.Duration, opts memmodel.CheckOptions) int {
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ratslitmus:", err)
		return exitCheck
	}
	if serveURL != "" {
		cl := newServeClient(serveURL, deadline, opts.Mode)
		for _, m := range core.Models() {
			resp, code, err := cl.check(string(src), m.String(), witness)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ratslitmus:", err)
				return code
			}
			if diffMode {
				fmt.Print(diffText(resp.Name, resp.Model, resp.Legal, resp.Races, resp.SCResults))
			} else {
				fmt.Printf("%-26s %-8s legal=%-5v cached=%v\n", resp.Name, resp.Model, resp.Legal, resp.Cached)
				if resp.Witness != "" {
					fmt.Println(resp.Witness)
				}
			}
		}
		return exitOK
	}
	p, err := litmus.Parse(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "ratslitmus:", err)
		return classifyLocal(err, true)
	}
	var drfrlx *memmodel.Verdict
	for _, m := range core.Models() {
		if diffMode {
			out, code, err := localDiffText(p, m, deadline, opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ratslitmus:", err)
				return code
			}
			fmt.Print(out)
			continue
		}
		mopts, cancel := withDeadline(opts, deadline)
		v, err := memmodel.CheckProgramWith(p, m, mopts)
		cancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ratslitmus:", err)
			return classifyLocal(err, false)
		}
		fmt.Println(v.Summary())
		if m == core.DRFrlx {
			drfrlx = v
		}
		if witness && !v.Legal {
			w, err := memmodel.FindWitness(p, m)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ratslitmus:", err)
				return classifyLocal(err, false)
			}
			if w != nil {
				fmt.Println(w)
			}
		}
	}
	if diffMode {
		return exitOK
	}
	if infer {
		fmt.Println("\nannotatable sites:")
		for i, s := range memmodel.Sites(p) {
			fmt.Printf("  %d: %s\n", i, s)
		}
		labels, err := memmodel.InferLabels(p, memmodel.InferOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ratslitmus:", err)
			return exitCheck
		}
		if len(labels) == 0 {
			fmt.Println("no legal labelling exists (data races?)")
		} else {
			fmt.Printf("minimum-cost legal labellings (%d):\n", len(labels))
			for _, l := range labels {
				fmt.Println("  ", l)
			}
		}
	}

	// The theorem compares the system model's results with the DRFrlx
	// verdict the model loop already computed, in the loop's mode.
	rep, err := memmodel.ValidateTheoremVerdict(p, drfrlx, opts.Limit, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ratslitmus:", err)
		return classifyLocal(err, false)
	}
	if rep.Legal {
		if rep.SystemSC {
			fmt.Println("system model: all relaxed executions SC (Theorem 3.1 holds)")
		} else {
			fmt.Println("system model: THEOREM VIOLATED — relaxed executions escape SC:", strings.Join(rep.NonSCResults, " "))
		}
	} else {
		fmt.Printf("system model: %d reachable results (illegal program; %d outside SC)\n",
			rep.SystemCount, len(rep.NonSCResults))
	}
	return exitOK
}
