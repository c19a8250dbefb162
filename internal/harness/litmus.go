package harness

import (
	"errors"
	"fmt"
	"runtime"

	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel"
	"rats/internal/memmodel/telemetry"
	"rats/internal/obs"
)

// LitmusSweepOptions configures a litmus-suite sweep.
type LitmusSweepOptions struct {
	// Workers is the suite-level parallelism (test cases checked
	// concurrently); <= 0 means GOMAXPROCS. Telemetry checks created by a
	// worker carry its index, so a live /checks view shows which worker
	// owned which program.
	Workers int
	// TheoremOnly skips the per-model verdicts and runs only the Theorem
	// 3.1 validation.
	TheoremOnly bool
	// Check configures each per-model semantics check (backend mode,
	// execution and transition limits). Its Telemetry field is managed by
	// the sweep.
	Check memmodel.CheckOptions
	// Run supplies the sweep-level integration: Progress receives
	// per-case lifecycle updates, Checks registers one telemetry check
	// per (program, model) pair plus one per system-model search, and
	// TelemetryOut receives the deterministic per-check JSONL records
	// once the sweep completes.
	Run *RunOptions
}

// LitmusCaseResult is one suite case's outcome.
type LitmusCaseResult struct {
	Case litmus.Case
	// Verdicts holds one verdict per core.Models() entry (nil when
	// TheoremOnly is set or the case errored).
	Verdicts []*memmodel.Verdict
	// Theorem is the Theorem 3.1 validation report.
	Theorem *memmodel.TheoremReport
	// Checks lists the case's telemetry checks in deterministic order —
	// one per model in core.Models() order, then the system-model check.
	// Empty when no registry was attached.
	Checks []*telemetry.Check
	// Err is the first error the case hit; the other fields are partial.
	Err error
}

// LitmusSweep checks every suite case under every model plus the Theorem
// 3.1 validation, in parallel across cases on a bounded worker pool.
// Results come back in suite order regardless of scheduling. Failures do
// not stop the sweep: every case is attempted, per-case errors land in
// the results and are joined into the returned error.
func LitmusSweep(suite []litmus.Case, opts LitmusSweepOptions) ([]LitmusCaseResult, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var reg *telemetry.Registry
	var progress *obs.Progress
	if opts.Run != nil {
		reg = opts.Run.Checks
		progress = opts.Run.Progress
	}

	results := make([]LitmusCaseResult, len(suite))
	forEach(len(suite), workers, func(w, i int) {
		results[i] = runLitmusCase(suite[i], w, opts, reg, progress)
	})

	var errs []error
	for i := range results {
		if results[i].Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", results[i].Case.Prog.Name, results[i].Err))
		}
	}
	if opts.Run != nil && opts.Run.TelemetryOut != nil {
		var recs []telemetry.Record
		for i := range results {
			for _, c := range results[i].Checks {
				recs = append(recs, c.Record())
			}
		}
		if err := telemetry.WriteRecords(opts.Run.TelemetryOut, recs); err != nil {
			errs = append(errs, fmt.Errorf("telemetry out: %w", err))
		}
	}
	return results, errors.Join(errs...)
}

// runLitmusCase checks one case: every model (unless TheoremOnly), then
// the theorem validation with an instrumented system-model search.
func runLitmusCase(tc litmus.Case, worker int, opts LitmusSweepOptions, reg *telemetry.Registry, progress *obs.Progress) LitmusCaseResult {
	res := LitmusCaseResult{Case: tc}
	if progress != nil {
		progress.Start(tc.Prog.Name, "litmus")
	}
	fail := func(err error) LitmusCaseResult {
		res.Err = err
		if progress != nil {
			progress.Fail(tc.Prog.Name, "litmus", err)
		}
		return res
	}
	var total int64
	var drfrlx *memmodel.Verdict
	if !opts.TheoremOnly {
		for _, m := range core.Models() {
			co := opts.Check
			c := reg.NewCheck(tc.Prog.Name, m.String())
			c.SetSuiteWorker(worker)
			co.Telemetry = c
			v, err := memmodel.CheckProgramWith(tc.Prog, m, co)
			if c != nil {
				res.Checks = append(res.Checks, c)
			}
			if err != nil {
				return fail(err)
			}
			res.Verdicts = append(res.Verdicts, v)
			total += int64(v.Execs)
			if m == core.DRFrlx {
				drfrlx = v
			}
		}
	}
	sysTel := reg.NewCheck(tc.Prog.Name, "system")
	sysTel.SetSuiteWorker(worker)
	var rep *memmodel.TheoremReport
	var err error
	if drfrlx != nil {
		// The theorem compares the system model's results with the DRFrlx
		// verdict the per-model loop already computed.
		rep, err = memmodel.ValidateTheoremVerdict(tc.Prog, drfrlx, opts.Check.Limit, sysTel)
	} else {
		// TheoremOnly: the programmer-centric check runs here, without a
		// telemetry check of its own; only the system-model search is
		// instrumented.
		co := opts.Check
		co.Telemetry = nil
		rep, err = memmodel.ValidateTheoremWith(tc.Prog, co, sysTel)
	}
	if sysTel != nil {
		res.Checks = append(res.Checks, sysTel)
	}
	if err != nil {
		return fail(err)
	}
	res.Theorem = rep
	total += sysTel.Enumerated()
	if progress != nil {
		progress.Done(tc.Prog.Name, "litmus", total)
	}
	return res
}
