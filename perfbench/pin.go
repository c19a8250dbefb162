package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel"
	"rats/internal/workloads"
)

// pinReferences regenerates the files under refs/ from the library's
// reference paths: every figure simulation run once, the catalog checked
// by the enumeration pipeline, and each fixed litmus-solve program
// checked by enumeration — or given its analytic verdict where
// enumeration exceeds its budget. A benchmark run never writes them.
func pinReferences(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	jobs, err := figureJobs()
	if err != nil {
		return err
	}
	// With no references loaded, the sweep checks each sim only against
	// its trace's FinalCheck.
	f := &figuresBench{scale: workloads.Paper, jobs: jobs}
	_, outs, errs := f.sweep()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	sims := map[string]simRef{}
	for i, j := range jobs {
		sims[j.key] = outs[i]
	}
	if err := writeJSON(filepath.Join(dir, "figures-paper.json"), sims); err != nil {
		return err
	}

	var cat strings.Builder
	for _, tc := range litmus.Suite() {
		for _, m := range core.Models() {
			v, err := memmodel.CheckProgram(tc.Prog, m)
			if err != nil {
				return err
			}
			cat.WriteString(renderVerdict(tc.Prog.Name, v))
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "litmus-catalog.diff"), []byte(cat.String()), 0o644); err != nil {
		return err
	}

	solveRefs := map[string]string{}
	for _, sp := range fixedSolvePrograms() {
		v, err := memmodel.CheckProgramWith(sp.prog, sp.model, memmodel.CheckOptions{Limit: 200_000})
		switch {
		case err == nil:
			solveRefs[sp.key()] = renderVerdict(sp.prog.Name, v)
		case errors.Is(err, memmodel.ErrLimit):
			var t, k int
			if _, serr := fmt.Sscanf(sp.prog.Name, "contended_%dx%d", &t, &k); serr != nil {
				return fmt.Errorf("%s: enumeration cannot finish and no analytic verdict: %w", sp.key(), err)
			}
			solveRefs[sp.key()] = analyticContended(sp.prog.Name, t, k, sp.model)
		default:
			return err
		}
	}
	return writeJSON(filepath.Join(dir, "litmus-solve.json"), solveRefs)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
