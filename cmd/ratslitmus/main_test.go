package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rats/internal/harness"
	"rats/internal/litmus"
	"rats/internal/memmodel"
)

// TestRenderCaseNamesViolatingResults: a report that breaks Theorem 3.1
// names the system results outside the SC set on its line and counts as
// a failure.
func TestRenderCaseNamesViolatingResults(t *testing.T) {
	r := harness.LitmusCaseResult{
		Case: litmus.Case{Prog: litmus.New("violated")},
		Theorem: &memmodel.TheoremReport{
			Prog: "violated", Legal: true, SystemCount: 3, SCCount: 1,
			NonSCResults: []string{"X=2;Y=1;", "X=2;Y=2;"},
		},
	}
	out, fail := renderCase(r, true)
	want := "  sys      system results=3 SC results=1: THEOREM VIOLATED, outside SC: X=2;Y=1; X=2;Y=2;\n"
	if out != want || fail != 1 {
		t.Errorf("renderCase = %q with %d failures, want %q with 1", out, fail, want)
	}
	r.Theorem.SystemSC, r.Theorem.NonSCResults = true, nil
	if out, fail := renderCase(r, true); !strings.HasSuffix(out, ": theorem holds\n") || fail != 0 {
		t.Errorf("renderCase = %q with %d failures for a report that holds", out, fail)
	}
}

// TestCheckFileSolveTheorem: -file checks each model once and validates
// Theorem 3.1 from the DRFrlx verdict of that loop, so in solve mode a
// program the solver decides, but whose enumeration exceeds the
// execution limit, passes with the theorem checked.
func TestCheckFileSolveTheorem(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	path := filepath.Join("..", "ratsserve", "testdata", "intractable.litmus")
	code := checkFile(path, false, false, "", false, 0, memmodel.CheckOptions{Mode: memmodel.ModeSolve})
	os.Stdout = stdout
	out.Close()
	text, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if code != exitOK || !strings.Contains(string(text), "Theorem 3.1 holds") {
		t.Errorf("checkFile exit %d, want %d, printing:\n%s", code, exitOK, text)
	}
}
