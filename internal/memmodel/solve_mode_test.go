package memmodel_test

import (
	"reflect"
	"strings"
	"testing"

	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel"
)

// TestCheckProgramWithModeSolve exercises the dispatch path callers use:
// CheckOptions.Mode "solve" must route through the constraint solver
// and agree with default enumeration on the whole suite (Execs excluded:
// the solver counts only confirmation-phase executions).
func TestCheckProgramWithModeSolve(t *testing.T) {
	for _, tc := range litmus.Suite() {
		for _, m := range []core.Model{core.DRF0, core.DRF1, core.DRFrlx} {
			want, err := memmodel.CheckProgram(tc.Prog, m)
			if err != nil {
				t.Fatalf("%s/%s enumerate: %v", tc.Prog.Name, m, err)
			}
			got, err := memmodel.CheckProgramWith(tc.Prog, m, memmodel.CheckOptions{Mode: memmodel.ModeSolve})
			if err != nil {
				t.Fatalf("%s/%s mode=solve: %v", tc.Prog.Name, m, err)
			}
			got.Execs, want.Execs = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: mode=solve diverges\n got: %+v\nwant: %+v", tc.Prog.Name, m, got, want)
			}
		}
	}
}

// TestUnknownModeRejected pins the validation error for a mode the
// dispatcher does not know.
func TestUnknownModeRejected(t *testing.T) {
	_, err := memmodel.CheckProgramWith(litmus.IRIW(), core.DRFrlx, memmodel.CheckOptions{Mode: "dpll"})
	if err == nil || !strings.Contains(err.Error(), "unknown CheckOptions.Mode") {
		t.Fatalf("want unknown-mode error, got %v", err)
	}
}

// TestInferLabelsModeSolve: inference probes only consume Legal, so the
// solver's verdict-only fast path must yield the same minimal labellings
// as enumeration.
func TestInferLabelsModeSolve(t *testing.T) {
	p := litmus.MP("mp_infer", core.Paired)
	want, err := memmodel.InferLabels(p, memmodel.InferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := memmodel.InferLabels(p, memmodel.InferOptions{Mode: memmodel.ModeSolve})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("inference diverges under mode=solve:\n got: %v\nwant: %v", got, want)
	}
}
