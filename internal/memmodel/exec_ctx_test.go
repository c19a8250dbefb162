package memmodel

import (
	"context"
	"errors"
	"strconv"
	"testing"
	"time"

	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel/telemetry"
)

// contendedProgram builds a program whose every operation conflicts with
// every other (same-location RMWs), so partial-order reduction cannot
// prune anything and the interleaving count is the full multinomial —
// intractable at this size. It is the worst-case input the service's
// deadline machinery exists for.
func contendedProgram(threads, opsPer int) *litmus.Program {
	p := litmus.New("contended")
	for t := 0; t < threads; t++ {
		th := p.Thread("h" + strconv.Itoa(t))
		for i := 0; i < opsPer; i++ {
			th.Inc("X", core.Unpaired)
		}
	}
	return p
}

// TestCheckProgramCtxDeadline checks that a deadline interrupts an
// intractable search promptly and surfaces as a *CancelError carrying
// the context's cause.
func TestCheckProgramCtxDeadline(t *testing.T) {
	p := contendedProgram(7, 3)
	const deadline = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err := CheckProgramWith(p, core.DRFrlx, CheckOptions{
		Ctx:   ctx,
		Limit: 1 << 30, // make the deadline, not the execution cap, the binding constraint
	})
	elapsed := time.Since(start)
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CancelError, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("CancelError must wrap context.DeadlineExceeded, got %v", ce.Err)
	}
	// The ISSUE's bound is 2x the deadline for the whole HTTP response;
	// give the raw checker half that and plenty of CI slack besides.
	if elapsed > 10*deadline {
		t.Errorf("cancellation took %s, want promptly after the %s deadline", elapsed, deadline)
	}
}

// TestCheckProgramCtxPreCancelled checks that an already-cancelled
// context fails before any enumeration starts.
func TestCheckProgramCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CheckProgramWith(contendedProgram(2, 2), core.DRFrlx, CheckOptions{Ctx: ctx})
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CancelError, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("want wrapped context.Canceled, got %v", ce.Err)
	}
}

// TestCheckProgramTransitionLimit checks that the transition budget trips
// as a *LimitError with phase "transitions" even when the execution
// limit is far away.
func TestCheckProgramTransitionLimit(t *testing.T) {
	p := contendedProgram(7, 3)
	_, err := CheckProgramWith(p, core.DRFrlx, CheckOptions{
		TransitionLimit: 10_000,
		Limit:           1 << 30,
	})
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("want *LimitError, got %v", err)
	}
	if le.Phase != "transitions" {
		t.Errorf("phase: got %q, want %q", le.Phase, "transitions")
	}
	if !errors.Is(err, ErrLimit) {
		t.Errorf("transition LimitError must satisfy errors.Is(err, ErrLimit)")
	}
}

// TestTransitionLimitTripDiagnostics pins a transition-budget trip's
// diagnostics: enumerated into a slice or through Visit, three runs each,
// every run trips with the same Executions and the same trip-time
// telemetry record, whose transitions lie within one checkStride of the
// budget.
func TestTransitionLimitTripDiagnostics(t *testing.T) {
	p := contendedProgram(7, 3)
	const budget = 10_000
	var first *LimitError
	for _, form := range []string{"slice", "visit"} {
		for run := 0; run < 3; run++ {
			opts := EnumOptions{
				TransitionLimit: budget,
				Limit:           1 << 30,
				Telemetry:       telemetry.NewCheck(p.Name, "trip"),
			}
			if form == "visit" {
				opts.Visit = func(*Execution) error { return nil }
			}
			_, err := Enumerate(p, opts)
			var le *LimitError
			if !errors.As(err, &le) || le.Phase != "transitions" {
				t.Fatalf("%s run %d: want *LimitError with phase transitions, got %v", form, run, err)
			}
			if le.Telemetry == nil {
				t.Fatalf("%s run %d: LimitError carries no telemetry record", form, run)
			}
			rec := *le.Telemetry
			if rec.Transitions <= budget-checkStride || rec.Transitions > budget+checkStride {
				t.Errorf("%s run %d: tripped at %d transitions, want within (%d, %d]",
					form, run, rec.Transitions, budget-checkStride, budget+checkStride)
			}
			if rec.Executions != le.Executions {
				t.Errorf("%s run %d: telemetry counts %d executions, the error %d",
					form, run, rec.Executions, le.Executions)
			}
			if first == nil {
				first = le
				continue
			}
			if le.Executions != first.Executions || rec != *first.Telemetry {
				t.Errorf("%s run %d: tripped with %d executions and record %+v, first run %d and %+v",
					form, run, le.Executions, rec, first.Executions, *first.Telemetry)
			}
		}
	}
}
