package memmodel

import (
	"errors"
	"testing"

	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel/telemetry"
)

// TestCheckTelemetryCounts: an instrumented check's counters must agree
// with the verdict it produced — executions enumerated equals
// Verdict.Execs, one execution per distinct order was built and
// analyzed (the order memo counts the repeats the quantum transformation
// makes at the enumerator's leaf), and the merge sizes match the
// verdict's race/SC sets. RefCounter and RefCounterTwo pin the memo by
// exact count, and their weighted walks (each thread's discarded quantum
// increment takes one load choice for all three) by the transitions
// walked, which are fewer than the executions they count.
func TestCheckTelemetryCounts(t *testing.T) {
	for _, tc := range []struct {
		prog *litmus.Program
		// execs and orders, when set, pin the enumeration and the
		// distinct-order count exactly; transitions, when set, pins the
		// weighted walk.
		execs, orders, transitions int64
	}{
		{prog: litmus.IRIW()},
		{prog: litmus.WorkQueue()},
		{prog: litmus.MPData()},
		{prog: litmus.RefCounter(), execs: 43740, orders: 30, transitions: 9006},
		{prog: litmus.RefCounterTwo(), execs: 19683, orders: 12, transitions: 4407},
	} {
		prog := tc.prog
		execs, orders, err := orderStats(prog, core.DRFrlx)
		if err != nil {
			t.Fatalf("%s: %v", prog.Name, err)
		}
		if tc.execs != 0 && (execs != tc.execs || orders != tc.orders) {
			t.Errorf("%s: %d executions over %d orders, want %d over %d", prog.Name, execs, orders, tc.execs, tc.orders)
		}
		c := telemetry.NewCheck(prog.Name, core.DRFrlx.String())
		v, err := CheckProgramWith(prog, core.DRFrlx, CheckOptions{Telemetry: c})
		if err != nil {
			t.Fatalf("%s: %v", prog.Name, err)
		}
		if c.State() != telemetry.StateDone {
			t.Errorf("%s: state = %v, want done", prog.Name, c.State())
		}
		s := c.Snapshot()
		if s.Executions != int64(v.Execs) || s.Executions != execs {
			t.Errorf("%s: telemetry executions = %d, verdict execs = %d, want %d",
				prog.Name, s.Executions, v.Execs, execs)
		}
		if s.Analyzed != orders {
			t.Errorf("%s: analyzed = %d, want one per distinct order (%d)", prog.Name, s.Analyzed, orders)
		}
		if s.Recycled+s.Allocated != s.Analyzed {
			t.Errorf("%s: %d recycled + %d allocated executions, want one per analysis (%d): memo hits must not be built",
				prog.Name, s.Recycled, s.Allocated, s.Analyzed)
		}
		if tc.transitions != 0 {
			if s.Transitions != tc.transitions {
				t.Errorf("%s: transitions = %d, want the weighted walk's %d", prog.Name, s.Transitions, tc.transitions)
			}
		} else if s.Transitions < s.Executions {
			t.Errorf("%s: transitions = %d < executions = %d", prog.Name, s.Transitions, s.Executions)
		}
		var distinct int
		for _, descs := range v.Races {
			distinct += len(descs)
		}
		if s.RacePairs != int64(distinct) {
			t.Errorf("%s: race pairs = %d, verdict distinct races = %d", prog.Name, s.RacePairs, distinct)
		}
		if s.SCResults != int64(len(v.SCResults)) {
			t.Errorf("%s: sc results = %d, verdict = %d", prog.Name, s.SCResults, len(v.SCResults))
		}
		if s.BudgetFraction <= 0 || s.BudgetFraction > 1 {
			t.Errorf("%s: budget fraction = %v", prog.Name, s.BudgetFraction)
		}
	}
}

// TestCheckTelemetryDeterministic: the deterministic Record of every
// catalog check under every model must equal the memo-free two-phase
// reference's — it is a function of the explored search tree, not of
// how the executions were delivered (into a slice or through Visit), nor
// of how many executions the order memo let skip analysis.
// The exception is the catalog's weighted walks, which leave out the
// subtrees of all but the first load choice of a quantum read into no
// register: their transitions and sleep-set skips are pinned here and
// must be below the reference's.
func TestCheckTelemetryDeterministic(t *testing.T) {
	weighted := map[string][2]int64{ // DRFrlx transitions, sleep skips
		"SplitCounter":  {238, 72},
		"RefCounter":    {9006, 846},
		"RefCounterTwo": {4407, 903},
	}
	for _, tc := range litmus.Suite() {
		for _, m := range []core.Model{core.DRF0, core.DRF1, core.DRFrlx} {
			ref := telemetry.NewCheck(tc.Prog.Name, m.String())
			if _, err := checkTwoPhase(tc.Prog, m, ref); err != nil {
				t.Fatalf("%s/%s two-phase: %v", tc.Prog.Name, m, err)
			}
			c := telemetry.NewCheck(tc.Prog.Name, m.String())
			if _, err := CheckProgramWith(tc.Prog, m, CheckOptions{Telemetry: c}); err != nil {
				t.Fatalf("%s/%s: %v", tc.Prog.Name, m, err)
			}
			got, want := c.Record(), ref.Record()
			if w, ok := weighted[tc.Prog.Name]; ok && m == core.DRFrlx {
				if got.Transitions != w[0] || got.SleepSkips != w[1] ||
					w[0] >= want.Transitions || w[1] >= want.SleepSkips {
					t.Errorf("%s/%s: %d transitions and %d sleep skips, want %d and %d, below the reference's %d and %d",
						tc.Prog.Name, m, got.Transitions, got.SleepSkips, w[0], w[1], want.Transitions, want.SleepSkips)
				}
				got.Transitions, got.SleepSkips, got.PrunedPct = want.Transitions, want.SleepSkips, want.PrunedPct
			}
			if got != want {
				t.Errorf("%s/%s: record = %+v, want %+v", tc.Prog.Name, m, c.Record(), want)
			}
		}
	}
}

// TestCheckTelemetryVerdictUnchanged: instrumentation must not perturb
// verdicts across the suite.
func TestCheckTelemetryVerdictUnchanged(t *testing.T) {
	for _, tc := range litmus.Suite() {
		c := telemetry.NewCheck(tc.Prog.Name, core.DRFrlx.String())
		instrumented, err := CheckProgramWith(tc.Prog, core.DRFrlx, CheckOptions{Telemetry: c})
		if err != nil {
			t.Fatalf("%s: %v", tc.Prog.Name, err)
		}
		plain, err := CheckProgram(tc.Prog, core.DRFrlx)
		if err != nil {
			t.Fatalf("%s: %v", tc.Prog.Name, err)
		}
		if instrumented.Legal != plain.Legal || instrumented.Execs != plain.Execs {
			t.Errorf("%s: instrumented verdict differs: %+v vs %+v", tc.Prog.Name, instrumented, plain)
		}
	}
}

// TestLimitErrorStructured: a budget trip surfaces the structured
// *LimitError while preserving the ErrLimit sentinel, in both search
// phases. RefCounter's weighted leaves (each stands for up to nine
// executions) trip exactly at the limit, as an unweighted walk would.
func TestLimitErrorStructured(t *testing.T) {
	c := telemetry.NewCheck("IRIW", core.DRFrlx.String())
	_, err := CheckProgramWith(litmus.IRIW(), core.DRFrlx, CheckOptions{Limit: 3, Telemetry: c})
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("want ErrLimit, got %v", err)
	}
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("want *LimitError, got %T", err)
	}
	if le.Phase != "enumeration" || le.Limit != 3 || le.Executions != 3 || le.Prog == "" {
		t.Errorf("limit error fields = %+v", le)
	}
	if le.Telemetry == nil || le.Telemetry.Executions != 3 {
		t.Errorf("limit error telemetry = %+v", le.Telemetry)
	}
	if c.State() != telemetry.StateLimit {
		t.Errorf("state = %v, want limit", c.State())
	}

	for _, limit := range []int{43740, 43739, 100} {
		c := telemetry.NewCheck("RefCounter", core.DRFrlx.String())
		_, err := CheckProgramWith(litmus.RefCounter(), core.DRFrlx, CheckOptions{Limit: limit, Telemetry: c})
		if limit == 43740 {
			if err != nil {
				t.Errorf("RefCounter within its limit %d: %v", limit, err)
			}
			continue
		}
		le = nil
		if !errors.As(err, &le) {
			t.Fatalf("RefCounter limit %d: want *LimitError, got %v", limit, err)
		}
		if le.Phase != "enumeration" || le.Limit != limit || le.Executions != int64(limit) {
			t.Errorf("RefCounter limit %d: limit error fields = %+v", limit, le)
		}
		if le.Telemetry == nil || le.Telemetry.Executions != int64(limit) {
			t.Errorf("RefCounter limit %d: limit error telemetry = %+v", limit, le.Telemetry)
		}
	}

	sysTel := telemetry.NewCheck("IRIW/system", "system")
	_, err = systemSearch(litmus.IRIW().Under(core.DRFrlx), 2, sysTel)
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("system model: want ErrLimit, got %v", err)
	}
	le = nil
	if !errors.As(err, &le) {
		t.Fatalf("system model: want *LimitError, got %T", err)
	}
	if le.Phase != "system model" || le.Limit != 2 || le.Executions != 2 {
		t.Errorf("system limit error fields = %+v", le)
	}
	if sysTel.State() != telemetry.StateLimit {
		t.Errorf("system state = %v, want limit", sysTel.State())
	}
}

// TestWeightSaturates: a path through 22 weighted ops over an 8-value
// domain stands for 8^22 executions per leaf, more than an int64 holds.
// The weight saturates just past the limit, so the first leaf trips it
// with the report an unweighted walk gives at its limit-th leaf, well
// inside the transition budget.
func TestWeightSaturates(t *testing.T) {
	p := litmus.New("ManyIncs")
	p.QuantumDomain = []int64{0, 1, 2, 3, 4, 5, 6, 7}
	th := p.Thread("t0")
	for i := 0; i < 22; i++ {
		th.Inc("X", core.Quantum)
	}
	c := telemetry.NewCheck(p.Name, core.DRFrlx.String())
	_, err := CheckProgramWith(p, core.DRFrlx, CheckOptions{Limit: 1000, TransitionLimit: 1 << 20, Telemetry: c})
	var le *LimitError
	if !errors.As(err, &le) || le.Phase != "enumeration" || le.Executions != 1000 {
		t.Fatalf("got %v, want an enumeration *LimitError at 1000 executions", err)
	}
	if le.Telemetry == nil || le.Telemetry.Executions != 1000 {
		t.Errorf("limit error telemetry = %+v", le.Telemetry)
	}
}

// TestSystemResultsTelemetry: the memoized system search reports memo
// hits and finishes done; results are unchanged by instrumentation.
func TestSystemResultsTelemetry(t *testing.T) {
	prog := litmus.IRIW().Under(core.DRFrlx)
	c := telemetry.NewCheck(prog.Name, "system")
	instrumented, err := systemSearch(prog, 0, c)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := systemSearch(prog, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(instrumented.results) != len(plain.results) {
		t.Errorf("instrumented results = %d, plain = %d", len(instrumented.results), len(plain.results))
	}
	if c.State() != telemetry.StateDone {
		t.Errorf("state = %v, want done", c.State())
	}
	s := c.Snapshot()
	if s.Executions == 0 || s.Transitions == 0 {
		t.Errorf("system counters empty: %+v", s)
	}
	if s.MemoHits == 0 {
		t.Errorf("memoized search reported zero memo hits")
	}
}
