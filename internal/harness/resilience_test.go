package harness

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rats/internal/core"
	"rats/internal/fault"
	"rats/internal/obs"
	"rats/internal/sim/memsys"
	"rats/internal/trace"
	"rats/internal/workloads"
)

// TestRunAllAggregatesErrors asserts a sweep reports every failure, not
// just the first, while still returning the runs that succeeded. A
// workload that builds a nil trace fails its run like a bogus config.
func TestRunAllAggregatesErrors(t *testing.T) {
	good := workloads.Micro()[0]
	hollow := workloads.Entry{
		Name:  "hollow",
		Build: func(workloads.Scale) *trace.Trace { return nil },
	}
	res, err := RunAllWith([]workloads.Entry{good, hollow}, workloads.Test, []string{"XD0", "GD0", "XD1"}, nil)
	if err == nil {
		t.Fatal("expected an error for the two bogus configs and the nil trace")
	}
	msg := err.Error()
	for _, want := range []string{good.Name + "/XD0", good.Name + "/XD1", "hollow/GD0: workload hollow built a nil trace"} {
		if !strings.Contains(msg, want) {
			t.Errorf("joined error missing failure %q:\n%s", want, msg)
		}
	}
	// The good config's run must survive as a partial result.
	if res[good.Name]["GD0"] == nil {
		t.Error("partial results dropped the successful GD0 run")
	}
	if res["hollow"] != nil {
		t.Error("the nil-trace workload produced a result")
	}
}

// TestRunAllRecoversPanics injects a workload whose trace builder panics
// and asserts the sweep completes, converts the panic into an error with
// a stack, and still returns the healthy runs.
func TestRunAllRecoversPanics(t *testing.T) {
	good := workloads.Micro()[0]
	bomb := workloads.Entry{
		Name:  "bomb",
		Build: func(workloads.Scale) *trace.Trace { panic("kaboom") },
	}
	res, err := RunAllWith([]workloads.Entry{bomb, good}, workloads.Test, []string{"GD0"}, nil)
	if err == nil {
		t.Fatal("expected the panicking workload to surface as an error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "kaboom") || !strings.Contains(msg, "panic") {
		t.Errorf("error should carry the recovered panic:\n%s", msg)
	}
	if !strings.Contains(msg, "resilience_test") {
		t.Errorf("error should carry the panic's stack trace:\n%s", msg)
	}
	if res[good.Name]["GD0"] == nil {
		t.Error("healthy run lost to a neighbouring panic")
	}
}

// TestRunAllTimeout wedges a warp (with the watchdog disabled) and
// asserts the per-run wall-clock timeout aborts it.
func TestRunAllTimeout(t *testing.T) {
	spec, err := fault.Parse("wedge:warp=0,from=0")
	if err != nil {
		t.Fatal(err)
	}
	entries := workloads.Micro()[:1]
	opts := &RunOptions{
		Timeout:        100 * time.Millisecond,
		Faults:         spec,
		WatchdogWindow: -1, // force the timeout, not the watchdog, to fire
	}
	start := time.Now()
	_, err = RunAllWith(entries, workloads.Test, []string{"GD0"}, opts)
	if err == nil {
		t.Fatal("wedged run completed; expected a timeout error")
	}
	if !strings.Contains(err.Error(), "timeout") {
		t.Errorf("error = %v, want a wall-clock timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("timeout took %v to take effect", elapsed)
	}
}

// TestJournalResume records a sweep into a journal, reopens it, and
// asserts (a) completed pairs are restored rather than re-simulated and
// (b) only missing pairs run fresh.
func TestJournalResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	entries := workloads.Micro()[:2]

	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := RunAllWith(entries, workloads.Test, []string{"GD0", "DDR"}, &RunOptions{Journal: j1})
	if err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: all four (workload, config) pairs must be restored.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Loaded(); got != 4 {
		t.Fatalf("restored %d runs, want 4", got)
	}
	res2, err := RunAllWith(entries, workloads.Test, []string{"GD0", "DDR", "GD1"}, &RunOptions{Journal: j2})
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	for _, e := range entries {
		// Journal-restored results have no functional-read closure — the
		// telltale that they were not re-simulated.
		for _, c := range []string{"GD0", "DDR"} {
			r := res2[e.Name][c]
			if r == nil {
				t.Fatalf("%s/%s missing after resume", e.Name, c)
			}
			if r.Read != nil {
				t.Errorf("%s/%s was re-simulated despite a journal entry", e.Name, c)
			}
			if r.Stats != res1[e.Name][c].Stats {
				t.Errorf("%s/%s restored stats differ from the original run", e.Name, c)
			}
		}
		// The config absent from the journal must have run fresh.
		if r := res2[e.Name]["GD1"]; r == nil || r.Read == nil {
			t.Errorf("%s/GD1 should have been freshly simulated", e.Name)
		}
	}
}

// TestJournalTornTail appends garbage (a crash mid-write) to a journal
// and asserts reopening tolerates it, keeping every intact record.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	entries := workloads.Micro()[:1]
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunAllWith(entries, workloads.Test, []string{"GD0"}, &RunOptions{Journal: j1}); err != nil {
		t.Fatal(err)
	}
	j1.Close()

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"workload":"H","config":"DDR","st`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn tail should not prevent reopening: %v", err)
	}
	defer j2.Close()
	if got := j2.Loaded(); got != 1 {
		t.Errorf("restored %d runs, want 1 (the intact record)", got)
	}
	if _, ok := j2.Lookup(entries[0].Name, "GD0"); !ok {
		t.Error("intact record lost")
	}
	if _, ok := j2.Lookup("H", "DDR"); ok {
		t.Error("torn record should not have been restored")
	}
}

// TestFigure1Resumes journals Figure 1 and asserts a resumed Figure 1
// restores all 18 runs, under discrete configurations that ConfigFor
// rebuilds, and renders the same rows.
func TestFigure1Resumes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	rows1, err := Figure1(workloads.Test, &RunOptions{Journal: j1})
	if err != nil {
		t.Fatal(err)
	}
	j1.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Loaded(); got != 18 {
		t.Fatalf("journal restored %d Figure 1 runs, want 18", got)
	}
	if r, ok := j2.Lookup("PageRank", "discrete-DRFrlx"); !ok || !reflect.DeepEqual(r.Cfg, memsys.Discrete(core.DRFrlx)) {
		t.Error("restored Figure 1 run lost its discrete configuration")
	}
	progress := obs.NewProgress()
	rows2, err := Figure1(workloads.Test, &RunOptions{Journal: j2, Progress: progress})
	if err != nil {
		t.Fatal(err)
	}
	if got := progress.Snapshot().Restored; got != 18 {
		t.Errorf("resumed Figure 1 restored %d runs, want 18", got)
	}
	if !reflect.DeepEqual(rows2, rows1) {
		t.Errorf("resumed Figure 1 = %v, want %v", rows2, rows1)
	}
}

// TestFigureWithPartialResults asserts Figure3With returns both the
// error and a figure holding whatever succeeded. (Exercised indirectly
// via RunAllWith's contract: buildFigure skips nil results.)
func TestFigureWithPartialResults(t *testing.T) {
	fig, err := Figure3With(workloads.Test, nil)
	if err != nil {
		t.Fatalf("clean Figure3With: %v", err)
	}
	if fig == nil || len(fig.Order) == 0 {
		t.Fatal("Figure3With returned no figure")
	}
}

// wedged returns options that wedge warp 0 of every run from cycle 0,
// with the watchdog window given (negative disables the watchdog).
func wedged(t *testing.T, watchdog int64) *RunOptions {
	t.Helper()
	spec, err := fault.Parse("wedge:warp=0,from=0")
	if err != nil {
		t.Fatal(err)
	}
	return &RunOptions{Faults: spec, WatchdogWindow: watchdog}
}

// wantEveryRunWedged asserts err joins exactly one "no forward progress"
// failure for each named run ("workload/config"), in run order.
func wantEveryRunWedged(t *testing.T, err error, runs []string) {
	t.Helper()
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("error = %v, want one joined failure per run", err)
	}
	errs := joined.Unwrap()
	if len(errs) != len(runs) {
		t.Fatalf("%d failures for %d runs:\n%v", len(errs), len(runs), err)
	}
	for i, e := range errs {
		msg := e.Error()
		if !strings.HasPrefix(msg, runs[i]+": ") || !strings.Contains(msg, "no forward progress") {
			t.Errorf("failure %d = %q, want %s with no forward progress", i, strings.SplitN(msg, "\n", 2)[0], runs[i])
		}
	}
}

// TestRunOptionsReachEverySweep wedges a warp with a short watchdog and
// asserts Figure 1, the stall sweep and the latency sweep all inject the
// fault: every run fails with the watchdog's diagnosis.
func TestRunOptionsReachEverySweep(t *testing.T) {
	opts := wedged(t, 2000)

	rows, err := Figure1(workloads.Test, opts)
	var fig1 []string
	for _, app := range workloads.Figure1Apps() {
		fig1 = append(fig1, app.Name+"/discrete-DRF0", app.Name+"/discrete-DRFrlx")
	}
	wantEveryRunWedged(t, err, fig1)
	if len(rows) != 0 {
		t.Errorf("Figure 1 kept %d rows of wedged runs", len(rows))
	}

	h := *workloads.ByName("H")
	_, err = StallSweep(h, workloads.Test, ConfigOrder, opts)
	var stalls []string
	for _, c := range ConfigOrder {
		stalls = append(stalls, "H/"+c)
	}
	wantEveryRunWedged(t, err, stalls)

	micro := workloads.Micro()[:2]
	_, err = LatencySweep(micro, workloads.Test, ConfigOrder, opts)
	var latency []string
	for _, e := range micro {
		for _, c := range ConfigOrder {
			latency = append(latency, e.Name+"/"+c)
		}
	}
	wantEveryRunWedged(t, err, latency)
}

// TestProbedSweepsIgnoreJournal fills a journal with the very pairs a
// stall and a latency sweep run, and asserts both sweeps still simulate
// (their sinks need the events) and return what they return without a
// journal, leaving the journal as it was.
func TestProbedSweepsIgnoreJournal(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "sweep.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	h := *workloads.ByName("H")
	cfgs := []string{"GD0", "DDR"}
	if _, err := RunAllWith([]workloads.Entry{h}, workloads.Test, cfgs, &RunOptions{Journal: j}); err != nil {
		t.Fatal(err)
	}
	withJournal := &RunOptions{Journal: j}

	plainRows, err := StallSweep(h, workloads.Test, cfgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := StallSweep(h, workloads.Test, cfgs, withJournal)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, plainRows) {
		t.Errorf("stall sweep with a journal = %+v, want %+v", rows, plainRows)
	}

	plainCells, err := LatencySweep([]workloads.Entry{h}, workloads.Test, cfgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := LatencySweep([]workloads.Entry{h}, workloads.Test, cfgs, withJournal)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cells, plainCells) {
		t.Error("latency sweep with a journal differs from the sweep without one")
	}
	if got := j.Loaded(); got != len(cfgs) {
		t.Errorf("journal holds %d runs after the probed sweeps, want %d", got, len(cfgs))
	}
}

// TestTimedOutRunReRunsOnResume times a wedged run out under a journal
// and asserts a resumed sweep with the same journal simulates the pair
// again instead of refusing it.
func TestTimedOutRunReRunsOnResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	base := workloads.Micro()[0]
	var calls atomic.Int64
	counted := workloads.Entry{
		Name: base.Name,
		Build: func(s workloads.Scale) *trace.Trace {
			calls.Add(1)
			return base.Build(s)
		},
	}
	entries := []workloads.Entry{counted}

	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	opts := wedged(t, -1)
	opts.Timeout = 50 * time.Millisecond
	opts.Journal = j1
	if _, err := RunAllWith(entries, workloads.Test, []string{"GD0"}, opts); err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("error = %v, want a wall-clock timeout", err)
	}
	j1.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	res, err := RunAllWith(entries, workloads.Test, []string{"GD0"}, &RunOptions{Journal: j2})
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	if r := res[base.Name]["GD0"]; r == nil || r.Read == nil {
		t.Error("resumed sweep did not simulate the timed-out pair")
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("trace built %d times, want 2 (one per sweep)", got)
	}
}

// TestJournalSkipsAttemptLines opens a journal holding a failed-attempt
// line in the format older journals wrote, and asserts the pair is
// neither restored nor refused: a sweep simulates it.
func TestJournalSkipsAttemptLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	line := `{"kind":"attempt","workload":"H","config":"GD0","attempt":1,"error":"run timed out: system: H: wall-clock timeout 1ns exceeded"}` + "\n"
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if got := j.Loaded(); got != 0 {
		t.Fatalf("restored %d runs from an attempt line, want 0", got)
	}
	h := *workloads.ByName("H")
	res, err := RunAllWith([]workloads.Entry{h}, workloads.Test, []string{"GD0"}, &RunOptions{Journal: j})
	if err != nil {
		t.Fatalf("sweep over an attempt line: %v", err)
	}
	if r := res["H"]["GD0"]; r == nil || r.Read == nil || r.Stats.Cycles == 0 {
		t.Error("the attempt line's pair was not simulated")
	}
}
