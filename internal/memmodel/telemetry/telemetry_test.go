package telemetry_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"rats/internal/memmodel/telemetry"
)

// TestNilSafety: every method of the disabled (nil) mode must be a
// no-op — this is the contract that lets the enumerator call counters
// unconditionally.
func TestNilSafety(t *testing.T) {
	var c *telemetry.Check
	c.Begin(100)
	c.AddEnumerated(1)
	c.AddTransitions(1)
	c.AddSleepSkips(1)
	c.AddMemoHits(3)
	c.IncRecycled()
	c.IncAllocated()
	c.SetUnion(1, 2, 3)
	c.SetSuiteWorker(4)
	c.SetClock(time.Now)
	c.Finish(telemetry.StateDone)
	w := c.Worker()
	if w != nil {
		t.Fatalf("nil Check.Worker() = %v, want nil", w)
	}
	w.IncAnalyzed()
	if got := c.Record(); got != (telemetry.Record{}) {
		t.Errorf("nil Record = %+v, want zero", got)
	}
	if got := c.Snapshot(); got.Executions != 0 || got.Workers != nil {
		t.Errorf("nil Snapshot = %+v, want zero", got)
	}
	if c.State() != telemetry.StateRunning {
		t.Errorf("nil State = %v", c.State())
	}

	var r *telemetry.Registry
	if r.NewCheck("p", "m") != nil {
		t.Error("nil Registry.NewCheck must return nil")
	}
	if s := r.Snapshot(); s.Total != 0 {
		t.Errorf("nil Registry snapshot = %+v", s)
	}
	if tot := r.Totals(); tot.Executions != 0 {
		t.Errorf("nil Registry totals = %+v", tot)
	}
	if recs := r.Records(); recs != nil {
		t.Errorf("nil Registry records = %v", recs)
	}
}

// fakeClock steps a fixed amount per reading, so elapsed times are
// deterministic.
func fakeClock(step time.Duration) func() time.Time {
	t0 := time.Unix(1_700_000_000, 0).UTC()
	n := 0
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		n++
		return t0.Add(time.Duration(n) * step)
	}
}

func TestCheckLifecycleAndCounters(t *testing.T) {
	r := telemetry.NewRegistry()
	r.SetClock(fakeClock(10 * time.Millisecond))
	c := r.NewCheck("IRIW", "DRFrlx")
	if c.Program() != "IRIW" || c.Model() != "DRFrlx" {
		t.Fatalf("identity = %q/%q", c.Program(), c.Model())
	}
	c.Begin(500)
	if c.State() != telemetry.StateRunning {
		t.Fatalf("state after Begin = %v", c.State())
	}
	c.AddEnumerated(12)
	c.AddEnumerated(3)
	c.AddTransitions(60)
	c.AddSleepSkips(40)
	c.AddMemoHits(7)
	c.IncRecycled()
	c.IncAllocated()
	c.IncAllocated()
	w0, w1 := c.Worker(), c.Worker()
	w0.IncAnalyzed()
	w0.IncAnalyzed()
	w1.IncAnalyzed()
	c.SetUnion(4, 9, 2)
	c.Finish(telemetry.StateDone)
	// Second Finish must not overwrite the terminal state.
	c.Finish(telemetry.StateFailed)

	rec := c.Record()
	want := telemetry.Record{
		Program: "IRIW", Model: "DRFrlx", State: "done",
		Limit: 500, Executions: 15, Transitions: 60, SleepSkips: 40,
		PrunedPct: 40.0, MemoHits: 7, RacePairs: 4, SCResults: 2,
		BudgetFraction: 15.0 / 500,
	}
	if rec != want {
		t.Errorf("Record = %+v, want %+v", rec, want)
	}

	s := c.Snapshot()
	if s.Analyzed != 3 || s.Recycled != 1 || s.Allocated != 2 || s.MergedRaces != 9 {
		t.Errorf("snapshot scheduling counters = %+v", s)
	}
	if len(s.Workers) != 2 || s.Workers[0].Analyzed != 2 || s.Workers[1].Analyzed != 1 {
		t.Errorf("worker snapshots = %+v", s.Workers)
	}
	if s.ElapsedMs <= 0 {
		t.Errorf("elapsed = %v, want > 0", s.ElapsedMs)
	}
	if s.ExecsPerSec <= 0 {
		t.Errorf("execs/sec = %v, want > 0", s.ExecsPerSec)
	}
	if s.StartedAt == "" {
		t.Error("StartedAt empty after Begin")
	}

	// Registry aggregates and latency.
	snap := r.Snapshot()
	if snap.Total != 1 || snap.Done != 1 || snap.Executions != 15 {
		t.Errorf("registry snapshot = %+v", snap)
	}
	if snap.Latency == nil || snap.Latency.Count != 1 {
		t.Errorf("latency summary = %+v", snap.Latency)
	}
	tot := r.Totals()
	if tot.Executions != 15 || tot.MemoHits != 7 || tot.States[telemetry.StateDone] != 1 {
		t.Errorf("totals = %+v", tot)
	}
}

// TestRegistryOrderAndRecords: snapshots and records sort by (program,
// model) regardless of registration order, and WriteRecords emits
// deterministic JSONL.
func TestRegistryOrderAndRecords(t *testing.T) {
	r := telemetry.NewRegistry()
	b := r.NewCheck("B", "DRF0")
	a2 := r.NewCheck("A", "DRFrlx")
	a1 := r.NewCheck("A", "DRF0")
	for _, c := range []*telemetry.Check{b, a2, a1} {
		c.Begin(10)
		c.AddEnumerated(1)
		c.Finish(telemetry.StateDone)
	}
	recs := r.Records()
	gotOrder := []string{}
	for _, rec := range recs {
		gotOrder = append(gotOrder, rec.Program+"/"+rec.Model)
	}
	wantOrder := []string{"A/DRF0", "A/DRFrlx", "B/DRF0"}
	for i := range wantOrder {
		if gotOrder[i] != wantOrder[i] {
			t.Fatalf("record order = %v, want %v", gotOrder, wantOrder)
		}
	}

	var buf1, buf2 bytes.Buffer
	if err := telemetry.WriteRecords(&buf1, recs); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteRecords(&buf2, r.Records()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Error("WriteRecords not byte-identical across calls")
	}
	lines := strings.Split(strings.TrimSpace(buf1.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 JSONL lines, got %d", len(lines))
	}
	for _, line := range lines {
		var rec telemetry.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %q not valid JSON: %v", line, err)
		}
		if rec.Executions != 1 || rec.BudgetFraction != 0.1 {
			t.Errorf("round-tripped record = %+v", rec)
		}
	}
}

// TestConcurrentCounters: many goroutines hammering one Check must not
// lose counts (run under -race in CI).
func TestConcurrentCounters(t *testing.T) {
	c := telemetry.NewCheck("P", "DRF0")
	c.Begin(1000)
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := c.Worker()
			for i := 0; i < per; i++ {
				c.AddEnumerated(1)
				c.AddTransitions(1)
				w.IncAnalyzed()
				_ = c.Snapshot()
			}
		}()
	}
	wg.Wait()
	c.Finish(telemetry.StateDone)
	rec := c.Record()
	if rec.Executions != goroutines*per || rec.Transitions != goroutines*per {
		t.Errorf("lost counts: %+v", rec)
	}
	if got := c.Snapshot().Analyzed; got != goroutines*per {
		t.Errorf("analyzed = %d", got)
	}
}
