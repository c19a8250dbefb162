package obs_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel"
	"rats/internal/memmodel/telemetry"
	"rats/internal/obs"
)

// fakeClock steps a fixed amount per reading, making elapsed times (and
// therefore the latency histogram) deterministic.
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

// checksRegistry builds a registry with two hand-driven checks whose
// counters (and, via the fake clock, latencies) are fully deterministic.
func checksRegistry() *telemetry.Registry {
	reg := telemetry.NewRegistry()
	reg.SetClock(fakeClock(10 * time.Millisecond))

	c1 := reg.NewCheck("IRIW", "DRFrlx")
	c1.Begin(500)
	c1.AddEnumerated(24)
	c1.AddTransitions(96)
	c1.AddSleepSkips(32)
	w := c1.Worker()
	for i := 0; i < 24; i++ {
		w.IncAnalyzed()
	}
	for i := 0; i < 20; i++ {
		c1.IncRecycled()
	}
	for i := 0; i < 4; i++ {
		c1.IncAllocated()
	}
	c1.SetUnion(3, 5, 16)
	c1.Finish(telemetry.StateDone)

	c2 := reg.NewCheck("WorkQueue", "DRF0")
	c2.Begin(100)
	c2.AddEnumerated(100)
	c2.AddTransitions(400)
	c2.AddMemoHits(12)
	c2.Finish(telemetry.StateLimit)
	return reg
}

// TestChecksMetricsGolden pins the rats_check_* exposition exactly: state
// gauge, the counter aggregates, and the per-check latency histogram fed
// by the deterministic fake clock. Regenerate with
// `go test ./internal/obs -run ChecksMetricsGolden -update`.
func TestChecksMetricsGolden(t *testing.T) {
	srv := obs.NewServer()
	srv.SetRunInfo("suite", "litmus")
	srv.SetChecks(checksRegistry())

	var buf bytes.Buffer
	srv.WriteMetrics(&buf)

	for _, want := range []string{
		`rats_check_total{state="done"} 1`,
		`rats_check_total{state="limit"} 1`,
		`rats_check_total{state="running"} 0`,
		"rats_check_executions_total 124",
		"rats_check_transitions_total 496",
		"rats_check_sleep_skips_total 32",
		"rats_check_memo_hits_total 12",
		"rats_check_analyzed_total 24",
		"rats_check_recycled_total 20",
		"rats_check_allocated_total 4",
		"rats_check_race_pairs_total 3",
		"rats_check_sc_results_total 16",
		"# TYPE rats_check_latency_us histogram",
		"rats_check_latency_us_count 2",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	golden := filepath.Join("testdata", "metrics_checks.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("check metrics drifted from golden (%d vs %d bytes); run with -update and review the diff",
			buf.Len(), len(want))
	}
}

// TestChecksEndpointConcurrent runs several instrumented CheckProgramWith
// calls against one obs server while hammering /checks (run under -race
// in CI). Snapshots taken mid-flight must always parse and stay
// internally consistent; the final snapshot's aggregates must equal the
// verdicts' totals, with checks sorted by (program, model).
func TestChecksEndpointConcurrent(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := obs.NewServer()
	srv.SetChecks(reg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	progs := []*litmus.Program{
		litmus.IRIW(), litmus.WorkQueue(), litmus.Seqlocks(), litmus.MPData(),
	}
	var wg sync.WaitGroup
	execs := make([]int64, len(progs))
	for i, p := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.NewCheck(p.Name, core.DRFrlx.String())
			c.SetSuiteWorker(i)
			v, err := memmodel.CheckProgramWith(p, core.DRFrlx, memmodel.CheckOptions{Telemetry: c})
			if err != nil {
				t.Errorf("%s: %v", p.Name, err)
				return
			}
			execs[i] = int64(v.Execs)
		}()
	}

	// Poll /checks while the checks run; every snapshot must parse and
	// never report more checks than registered.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
		}
		resp, err := http.Get(ts.URL + "/checks")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var snap telemetry.RegistrySnapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatalf("/checks not valid JSON: %v\n%s", err, body)
		}
		if snap.Total > len(progs) {
			t.Fatalf("snapshot reports %d checks, only %d registered", snap.Total, len(progs))
		}
	}

	resp, err := http.Get(ts.URL + "/checks")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap telemetry.RegistrySnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Total != len(progs) || snap.Done != len(progs) {
		t.Fatalf("final snapshot total=%d done=%d, want %d/%d", snap.Total, snap.Done, len(progs), len(progs))
	}
	var wantExecs int64
	for _, e := range execs {
		wantExecs += e
	}
	if snap.Executions != wantExecs {
		t.Errorf("aggregate executions = %d, verdicts sum to %d", snap.Executions, wantExecs)
	}
	for i := 1; i < len(snap.Checks); i++ {
		a, b := snap.Checks[i-1], snap.Checks[i]
		if a.Program > b.Program || (a.Program == b.Program && a.Model > b.Model) {
			t.Errorf("checks not sorted: %s/%s before %s/%s", a.Program, a.Model, b.Program, b.Model)
		}
	}
	for _, c := range snap.Checks {
		if c.State != "done" || c.Analyzed != c.Executions {
			t.Errorf("check %s/%s inconsistent: %+v", c.Program, c.Model, c)
		}
	}
}

// TestBuildInfoEndpoint: /buildinfo must serve JSON naming the Go
// toolchain and echoing the run-info labels.
func TestBuildInfoEndpoint(t *testing.T) {
	srv := obs.NewServer()
	srv.SetRunInfo("suite", "litmus")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/buildinfo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/buildinfo content type %q", ct)
	}
	var bi obs.BuildInfo
	if err := json.NewDecoder(resp.Body).Decode(&bi); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(bi.GoVersion, "go") {
		t.Errorf("go version = %q", bi.GoVersion)
	}
	if bi.Run["suite"] != "litmus" {
		t.Errorf("run info = %v", bi.Run)
	}
}

// TestProgressTiming: RunStatus carries start time and elapsed wall time,
// and both stay omitted from JSON for statuses that never started (the
// pre-existing payload shape is unchanged).
func TestProgressTiming(t *testing.T) {
	p := obs.NewProgress()
	p.SetClock(fakeClock(10 * time.Millisecond))
	p.Start("A", "GD0")
	p.Done("A", "GD0", 42)
	p.Restored("B", "GD0", 7)

	rep := p.Snapshot()
	a := rep.Runs[0]
	if a.StartedAt == "" {
		t.Error("done run has no StartedAt")
	}
	if a.ElapsedMs != 10 {
		t.Errorf("elapsed = %vms, want 10ms (one 10ms clock step)", a.ElapsedMs)
	}
	b := rep.Runs[1]
	if b.StartedAt != "" || b.ElapsedMs != 0 {
		t.Errorf("restored-without-start run has timing: %+v", b)
	}
	raw, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"started_at", "elapsed_ms"} {
		if strings.Contains(string(raw), key) {
			t.Errorf("JSON for unstarted run contains %q: %s", key, raw)
		}
	}
	raw, err = json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"started_at", "elapsed_ms"} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("JSON for started run missing %q: %s", key, raw)
		}
	}
}
