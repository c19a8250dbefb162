package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rats/internal/core"
	"rats/internal/obs"
	"rats/internal/probe"
	"rats/internal/sim/memsys"
	"rats/internal/sim/system"
	"rats/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// twoWarpTrace mirrors the probe package's golden workload: a small
// deterministic trace touching loads, atomics, and a barrier.
func twoWarpTrace() *trace.Trace {
	tr := trace.New("two-warp")
	w0 := tr.AddWarp(0)
	w0.Load(core.Data, 0x1000, 0x1040)
	w0.Atomic(core.Paired, core.OpInc, 0, 0x4000)
	w0.Compute(4)
	w0.Load(core.Data, 0x1000)
	w0.Barrier()
	w0.Atomic(core.Commutative, core.OpAdd, 2, 0x8000)
	w1 := tr.AddWarp(1)
	w1.Load(core.Data, 0x2000)
	w1.AtomicScoped(trace.ScopeLocal, core.Paired, core.OpInc, 0, 0x4100)
	w1.Barrier()
	w1.Atomic(core.Commutative, core.OpAdd, 3, 0x8000)
	return tr
}

// runServer executes the two-warp workload with a gauge and latency sink
// feeding a fully-populated observability server.
func runServer(t *testing.T) *obs.Server {
	t.Helper()
	gauge := &obs.StatsGauge{}
	lat := probe.NewLatencySink()
	hub := probe.NewHub()
	hub.Attach(gauge)
	hub.Attach(lat)
	hub.SetSampleInterval(100)

	sys := system.New(memsys.Default(memsys.ProtoDeNovo, core.DRF0))
	sys.AttachProbe(hub)
	if err := sys.Load(twoWarpTrace()); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}

	srv := obs.NewServer()
	srv.SetRunInfo("workload", "two-warp")
	srv.SetRunInfo("config", "DD0")
	srv.SetGauge(gauge)
	srv.SetLatency(lat)
	prog := obs.NewProgress()
	prog.Done("two-warp", "DD0", res.Stats.Cycles)
	srv.SetProgress(prog)
	return srv
}

// TestMetricsGolden pins the exact Prometheus exposition for the
// deterministic two-warp run. Any drift in counters, label sets, or
// histogram bucketing shows up as a golden diff. Regenerate with
// `go test ./internal/obs -run Golden -update`.
func TestMetricsGolden(t *testing.T) {
	srv := runServer(t)
	var buf bytes.Buffer
	srv.WriteMetrics(&buf)

	for _, want := range []string{
		"rats_run_info{config=\"DD0\",workload=\"two-warp\"} 1",
		"rats_cycles ",
		"# TYPE rats_txn_latency_cycles histogram",
		"le=\"+Inf\"",
		"rats_txn_latency_cycles_count{op=\"atomic\",level=\"l1\"}",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	golden := filepath.Join("testdata", "metrics_two_warp.txt")
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
		t.Errorf("metrics drifted from golden (%d vs %d bytes); run with -update and review the diff",
			buf.Len(), len(want))
	}
}

// TestServerEndpoints exercises the HTTP surface: /metrics serves the
// exposition with the Prometheus content type, /progress serves the
// sweep report as JSON, and pprof answers.
func TestServerEndpoints(t *testing.T) {
	srv := runServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (string, *http.Response) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body), resp
	}

	body, resp := get("/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	var direct bytes.Buffer
	srv.WriteMetrics(&direct)
	if body != direct.String() {
		t.Error("/metrics body differs from WriteMetrics output")
	}

	body, resp = get("/progress")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/progress content type %q", ct)
	}
	var rep obs.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/progress is not valid JSON: %v", err)
	}
	if rep.Total != 1 || rep.Done != 1 {
		t.Errorf("progress report total=%d done=%d, want 1/1", rep.Total, rep.Done)
	}
	if len(rep.Runs) != 1 || rep.Runs[0].State != obs.RunDone {
		t.Errorf("progress runs = %+v, want one done run", rep.Runs)
	}

	if body, _ = get("/debug/pprof/cmdline"); body == "" {
		t.Error("pprof cmdline endpoint empty")
	}
}

// TestProgressLifecycle walks one run through every state and checks the
// counts and the preserved first-appearance order.
func TestProgressLifecycle(t *testing.T) {
	p := obs.NewProgress()
	p.Start("A", "GD0")
	p.Start("B", "GD0")
	p.Done("A", "GD0", 1234)
	p.Fail("B", "GD0", io.ErrUnexpectedEOF)
	p.Restored("C", "GD0", 99)

	rep := p.Snapshot()
	if rep.Total != 3 || rep.Done != 1 || rep.Failed != 1 || rep.Restored != 1 || rep.Running != 0 {
		t.Fatalf("counts total=%d done=%d failed=%d restored=%d running=%d",
			rep.Total, rep.Done, rep.Failed, rep.Restored, rep.Running)
	}
	if rep.Runs[0].Workload != "A" || rep.Runs[1].Workload != "B" || rep.Runs[2].Workload != "C" {
		t.Errorf("runs out of order: %+v", rep.Runs)
	}
	if rep.Runs[0].Cycles != 1234 {
		t.Errorf("done run cycles = %d, want 1234", rep.Runs[0].Cycles)
	}
	if rep.Runs[1].Err == "" {
		t.Error("failed run lost its error message")
	}
}

// TestServerExtensions checks the mount points the race-checking service
// uses: extra metrics sources appended to /metrics, handlers mounted on
// the shared mux, and the body bound applied to every request.
func TestServerExtensions(t *testing.T) {
	s := obs.NewServer()
	s.AddMetricsOM(func(w io.Writer, _ bool) {
		io.WriteString(w, "rats_extra_metric 42\n")
	})
	s.Handle("/echo", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		w.Write(body)
	}))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "rats_extra_metric 42") {
		t.Errorf("/metrics missing extra source output:\n%s", b)
	}

	resp, err = http.Post(srv.URL+"/echo", "text/plain", strings.NewReader("ping"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(b) != "ping" {
		t.Errorf("mounted handler: got %q, want %q", b, "ping")
	}

	// A body over the bound must be rejected, not buffered.
	huge := strings.NewReader(strings.Repeat("x", 2<<20))
	resp, err = http.Post(srv.URL+"/echo", "text/plain", huge)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: got status %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
}
