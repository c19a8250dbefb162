package obs_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"rats/internal/memmodel/telemetry"
	"rats/internal/obs"
	"rats/internal/rtrace"
)

// mkTrace drives one synthetic request trace through the tracer.
func mkTrace(tr *rtrace.Tracer, name string, status int, kind string) string {
	t := tr.Start(name)
	t.Phase("work").SetAttr("step", "one")
	t.Phase("serialize")
	t.SetStatus(status, kind)
	t.Finish()
	return t.ID()
}

func getBody(t *testing.T, url string, accept string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestTracezEndpoints walks the /tracez surface: ring snapshot, lookup
// by ID, Chrome export of one trace and of the whole ring, and the 404s
// for unknown IDs and servers without a tracer.
func TestTracezEndpoints(t *testing.T) {
	tracer := rtrace.New(rtrace.Options{})
	okID := mkTrace(tracer, "check", 200, "")
	errID := mkTrace(tracer, "check", 422, "deadline")

	srv := obs.NewServer()
	srv.SetTraces(tracer)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st, ct, body := getBody(t, ts.URL+"/tracez", "")
	if st != http.StatusOK || !strings.Contains(ct, "application/json") {
		t.Fatalf("/tracez: %d %s", st, ct)
	}
	var snap rtrace.RingSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/tracez payload: %v", err)
	}
	if snap.Stats.Finished != 2 || len(snap.Recent) != 2 || len(snap.Errors) != 1 {
		t.Errorf("snapshot finished=%d recent=%d errors=%d, want 2/2/1",
			snap.Stats.Finished, len(snap.Recent), len(snap.Errors))
	}

	st, _, body = getBody(t, ts.URL+"/tracez?id="+errID, "")
	if st != http.StatusOK || !strings.Contains(body, errID) || !strings.Contains(body, `"deadline"`) {
		t.Errorf("/tracez?id=%s: %d, body %q", errID, st, body)
	}

	if st, _, _ = getBody(t, ts.URL+"/tracez?id=nope", ""); st != http.StatusNotFound {
		t.Errorf("/tracez?id=nope: %d, want 404", st)
	}

	st, _, body = getBody(t, ts.URL+"/tracez?id="+okID+"&format=chrome", "")
	if st != http.StatusOK || !strings.Contains(body, `"traceEvents"`) || !strings.Contains(body, okID) {
		t.Errorf("chrome export of %s: %d, body %q", okID, st, body)
	}

	st, _, body = getBody(t, ts.URL+"/tracez?format=chrome", "")
	if st != http.StatusOK || !strings.Contains(body, okID) || !strings.Contains(body, errID) {
		t.Errorf("chrome export of ring: %d missing traces", st)
	}

	bare := obs.NewServer()
	tb := httptest.NewServer(bare.Handler())
	defer tb.Close()
	if st, _, _ = getBody(t, tb.URL+"/tracez", ""); st != http.StatusNotFound {
		t.Errorf("/tracez without tracer: %d, want 404", st)
	}
}

// TestMetricsContentNegotiation: the classic Prometheus exposition stays
// the default (and byte-free of OpenMetrics syntax), while an Accept
// header naming openmetrics-text switches to the OpenMetrics form with
// its # EOF terminator and latency exemplars.
func TestMetricsContentNegotiation(t *testing.T) {
	reg := checksRegistry()
	// A traced check so the latency histogram carries an exemplar.
	c := reg.NewCheck("Traced", "DRFrlx")
	c.SetTraceID("feedc0dedeadbeef")
	c.Begin(100)
	c.AddEnumerated(1)
	c.Finish(telemetry.StateDone)

	srv := obs.NewServer()
	srv.SetChecks(reg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st, ct, classic := getBody(t, ts.URL+"/metrics", "")
	if st != http.StatusOK || !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("classic /metrics: %d %s", st, ct)
	}
	if strings.Contains(classic, "# EOF") || strings.Contains(classic, "trace_id") {
		t.Error("classic exposition contains OpenMetrics syntax")
	}

	st, ct, om := getBody(t, ts.URL+"/metrics", "application/openmetrics-text; version=1.0.0, text/plain;q=0.5")
	if st != http.StatusOK || !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("OpenMetrics /metrics: %d %s", st, ct)
	}
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Errorf("OpenMetrics exposition missing # EOF terminator:\n...%s", om[max(0, len(om)-200):])
	}
	if !strings.Contains(om, `# {trace_id="feedc0dedeadbeef"}`) {
		t.Error("OpenMetrics exposition missing the latency exemplar")
	}
	// OpenMetrics counter families are TYPEd without the _total suffix.
	if !strings.Contains(om, "# TYPE rats_check_executions counter") {
		t.Error("OpenMetrics exposition missing suffix-less counter TYPE")
	}
	if !strings.Contains(om, "rats_check_executions_total ") {
		t.Error("OpenMetrics exposition missing _total sample")
	}

	// A generic browser Accept header stays on the classic format.
	_, ct, _ = getBody(t, ts.URL+"/metrics", "text/html,application/xhtml+xml,*/*;q=0.8")
	if !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("browser Accept negotiated %s, want classic text/plain", ct)
	}
}

// TestTracezConcurrentWithLoad hammers /tracez (JSON and Chrome) and
// /metrics while traces churn — run under -race this proves snapshot
// reads never race trace finishing.
func TestTracezConcurrentWithLoad(t *testing.T) {
	tracer := rtrace.New(rtrace.Options{RingSize: 8})
	srv := obs.NewServer()
	srv.SetTraces(tracer)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const writers, traces = 4, 50
	var wgW, wgR sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wgW.Add(1)
		go func(w int) {
			defer wgW.Done()
			for i := 0; i < traces; i++ {
				status := 200
				if i%7 == 0 {
					status = 422
				}
				tr := tracer.Start("check")
				tr.Phase("work").SetInt("writer", int64(w))
				sp := tr.Phase("flight").Child("enum.worker")
				sp.Event("enumerated", rtrace.Int("executions", int64(i)))
				sp.End()
				tr.SetStatus(status, "")
				tr.Finish()
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wgR.Add(1)
		go func(r int) {
			defer wgR.Done()
			paths := []string{"/tracez", "/tracez?format=chrome", "/tracez?id=nope"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + paths[(r+i)%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(r)
	}

	// Writers finish first; then stop the readers.
	wgW.Wait()
	close(stop)
	wgR.Wait()

	if got := tracer.Stats().Finished; got != writers*traces {
		t.Fatalf("finished=%d, want %d", got, writers*traces)
	}
}
