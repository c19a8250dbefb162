package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel"
)

// contendedSrc builds the service's worst-case input in textual form:
// every operation is a same-location RMW, so partial-order reduction
// prunes nothing and the interleaving count is the full multinomial —
// intractable within any sane deadline.
func contendedSrc(threads, opsPer int) string {
	var b strings.Builder
	b.WriteString("litmus \"contended\"\n")
	for t := 0; t < threads; t++ {
		fmt.Fprintf(&b, "\nthread h%d\n", t)
		for i := 0; i < opsPer; i++ {
			b.WriteString("  inc X unpaired\n")
		}
	}
	return b.String()
}

// catalogSrc renders a litmus catalog case to its textual form.
func catalogSrc(t *testing.T, name string) string {
	t.Helper()
	c := litmus.ByName(name)
	if c == nil {
		t.Fatalf("catalog case %s missing", name)
	}
	return litmus.Format(c.Prog)
}

func postCheck(t *testing.T, url string, req CheckRequest) (int, CheckResponse, ErrorResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("transport error (connection reset?): %v", err)
	}
	defer resp.Body.Close()
	var ok CheckResponse
	var bad ErrorResponse
	dec := json.NewDecoder(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := dec.Decode(&ok); err != nil {
			t.Fatalf("decode 200 body: %v", err)
		}
	} else {
		if err := dec.Decode(&bad); err != nil {
			t.Fatalf("decode %d body: %v", resp.StatusCode, err)
		}
	}
	return resp.StatusCode, ok, bad
}

func newTestServer(t *testing.T, opts Options) (*Service, *httptest.Server) {
	t.Helper()
	s := New(opts)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

func TestCheckVerdicts(t *testing.T) {
	_, srv := newTestServer(t, Options{})
	cases := []struct {
		name, model string
		legal       bool
	}{
		{"MP_paired", "DRFrlx", true},
		{"MPData", "DRFrlx", false},
		{"MP_unpaired", "DRF0", true},
		{"MP_unpaired", "DRF1", false},
	}
	for _, c := range cases {
		status, ok, bad := postCheck(t, srv.URL, CheckRequest{Program: catalogSrc(t, c.name), Model: c.model})
		if status != http.StatusOK {
			t.Fatalf("%s/%s: status %d (%s: %s)", c.name, c.model, status, bad.Kind, bad.Error)
		}
		if ok.Legal != c.legal {
			t.Errorf("%s/%s: legal=%v, want %v", c.name, c.model, ok.Legal, c.legal)
		}
		if ok.Canonical == "" {
			t.Errorf("%s/%s: missing canonical key", c.name, c.model)
		}
		if len(ok.SCResults) == 0 {
			t.Errorf("%s/%s: missing sc_results", c.name, c.model)
		}
	}
}

func TestWitnessOnIllegalProgram(t *testing.T) {
	_, srv := newTestServer(t, Options{})
	status, ok, bad := postCheck(t, srv.URL, CheckRequest{
		Program: catalogSrc(t, "MPData"), Model: "DRFrlx", Witness: true,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, bad.Error)
	}
	if ok.Legal {
		t.Fatal("MPData must be illegal under DRFrlx")
	}
	if !strings.Contains(ok.Witness, "witness SC execution") {
		t.Errorf("witness missing or malformed:\n%s", ok.Witness)
	}
}

// TestCacheServesRenamedResubmission checks the canonicalization story
// end to end over HTTP: a thread-permuted, location-renamed duplicate is
// a cache hit, and its verdict reads back in its own namespace.
func TestCacheServesRenamedResubmission(t *testing.T) {
	s, srv := newTestServer(t, Options{})
	orig := "litmus \"mine\"\ninit D=0 F=0\n\nthread producer\n  store D 1 data\n  store F 1 unpaired\n\nthread consumer\n  r0 = load F unpaired\n  r1 = load D data\n  use r1\n"
	// Same program: threads listed in the other order, locations renamed.
	renamed := "litmus \"theirs\"\ninit Q=0 P=0\n\nthread alpha\n  r0 = load Q unpaired\n  r1 = load P data\n  use r1\n\nthread beta\n  store P 1 data\n  store Q 1 unpaired\n"

	status, first, bad := postCheck(t, srv.URL, CheckRequest{Program: orig, Model: "DRF1"})
	if status != http.StatusOK {
		t.Fatalf("first submission: %d (%s)", status, bad.Error)
	}
	if first.Cached {
		t.Error("first submission cannot be a cache hit")
	}
	status, second, bad := postCheck(t, srv.URL, CheckRequest{Program: renamed, Model: "DRF1"})
	if status != http.StatusOK {
		t.Fatalf("renamed resubmission: %d (%s)", status, bad.Error)
	}
	if !second.Cached {
		t.Error("renamed resubmission must hit the canonical cache")
	}
	if second.Canonical != first.Canonical {
		t.Errorf("canonical keys differ: %s vs %s", first.Canonical, second.Canonical)
	}
	if second.Legal != first.Legal {
		t.Errorf("legal differs between equivalent submissions: %v vs %v", first.Legal, second.Legal)
	}
	// The cached verdict must be rewritten into the second program's
	// namespace: its races mention the renamed locations' threads, and
	// its SC results use P/Q, not D/F.
	for _, k := range second.SCResults {
		if strings.Contains(k, "D=") || strings.Contains(k, "F=") {
			t.Errorf("cached SC result leaked the original namespace: %s", k)
		}
	}
	if st := s.Stats(); st.Checked != 1 || st.CacheHits != 1 {
		t.Errorf("stats: checked=%d cacheHits=%d, want 1 and 1", st.Checked, st.CacheHits)
	}
}

// TestSingleFlightCollapsesConcurrentDuplicates floods the service with
// identical submissions and checks exactly one enumeration ran. Run
// under -race in CI.
func TestSingleFlightCollapsesConcurrentDuplicates(t *testing.T) {
	s, srv := newTestServer(t, Options{Workers: 2, QueueDepth: 64})
	src := catalogSrc(t, "IRIW")
	const n = 16
	var wg sync.WaitGroup
	statuses := make([]int, n)
	responses := make([]CheckResponse, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], responses[i], _ = postCheck(t, srv.URL, CheckRequest{Program: src})
		}(i)
	}
	wg.Wait()
	legal0 := responses[0].Legal
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("request %d: status %d", i, st)
		}
		if responses[i].Legal != legal0 {
			t.Errorf("request %d: verdict diverged", i)
		}
	}
	// Duplicates either joined the in-flight leader or hit the cache the
	// leader filled; at most a few leaders can slip through before the
	// first fill, but with identical keys single-flight admits only one.
	if st := s.Stats(); st.Checked != 1 {
		t.Errorf("checked=%d, want exactly 1 (single-flight collapse)", st.Checked)
	}
}

// TestSequentialFlightsCheckOnce: a duplicate can miss the verdict
// cache while an identical check is still running, then reach the
// single flight after that check has filled the cache and left it. Its
// own flight must serve the cached verdict instead of checking again.
func TestSequentialFlightsCheckOnce(t *testing.T) {
	s := New(Options{})
	canon, err := memmodel.Canonicalize(litmus.ByName("IRIW").Prog)
	if err != nil {
		t.Fatal(err)
	}
	key := canon.Key + "|" + core.DRFrlx.String()
	flight := func(ctx context.Context) (*memmodel.Verdict, error) {
		return s.admitAndCheck(ctx, canon, core.DRFrlx, memmodel.ModeEnumerate, key, nil)
	}
	var first *memmodel.Verdict
	for i := 0; i < 2; i++ {
		v, coalesced, err := s.group.do(context.Background(), key, flight)
		if err != nil || coalesced {
			t.Fatalf("flight %d: coalesced=%v err=%v, want a flight of its own", i, coalesced, err)
		}
		if i == 0 {
			first = v
		} else if v != first {
			t.Errorf("second flight returned %p, want the cached verdict %p", v, first)
		}
	}
	if st := s.Stats(); st.Checked != 1 || st.CacheHits != 1 {
		t.Errorf("checked=%d cacheHits=%d, want 1 and 1", st.Checked, st.CacheHits)
	}
}

// TestDeadlineOnIntractableProgram is the ISSUE's acceptance test: an
// intractable program with a 100ms deadline gets a structured 422
// within 2x the deadline, and the checker's goroutines drain.
func TestDeadlineOnIntractableProgram(t *testing.T) {
	_, srv := newTestServer(t, Options{ExecLimit: 1 << 30, TransitionLimit: 1 << 40})
	// Idle HTTP keep-alive connections carry goroutines on both ends;
	// close them so the count below sees only the checker's goroutines.
	closeIdle := func() { http.DefaultTransport.(*http.Transport).CloseIdleConnections() }
	closeIdle()
	runtime.GC()
	before := runtime.NumGoroutine()

	const deadlineMs = 100
	start := time.Now()
	status, _, bad := postCheck(t, srv.URL, CheckRequest{
		Program: contendedSrc(7, 3), DeadlineMs: deadlineMs,
	})
	elapsed := time.Since(start)

	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (%+v)", status, bad)
	}
	if bad.Kind != "deadline" {
		t.Errorf("kind %q, want %q", bad.Kind, "deadline")
	}
	if bad.Phase == "" {
		t.Errorf("structured response missing phase: %+v", bad)
	}
	if elapsed > 2*deadlineMs*time.Millisecond {
		t.Errorf("response took %s, want within 2x the %dms deadline", elapsed, deadlineMs)
	}

	// No goroutine leak: the DFS workers and analysis pool must exit.
	deadline := time.Now().Add(5 * time.Second)
	for {
		closeIdle()
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: %d before, %d after cancellation", before, runtime.NumGoroutine())
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestTransitionBudgetTripsAs422 checks the work-budget degradation
// path: no deadline, but a transition budget that makes the intractable
// program fail fast and structured.
func TestTransitionBudgetTripsAs422(t *testing.T) {
	_, srv := newTestServer(t, Options{ExecLimit: 1 << 30, TransitionLimit: 20_000})
	status, _, bad := postCheck(t, srv.URL, CheckRequest{Program: contendedSrc(7, 3)})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", status)
	}
	if bad.Kind != "limit" || bad.Phase != "transitions" {
		t.Errorf("got kind=%q phase=%q, want limit/transitions", bad.Kind, bad.Phase)
	}
}

// TestBurstYieldsOnlyCleanStatuses is the overload acceptance test: a
// burst of 4x the queue capacity yields only 200/429/503 — every
// connection gets an HTTP response, none are reset — and a cached
// duplicate is still served mid-burst.
func TestBurstYieldsOnlyCleanStatuses(t *testing.T) {
	s, srv := newTestServer(t, Options{Workers: 1, QueueDepth: 2})

	// Prefill the cache.
	cachedSrc := catalogSrc(t, "MP_paired")
	if status, _, bad := postCheck(t, srv.URL, CheckRequest{Program: cachedSrc}); status != http.StatusOK {
		t.Fatalf("prefill: %d (%s)", status, bad.Error)
	}

	// Burst: 4x the total capacity (1 worker + 2 queued), every program
	// distinct so single-flight cannot collapse them.
	capacity := 1 + 2
	n := 4 * capacity
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := "litmus \"burst" + strconv.Itoa(i) + "\"\n\nthread a\n  store X " +
				strconv.Itoa(i+2) + " paired\n\nthread b\n  r0 = load X paired\n  use r0\n"
			statuses[i], _, _ = postCheck(t, srv.URL, CheckRequest{Program: src})
		}(i)
	}
	// Mid-burst, the cached duplicate must be served even if the queue
	// is at capacity.
	status, resp, bad := postCheck(t, srv.URL, CheckRequest{Program: cachedSrc})
	if status != http.StatusOK {
		t.Errorf("cached duplicate during burst: %d (%s)", status, bad.Error)
	} else if !resp.Cached {
		t.Error("duplicate during burst was recomputed, want cache hit")
	}
	wg.Wait()

	for i, st := range statuses {
		switch st {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Errorf("burst request %d: status %d, want 200/429/503", i, st)
		}
	}
	if st := s.Stats(); st.Queued != 0 || st.Running != 0 {
		t.Errorf("gauges must settle to zero after burst: queued=%d running=%d", st.Queued, st.Running)
	}
}

// TestDrainFinishesInFlight starts a slow check, begins draining, and
// checks the in-flight request completes while new work gets 503 and
// readiness flips.
func TestDrainFinishesInFlight(t *testing.T) {
	s, srv := newTestServer(t, Options{Workers: 2, ExecLimit: 1 << 30, TransitionLimit: 1 << 40})

	slow := make(chan struct{})
	var slowStatus int
	var slowBad ErrorResponse
	go func() {
		defer close(slow)
		// A generous deadline the drain must NOT cut short: the check
		// runs to its own 422, proving drain waits for in-flight work.
		slowStatus, _, slowBad = postCheck(t, srv.URL, CheckRequest{
			Program: contendedSrc(7, 3), DeadlineMs: 700,
		})
	}()

	// Wait until the slow check is running.
	for i := 0; ; i++ {
		if s.Stats().Running > 0 {
			break
		}
		if i > 200 {
			t.Fatal("slow check never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	s.BeginDrain()

	// Readiness flips immediately; liveness stays up.
	if resp, err := http.Get(srv.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("/readyz during drain: %d, want 503", resp.StatusCode)
		}
	}
	if resp, err := http.Get(srv.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("/healthz during drain: %d, want 200", resp.StatusCode)
		}
	}

	// New checks are refused...
	status, _, bad := postCheck(t, srv.URL, CheckRequest{Program: catalogSrc(t, "IRIW")})
	if status != http.StatusServiceUnavailable || bad.Kind != "draining" {
		t.Errorf("new check during drain: %d/%q, want 503/draining", status, bad.Kind)
	}

	// ...while the in-flight one runs to completion.
	<-slow
	if slowStatus != http.StatusUnprocessableEntity || slowBad.Kind != "deadline" {
		t.Errorf("in-flight check during drain: %d/%q, want its own 422/deadline", slowStatus, slowBad.Kind)
	}
}

// TestDrainUnblocksAfterInFlight checks Drain() itself returns once the
// last in-flight request finishes.
func TestDrainUnblocksAfterInFlight(t *testing.T) {
	s, srv := newTestServer(t, Options{ExecLimit: 1 << 30, TransitionLimit: 1 << 40})
	done := make(chan struct{})
	go func() {
		defer close(done)
		postCheck(t, srv.URL, CheckRequest{Program: contendedSrc(7, 3), DeadlineMs: 300})
	}()
	for i := 0; s.Stats().Running == 0; i++ {
		if i > 200 {
			t.Fatal("check never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	<-done
}

// TestInputValidation walks the rejection matrix: every malformed input
// is refused with the right status and kind before any enumeration.
func TestInputValidation(t *testing.T) {
	_, srv := newTestServer(t, Options{MaxThreads: 3, MaxOps: 8, MaxBodyBytes: 4 << 10})
	cases := []struct {
		name   string
		req    CheckRequest
		status int
		kind   string
	}{
		{"bad model", CheckRequest{Program: catalogSrc(t, "IRIW"), Model: "DRF9"}, 400, "validate"},
		{"syntax error", CheckRequest{Program: "litmus \"x\"\n\nthread a\n  blorp X 1 data\n"}, 400, "parse"},
		{"undefined register", CheckRequest{Program: "litmus \"x\"\n\nthread a\n  store X r9 data\n"}, 400, "parse"},
		{"duplicate thread names", CheckRequest{Program: "litmus \"x\"\n\nthread a\n  store X 1 data\n\nthread a\n  store X 2 data\n"}, 400, "validate"},
		{"empty program", CheckRequest{Program: "litmus \"x\"\n\nthread a\n"}, 400, "validate"},
		{"no threads", CheckRequest{Program: "litmus \"x\"\n"}, 400, "validate"},
		{"too many threads", CheckRequest{Program: contendedSrc(4, 1)}, 400, "validate"},
		{"too many ops", CheckRequest{Program: contendedSrc(3, 3)}, 400, "validate"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, _, bad := postCheck(t, srv.URL, c.req)
			if status != c.status || bad.Kind != c.kind {
				t.Errorf("got %d/%q (%s), want %d/%q", status, bad.Kind, bad.Error, c.status, c.kind)
			}
		})
	}

	// Oversized body.
	big := bytes.Repeat([]byte("x"), 8<<10)
	resp, err := http.Post(srv.URL+"/check", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d, want 413", resp.StatusCode)
	}

	// Bad JSON.
	resp, err = http.Post(srv.URL+"/check", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: %d, want 400", resp.StatusCode)
	}
}

// TestRateLimitPerClient drives one client over its token bucket with a
// fake clock and checks 429 + Retry-After, then refill.
func TestRateLimitPerClient(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	s := New(Options{RatePerSec: 1, RateBurst: 2, CacheSize: -1, now: clock})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Two distinct programs per wave so neither cache nor single-flight
	// absorbs the repeat.
	src := func(i int) string {
		return "litmus \"r" + strconv.Itoa(i) + "\"\n\nthread a\n  store X " + strconv.Itoa(i+1) + " data\n"
	}
	for i := 0; i < 2; i++ {
		if status, _, bad := postCheck(t, srv.URL, CheckRequest{Program: src(i)}); status != http.StatusOK {
			t.Fatalf("burst request %d: %d (%s)", i, status, bad.Error)
		}
	}
	status, _, bad := postCheck(t, srv.URL, CheckRequest{Program: src(2)})
	if status != http.StatusTooManyRequests || bad.Kind != "rate_limited" {
		t.Fatalf("over-budget request: %d/%q, want 429/rate_limited", status, bad.Kind)
	}
	if bad.RetryAfterMs <= 0 {
		t.Error("429 must carry a retry-after hint")
	}
	advance(2 * time.Second)
	if status, _, _ := postCheck(t, srv.URL, CheckRequest{Program: src(3)}); status != http.StatusOK {
		t.Errorf("after refill: %d, want 200", status)
	}
	if st := s.Stats(); st.RateLimited != 1 {
		t.Errorf("rateLimited=%d, want 1", st.RateLimited)
	}
}

// TestWitnessCachedAcrossRequests: the first witness request runs one
// admitted search; an identical resubmission is served from the witness
// cache with no further enumeration.
func TestWitnessCachedAcrossRequests(t *testing.T) {
	s, srv := newTestServer(t, Options{})
	req := CheckRequest{Program: catalogSrc(t, "MPData"), Model: "DRFrlx", Witness: true}
	status, first, bad := postCheck(t, srv.URL, req)
	if status != http.StatusOK || first.Witness == "" {
		t.Fatalf("first witness request: %d (%s), witness %q", status, bad.Error, first.Witness)
	}
	status, second, bad := postCheck(t, srv.URL, req)
	if status != http.StatusOK {
		t.Fatalf("second witness request: %d (%s)", status, bad.Error)
	}
	if !second.Cached || second.Witness != first.Witness {
		t.Errorf("resubmission: cached=%v, witness match=%v", second.Cached, second.Witness == first.Witness)
	}
	if st := s.Stats(); st.WitnessSearches != 1 {
		t.Errorf("witness searches = %d, want exactly 1 (second served from cache)", st.WitnessSearches)
	}
}

// TestWitnessOnCacheHitRespectsDrain: a witness request for a cached
// illegal program must not start an enumeration while draining — the
// verdict is still served, witness-less — and fresh checks still get
// 503. This pins the gate ordering: only zero-enumeration work bypasses
// the drain gate.
func TestWitnessOnCacheHitRespectsDrain(t *testing.T) {
	s, srv := newTestServer(t, Options{})
	src := catalogSrc(t, "MPData")
	// Cache the verdict without a witness.
	if status, _, bad := postCheck(t, srv.URL, CheckRequest{Program: src, Model: "DRFrlx"}); status != http.StatusOK {
		t.Fatalf("prefill: %d (%s)", status, bad.Error)
	}
	s.BeginDrain()
	status, resp, bad := postCheck(t, srv.URL, CheckRequest{Program: src, Model: "DRFrlx", Witness: true})
	if status != http.StatusOK {
		t.Fatalf("cached verdict during drain: %d (%s)", status, bad.Error)
	}
	if !resp.Cached || resp.Witness != "" {
		t.Errorf("during drain: cached=%v witness=%q, want cached verdict with the witness dropped", resp.Cached, resp.Witness)
	}
	if st := s.Stats(); st.WitnessSearches != 0 || st.WitnessDrops != 1 {
		t.Errorf("stats: searches=%d drops=%d, want 0 searches and 1 drop", st.WitnessSearches, st.WitnessDrops)
	}
}

// TestWitnessOnCacheHitRespectsRateLimit: witness searches on cached
// verdicts spend rate-limit tokens like any other enumeration, and an
// empty bucket degrades to a witness-less 200 instead of running the
// search (or returning 429).
func TestWitnessOnCacheHitRespectsRateLimit(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	s := New(Options{RatePerSec: 1, RateBurst: 1, now: clock})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	src := catalogSrc(t, "MPData")
	// Prefill spends the only token and caches the verdict.
	if status, _, bad := postCheck(t, srv.URL, CheckRequest{Program: src, Model: "DRFrlx"}); status != http.StatusOK {
		t.Fatalf("prefill: %d (%s)", status, bad.Error)
	}
	status, resp, bad := postCheck(t, srv.URL, CheckRequest{Program: src, Model: "DRFrlx", Witness: true})
	if status != http.StatusOK {
		t.Fatalf("cached verdict with empty bucket: %d (%s)", status, bad.Error)
	}
	if !resp.Cached || resp.Witness != "" {
		t.Errorf("empty bucket: cached=%v witness=%q, want cached verdict with the witness dropped", resp.Cached, resp.Witness)
	}
	if st := s.Stats(); st.WitnessSearches != 0 || st.RateLimited != 0 {
		t.Errorf("stats: searches=%d rateLimited=%d, want 0 and 0 (degraded, not rejected)", st.WitnessSearches, st.RateLimited)
	}
	// With a refilled bucket the same request runs the admitted search.
	mu.Lock()
	now = now.Add(2 * time.Second)
	mu.Unlock()
	status, resp, bad = postCheck(t, srv.URL, CheckRequest{Program: src, Model: "DRFrlx", Witness: true})
	if status != http.StatusOK || resp.Witness == "" {
		t.Fatalf("after refill: %d (%s), witness %q", status, bad.Error, resp.Witness)
	}
	if st := s.Stats(); st.WitnessSearches != 1 {
		t.Errorf("witness searches = %d, want 1", st.WitnessSearches)
	}
}

// TestAbortedUploadNotCountedTooLarge: a client that dies mid-body must
// not be classified (and counted) as oversized input.
func TestAbortedUploadNotCountedTooLarge(t *testing.T) {
	s, srv := newTestServer(t, Options{})
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "POST /check HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"prog")
	conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Requests == 0 {
		if time.Now().After(deadline) {
			t.Fatal("aborted request never reached the handler")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Give the handler a moment to classify the read error.
	time.Sleep(50 * time.Millisecond)
	if st := s.Stats(); st.RejectedInput != 0 {
		t.Errorf("aborted upload counted as rejected input (%d), want 0", st.RejectedInput)
	}
}

// TestSingleFlightFollowerSurvivesLeaderCancel: the shared check is
// detached from any single request — the leader's context ending cancels
// only the leader's wait, the follower still gets the verdict, and the
// call context is torn down once everyone is gone.
func TestSingleFlightFollowerSurvivesLeaderCancel(t *testing.T) {
	var g singleflight
	started := make(chan context.Context, 1)
	release := make(chan struct{})
	fn := func(ctx context.Context) (*memmodel.Verdict, error) {
		started <- ctx
		select {
		case <-release:
			return &memmodel.Verdict{Legal: true}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	type result struct {
		v         *memmodel.Verdict
		coalesced bool
		err       error
	}
	waiters := func() int {
		g.mu.Lock()
		defer g.mu.Unlock()
		if c := g.calls["k"]; c != nil {
			return c.waiters
		}
		return 0
	}

	leaderCtx, leaderCancel := context.WithCancel(context.Background())
	defer leaderCancel()
	leaderDone := make(chan result, 1)
	go func() {
		v, c, err := g.do(leaderCtx, "k", fn)
		leaderDone <- result{v, c, err}
	}()
	callCtx := <-started

	followerDone := make(chan result, 1)
	go func() {
		v, c, err := g.do(context.Background(), "k", fn)
		followerDone <- result{v, c, err}
	}()
	for i := 0; waiters() != 2; i++ {
		if i > 1000 {
			t.Fatal("follower never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}

	leaderCancel()
	lr := <-leaderDone
	var wc *waitCanceled
	if !errors.As(lr.err, &wc) || !errors.Is(lr.err, context.Canceled) {
		t.Fatalf("leader error = %v, want *waitCanceled wrapping context.Canceled", lr.err)
	}
	// The shared check must keep running for the follower.
	select {
	case <-callCtx.Done():
		t.Fatal("leader cancellation killed the shared check the follower is waiting on")
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	fr := <-followerDone
	if fr.err != nil || fr.v == nil || !fr.v.Legal {
		t.Fatalf("follower result = (%+v, %v), want the completed verdict", fr.v, fr.err)
	}
	if !fr.coalesced {
		t.Error("follower must report it joined an existing flight")
	}
	select {
	case <-callCtx.Done():
	case <-time.After(time.Second):
		t.Error("call context not released after the flight completed")
	}
}

// TestSingleFlightFollowerOwnDeadline: a follower with a short deadline
// gets its own cancellation immediately instead of waiting out the
// leader's longer one.
func TestSingleFlightFollowerOwnDeadline(t *testing.T) {
	var g singleflight
	release := make(chan struct{})
	defer close(release)
	fn := func(ctx context.Context) (*memmodel.Verdict, error) {
		select {
		case <-release:
			return &memmodel.Verdict{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	go g.do(context.Background(), "k", fn) // leader with no deadline

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := g.do(ctx, "k", fn)
	var wc *waitCanceled
	if !errors.As(err, &wc) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower error = %v, want *waitCanceled wrapping DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("follower waited %s past its own 20ms deadline", elapsed)
	}
}

// TestSingleFlightLastWaiterCancelsCheck: when every joined request has
// given up, the now-unwanted check is canceled instead of enumerating on.
func TestSingleFlightLastWaiterCancelsCheck(t *testing.T) {
	var g singleflight
	fnErr := make(chan error, 1)
	fn := func(ctx context.Context) (*memmodel.Verdict, error) {
		<-ctx.Done()
		fnErr <- ctx.Err()
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := g.do(ctx, "k", fn); !errors.Is(err, context.Canceled) {
		t.Fatalf("sole waiter error = %v, want canceled", err)
	}
	select {
	case err := <-fnErr:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("check saw %v, want cancellation", err)
		}
	case <-time.After(time.Second):
		t.Error("abandoned check was never canceled")
	}
}

// TestMetricsExposition checks the Prometheus rendering covers the
// counters that changed.
func TestMetricsExposition(t *testing.T) {
	s, srv := newTestServer(t, Options{})
	postCheck(t, srv.URL, CheckRequest{Program: catalogSrc(t, "MP_paired")})
	postCheck(t, srv.URL, CheckRequest{Program: catalogSrc(t, "MP_paired")})
	var b bytes.Buffer
	s.WriteMetrics(&b)
	out := b.String()
	for _, want := range []string{
		"rats_serve_requests_total 2",
		"rats_serve_ok_total 2",
		"rats_serve_checked_total 1",
		"rats_serve_cache_hits_total 1",
		"rats_serve_in_flight 0",
		"rats_serve_queue_depth 0",
		"rats_serve_cache_entries 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestModeSolveVerdictsMatch: a request with mode "solve" routes through
// the constraint-solving backend and must report the same legality,
// races, SC results, and canonical key the default enumeration reports
// (Execs legitimately differs: the solver only enumerates during its
// confirmation phase).
func TestModeSolveVerdictsMatch(t *testing.T) {
	_, srv := newTestServer(t, Options{CacheSize: -1})
	for _, c := range []struct {
		name, model string
	}{
		{"MP_paired", "DRFrlx"},
		{"MPData", "DRFrlx"},
		{"EventCounterObserved", "DRFrlx"},
		{"MP_unpaired", "DRF1"},
	} {
		src := catalogSrc(t, c.name)
		st, enum, bad := postCheck(t, srv.URL, CheckRequest{Program: src, Model: c.model})
		if st != http.StatusOK {
			t.Fatalf("%s enumeration: status %d (%s)", c.name, st, bad.Error)
		}
		st, solved, bad := postCheck(t, srv.URL, CheckRequest{Program: src, Model: c.model, Mode: "solve"})
		if st != http.StatusOK {
			t.Fatalf("%s mode=solve: status %d (%s)", c.name, st, bad.Error)
		}
		if solved.Legal != enum.Legal {
			t.Errorf("%s: legal=%v under solve, %v under enumeration", c.name, solved.Legal, enum.Legal)
		}
		if fmt.Sprint(solved.Races) != fmt.Sprint(enum.Races) {
			t.Errorf("%s: races diverge:\nsolve: %v\nenum:  %v", c.name, solved.Races, enum.Races)
		}
		if fmt.Sprint(solved.SCResults) != fmt.Sprint(enum.SCResults) {
			t.Errorf("%s: sc_results diverge:\nsolve: %v\nenum:  %v", c.name, solved.SCResults, enum.SCResults)
		}
		if solved.Canonical != enum.Canonical {
			t.Errorf("%s: canonical keys diverge: %s vs %s", c.name, solved.Canonical, enum.Canonical)
		}
	}
}

// TestModeSolveContendedWithinDeadline is the served form of the
// tentpole claim: the contended 7-thread program that blows a deadline
// under enumeration (see TestTraceDeadlineReconciles) completes through
// mode=solve well inside the same order of deadline.
func TestModeSolveContendedWithinDeadline(t *testing.T) {
	_, srv := newTestServer(t, Options{})
	st, ok, bad := postCheck(t, srv.URL, CheckRequest{
		Program: contendedSrc(7, 3), Mode: "solve", DeadlineMs: 2000,
	})
	if st != http.StatusOK {
		t.Fatalf("mode=solve on contended(7,3): status %d (%s: %s)", st, bad.Kind, bad.Error)
	}
	if !ok.Legal {
		t.Error("contended unpaired increments are race-free")
	}
	if len(ok.SCResults) != 1 || ok.SCResults[0] != "X=21;" {
		t.Errorf("sc_results: got %v, want [X=21;]", ok.SCResults)
	}
}

// TestModeUnknownRejected: a mode the dispatcher does not know is a
// validation error, rejected before any parsing of the program.
func TestModeUnknownRejected(t *testing.T) {
	_, srv := newTestServer(t, Options{})
	st, _, bad := postCheck(t, srv.URL, CheckRequest{Program: catalogSrc(t, "IRIW"), Mode: "dpll"})
	if st != http.StatusBadRequest || bad.Kind != "validate" {
		t.Fatalf("unknown mode: %d/%q, want 400/validate", st, bad.Kind)
	}
	if !strings.Contains(bad.Error, "dpll") {
		t.Errorf("error %q does not name the rejected mode", bad.Error)
	}
}

// TestModeSolveCachedSeparately: the two backends report different Execs
// counts, so a solve request must not be served from an enumeration
// request's cache entry (and vice versa) — but repeated solve requests
// share one.
func TestModeSolveCachedSeparately(t *testing.T) {
	_, srv := newTestServer(t, Options{})
	src := catalogSrc(t, "MP_paired")
	if st, _, bad := postCheck(t, srv.URL, CheckRequest{Program: src}); st != http.StatusOK {
		t.Fatalf("enumeration warm-up: status %d (%s)", st, bad.Error)
	}
	st, first, bad := postCheck(t, srv.URL, CheckRequest{Program: src, Mode: "solve"})
	if st != http.StatusOK {
		t.Fatalf("first solve: status %d (%s)", st, bad.Error)
	}
	if first.Cached {
		t.Error("solve request was served from the enumeration cache entry")
	}
	st, second, bad := postCheck(t, srv.URL, CheckRequest{Program: src, Mode: "solve"})
	if st != http.StatusOK {
		t.Fatalf("second solve: status %d (%s)", st, bad.Error)
	}
	if !second.Cached {
		t.Error("repeated solve request missed the cache")
	}
}
