// Package serve implements the hardened race-checking HTTP service
// behind cmd/ratsserve: litmus programs arrive as JSON, are validated,
// canonicalized, and checked on the streaming memmodel pipeline, and the
// service is engineered to stay predictable under overload and hostile
// input — bounded queues shed with 429/503 + Retry-After, per-request
// deadlines cancel the search mid-enumeration, duplicate submissions
// collapse onto one in-flight check and an LRU verdict cache, and
// SIGTERM drains in-flight work before the process exits.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel"
	"rats/internal/memmodel/telemetry"
	"rats/internal/rtrace"
)

// TraceHeader is the response header carrying the request's trace ID.
const TraceHeader = "X-Rats-Trace-Id"

// Options configures a Service. The zero value serves with sane
// defaults; every field has an explicit override for tests and tuning.
type Options struct {
	// Workers caps concurrently running checks; <= 0 means GOMAXPROCS.
	Workers int
	// QueueDepth caps requests waiting for a worker slot beyond the
	// running ones; <= 0 means 4x Workers. Requests beyond the queue are
	// shed with 503 + Retry-After.
	QueueDepth int
	// MaxBodyBytes bounds the request body; <= 0 means 256 KiB.
	MaxBodyBytes int64
	// MaxThreads and MaxOps bound the submitted program before any
	// enumeration starts; <= 0 means 8 threads / 64 total ops.
	MaxThreads int
	MaxOps     int
	// DefaultDeadline applies when the request carries no deadline_ms;
	// <= 0 means 10s. MaxDeadline caps client-requested deadlines
	// (<= 0 means 60s).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// ExecLimit and TransitionLimit are per-check search budgets passed
	// to the checker; 0 means the checker's default execution limit and
	// a 50M-transition budget. Tripping either returns HTTP 422.
	ExecLimit       int
	TransitionLimit int64
	// CacheSize is the LRU verdict cache capacity in entries; <= 0 means
	// 1024, negative... use -1 to disable.
	CacheSize int
	// RatePerSec and RateBurst configure the per-client token bucket;
	// RatePerSec <= 0 disables rate limiting.
	RatePerSec float64
	RateBurst  int
	// Registry, when non-nil, registers every executed check so the obs
	// layer's /checks and rats_check_* metrics cover the service.
	Registry *telemetry.Registry
	// Tracer issues request traces. nil means New builds a default
	// in-process tracer (ring buffer only, no JSONL export): tracing is
	// always on, every response carries a trace ID.
	Tracer *rtrace.Tracer
	// AccessLog, when non-nil, receives one wide-event JSON line per
	// finished request (rtrace.WideEvent). Writes are serialized.
	AccessLog io.Writer
	// now overrides the clock in tests.
	now func() time.Time
}

func (o *Options) withDefaults() Options {
	v := *o
	if v.Workers <= 0 {
		v.Workers = runtime.GOMAXPROCS(0)
	}
	if v.QueueDepth <= 0 {
		v.QueueDepth = 4 * v.Workers
	}
	if v.MaxBodyBytes <= 0 {
		v.MaxBodyBytes = 256 << 10
	}
	if v.MaxThreads <= 0 {
		v.MaxThreads = 8
	}
	if v.MaxOps <= 0 {
		v.MaxOps = 64
	}
	if v.DefaultDeadline <= 0 {
		v.DefaultDeadline = 10 * time.Second
	}
	if v.MaxDeadline <= 0 {
		v.MaxDeadline = time.Minute
	}
	if v.TransitionLimit == 0 {
		v.TransitionLimit = 50_000_000
	}
	if v.CacheSize == 0 {
		v.CacheSize = 1024
	}
	if v.now == nil {
		v.now = time.Now
	}
	return v
}

// Service is the race-checking service. Create with New, mount Handler
// on an HTTP server, and call Drain on shutdown.
type Service struct {
	opts  Options
	sem   chan struct{}
	cache *lru[*memmodel.Verdict]
	// witnesses caches rendered witnesses by submission hash: the witness
	// is computed on the submitted program itself (names read back in the
	// submitter's namespace), so the raw text — not the canonical form —
	// is the right key.
	witnesses *lru[string]
	group     singleflight
	rates     *rateTable
	m         metrics
	tracer    *rtrace.Tracer
	logMu     sync.Mutex

	draining atomic.Bool
	inflight sync.WaitGroup
}

// Tracer returns the service's request tracer (for /tracez wiring).
func (s *Service) Tracer() *rtrace.Tracer { return s.tracer }

// New builds a Service from opts.
func New(opts Options) *Service {
	o := opts.withDefaults()
	s := &Service{
		opts:   o,
		sem:    make(chan struct{}, o.Workers),
		tracer: o.Tracer,
	}
	if s.tracer == nil {
		s.tracer = rtrace.New(rtrace.Options{})
	}
	if o.CacheSize > 0 {
		s.cache = newLRU[*memmodel.Verdict](o.CacheSize)
		s.witnesses = newLRU[string](o.CacheSize)
	}
	if o.RatePerSec > 0 {
		burst := o.RateBurst
		if burst <= 0 {
			burst = int(o.RatePerSec) + 1
		}
		s.rates = newRateTable(o.RatePerSec, burst, o.now)
	}
	return s
}

// CheckRequest is the POST /check payload.
type CheckRequest struct {
	// Program is the litmus program in the textual format of
	// internal/litmus (see README).
	Program string `json:"program"`
	// Model is DRF0, DRF1, or DRFrlx; empty means DRFrlx.
	Model string `json:"model,omitempty"`
	// DeadlineMs bounds the check's wall time; 0 means the server
	// default, values above the server cap are clamped.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// Witness asks for a human-readable witness execution when the
	// program is illegal.
	Witness bool `json:"witness,omitempty"`
	// Mode selects the checking backend: empty for the default streaming
	// enumeration, "solve" for the constraint-solving backend (exact,
	// verdict-only; typically far faster on contended programs).
	Mode string `json:"mode,omitempty"`
}

// CheckResponse is the POST /check success payload. Verdict fields are
// expressed in the submitted program's own thread/location namespace
// even when the verdict was served from the canonical-program cache.
type CheckResponse struct {
	Name      string              `json:"name"`
	Model     string              `json:"model"`
	Legal     bool                `json:"legal"`
	Races     map[string][]string `json:"races,omitempty"`
	Execs     int                 `json:"execs"`
	SCResults []string            `json:"sc_results"`
	// Cached reports the verdict came from the LRU cache; Coalesced that
	// it was joined onto a concurrent identical check.
	Cached    bool   `json:"cached,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
	Canonical string `json:"canonical_key"`
	ElapsedMs int64  `json:"elapsed_ms"`
	Witness   string `json:"witness,omitempty"`
	// TraceID identifies the request's trace (also in X-Rats-Trace-Id),
	// resolvable via /tracez?id= and the -traces-out JSONL.
	TraceID string `json:"trace_id,omitempty"`
}

// ErrorResponse is the payload of every non-200 response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Kind classifies the failure: bad_json, bad_body, parse, validate,
	// too_large, rate_limited, overloaded, draining, deadline, limit,
	// canceled, internal.
	Kind string `json:"kind"`
	// Phase, Executions, ElapsedMs detail budget trips (kind limit /
	// deadline).
	Phase      string `json:"phase,omitempty"`
	Executions int64  `json:"executions,omitempty"`
	ElapsedMs  int64  `json:"elapsed_ms,omitempty"`
	// RetryAfterMs mirrors the Retry-After header on 429/503.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
	// TraceID identifies the request's trace (also in X-Rats-Trace-Id),
	// resolvable via /tracez?id= and the -traces-out JSONL.
	TraceID string `json:"trace_id,omitempty"`
}

// retryAfter is the backoff hint attached to shed responses.
const retryAfter = 1 * time.Second

// Handler returns the service mux: POST /check, GET /healthz, GET
// /readyz.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/check", s.handleCheck)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "draining\n")
			return
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ready\n")
	})
	return mux
}

// BeginDrain flips the service unready: /readyz and new /check requests
// return 503 while already-admitted checks run to completion.
func (s *Service) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.m.drains.Add(1)
	}
}

// Drain begins draining (if not already begun) and blocks until every
// in-flight check has completed or ctx expires.
func (s *Service) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Service) reject(w http.ResponseWriter, tr *rtrace.Trace, status int, kind, msg string) {
	tr.Phase("serialize")
	resp := ErrorResponse{Error: msg, Kind: kind, TraceID: tr.ID()}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
		resp.RetryAfterMs = retryAfter.Milliseconds()
	}
	writeJSON(w, status, resp)
	s.finishTrace(tr, status, kind)
}

// finishTrace closes the request trace and emits its wide-event access
// log line. Every response path — success and every rejection — funnels
// through here exactly once.
func (s *Service) finishTrace(tr *rtrace.Trace, status int, kind string) {
	if tr == nil {
		return
	}
	tr.SetStatus(status, kind)
	td := tr.Finish()
	if s.opts.AccessLog == nil || td == nil {
		return
	}
	if line, err := rtrace.WideEvent(td); err == nil {
		s.logMu.Lock()
		s.opts.AccessLog.Write(line)
		s.logMu.Unlock()
	}
}

// handleCheck runs the full request pipeline. Stage order is load-bearing:
// parse and canonicalize before anything stateful so cache hits can be
// served even when the service is shedding or draining, then rate-limit,
// then admission-control the expensive enumeration.
func (s *Service) handleCheck(w http.ResponseWriter, r *http.Request) {
	// Track the whole request, not just the enumeration: Drain returns
	// only once every admitted request has written its response.
	s.inflight.Add(1)
	defer s.inflight.Done()

	tr := s.tracer.Start("check")
	tid := tr.ID()
	if tid != "" {
		w.Header().Set(TraceHeader, tid)
		tr.SetAttr("client", clientKey(r))
	}
	s.hit(&s.m.requests, tid)
	if r.Method != http.MethodPost {
		s.reject(w, tr, http.StatusMethodNotAllowed, "method", "POST a JSON check request")
		return
	}
	start := s.opts.now()

	// 1. Bound and decode the body. Only the size limit tripping is the
	// client's input being too large; any other read error is a transport
	// failure (typically an upload aborted mid-body) and gets a 400 that
	// the client likely never sees — it must not count as rejected input.
	tr.Phase("decode")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.hit(&s.m.rejectedInput, tid)
			s.reject(w, tr, http.StatusRequestEntityTooLarge, "too_large",
				"request body exceeds "+strconv.FormatInt(s.opts.MaxBodyBytes, 10)+" bytes")
			return
		}
		s.reject(w, tr, http.StatusBadRequest, "bad_body", "reading request body: "+err.Error())
		return
	}
	var req CheckRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.hit(&s.m.rejectedInput, tid)
		s.reject(w, tr, http.StatusBadRequest, "bad_json", "invalid JSON: "+err.Error())
		return
	}

	// 2. Parse, validate, and size-check the program — all before any
	// enumeration state exists.
	tr.Phase("validate")
	model := core.DRFrlx
	if req.Model != "" {
		model, err = core.ParseModel(req.Model)
		if err != nil {
			s.hit(&s.m.rejectedInput, tid)
			s.reject(w, tr, http.StatusBadRequest, "validate", err.Error())
			return
		}
	}
	mode := memmodel.Mode(req.Mode)
	if mode != memmodel.ModeEnumerate && mode != memmodel.ModeSolve {
		s.hit(&s.m.rejectedInput, tid)
		s.reject(w, tr, http.StatusBadRequest, "validate",
			"unknown mode "+strconv.Quote(req.Mode)+`; use "" or "solve"`)
		return
	}
	prog, err := litmus.Parse(req.Program)
	if err != nil {
		s.hit(&s.m.rejectedInput, tid)
		var pe *litmus.ParseError
		if errors.As(err, &pe) {
			s.reject(w, tr, http.StatusBadRequest, "parse", err.Error())
		} else {
			s.reject(w, tr, http.StatusBadRequest, "validate", err.Error())
		}
		return
	}
	if n := len(prog.Threads); n > s.opts.MaxThreads {
		s.hit(&s.m.rejectedInput, tid)
		s.reject(w, tr, http.StatusBadRequest, "validate",
			"program has "+strconv.Itoa(n)+" threads, server cap is "+strconv.Itoa(s.opts.MaxThreads))
		return
	}
	if n := prog.NumOps(); n > s.opts.MaxOps {
		s.hit(&s.m.rejectedInput, tid)
		s.reject(w, tr, http.StatusBadRequest, "validate",
			"program has "+strconv.Itoa(n)+" operations, server cap is "+strconv.Itoa(s.opts.MaxOps))
		return
	}

	// 3. Canonicalize: equivalent submissions share one cache entry and
	// one in-flight check.
	canon, err := memmodel.Canonicalize(prog)
	if err != nil {
		s.hit(&s.m.rejectedInput, tid)
		s.reject(w, tr, http.StatusBadRequest, "validate", err.Error())
		return
	}
	// The backends produce identical verdicts, but they are cached and
	// coalesced separately: a solve verdict must never satisfy (or join)
	// an enumeration request's flight, whose Execs count differs.
	key := canon.Key + "|" + model.String()
	if mode == memmodel.ModeSolve {
		key += "|solve"
	}
	if tid != "" {
		tr.SetAttr("program", prog.Name)
		tr.SetAttr("model", model.String())
		tr.SetAttr("canonical", canon.Key)
		if mode != memmodel.ModeEnumerate {
			tr.SetAttr("mode", string(mode))
		}
	}

	// 4. Cache: verdict hits cost no enumeration and are served
	// unconditionally — during shed, drain, and rate limiting. A hit that
	// also needs a witness may still require enumeration work; unless the
	// witness is cached too, that work passes the same gates and
	// admission control as a fresh check below.
	var v *memmodel.Verdict
	var witness string
	var cached, coalesced bool
	cacheSpan := tr.Phase("cache")
	if s.cache != nil {
		if cv, ok := s.cache.get(key); ok {
			s.hit(&s.m.cacheHits, tid)
			v, cached = cv, true
		}
	}
	cacheSpan.SetAttr("hit", strconv.FormatBool(cached))
	if cached {
		needWitness := req.Witness && !v.Legal
		if needWitness && s.witnesses != nil {
			if wc, ok := s.witnesses.get(witnessKey(req.Program, model)); ok {
				witness, needWitness = wc, false
				cacheSpan.Event("witness_cache_hit")
			}
		}
		if !needWitness {
			s.respond(w, tr, prog, canon, model, v, witness, start, true, false)
			return
		}
	}

	// 5. Drain gate: no new enumeration — check or witness search —
	// starts while shutting down. A cached verdict still goes out; only
	// its witness search is dropped.
	gates := tr.Phase("gates")
	if s.draining.Load() {
		if cached {
			s.hit(&s.m.witnessDrops, tid)
			gates.Event("witness_dropped", rtrace.Str("reason", "draining"))
			s.respond(w, tr, prog, canon, model, v, "", start, true, false)
			return
		}
		s.reject(w, tr, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}

	// 6. Per-client rate limit. A witness search on a cached verdict is
	// enumeration work like any other, so it spends a token — but an
	// empty bucket degrades it to a witness-less 200 rather than a 429.
	if s.rates != nil {
		ok, left := s.rates.allow(clientKey(r))
		gates.Event("rate_limit",
			rtrace.Str("allowed", strconv.FormatBool(ok)),
			rtrace.Str("tokens_left", strconv.FormatFloat(left, 'f', 2, 64)))
		if !ok {
			if cached {
				s.hit(&s.m.witnessDrops, tid)
				s.respond(w, tr, prog, canon, model, v, "", start, true, false)
				return
			}
			s.hit(&s.m.rateLimited, tid)
			s.reject(w, tr, http.StatusTooManyRequests, "rate_limited", "per-client rate limit exceeded")
			return
		}
	}

	// 7. Deadline for everything downstream: queue wait, check, and
	// witness search share one budget.
	deadline := s.opts.DefaultDeadline
	if req.DeadlineMs > 0 {
		deadline = time.Duration(req.DeadlineMs) * time.Millisecond
		if deadline > s.opts.MaxDeadline {
			deadline = s.opts.MaxDeadline
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	// 8. Single-flight: concurrent identical submissions join one shared
	// check. The shared check runs detached from any single request, so
	// this request waiting out its own deadline (or its client hanging
	// up) ends only its wait, not the flight. The flight span belongs to
	// THIS request: a leader's span hosts the queue/check children (via
	// the closure below); a follower's span only measures its wait, and
	// its role attribute says so.
	if v == nil {
		// Solve-mode checks surface as their own top-level trace phase so
		// /tracez distinguishes solver time from enumeration flights.
		phase := "flight"
		if mode == memmodel.ModeSolve {
			phase = "solve"
		}
		flight := tr.Phase(phase)
		var err error
		v, coalesced, err = s.group.do(ctx, key, func(cctx context.Context) (*memmodel.Verdict, error) {
			return s.admitAndCheck(cctx, canon, model, mode, key, flight)
		})
		flight.SetAttr("role", flightRole(coalesced))
		if err != nil {
			var wc *waitCanceled
			var ce *memmodel.CancelError
			switch {
			case errors.As(err, &wc):
				// This request stopped waiting; the shared check ran (or
				// runs) on for the other waiters.
				s.hit(&s.m.deadlines, tid)
				err = &memmodel.CancelError{Prog: prog.Name, Phase: "wait", Err: wc.Unwrap()}
			case errors.As(err, &ce) && ctx.Err() != nil:
				// The shared check was canceled because this request was
				// its last waiter: report the request's own cause —
				// deadline vs disconnect — alongside the search's
				// diagnostics (the check itself only ever saw
				// context.Canceled from the flight winding down).
				err = &memmodel.CancelError{Prog: ce.Prog, Phase: ce.Phase,
					Executions: ce.Executions, Elapsed: ce.Elapsed, Err: ctx.Err()}
			}
			s.writeCheckError(w, tr, err)
			return
		}
	}

	// 9. Witness search: enumeration on the submitted program, admitted
	// like a check and best-effort — failure degrades to a witness-less
	// verdict, never an error.
	if req.Witness && !v.Legal && witness == "" {
		wsp := tr.Phase("witness")
		witness = s.findWitness(ctx, req.Program, prog, model, wsp)
	}
	s.respond(w, tr, prog, canon, model, v, witness, start, cached, coalesced)
}

// flightRole names this request's side of the singleflight: the leader
// ran the check, a follower coalesced onto it and only waited.
func flightRole(coalesced bool) string {
	if coalesced {
		return "follower"
	}
	return "leader"
}

// admit acquires a worker slot, queueing up to QueueDepth waiters
// behind the busy workers. It fails with errOverloaded when the queue is
// full and with ctx.Err() when the caller's context ends first; on
// success the returned release func must be called to free the slot.
// Every enumeration the service runs — check or witness search — goes
// through here, so the worker/queue bounds hold globally.
func (s *Service) admit(ctx context.Context, traceID string) (func(), error) {
	select {
	case s.sem <- struct{}{}:
	default:
		// All workers busy: queue if there is room.
		if n := s.m.queued.Add(1); n > int64(s.opts.QueueDepth) {
			s.m.queued.Add(-1)
			s.hit(&s.m.shed, traceID)
			return nil, errOverloaded
		}
		select {
		case s.sem <- struct{}{}:
			s.m.queued.Add(-1)
		case <-ctx.Done():
			s.m.queued.Add(-1)
			return nil, ctx.Err()
		}
	}
	return func() { <-s.sem }, nil
}

// admitAndCheck acquires a worker slot (respecting the bounded queue)
// and runs the canonical program's check on the requested backend. sp is
// the singleflight leader's flight span (nil when its request already
// finished): queue dwell and the check itself become children under it,
// and the engine's telemetry block is linked to the leader's trace ID.
// key is the cache/singleflight key (mode-suffixed for solve requests).
// A flight whose key is already cached returns that verdict, counted as
// a cache hit, without taking a slot.
func (s *Service) admitAndCheck(ctx context.Context, canon *memmodel.Canonical, model core.Model, mode memmodel.Mode, key string, sp *rtrace.Span) (*memmodel.Verdict, error) {
	tid := sp.TraceID()
	// A duplicate can miss the cache while an identical flight runs and
	// reach the single flight after that one has filled the cache and
	// left.
	if s.cache != nil {
		if v, ok := s.cache.get(key); ok {
			s.hit(&s.m.cacheHits, tid)
			sp.Event("cache_hit")
			return v, nil
		}
	}
	qs := sp.Child("queue")
	release, err := s.admit(ctx, tid)
	qs.End()
	if err != nil {
		if errors.Is(err, errOverloaded) {
			return nil, err
		}
		s.hit(&s.m.deadlines, tid)
		return nil, &memmodel.CancelError{Prog: canon.Prog.Name, Phase: "queue", Err: err}
	}
	defer release()

	s.m.running.Add(1)
	defer s.m.running.Add(-1)

	cs := sp.Child("check")
	defer cs.End()
	var tel *telemetry.Check
	if s.opts.Registry != nil {
		tel = s.opts.Registry.NewCheck(canon.Prog.Name+":"+canon.Key[:12], model.String())
		tel.SetTraceID(tid)
	}
	v, err := memmodel.CheckProgramWith(canon.Prog, model, memmodel.CheckOptions{
		Limit:           s.opts.ExecLimit,
		TransitionLimit: s.opts.TransitionLimit,
		Ctx:             ctx,
		Telemetry:       tel,
		Span:            cs,
		Mode:            mode,
	})
	if tel != nil {
		snap := tel.Snapshot()
		cs.Event("enumerated",
			rtrace.Int("executions", snap.Executions),
			rtrace.Str("pruned_pct", strconv.FormatFloat(snap.PrunedPct, 'f', 1, 64)))
	}
	if err != nil {
		var ce *memmodel.CancelError
		if errors.As(err, &ce) {
			s.hit(&s.m.deadlines, tid)
		} else if errors.Is(err, memmodel.ErrLimit) {
			s.hit(&s.m.limits, tid)
		}
		return nil, err
	}
	s.hit(&s.m.checked, tid)
	if s.cache != nil {
		s.cache.put(key, v)
	}
	return v, nil
}

// errOverloaded marks a queue-full shed.
var errOverloaded = errors.New("serve: all workers busy and queue full")

// writeCheckError maps checker errors onto structured HTTP responses.
func (s *Service) writeCheckError(w http.ResponseWriter, tr *rtrace.Trace, err error) {
	var ce *memmodel.CancelError
	var le *memmodel.LimitError
	var status int
	var resp ErrorResponse
	switch {
	case errors.Is(err, errOverloaded):
		s.reject(w, tr, http.StatusServiceUnavailable, "overloaded", "all workers busy and queue full; retry later")
		return
	case errors.As(err, &ce):
		kind := "canceled"
		if errors.Is(ce.Err, context.DeadlineExceeded) {
			kind = "deadline"
		}
		status = http.StatusUnprocessableEntity
		resp = ErrorResponse{
			Error: err.Error(), Kind: kind, Phase: ce.Phase,
			Executions: ce.Executions, ElapsedMs: ce.Elapsed.Milliseconds(),
		}
	case errors.As(err, &le):
		status = http.StatusUnprocessableEntity
		resp = ErrorResponse{
			Error: err.Error(), Kind: "limit", Phase: le.Phase,
			Executions: le.Executions, ElapsedMs: le.Elapsed.Milliseconds(),
		}
	default:
		s.hit(&s.m.internal, tr.ID())
		status = http.StatusInternalServerError
		resp = ErrorResponse{Error: err.Error(), Kind: "internal"}
	}
	tr.Phase("serialize")
	resp.TraceID = tr.ID()
	writeJSON(w, status, resp)
	s.finishTrace(tr, status, resp.Kind)
}

// witnessKey keys the rendered-witness cache by submission text and
// model: witnesses are found on the submitted program itself so names
// read back in the submitter's namespace, which makes equivalent-but-
// renamed submissions distinct entries on purpose.
func witnessKey(src string, model core.Model) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:]) + "|" + model.String()
}

// findWitness runs the witness search on the submitted program under the
// same admission control as a check: a worker slot (queueing if
// necessary) bounds concurrent enumerations and ctx bounds wall time, so
// repeated witness requests can never run more searches than the service
// has capacity for. Successful searches are cached by submission text;
// any admission or search failure yields "" — the caller serves the
// verdict witness-less rather than erroring.
func (s *Service) findWitness(ctx context.Context, src string, prog *litmus.Program, model core.Model, sp *rtrace.Span) string {
	tid := sp.TraceID()
	if s.witnesses != nil {
		if w, ok := s.witnesses.get(witnessKey(src, model)); ok {
			sp.Event("witness_cache_hit")
			return w
		}
	}
	qs := sp.Child("queue")
	release, err := s.admit(ctx, tid)
	qs.End()
	if err != nil {
		s.hit(&s.m.witnessDrops, tid)
		sp.Event("witness_dropped", rtrace.Str("reason", "admission"))
		return ""
	}
	defer release()

	s.m.running.Add(1)
	defer s.m.running.Add(-1)
	s.hit(&s.m.witnessSearches, tid)
	// The witness search is not a registered check, but when the request
	// is traced an ephemeral telemetry block carries the enumerate span
	// to the engine (spans ride telemetry.Check.SetSpan, not EnumOptions,
	// to keep the untraced enumerator layout untouched).
	es := sp.Child("enumerate")
	var wtel *telemetry.Check
	if es != nil {
		wtel = telemetry.NewCheck(prog.Name, model.String())
		wtel.SetSpan(es)
	}
	wit, err := memmodel.FindWitnessWith(prog, model, memmodel.EnumOptions{
		Ctx: ctx, TransitionLimit: s.opts.TransitionLimit, Telemetry: wtel,
	})
	es.End()
	if err != nil || wit == nil {
		s.hit(&s.m.witnessDrops, tid)
		sp.Event("witness_dropped", rtrace.Str("reason", "search"))
		return ""
	}
	rendered := wit.String()
	if s.witnesses != nil {
		s.witnesses.put(witnessKey(src, model), rendered)
	}
	return rendered
}

// respond rewrites the canonical verdict into the request's namespace
// and renders the success payload. It runs no enumeration: the witness,
// if any, was found (or cache-hit) by the caller under admission
// control.
func (s *Service) respond(w http.ResponseWriter, tr *rtrace.Trace,
	prog *litmus.Program, canon *memmodel.Canonical, model core.Model,
	v *memmodel.Verdict, witness string, start time.Time, cached, coalesced bool) {
	if tr != nil {
		outcome := "checked"
		if cached {
			outcome = "cache_hit"
		} else if coalesced {
			outcome = "coalesced"
		}
		tr.SetAttr("outcome", outcome)
		verdict := "illegal"
		if v.Legal {
			verdict = "legal"
		}
		tr.SetAttr("verdict", verdict)
	}
	tr.Phase("serialize")
	rv := canon.RewriteVerdict(v, prog.Name)
	resp := CheckResponse{
		Name:      prog.Name,
		Model:     model.String(),
		Legal:     rv.Legal,
		Execs:     rv.Execs,
		SCResults: sortedKeys(rv.SCResults),
		Cached:    cached,
		Coalesced: coalesced,
		Canonical: canon.Key,
		ElapsedMs: s.opts.now().Sub(start).Milliseconds(),
		Witness:   witness,
		TraceID:   tr.ID(),
	}
	if len(rv.Races) > 0 {
		resp.Races = make(map[string][]string, len(rv.Races))
		for k, descs := range rv.Races {
			resp.Races[k.String()] = descs
		}
	}
	s.hit(&s.m.ok, tr.ID())
	writeJSON(w, http.StatusOK, resp)
	s.finishTrace(tr, http.StatusOK, "")
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
