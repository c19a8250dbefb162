package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"rats/internal/memmodel/telemetry"
	"rats/internal/probe"
	"rats/internal/rtrace"
	"rats/internal/stats"
)

// StatsGauge is a probe sink that keeps the most recent interval sample
// of the aggregate counters for the /metrics endpoint. It ignores the
// discrete event stream (the latency sink handles per-transaction
// detail) and is safe to read while the simulation thread samples.
type StatsGauge struct {
	mu    sync.Mutex
	cycle int64
	snap  stats.Stats
}

// Emit ignores discrete events.
func (g *StatsGauge) Emit(probe.Event) {}

// Sample stores the snapshot (called by the hub on interval boundaries
// and at end of run).
func (g *StatsGauge) Sample(cycle int64, snap stats.Stats) {
	g.mu.Lock()
	g.cycle = cycle
	g.snap = snap
	g.mu.Unlock()
}

// Close is a no-op.
func (g *StatsGauge) Close() error { return nil }

// Snapshot returns the latest sample.
func (g *StatsGauge) Snapshot() (int64, stats.Stats) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cycle, g.snap
}

// Server is the live observability HTTP endpoint. It serves:
//
//	/metrics  — Prometheus text exposition: run-info labels, the
//	            aggregate simulation counters (rats_* gauges), the
//	            per-transaction latency histogram split by op class and
//	            hit level, and the rats_check_* semantics-checker
//	            aggregates when a telemetry registry is attached
//	/progress — sweep status JSON (per-run state, counts, elapsed time)
//	/checks   — semantics-check telemetry JSON (per-check live counters,
//	            sorted by program then model)
//	/buildinfo — binary identity JSON (Go version, VCS revision, run info)
//	/debug/pprof/ — the standard Go profiling handlers
//
// All data sources are optional; absent ones are simply omitted from the
// output, so the same server works for a single ratsim run (gauge +
// latency) and a ratsfigures sweep (progress + per-run merges).
type Server struct {
	mu       sync.Mutex
	info     map[string]string
	gauge    *StatsGauge
	latency  *probe.LatencySink
	progress *Progress
	checks   *telemetry.Registry
	traces   *rtrace.Tracer
	extraOM  []func(w io.Writer, om bool)
	handlers map[string]http.Handler

	ln  net.Listener
	srv *http.Server
}

// Connection hardening for the observability listener. The endpoints are
// read-only and cheap, so slow or hostile clients get short read windows;
// there is deliberately no WriteTimeout because /debug/pprof/profile
// streams for a caller-chosen number of seconds.
const (
	serverReadHeaderTimeout = 5 * time.Second
	serverReadTimeout       = 30 * time.Second
	serverIdleTimeout       = 2 * time.Minute
	serverMaxHeaderBytes    = 1 << 20
	// serverMaxBodyBytes bounds request bodies on every endpoint; the
	// built-in endpoints ignore bodies entirely, and mounted extensions
	// (Handle) accept litmus programs, which are tiny.
	serverMaxBodyBytes = 1 << 20
)

// NewServer builds a server with no data sources attached.
func NewServer() *Server { return &Server{info: map[string]string{}} }

// SetRunInfo sets one rats_run_info label (e.g. workload, config,
// scale).
func (s *Server) SetRunInfo(key, value string) {
	s.mu.Lock()
	s.info[key] = value
	s.mu.Unlock()
}

// SetGauge attaches the aggregate-counter source.
func (s *Server) SetGauge(g *StatsGauge) {
	s.mu.Lock()
	s.gauge = g
	s.mu.Unlock()
}

// SetLatency attaches the per-transaction latency source.
func (s *Server) SetLatency(l *probe.LatencySink) {
	s.mu.Lock()
	s.latency = l
	s.mu.Unlock()
}

// SetProgress attaches the sweep progress source.
func (s *Server) SetProgress(p *Progress) {
	s.mu.Lock()
	s.progress = p
	s.mu.Unlock()
}

// SetChecks attaches the semantics-check telemetry registry: its
// aggregates appear as rats_check_* metrics on /metrics and its per-check
// state as the /checks JSON payload.
func (s *Server) SetChecks(r *telemetry.Registry) {
	s.mu.Lock()
	s.checks = r
	s.mu.Unlock()
}

// AddMetricsOM registers an extra metrics source: f is invoked at the
// end of every /metrics render (and WriteMetrics call) to append its own
// exposition lines. It receives om true when the scrape negotiated the
// OpenMetrics content type (so it can attach exemplars) and false for the
// classic text format. Sources render in registration order.
func (s *Server) AddMetricsOM(f func(w io.Writer, om bool)) {
	s.mu.Lock()
	s.extraOM = append(s.extraOM, f)
	s.mu.Unlock()
}

// Handle mounts an additional handler on the server's mux under pattern.
// Registered handlers share the server's connection hardening and body
// bounds. Must be called before Handler/Start.
func (s *Server) Handle(pattern string, h http.Handler) {
	s.mu.Lock()
	if s.handlers == nil {
		s.handlers = map[string]http.Handler{}
	}
	s.handlers[pattern] = h
	s.mu.Unlock()
}

func (s *Server) sources() (map[string]string, *StatsGauge, *probe.LatencySink, *Progress, *telemetry.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := make(map[string]string, len(s.info))
	for k, v := range s.info {
		info[k] = v
	}
	return info, s.gauge, s.latency, s.progress, s.checks
}

// WriteMetrics renders the classic Prometheus text exposition. The
// output is deterministic for a fixed state: run-info labels and latency
// keys are sorted, counters follow stats.Rows order, and histogram
// buckets are emitted in increasing bound order (non-empty buckets plus
// +Inf).
func (s *Server) WriteMetrics(w io.Writer) {
	s.writeMetrics(w, false)
}

// writeMetrics renders either the classic text format (om false,
// byte-identical to what WriteMetrics always produced) or OpenMetrics
// (om true): counter TYPE lines drop the _total suffix, latency-
// histogram buckets carry `# {trace_id=...}` exemplars when the
// telemetry registry has them, and the output ends with `# EOF`.
func (s *Server) writeMetrics(w io.Writer, om bool) {
	info, gauge, latency, _, checks := s.sources()

	if len(info) > 0 {
		keys := make([]string, 0, len(info))
		for k := range info {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "# HELP rats_run_info Run identity labels.\n# TYPE rats_run_info gauge\nrats_run_info{")
		for i, k := range keys {
			if i > 0 {
				io.WriteString(w, ",")
			}
			fmt.Fprintf(w, "%s=%q", k, info[k])
		}
		io.WriteString(w, "} 1\n")
	}

	if gauge != nil {
		cycle, snap := gauge.Snapshot()
		snap.Cycles = cycle
		for _, r := range snap.Rows() {
			fmt.Fprintf(w, "# TYPE rats_%s gauge\nrats_%s %d\n", r.Name, r.Name, r.Value)
		}
	}

	if latency != nil {
		snap := latency.Snapshot()
		if len(snap) > 0 {
			fmt.Fprintf(w, "# HELP rats_txn_latency_cycles Per-transaction memory latency in cycles.\n# TYPE rats_txn_latency_cycles histogram\n")
			for _, k := range probe.SortKeys(snap) {
				e := snap[k]
				labels := fmt.Sprintf("op=%q,level=%q", k.Op.String(), k.Level.String())
				cum := int64(0)
				e.Hist.Each(func(upper, count int64) {
					cum += count
					fmt.Fprintf(w, "rats_txn_latency_cycles_bucket{%s,le=\"%d\"} %d\n", labels, upper, cum)
				})
				fmt.Fprintf(w, "rats_txn_latency_cycles_bucket{%s,le=\"+Inf\"} %d\n", labels, e.Hist.Count())
				fmt.Fprintf(w, "rats_txn_latency_cycles_sum{%s} %d\n", labels, e.Hist.Sum())
				fmt.Fprintf(w, "rats_txn_latency_cycles_count{%s} %d\n", labels, e.Hist.Count())
			}
		}
	}

	if checks != nil {
		tot := checks.Totals()
		fmt.Fprintf(w, "# HELP rats_check_total Semantics checks registered, by state.\n# TYPE rats_check_total gauge\n")
		for st := 0; st < telemetry.NumCheckStates; st++ {
			fmt.Fprintf(w, "rats_check_total{state=%q} %d\n", telemetry.CheckState(st).String(), tot.States[st])
		}
		counters := []struct {
			name, help string
			value      int64
		}{
			{"executions", "Executions enumerated across all checks.", tot.Executions},
			{"transitions", "Search transitions taken across all checks.", tot.Transitions},
			{"sleep_skips", "Transitions pruned by sleep sets.", tot.SleepSkips},
			{"memo_hits", "Seen-state memoization hits (system-model searches).", tot.MemoHits},
			{"analyzed", "Executions classified by analysis workers.", tot.Analyzed},
			{"recycled", "Executions reused through the streaming recycle pool.", tot.Recycled},
			{"allocated", "Executions freshly allocated by the enumerator.", tot.Allocated},
			{"race_pairs", "Distinct racy pairs across final verdicts.", tot.RacePairs},
			{"sc_results", "Distinct SC results across final verdicts.", tot.SCResults},
			{"solver_decisions", "Solve-mode branching states (DPLL decisions).", tot.SolveDecisions},
			{"solver_propagations", "Solve-mode forced moves and statically implied pairs (unit propagations).", tot.SolvePropagations},
			{"solver_conflicts", "Solve-mode memo hits and statically refuted pairs (conflicts).", tot.SolveConflicts},
			{"solver_learned", "Solve-mode memoized states (learned entries).", tot.SolveLearned},
		}
		for _, c := range counters {
			if om {
				fmt.Fprintf(w, "# HELP rats_check_%s %s\n# TYPE rats_check_%s counter\nrats_check_%s_total %d\n",
					c.name, c.help, c.name, c.name, c.value)
			} else {
				fmt.Fprintf(w, "# HELP rats_check_%s_total %s\n# TYPE rats_check_%s_total counter\nrats_check_%s_total %d\n",
					c.name, c.help, c.name, c.name, c.value)
			}
		}
		if lat := checks.Latency(); lat.Count() > 0 {
			var exemplars map[int64]telemetry.Exemplar
			if om {
				exemplars = checks.LatencyExemplars()
			}
			fmt.Fprintf(w, "# HELP rats_check_latency_us Per-check wall time in microseconds.\n# TYPE rats_check_latency_us histogram\n")
			cum := int64(0)
			lat.Each(func(upper, count int64) {
				cum += count
				fmt.Fprintf(w, "rats_check_latency_us_bucket{le=\"%d\"} %d", upper, cum)
				if ex, ok := exemplars[upper]; ok {
					fmt.Fprintf(w, " # {trace_id=%q} %d %.3f", ex.TraceID, ex.ValueUs,
						float64(ex.At.UnixNano())/1e9)
				}
				fmt.Fprintln(w)
			})
			fmt.Fprintf(w, "rats_check_latency_us_bucket{le=\"+Inf\"} %d\n", lat.Count())
			fmt.Fprintf(w, "rats_check_latency_us_sum %d\n", lat.Sum())
			fmt.Fprintf(w, "rats_check_latency_us_count %d\n", lat.Count())
		}
	}

	s.mu.Lock()
	extraOM := make([]func(w io.Writer, om bool), len(s.extraOM))
	copy(extraOM, s.extraOM)
	s.mu.Unlock()
	for _, f := range extraOM {
		f(w, om)
	}
	if om {
		io.WriteString(w, "# EOF\n")
	}
}

// BuildInfo is the /buildinfo JSON payload: toolchain and VCS identity of
// the serving binary plus the run-info labels, so a dashboard scraping a
// long sweep can pin down exactly what produced the numbers.
type BuildInfo struct {
	GoVersion   string            `json:"go_version"`
	Module      string            `json:"module,omitempty"`
	Version     string            `json:"version,omitempty"`
	VCSRevision string            `json:"vcs_revision,omitempty"`
	VCSTime     string            `json:"vcs_time,omitempty"`
	VCSModified bool              `json:"vcs_modified,omitempty"`
	Run         map[string]string `json:"run,omitempty"`
}

// buildInfo collects the payload from the runtime's embedded build info.
func (s *Server) buildInfo() BuildInfo {
	info, _, _, _, _ := s.sources()
	bi := BuildInfo{GoVersion: runtime.Version()}
	if len(info) > 0 {
		bi.Run = info
	}
	if rbi, ok := debug.ReadBuildInfo(); ok {
		bi.Module = rbi.Main.Path
		bi.Version = rbi.Main.Version
		for _, st := range rbi.Settings {
			switch st.Key {
			case "vcs.revision":
				bi.VCSRevision = st.Value
			case "vcs.time":
				bi.VCSTime = st.Value
			case "vcs.modified":
				bi.VCSModified = st.Value == "true"
			}
		}
	}
	return bi
}

// Handler returns the HTTP mux serving /metrics, /progress, and
// /debug/pprof/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if acceptsOpenMetrics(r.Header.Get("Accept")) {
			w.Header().Set("Content-Type", openMetricsContentType)
			s.writeMetrics(w, true)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.writeMetrics(w, false)
	})
	mux.HandleFunc("/tracez", s.handleTracez)
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _, _, progress, _ := s.sources()
		rep := Report{}
		if progress != nil {
			rep = progress.Snapshot()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	})
	mux.HandleFunc("/checks", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _, _, _, checks := s.sources()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(checks.Snapshot())
	})
	mux.HandleFunc("/buildinfo", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.buildInfo())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mu.Lock()
	for pattern, h := range s.handlers {
		mux.Handle(pattern, h)
	}
	s.mu.Unlock()
	return boundBodies(mux)
}

// boundBodies caps every request body so no handler — built-in or
// mounted — can be made to buffer an unbounded upload.
func boundBodies(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, serverMaxBodyBytes)
		}
		next.ServeHTTP(w, r)
	})
}

// Start binds addr (e.g. ":6060"; ":0" picks a free port) and serves in
// a background goroutine. It returns the bound address. The listener is
// hardened against slow clients: header and request reads time out and
// idle keep-alive connections are reaped, so a slowloris peer cannot pin
// the endpoint for the lifetime of a sweep.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.srv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: serverReadHeaderTimeout,
		ReadTimeout:       serverReadTimeout,
		IdleTimeout:       serverIdleTimeout,
		MaxHeaderBytes:    serverMaxHeaderBytes,
	}
	go s.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Shutdown gracefully stops the listener: new connections are refused
// while in-flight requests run to completion (or ctx expires).
func (s *Server) Shutdown(ctx context.Context) error {
	if s.srv != nil {
		return s.srv.Shutdown(ctx)
	}
	return nil
}

// Close stops the listener immediately, dropping in-flight requests.
func (s *Server) Close() error {
	if s.srv != nil {
		return s.srv.Close()
	}
	return nil
}
