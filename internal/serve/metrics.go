package serve

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// exemplar links a counter to the most recent traced request that
// incremented it — the OpenMetrics exemplar payload.
type exemplar struct {
	traceID string
	at      time.Time
}

// counter is an atomic counter that remembers one recent exemplar.
// Add-only sites (no request trace in scope) use Add; request-path
// sites go through Service.hit, which also stamps the exemplar.
type counter struct {
	n  atomic.Int64
	ex atomic.Pointer[exemplar]
}

func (c *counter) Add(d int64) int64 { return c.n.Add(d) }
func (c *counter) Load() int64       { return c.n.Load() }

// metrics holds the robustness counters the service exports: how much
// work arrived, how much was served from where, and — the point of the
// exercise — exactly how the rest was turned away.
type metrics struct {
	requests        counter      // every /check request
	ok              counter      // 200 responses
	checked         counter      // checks actually enumerated
	cacheHits       counter      // verdicts served from the LRU
	rejectedInput   counter      // 400/413: malformed or oversized input
	rateLimited     counter      // 429: token bucket empty
	shed            counter      // 503: queue full
	deadlines       counter      // deadline/disconnect cancellations
	limits          counter      // execution/transition budget trips
	witnessSearches counter      // witness enumerations run under admission
	witnessDrops    counter      // witnesses omitted: gates, deadline, or failed search
	internal        counter      // unexpected checker errors
	drains          counter      // BeginDrain transitions
	queued          atomic.Int64 // gauge: requests waiting for a worker
	running         atomic.Int64 // gauge: checks executing now
}

// hit increments c and, when the increment belongs to a traced request,
// stamps the counter's exemplar with that trace.
func (s *Service) hit(c *counter, traceID string) {
	c.n.Add(1)
	if traceID != "" {
		c.ex.Store(&exemplar{traceID: traceID, at: s.opts.now()})
	}
}

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	Requests        int64 `json:"requests"`
	OK              int64 `json:"ok"`
	Checked         int64 `json:"checked"`
	CacheHits       int64 `json:"cache_hits"`
	RejectedInput   int64 `json:"rejected_input"`
	RateLimited     int64 `json:"rate_limited"`
	Shed            int64 `json:"shed"`
	Deadlines       int64 `json:"deadlines"`
	Limits          int64 `json:"limits"`
	WitnessSearches int64 `json:"witness_searches"`
	WitnessDrops    int64 `json:"witness_drops"`
	Internal        int64 `json:"internal"`
	Drains          int64 `json:"drains"`
	Queued          int64 `json:"queued"`
	Running         int64 `json:"running"`
	CacheSize       int64 `json:"cache_size"`
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	st := Stats{
		Requests:        s.m.requests.Load(),
		OK:              s.m.ok.Load(),
		Checked:         s.m.checked.Load(),
		CacheHits:       s.m.cacheHits.Load(),
		RejectedInput:   s.m.rejectedInput.Load(),
		RateLimited:     s.m.rateLimited.Load(),
		Shed:            s.m.shed.Load(),
		Deadlines:       s.m.deadlines.Load(),
		Limits:          s.m.limits.Load(),
		WitnessSearches: s.m.witnessSearches.Load(),
		WitnessDrops:    s.m.witnessDrops.Load(),
		Internal:        s.m.internal.Load(),
		Drains:          s.m.drains.Load(),
		Queued:          s.m.queued.Load(),
		Running:         s.m.running.Load(),
	}
	if s.cache != nil {
		st.CacheSize = int64(s.cache.len())
	}
	return st
}

// WriteMetrics renders the service counters in classic Prometheus text
// exposition; WriteMetricsTo is the form the obs server mounts via
// AddMetricsOM.
func (s *Service) WriteMetrics(w io.Writer) {
	s.WriteMetricsTo(w, false)
}

// WriteMetricsTo renders the service counters. With om false the output
// is the classic Prometheus text format, byte-identical to what
// WriteMetrics always produced. With om true it follows OpenMetrics
// conventions — the TYPE line names the metric family without the
// _total suffix — and each counter with a recorded exemplar carries it
// in `# {trace_id="..."}` syntax, linking the aggregate back to a
// concrete recent request.
func (s *Service) WriteMetricsTo(w io.Writer, om bool) {
	st := s.Stats()
	counters := []struct {
		name, help string
		value      int64
		c          *counter
	}{
		{"requests", "Check requests received.", st.Requests, &s.m.requests},
		{"ok", "Check requests answered 200.", st.OK, &s.m.ok},
		{"checked", "Checks that ran an enumeration.", st.Checked, &s.m.checked},
		{"cache_hits", "Verdicts served from the canonical LRU cache.", st.CacheHits, &s.m.cacheHits},
		{"rejected_input", "Requests rejected before enumeration (bad JSON, parse, validation, size).", st.RejectedInput, &s.m.rejectedInput},
		{"rate_limited", "Requests rejected by the per-client token bucket.", st.RateLimited, &s.m.rateLimited},
		{"shed", "Requests shed because the work queue was full.", st.Shed, &s.m.shed},
		{"deadline_exceeded", "Checks cancelled by deadline or client disconnect.", st.Deadlines, &s.m.deadlines},
		{"limit_exceeded", "Checks stopped by the execution or transition budget.", st.Limits, &s.m.limits},
		{"witness_searches", "Witness enumerations run under admission control.", st.WitnessSearches, &s.m.witnessSearches},
		{"witness_drops", "Witness requests degraded to a witness-less response.", st.WitnessDrops, &s.m.witnessDrops},
		{"internal_errors", "Checks that failed unexpectedly.", st.Internal, &s.m.internal},
		{"drains", "Times the service entered drain.", st.Drains, &s.m.drains},
	}
	for _, c := range counters {
		if om {
			fmt.Fprintf(w, "# HELP rats_serve_%s %s\n# TYPE rats_serve_%s counter\nrats_serve_%s_total %d",
				c.name, c.help, c.name, c.name, c.value)
			if ex := c.c.ex.Load(); ex != nil {
				fmt.Fprintf(w, " # {trace_id=%q} 1 %.3f", ex.traceID,
					float64(ex.at.UnixNano())/1e9)
			}
			fmt.Fprintln(w)
			continue
		}
		fmt.Fprintf(w, "# HELP rats_serve_%s_total %s\n# TYPE rats_serve_%s_total counter\nrats_serve_%s_total %d\n",
			c.name, c.help, c.name, c.name, c.value)
	}
	gauges := []struct {
		name, help string
		value      int64
	}{
		{"queue_depth", "Requests waiting for a worker slot.", st.Queued},
		{"in_flight", "Checks executing right now.", st.Running},
		{"cache_entries", "Verdicts resident in the LRU cache.", st.CacheSize},
	}
	for _, g := range gauges {
		fmt.Fprintf(w, "# HELP rats_serve_%s %s\n# TYPE rats_serve_%s gauge\nrats_serve_%s %d\n",
			g.name, g.help, g.name, g.name, g.value)
	}
}
