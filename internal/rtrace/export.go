package rtrace

import (
	"bufio"
	"encoding/json"
	"io"
)

// ChromeEvent is one record of the Chrome trace-event JSON format. Both
// the simulator's probe trace sink and WriteChrome emit it, so simulator
// and service traces open in the same Perfetto/chrome://tracing tooling.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int64          `json:"id,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeWriter encodes a stream of ChromeEvents as one trace-event JSON
// document. The first error sticks: later events are dropped and Close
// returns it.
type ChromeWriter struct {
	bw  *bufio.Writer
	n   int
	err error
}

// NewChromeWriter starts a document on w. The caller owns w and closes it
// after Close.
func NewChromeWriter(w io.Writer) *ChromeWriter {
	c := &ChromeWriter{bw: bufio.NewWriter(w)}
	_, c.err = c.bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
	return c
}

// WriteEvent appends one event to the document.
func (c *ChromeWriter) WriteEvent(ev ChromeEvent) {
	if c.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		c.err = err
		return
	}
	if c.n > 0 {
		c.bw.WriteByte(',')
	}
	c.n++
	_, c.err = c.bw.Write(b)
}

// Close writes the JSON trailer and flushes.
func (c *ChromeWriter) Close() error {
	if c.err != nil {
		return c.err
	}
	if _, err := c.bw.WriteString("]}\n"); err != nil {
		return err
	}
	return c.bw.Flush()
}

const chromePidServe = 1

// WriteChrome renders traces in the Chrome trace-event JSON format
// (the internal/probe trace-sink format), one thread track per trace.
// Timestamps are microseconds relative to the earliest trace start, so
// concurrent requests line up on one timeline. Output is deterministic
// for fixed inputs: events follow trace and span order, and args maps
// marshal with sorted keys.
func WriteChrome(w io.Writer, traces ...*TraceData) error {
	cw := NewChromeWriter(w)
	var base int64
	for i, td := range traces {
		if i == 0 || td.StartUnixUs < base {
			base = td.StartUnixUs
		}
	}
	cw.WriteEvent(ChromeEvent{Name: "process_name", Ph: "M", Pid: chromePidServe,
		Args: map[string]any{"name": "ratsserve"}})
	for i, td := range traces {
		tid := i + 1
		off := td.StartUnixUs - base
		cw.WriteEvent(ChromeEvent{Name: "thread_name", Ph: "M", Pid: chromePidServe, Tid: tid,
			Args: map[string]any{"name": "trace " + td.TraceID}})
		rootArgs := map[string]any{"trace_id": td.TraceID, "status": td.Status}
		if td.Kind != "" {
			rootArgs["kind"] = td.Kind
		}
		for _, a := range td.Attrs {
			rootArgs[a.K] = a.V
		}
		cw.WriteEvent(ChromeEvent{Name: td.Name, Cat: "request", Ph: "X",
			Ts: off, Dur: td.DurationUs, Pid: chromePidServe, Tid: tid, Args: rootArgs})
		for _, ph := range td.Phases {
			writeSpan(cw, &ph, off, tid, "phase")
		}
	}
	return cw.Close()
}

func writeSpan(cw *ChromeWriter, sp *SpanData, off int64, tid int, cat string) {
	var args map[string]any
	if len(sp.Attrs) > 0 {
		args = make(map[string]any, len(sp.Attrs))
		for _, a := range sp.Attrs {
			args[a.K] = a.V
		}
	}
	ev := ChromeEvent{Name: sp.Name, Cat: cat, Ph: "X",
		Ts: off + sp.StartUs, Dur: sp.EndUs - sp.StartUs,
		Pid: chromePidServe, Tid: tid, Args: args}
	if ev.Dur == 0 {
		// Chrome drops zero-duration complete events from some views;
		// keep them visible as 1us slivers.
		ev.Dur = 1
	}
	cw.WriteEvent(ev)
	for _, e := range sp.Events {
		var eargs map[string]any
		if len(e.Attrs) > 0 {
			eargs = make(map[string]any, len(e.Attrs))
			for _, a := range e.Attrs {
				eargs[a.K] = a.V
			}
		}
		cw.WriteEvent(ChromeEvent{Name: e.Name, Cat: cat, Ph: "i",
			Ts: off + e.AtUs, Pid: chromePidServe, Tid: tid, S: "t", Args: eargs})
	}
	for i := range sp.Children {
		writeSpan(cw, &sp.Children[i], off, tid, "span")
	}
}

// wideEvent is the canonical per-request access-log line: everything a
// postmortem usually needs — identity, outcome, and where the time went
// — in one structured JSON object.
type wideEvent struct {
	TS         string             `json:"ts"`
	TraceID    string             `json:"trace_id"`
	Name       string             `json:"name"`
	Status     int                `json:"status"`
	Kind       string             `json:"kind,omitempty"`
	DurationMs float64            `json:"duration_ms"`
	Attrs      map[string]string  `json:"attrs,omitempty"`
	PhasesMs   map[string]float64 `json:"phases_ms,omitempty"`
}

// WideEvent renders one finished trace as a single JSON log line
// (newline-terminated). Attr and phase maps marshal with sorted keys,
// so output is deterministic for a fixed trace; repeated attr keys keep
// the last value, repeated phase names sum.
func WideEvent(td *TraceData) ([]byte, error) {
	we := wideEvent{
		TS:         td.Start,
		TraceID:    td.TraceID,
		Name:       td.Name,
		Status:     td.Status,
		Kind:       td.Kind,
		DurationMs: float64(td.DurationUs) / 1e3,
	}
	if len(td.Attrs) > 0 {
		we.Attrs = make(map[string]string, len(td.Attrs))
		for _, a := range td.Attrs {
			we.Attrs[a.K] = a.V
		}
	}
	if len(td.Phases) > 0 {
		we.PhasesMs = make(map[string]float64, len(td.Phases))
		for _, ph := range td.Phases {
			we.PhasesMs[ph.Name] += float64(ph.EndUs-ph.StartUs) / 1e3
		}
	}
	b, err := json.Marshal(we)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
