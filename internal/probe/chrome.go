package probe

import (
	"fmt"
	"io"

	"rats/internal/rtrace"
)

// ChromeTrace writes the event stream in the Chrome trace-event JSON
// format, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Track layout:
//
//	pid 1 "warps":       one thread per warp; stalls render as duration
//	                     slices named by reason, issues/barriers as
//	                     instants.
//	pid 2 "L1 caches":   one thread per node; hits/misses, consistency
//	                     actions, MSHR and store-buffer events as
//	                     instants.
//	pid 3 "L2 banks":    one thread per node; hits/misses, atomics,
//	                     ownership traffic as instants.
//	pid 4 "NoC":         async begin/end pairs (arrows) per message,
//	                     keyed by the message sequence number.
//
// Timestamps are simulated cycles written as microseconds (1 cycle =
// 1 us), which keeps Perfetto's time axis readable.
type ChromeTrace struct {
	w     *rtrace.ChromeWriter
	named map[[2]int]bool // (pid, tid) pairs that have a thread_name
}

const (
	chromePidWarps = 1
	chromePidL1    = 2
	chromePidL2    = 3
	chromePidNoC   = 4
)

// NewChromeTrace builds the sink over w. The caller owns w and closes it
// after Close (which writes the JSON trailer and flushes).
func NewChromeTrace(w io.Writer) *ChromeTrace {
	return &ChromeTrace{w: rtrace.NewChromeWriter(w), named: map[[2]int]bool{}}
}

// nameTrack emits the process/thread metadata for a track once.
func (c *ChromeTrace) nameTrack(pid, tid int, process, thread string) {
	key := [2]int{pid, -1}
	if !c.named[key] {
		c.named[key] = true
		c.w.WriteEvent(rtrace.ChromeEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": process}})
	}
	key = [2]int{pid, tid}
	if !c.named[key] {
		c.named[key] = true
		c.w.WriteEvent(rtrace.ChromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": thread}})
	}
}

func (c *ChromeTrace) instant(ev Event, pid, tid int, process, track, name string, args map[string]any) {
	c.nameTrack(pid, tid, process, track)
	c.w.WriteEvent(rtrace.ChromeEvent{Name: name, Cat: ev.Comp.String(), Ph: "i",
		Ts: ev.Cycle, Pid: pid, Tid: tid, S: "t", Args: args})
}

// Emit translates one probe event into trace-event records.
func (c *ChromeTrace) Emit(ev Event) {
	switch ev.Kind {
	case StallEnd:
		// Render the whole stall as a complete duration slice.
		c.nameTrack(chromePidWarps, ev.Warp, "warps", fmt.Sprintf("warp %d", ev.Warp))
		c.w.WriteEvent(rtrace.ChromeEvent{Name: ev.Reason.String(), Cat: "stall", Ph: "X",
			Ts: ev.Cycle - ev.Arg, Dur: ev.Arg, Pid: chromePidWarps, Tid: ev.Warp,
			Args: map[string]any{"node": ev.Node}})
	case StallBegin:
		// The paired StallEnd carries the slice; nothing to draw yet.
	case WarpIssue:
		c.instant(ev, chromePidWarps, ev.Warp, "warps",
			fmt.Sprintf("warp %d", ev.Warp), "issue", map[string]any{"op": ev.Arg})
	case BarrierArrive:
		c.instant(ev, chromePidWarps, ev.Warp, "warps",
			fmt.Sprintf("warp %d", ev.Warp), "barrier-arrive", nil)
	case BarrierRelease:
		c.instant(ev, chromePidWarps, 0, "warps", "warp 0",
			"barrier-release", map[string]any{"warps": ev.Arg})
	case CacheHit, CacheMiss, AcquireInvalidation, ReleaseFlush,
		AtomicPerformed, Writeback, OwnershipRequest, OwnershipGrant,
		RemoteForward, MSHRAlloc, MSHRCoalesce, SBFill, SBDrain,
		CoalescerPush, CoalescerDrain:
		pid, process := chromePidL1, "L1 caches"
		if ev.Comp == CompL2 {
			pid, process = chromePidL2, "L2 banks"
		}
		args := map[string]any{"addr": ev.Addr}
		if ev.Warp >= 0 {
			args["warp"] = ev.Warp
		}
		if ev.Arg != 0 {
			args["arg"] = ev.Arg
		}
		c.instant(ev, pid, ev.Node, process,
			fmt.Sprintf("%s %d", ev.Comp, ev.Node), ev.Kind.String(), args)
	case NoCEnqueue:
		c.nameTrack(chromePidNoC, ev.Node, "NoC", fmt.Sprintf("node %d", ev.Node))
		c.w.WriteEvent(rtrace.ChromeEvent{Name: "msg", Cat: "noc", Ph: "b", Ts: ev.Cycle,
			Pid: chromePidNoC, Tid: ev.Node, ID: ev.Msg,
			Args: map[string]any{"src": ev.Node, "dst": ev.Arg, "flits": ev.Aux}})
	case NoCDeliver:
		c.nameTrack(chromePidNoC, ev.Node, "NoC", fmt.Sprintf("node %d", ev.Node))
		c.w.WriteEvent(rtrace.ChromeEvent{Name: "msg", Cat: "noc", Ph: "e", Ts: ev.Cycle,
			Pid: chromePidNoC, Tid: ev.Node, ID: ev.Msg})
	case NoCHop:
		// Per-hop detail is too fine for the timeline; skip.
	}
}

// Close writes the JSON trailer and flushes.
func (c *ChromeTrace) Close() error { return c.w.Close() }
