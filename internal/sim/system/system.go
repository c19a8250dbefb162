// Package system assembles the full simulated machine of Table 2 — mesh,
// L1s, L2 banks, CUs, CPU — and runs a workload trace to completion under
// a chosen coherence protocol and consistency model, producing timing,
// event, and energy statistics.
package system

import (
	"fmt"
	"strings"
	"sync/atomic"

	"rats/internal/energy"
	"rats/internal/fault"
	"rats/internal/probe"
	"rats/internal/sim/cu"
	"rats/internal/sim/memsys"
	"rats/internal/sim/noc"
	"rats/internal/stats"
	"rats/internal/trace"
)

// System is one assembled machine instance.
type System struct {
	// mem owns the configuration and the counters (mem.Cfg, mem.Stats);
	// nothing the machine builds points back into System, so a finished
	// machine is garbage as soon as its driver is.
	mem *memsys.Memory
	cus []*cu.CU

	cycle int64
	tr    *trace.Trace
	probe *probe.Hub
	// skipOff disables fast-forwarding so every cycle is processed — the
	// reference mode cycle skipping is validated against. quietUntil marks
	// cycles the skip oracle proved idle: in skip-off mode they are still
	// processed, but with stall accounting suppressed, so both modes
	// attribute stalls over the identical set of scheduler-active cycles.
	skipOff    bool
	quietUntil int64

	// abortMsg, when set (from any goroutine), makes Run stop at the next
	// check and return a diagnostic error — the harness's wall-clock
	// timeout mechanism.
	abortMsg atomic.Pointer[string]

	// debugHook, when set, runs after every processed cycle (tests only).
	debugHook func(cycle int64)
}

// Result is the outcome of a simulation run.
type Result struct {
	Name   string
	Cfg    memsys.Config
	Stats  stats.Stats
	Energy energy.Breakdown
	// Read returns the final functional value of a word address.
	Read func(addr uint64) int64
}

// New builds the machine for a configuration: the memory side, and a
// CU over each node's L1.
func New(cfg memsys.Config) *System {
	s := &System{mem: memsys.NewMemory(cfg)}
	for n, l1 := range s.mem.L1s {
		s.cus = append(s.cus, cu.New(&s.mem.Env, n, l1))
	}
	return s
}

// FaultCounts returns the injected-perturbation tally, and whether fault
// injection is enabled at all.
func (s *System) FaultCounts() (fault.Counts, bool) {
	if s.mem.Fault == nil {
		return fault.Counts{}, false
	}
	return s.mem.Fault.Counts(), true
}

// Abort requests that a running simulation stop with a diagnostic error.
// Safe to call from another goroutine (wall-clock timeouts).
func (s *System) Abort(reason string) { s.abortMsg.Store(&reason) }

// SetCycleSkipping toggles the event-driven fast-forward (on by default).
// With skipping off every cycle is processed individually and every CU
// ticks in full, ignoring its cached wake hint; results must be identical
// either way — the equivalence tests pin this.
func (s *System) SetCycleSkipping(on bool) {
	s.skipOff = !on
	for _, c := range s.cus {
		c.SetFullTicks(!on)
	}
}

// AttachProbe enables the observability layer: every component's
// emission points route to the hub. Call before Run, after attaching the
// hub's sinks; with no hub attached — or a hub with no sinks and no
// sampling — the simulator takes the nil-check fast path everywhere.
func (s *System) AttachProbe(h *probe.Hub) {
	h = h.ActiveOrNil()
	s.probe = h
	s.mem.AttachProbe(h)
}

// Load places a trace's warps onto the machine and seeds the value layer.
func (s *System) Load(tr *trace.Trace) error {
	s.tr = tr
	for addr, v := range tr.Init {
		s.mem.Values[s.mem.Cfg.WordAddr(addr)] = v
	}
	for _, w := range tr.Warps {
		node := w.CU
		if w.IsCPU {
			node = s.mem.Cfg.CPUNode
		} else if node < 0 || node >= s.mem.Cfg.NumCUs {
			return fmt.Errorf("system: warp placed on CU %d (have %d CUs)", node, s.mem.Cfg.NumCUs)
		}
		s.cus[node].AddWarp(w)
	}
	return nil
}

// Run executes the loaded trace to completion and returns the result.
// Non-completion — MaxCycles, the liveness watchdog, an invariant
// violation, or an Abort — returns a *DiagnosticError carrying the run's
// state (stuck warps, MSHR/store-buffer occupancy, in-flight messages)
// rather than a bare message.
func (s *System) Run() (*Result, error) {
	if s.tr == nil {
		return nil, fmt.Errorf("system: no trace loaded")
	}
	var (
		lastSig      int64 // progress signature at lastProgress
		lastProgress int64 // cycle progress was last observed
		prevCoreOps  int64 // monotone-retirement invariant state
		iters        int64 // processed-cycle count (abort polling)
	)
	for {
		if s.done() {
			break
		}
		s.cycle++
		if s.cycle > s.mem.Cfg.MaxCycles {
			return nil, s.diagnose(fmt.Sprintf("exceeded MaxCycles=%d (deadlock?)", s.mem.Cfg.MaxCycles))
		}
		if s.probe != nil {
			s.probe.Tick(s.cycle, s.mem.Stats)
		}
		// 1. The memory side: due events, then message deliveries, then
		// L1 store-buffer drains and flush callbacks.
		s.mem.Step(s.cycle)
		// 2. Device-wide barrier resolution.
		s.resolveBarrier()
		// 3. CUs issue. A cycle is "quiet" when fast-forwarding is disabled
		// but the wake hints proved it idle: it still runs in full (so an
		// inexact hint diverges the architectural counters and fails the
		// equivalence tests) with only stall accounting suppressed, since a
		// skipped cycle would not have been attributed either.
		quiet := s.skipOff && s.cycle <= s.quietUntil
		for _, c := range s.cus {
			c.Tick(s.cycle, quiet)
		}
		if s.debugHook != nil {
			s.debugHook(s.cycle)
		}
		// Always-on invariants: catch corruption as a diagnosed error.
		if s.mem.Stats.CoreOps < prevCoreOps {
			return nil, s.diagnose(fmt.Sprintf(
				"invariant violated: retired-op count decreased (%d -> %d)", prevCoreOps, s.mem.Stats.CoreOps))
		}
		prevCoreOps = s.mem.Stats.CoreOps
		for _, l1 := range s.mem.L1s {
			if !l1.OverCapacity() {
				continue
			}
			d := l1.Diag()
			if d.MSHROutstanding > d.MSHRCapacity {
				return nil, s.diagnose(fmt.Sprintf(
					"invariant violated: node %d MSHR occupancy %d exceeds capacity %d",
					d.Node, d.MSHROutstanding, d.MSHRCapacity))
			}
			return nil, s.diagnose(fmt.Sprintf(
				"invariant violated: node %d store-buffer occupancy %d exceeds capacity %d",
				d.Node, d.SBQueued, d.SBCapacity))
		}
		// Liveness watchdog: no counter moved for a whole window.
		if sig := s.progressSignature(); sig != lastSig {
			lastSig = sig
			lastProgress = s.cycle
		} else if w := s.mem.Cfg.WatchdogWindow; w > 0 && s.cycle-lastProgress >= w {
			return nil, s.diagnose(fmt.Sprintf(
				"no forward progress for %d cycles (watchdog window %d)", s.cycle-lastProgress, w))
		}
		iters++
		if iters&1023 == 0 {
			if msg := s.abortMsg.Load(); msg != nil {
				return nil, s.diagnose("aborted: " + *msg)
			}
		}
		// 4. Fast-forward over provably idle cycles (or, in the skip-off
		// validation mode, just mark them quiet and walk through them).
		// Never jump once the machine is done: a hint can outlive the last
		// retirement (the fault injector reports pressure-window boundaries
		// unconditionally), and jumping first would inflate the final cycle
		// count past where the reference mode stops.
		if s.skipOff {
			s.quietUntil = s.cycle
			if next := s.nextWorkCycle(); next > s.cycle+1 {
				s.quietUntil = next - 1
			}
		} else if next := s.nextWorkCycle(); next > s.cycle+1 && !s.done() {
			s.cycle = next - 1
		}
	}
	s.mem.Stats.Cycles = s.cycle
	s.finishProbe()
	// Read keeps the value layer and a copy of the configuration
	// reachable, not the machine, so a sweep holding many results holds
	// no machines.
	values, cfg := s.mem.Values, *s.mem.Cfg
	res := &Result{
		Name:   s.tr.Name,
		Cfg:    cfg,
		Stats:  *s.mem.Stats,
		Energy: energy.Compute(s.mem.Stats, energy.DefaultModel()),
		Read:   func(addr uint64) int64 { return values[cfg.WordAddr(addr)] },
	}
	if s.tr.FinalCheck != nil {
		if err := s.tr.FinalCheck(res.Read); err != nil {
			return res, fmt.Errorf("system: functional check failed for %s: %w", s.tr.Name, err)
		}
	}
	return res, nil
}

// progressSignature folds every counter that moves when the machine does
// useful work into one value; if it is unchanged across a whole watchdog
// window the run is wedged. Warp retirement bumps no Stats counter, so
// retired-warp counts are folded in too — otherwise the final retire of a
// long-quiet warp could trip the watchdog spuriously.
func (s *System) progressSignature() int64 {
	st := s.mem.Stats
	sig := st.CoreOps + st.L1Accesses + st.L2Accesses + st.Atomics + st.NoCMessages
	for _, c := range s.cus {
		sig += int64(c.RetiredWarps())
	}
	return sig
}

// Caps on how much per-item detail a DiagnosticError carries; full counts
// are always reported.
const (
	maxDiagWarps    = 16
	maxDiagMessages = 16
)

// DiagnosticError is returned by Run when a simulation cannot complete:
// MaxCycles exhaustion, the liveness watchdog firing, an invariant
// violation, or an external Abort. It snapshots enough machine state to
// localize the hang — which warps are stuck and why, L1 MSHR/store-buffer
// occupancy, and in-flight network messages.
type DiagnosticError struct {
	Workload string
	Reason   string
	Cycle    int64
	MaxCyc   int64

	RetiredOps   int64
	RetiredWarps int
	TotalWarps   int

	// Warps holds stuck (non-retired) warps only, capped at maxDiagWarps;
	// WarpsOmitted counts the rest.
	Warps        []cu.WarpDiag
	WarpsOmitted int

	// L1s holds controllers with outstanding work only.
	L1s []memsys.L1Diag

	// Messages holds in-flight NoC messages, soonest arrival first, capped
	// at maxDiagMessages; MessagesOmitted counts the rest.
	Messages        []noc.MsgDiag
	MessagesOmitted int

	CoalescedTxns int
	PendingEvents int
}

// Error renders a multi-line deadlock report.
func (e *DiagnosticError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "system: %s: %s at cycle %d (retired ops %d, warps %d/%d retired)",
		e.Workload, e.Reason, e.Cycle, e.RetiredOps, e.RetiredWarps, e.TotalWarps)
	for _, w := range e.Warps {
		fmt.Fprintf(&b, "\n  warp %d (node %d): %s, pc %d/%d, %d loads + %d atomics outstanding",
			w.Warp, w.Node, w.State, w.PC, w.Ops, w.OutLoads, w.OutAtomics)
	}
	if e.WarpsOmitted > 0 {
		fmt.Fprintf(&b, "\n  ... and %d more stuck warps", e.WarpsOmitted)
	}
	for _, d := range e.L1s {
		fmt.Fprintf(&b, "\n  L1 node %d: MSHR %d/%d, store buffer %d/%d (%d unacked), %d atomics, %d forwards, %d flush waiters",
			d.Node, d.MSHROutstanding, d.MSHRCapacity, d.SBQueued, d.SBCapacity,
			d.SBUnacked, d.PendingAtomics, d.PendingForwards, d.FlushWaiters)
	}
	for _, m := range e.Messages {
		tag := ""
		if m.Dup {
			tag = " (dup)"
		}
		fmt.Fprintf(&b, "\n  in flight: %s %d->%d, %d flits, arrives cycle %d%s",
			m.Payload, m.Src, m.Dst, m.Flits, m.Arrival, tag)
	}
	if e.MessagesOmitted > 0 {
		fmt.Fprintf(&b, "\n  ... and %d more in-flight messages", e.MessagesOmitted)
	}
	if e.CoalescedTxns > 0 {
		fmt.Fprintf(&b, "\n  %d transactions queued in coalescers", e.CoalescedTxns)
	}
	if e.PendingEvents > 0 {
		fmt.Fprintf(&b, "\n  %d scheduled events pending", e.PendingEvents)
	}
	return b.String()
}

// diagnose builds the DiagnosticError for a failed run and, when a probe
// hub is attached, emits the same report as WatchdogReport events so it
// lands in traces alongside the run's other telemetry.
func (s *System) diagnose(reason string) *DiagnosticError {
	e := &DiagnosticError{
		Reason:     reason,
		Cycle:      s.cycle,
		MaxCyc:     s.mem.Cfg.MaxCycles,
		RetiredOps: s.mem.Stats.CoreOps,
	}
	if s.tr != nil {
		e.Workload = s.tr.Name
	}
	for _, c := range s.cus {
		e.RetiredWarps += c.RetiredWarps()
		e.CoalescedTxns += c.CoalescerDepth()
		for _, w := range c.Diag(s.cycle) {
			e.TotalWarps++
			if !w.Stuck() {
				continue
			}
			if len(e.Warps) < maxDiagWarps {
				e.Warps = append(e.Warps, w)
			} else {
				e.WarpsOmitted++
			}
		}
	}
	for _, l1 := range s.mem.L1s {
		if d := l1.Diag(); d.Busy() {
			e.L1s = append(e.L1s, d)
		}
	}
	for _, m := range s.mem.Mesh.InFlight() {
		if len(e.Messages) < maxDiagMessages {
			e.Messages = append(e.Messages, m)
		} else {
			e.MessagesOmitted++
		}
	}
	e.PendingEvents = s.mem.PendingEvents()
	if s.probe != nil {
		s.probe.Emit(probe.Event{Cycle: s.cycle, Comp: probe.CompSystem, Node: -1, Warp: -1,
			Kind: probe.WatchdogReport, Arg: int64(len(e.Warps) + e.WarpsOmitted)})
		for _, w := range e.Warps {
			s.probe.Emit(probe.Event{Cycle: s.cycle, Comp: probe.CompCU, Node: w.Node,
				Warp: w.Warp, Kind: probe.WatchdogReport, Arg: int64(w.PC), Aux: int64(w.Ops)})
		}
	}
	// Failed runs flush their telemetry too: open stall intervals close
	// and the final partial metrics interval is sampled, so the tail
	// window leading up to the failure isn't silently dropped.
	s.finishProbe()
	return e
}

// finishProbe closes per-warp stall intervals and emits the end-of-run
// (or end-of-diagnosis) sample. Called on both the success and the
// diagnosed-failure paths.
func (s *System) finishProbe() {
	if s.probe == nil {
		return
	}
	for _, c := range s.cus {
		c.CloseStalls(s.cycle, s.probe)
	}
	s.probe.FinalSample(s.cycle, s.mem.Stats)
}

// done reports whether every warp has retired and the machine is idle.
func (s *System) done() bool {
	if !s.mem.Idle() {
		return false
	}
	for _, c := range s.cus {
		if !c.Done() {
			return false
		}
	}
	return true
}

// barrierReady reports whether the device-wide barrier can release:
// every live warp has arrived, every store buffer has drained, and no
// traffic (write-through acks, atomics) is still settling. Shared by
// resolveBarrier and the system's own wake hint — the barrier is the one
// piece of clocked behavior the driver itself owns, so the driver must
// report it as next-cycle work or fast-forwarding would jump over the
// release.
func (s *System) barrierReady() (waiting int, ok bool) {
	for _, c := range s.cus {
		waiting += c.BarrierWaiters()
	}
	if waiting == 0 {
		return 0, false
	}
	live := 0
	for _, c := range s.cus {
		live += c.NumWarps()
	}
	// Warps that already retired no longer participate.
	retired := 0
	for _, c := range s.cus {
		retired += c.RetiredWarps()
	}
	if waiting < live-retired {
		return waiting, false
	}
	for _, l1 := range s.mem.L1s {
		if !l1.SBDrained() {
			return waiting, false
		}
	}
	return waiting, !s.mem.Mesh.Pending()
}

// resolveBarrier implements the device-wide barrier: when every live warp
// has arrived and every store buffer has drained, all L1s self-invalidate
// (barriers carry paired acquire+release semantics under every model) and
// the warps resume.
func (s *System) resolveBarrier() {
	waiting, ok := s.barrierReady()
	if !ok {
		return
	}
	for _, l1 := range s.mem.L1s {
		l1.AcquireInvalidate()
	}
	for _, c := range s.cus {
		c.ReleaseBarrier()
	}
	if s.probe != nil {
		s.probe.Emit(probe.Event{Cycle: s.cycle, Comp: probe.CompSystem, Node: -1,
			Warp: -1, Kind: probe.BarrierRelease, Arg: int64(waiting)})
	}
}

// nextWorkCycle polls the CUs', the memory side's and the fault
// injector's NextWork wake hints and returns the earliest cycle anything
// can make progress on its own, or -1 when the machine is entirely idle
// (then nothing will ever happen again — the done check or the watchdog
// ends the run). The driver skips the clock straight to this cycle, so
// hints must be exact: every cycle a component would act on must be
// reported. A component that only reacts to deliveries and scheduled
// events may return -1 unconditionally, because those arrive at
// processed cycles.
func (s *System) nextWorkCycle() int64 {
	next := int64(-1)
	min := func(t int64) {
		if t >= 0 && (next < 0 || t < next) {
			next = t
		}
	}
	for _, c := range s.cus {
		min(c.NextWork(s.cycle))
	}
	min(s.mem.NextWork(s.cycle))
	if s.mem.Fault != nil {
		min(s.mem.Fault.NextWork(s.cycle))
	}
	// The driver's own clocked work: a resolvable barrier releases at the
	// next processed cycle.
	if _, ok := s.barrierReady(); ok {
		min(s.cycle + 1)
	}
	return next
}

// RunTrace is the one-call convenience API: build, load, run.
func RunTrace(cfg memsys.Config, tr *trace.Trace) (*Result, error) {
	s := New(cfg)
	if err := s.Load(tr); err != nil {
		return nil, err
	}
	return s.Run()
}
