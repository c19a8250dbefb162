// Package cu models the compute units (GPU CUs and the CPU core) that
// issue trace operations into the memory system. This is where the
// consistency model acts: the per-class Behavior from internal/core
// decides whether an atomic self-invalidates the L1 (acquire), flushes
// the store buffer (release), and how much it may overlap with other
// outstanding accesses (Table 4 of the paper). The issue gate and the
// fences keep at least the pairs of core.Model.Keeps, the ordering rule
// of the system model that Theorem 3.1 is checked on; an SC access is
// stricter: it waits for every earlier load and atomic and holds every
// later access.
package cu

import (
	"rats/internal/core"
	"rats/internal/probe"
	"rats/internal/sim/memsys"
	"rats/internal/stats"
	"rats/internal/trace"
)

// warpState tracks one warp's progress through its op stream.
type warpState struct {
	ops *trace.Warp
	pc  int
	// id is the global warp index (probe attribution).
	id int

	// busyUntil blocks issue during compute/scratch ops.
	busyUntil int64
	// outLoads / outAtomics count outstanding memory *instructions* (a
	// 32-lane atomic is one instruction whose lanes are all in flight at
	// once, as on a real SIMT pipeline).
	outLoads   int
	outAtomics int
	// fence blocks all issue until an SC (OverlapNone) access or an
	// acquire read completes.
	fence bool
	// waitingFlush blocks the current op until the store buffer drains.
	waitingFlush bool
	// flushDone is set by the flush callback.
	flushDone bool
	// atBarrier marks the warp parked at a device-wide barrier.
	atBarrier bool
	// atEnd marks the op stream exhausted; the warp retires (done) once
	// trailing compute and outstanding memory operations finish.
	atEnd bool
	done  bool

	// curStall/stallSince track the open stall interval for the probe
	// layer (maintained only when a hub is attached).
	curStall   probe.StallReason
	stallSince int64

	// groups are the warp's in-flight instruction groups: one per memory
	// instruction, counting its transactions still outstanding. Slots are
	// reused once a group completes, so steady-state issue allocates
	// nothing (the per-transaction completion closures this replaces were
	// the CU's dominant allocation source).
	groups []instrGroup
}

// instrGroup counts one memory instruction's outstanding transactions.
type instrGroup struct {
	remaining int
	atomic    bool
	active    bool
}

// allocGroup claims a free group slot (or grows) for an instruction with
// n transactions.
func (w *warpState) allocGroup(n int, atomic bool) int32 {
	for i := range w.groups {
		if !w.groups[i].active {
			w.groups[i] = instrGroup{remaining: n, atomic: atomic, active: true}
			return int32(i)
		}
	}
	w.groups = append(w.groups, instrGroup{remaining: n, atomic: atomic, active: true})
	return int32(len(w.groups) - 1)
}

// CU drives the warps placed on one node.
type CU struct {
	env  *memsys.Env
	node int
	l1   *memsys.L1

	warps []*warpState
	rr    int

	// coalescer is the queue of line transactions awaiting L1 issue;
	// coalescer[coalHead:] holds the live entries (head-index draining
	// reuses the backing array, pre-sized to the configured queue depth).
	coalescer []*memsys.Txn
	coalHead  int

	// txnFree recycles completed transactions; lineScratch is the reusable
	// buffer linesOf dedupes into (valid until its next call).
	txnFree     []*memsys.Txn
	lineScratch []uint64

	st *stats.Stats

	// barrierWaiters counts warps currently parked at a barrier; the
	// system driver releases them.
	barrierWaiters int
	// retired counts warps marked done, so the driver's per-cycle Done and
	// RetiredWarps polls cost O(1).
	retired int

	// The wake-hint cache. While clean is set, wake is the hint NextWork
	// last computed and idleStalls the WarpIssueStalls an idle Tick adds;
	// a Tick at a cycle before wake is then idle and only accrues them.
	// Warp state changes only inside a full Tick or through a touch from
	// outside (TxnDone emptying a group, the release-flush callback,
	// ReleaseBarrier, AddWarp), and each of those clears clean.
	wake       int64
	idleStalls int64
	clean      bool
	// fullTicks disables the idle shortcut (see SetFullTicks).
	fullTicks bool
}

// New builds a CU on the given node over its L1.
func New(env *memsys.Env, node int, l1 *memsys.L1) *CU {
	return &CU{env: env, node: node, l1: l1, st: env.Stats,
		coalescer: make([]*memsys.Txn, 0, env.Cfg.CoalescerQueue)}
}

// SetFullTicks makes every Tick run in full, ignoring the wake-hint
// cache. The system driver sets it when cycle skipping is off, so that
// mode stays the reference the cache is checked against.
func (c *CU) SetFullTicks(on bool) { c.fullTicks = on }

// depth returns the number of transactions queued in the coalescer.
func (c *CU) depth() int { return len(c.coalescer) - c.coalHead }

// newTxn takes a transaction from the free list (or allocates one),
// zeroed, with Group set to the no-group sentinel.
func (c *CU) newTxn() *memsys.Txn {
	if n := len(c.txnFree); n > 0 {
		t := c.txnFree[n-1]
		c.txnFree = c.txnFree[:n-1]
		*t = memsys.Txn{Group: -1}
		return t
	}
	return &memsys.Txn{Group: -1}
}

// TxnDone implements memsys.Completer: it closes the transaction's
// instruction group (decrementing the warp's outstanding counts when the
// group empties) and recycles the transaction. Safe because nothing in
// the memory system retains a transaction past its completion call.
func (c *CU) TxnDone(t *memsys.Txn, cycle, value int64) {
	if t.Group >= 0 {
		w := t.Owner.(*warpState)
		g := &w.groups[t.Group]
		g.remaining--
		if g.remaining == 0 {
			g.active = false
			if g.atomic {
				w.outAtomics--
			} else {
				w.outLoads--
			}
			c.clearFence(w)
			c.clean = false
		}
	}
	c.txnFree = append(c.txnFree, t)
}

// AddWarp assigns a warp to this CU, numbering it globally in placement
// order.
func (c *CU) AddWarp(w *trace.Warp) {
	ws := &warpState{ops: w, id: c.env.WarpSeq}
	c.env.WarpSeq++
	if len(w.Ops) == 0 {
		ws.atEnd = true
		ws.done = true
		c.retired++
	}
	c.warps = append(c.warps, ws)
	c.clean = false
}

// NumWarps returns the warp count.
func (c *CU) NumWarps() int { return len(c.warps) }

// Done reports whether every warp has retired and all transactions
// completed. A warp retires only with nothing outstanding and issues
// nothing afterwards, so the retired count covers both.
func (c *CU) Done() bool {
	return c.depth() == 0 && c.retired == len(c.warps)
}

// BarrierWaiters returns the number of warps parked at a barrier.
func (c *CU) BarrierWaiters() int { return c.barrierWaiters }

// ReleaseBarrier resumes every parked warp (called by the system driver
// once all warps in the device have arrived and stores have drained).
func (c *CU) ReleaseBarrier() {
	for _, w := range c.warps {
		if w.atBarrier {
			w.atBarrier = false
			w.pc++
			if w.pc >= len(w.ops.Ops) {
				w.atEnd = true
			}
		}
	}
	c.barrierWaiters = 0
	c.clean = false
}

// L1 exposes the CU's cache controller (for the barrier protocol).
func (c *CU) L1() *memsys.L1 { return c.l1 }

// linesOf groups addresses by cache line, preserving first-touch order.
// The result is the CU's reusable scratch buffer, valid only until the
// next call; with at most one warp's worth of lanes the linear-scan
// dedupe beats a map and allocates nothing.
func (c *CU) linesOf(addrs []uint64) []uint64 {
	lines := c.lineScratch[:0]
	for _, a := range addrs {
		l := a / c.env.Cfg.LineSize
		dup := false
		for _, seen := range lines {
			if seen == l {
				dup = true
				break
			}
		}
		if !dup {
			lines = append(lines, l)
		}
	}
	c.lineScratch = lines
	return lines
}

// canIssue evaluates the consistency gates for a warp's next op.
func (c *CU) canIssue(w *warpState, op *trace.Op) bool {
	return c.issueGate(w, op) == probe.StallNone
}

// issueGate is the consistency and per-warp MLP gate on a warp's next op:
// StallNone when the op may issue, otherwise the reason it may not.
func (c *CU) issueGate(w *warpState, op *trace.Op) probe.StallReason {
	if !op.Kind.IsMem() && op.Kind != trace.Barrier && op.Kind != trace.Join {
		return probe.StallNone
	}
	if op.Kind == trace.Barrier || op.Kind == trace.Join {
		// Barriers carry paired semantics; joins model register
		// dependencies: both wait for everything outstanding.
		if w.outLoads > 0 || w.outAtomics > 0 {
			return probe.StallMemory
		}
		return probe.StallNone
	}
	// An SC access or a release waits for every earlier load and atomic
	// (the release's flush in issueOp covers earlier stores); any other
	// access not free to overlap waits for every earlier atomic.
	m := c.env.Cfg.Model
	b := m.Behavior(op.Class)
	if (w.outLoads > 0 || w.outAtomics > 0) && (b.Overlap == core.OverlapNone || m.Releases(op.Access())) {
		return probe.StallConsistency
	}
	if b.Overlap != core.OverlapFree && w.outAtomics > 0 {
		return probe.StallConsistency
	}
	// Bound per-warp MLP (instructions in flight).
	if w.outLoads+w.outAtomics >= c.env.Cfg.MaxOutstandingPerWarp {
		return probe.StallMemory
	}
	if op.Kind == trace.Atomic && w.outAtomics >= c.env.Cfg.MaxOutstandingAtomicsPerWarp {
		return probe.StallMemory
	}
	return probe.StallNone
}

// issueOp performs the consistency actions and enqueues the op's
// transactions. Returns false if the coalescer lacks space (retry).
func (c *CU) issueOp(cycle int64, w *warpState, op *trace.Op) bool {
	m, acc := c.env.Cfg.Model, op.Access()
	acquire := m.Acquires(acc)
	// HRF work-group scope: ordering is only required within this CU,
	// which sees its own accesses in order — no invalidation or flush;
	// the issue gate and the fences still follow the class.
	global := op.Scope != trace.ScopeLocal

	// Release: the store buffer must drain before the access performs.
	if global && m.Releases(acc) {
		if !w.waitingFlush {
			w.waitingFlush = true
			w.flushDone = false
			c.st.ReleaseFlushes++
			if h := c.env.Probe; h != nil {
				h.Emit(probe.Event{Cycle: cycle, Comp: probe.CompCU, Node: c.node,
					Warp: w.id, Kind: probe.ReleaseFlush})
			}
			c.l1.Flush(cycle, func(int64) {
				w.flushDone = true
				c.clean = false
			})
		}
		if !w.flushDone {
			return false
		}
		w.waitingFlush = false
	}

	// Estimate transaction count and check coalescer space.
	var txns int
	switch op.Kind {
	case trace.Load, trace.Store:
		txns = len(c.linesOf(op.Addrs))
	case trace.Atomic:
		txns = len(op.Addrs)
	}
	if c.depth()+txns > c.env.Cfg.CoalescerQueue {
		return false
	}

	// Acquire: self-invalidate before subsequent reads can hit stale data.
	if global && acquire {
		c.l1.AcquireInvalidate()
	}

	switch op.Kind {
	case trace.Load:
		lines := c.linesOf(op.Addrs)
		w.outLoads++
		g := w.allocGroup(len(lines), false)
		for _, line := range lines {
			t := c.newTxn()
			t.Kind = memsys.TxnLoad
			t.Addr = line * c.env.Cfg.LineSize
			t.Class = op.Class
			t.AOp = core.OpLoad
			t.Done = c
			t.Owner = w
			t.Group = g
			c.push(w, t)
		}
	case trace.Store:
		for _, line := range c.linesOf(op.Addrs) {
			// Stores complete into the store buffer; they do not hold the
			// warp. Flush semantics make them visible.
			t := c.newTxn()
			t.Kind = memsys.TxnStore
			t.Addr = line * c.env.Cfg.LineSize
			t.Class = op.Class
			t.AOp = core.OpStore
			t.Done = c
			c.push(w, t)
		}
	case trace.Atomic:
		w.outAtomics++
		g := w.allocGroup(len(op.Addrs), true)
		for i, a := range op.Addrs {
			operand := op.Operand
			if op.Operands != nil {
				operand = op.Operands[i]
			}
			t := c.newTxn()
			t.Kind = memsys.TxnAtomic
			t.Addr = a
			t.Class = op.Class
			t.LocalScope = op.Scope == trace.ScopeLocal
			t.AOp = op.AOp
			t.Operand = operand
			t.Done = c
			t.Owner = w
			t.Group = g
			c.push(w, t)
		}
	}

	if acquire || m.Behavior(op.Class).Overlap == core.OverlapNone {
		// SC access or acquire read: block the warp until it completes.
		w.fence = true
		c.clearFence(w) // store-only SC ops hold no transactions
	}
	return true
}

func (c *CU) clearFence(w *warpState) {
	if w.fence && w.outLoads == 0 && w.outAtomics == 0 {
		w.fence = false
	}
}

// spanOpOf classifies a transaction for the latency-span layer.
func spanOpOf(t *memsys.Txn) probe.SpanOp {
	switch t.Kind {
	case memsys.TxnLoad:
		return probe.SpanLoad
	case memsys.TxnStore:
		return probe.SpanStore
	}
	switch t.Class {
	case core.Acquire:
		return probe.SpanAcquire
	case core.Release:
		return probe.SpanRelease
	}
	return probe.SpanAtomic
}

func (c *CU) push(w *warpState, t *memsys.Txn) {
	c.env.TxnSeq++
	t.ID = c.env.TxnSeq
	t.Warp = w.id
	if c.coalHead > 0 && len(c.coalescer) == cap(c.coalescer) {
		n := copy(c.coalescer, c.coalescer[c.coalHead:])
		for i := n; i < len(c.coalescer); i++ {
			c.coalescer[i] = nil
		}
		c.coalescer = c.coalescer[:n]
		c.coalHead = 0
	}
	c.coalescer = append(c.coalescer, t)
	if h := c.env.Probe; h != nil {
		h.Emit(probe.Event{Cycle: h.Now(), Comp: probe.CompCU, Node: c.node, Warp: w.id,
			Kind: probe.CoalescerPush, Txn: t.ID, Addr: t.Addr,
			Arg: int64(c.depth()), Aux: int64(spanOpOf(t))})
	}
}

// Tick advances the CU one cycle: retire finished warps, drain the
// coalescer into the L1, then issue at most one warp op (CPU nodes may
// issue several, reflecting the faster CPU clock).
//
// quiet marks a cycle the skip oracle (NextWork) proved idle but that is
// being processed anyway because fast-forwarding is disabled. Stall
// accounting and stall-interval tracking are suppressed on quiet cycles
// — exactly the accounting a skipped cycle gets — while all state
// transitions still run, so an oracle that wrongly skips a productive
// cycle shows up as diverging architectural counters in the equivalence
// tests rather than being masked.
//
// A CU whose cached wake hint (see NextWork) lies beyond this cycle, with
// no touch since it was computed, is idle: issueOne would scan the same
// warps and reject each of them, and trackStalls would find every stall
// reason unchanged. Such a Tick only adds the rejected warps' issue
// stalls. Quiet cycles occur only with skipping off, where every Tick
// runs in full.
func (c *CU) Tick(cycle int64, quiet bool) {
	if c.clean && !c.fullTicks && (c.wake < 0 || c.wake > cycle) {
		c.st.WarpIssueStalls += c.idleStalls
		return
	}
	c.clean = false
	// Retirement: the op stream is exhausted, trailing compute has
	// elapsed, and no memory operations remain in flight.
	for _, w := range c.warps {
		if w.atEnd && !w.done && w.busyUntil <= cycle && w.outLoads == 0 && w.outAtomics == 0 {
			w.done = true
			c.retired++
		}
	}
	// Coalescer → L1 (one transaction per cycle port).
	if c.depth() > 0 {
		if t := c.coalescer[c.coalHead]; c.l1.TryIssue(cycle, t) {
			c.coalescer[c.coalHead] = nil
			c.coalHead++
			if c.coalHead == len(c.coalescer) {
				c.coalescer = c.coalescer[:0]
				c.coalHead = 0
			}
			if h := c.env.Probe; h != nil {
				h.Emit(probe.Event{Cycle: cycle, Comp: probe.CompCU, Node: c.node,
					Warp: t.Warp, Kind: probe.CoalescerDrain, Txn: t.ID, Addr: t.Addr})
			}
		}
	}

	issues := 1
	if len(c.warps) > 0 && c.warps[0].ops.IsCPU {
		issues = c.env.Cfg.CPUIssuePerCycle
	}
	for n := 0; n < issues; n++ {
		if !c.issueOne(cycle, quiet) {
			break
		}
	}
	if h := c.env.Probe; h != nil && !quiet {
		c.trackStalls(cycle, h)
	}
}

// issueOne finds one ready warp round-robin and issues its next op.
func (c *CU) issueOne(cycle int64, quiet bool) bool {
	nw := len(c.warps)
	if nw == 0 {
		return false
	}
	for k := 0; k < nw; k++ {
		w := c.warps[(c.rr+k)%nw]
		if w.done || w.atEnd || w.atBarrier || w.fence || w.busyUntil > cycle {
			continue
		}
		if f := c.env.Fault; f != nil && f.Wedged(w.id, cycle) {
			if !quiet {
				c.st.WarpIssueStalls++
			}
			continue
		}
		op := &w.ops.Ops[w.pc]
		if !c.canIssue(w, op) {
			if !quiet {
				c.st.WarpIssueStalls++
			}
			continue
		}
		switch op.Kind {
		case trace.Compute:
			w.busyUntil = cycle + int64(op.Cycles)
			c.st.CoreOps++
		case trace.ScratchLoad, trace.ScratchStore:
			w.busyUntil = cycle + int64(op.Cycles)
			c.st.CoreOps++
			c.st.ScratchAccesses++
		case trace.Barrier:
			w.atBarrier = true
			c.barrierWaiters++
			if h := c.env.Probe; h != nil {
				h.Emit(probe.Event{Cycle: cycle, Comp: probe.CompCU, Node: c.node,
					Warp: w.id, Kind: probe.BarrierArrive})
			}
			c.rr = (c.rr + k + 1) % nw
			return true
		case trace.Join:
			// Pure dependency marker: free once issuable.
		default:
			if !c.issueOp(cycle, w, op) {
				if !quiet {
					c.st.WarpIssueStalls++
				}
				continue
			}
			c.st.CoreOps++
		}
		if h := c.env.Probe; h != nil {
			h.Emit(probe.Event{Cycle: cycle, Comp: probe.CompCU, Node: c.node,
				Warp: w.id, Kind: probe.WarpIssue, Arg: int64(op.Kind)})
		}
		w.pc++
		if w.pc >= len(w.ops.Ops) {
			w.atEnd = true
		}
		c.rr = (c.rr + k + 1) % nw
		return true
	}
	return false
}

// NextWork returns the earliest cycle at which this CU can make progress
// on its own, or -1 if it is entirely waiting on external events
// (message deliveries and scheduled completions). The hint must be
// exact, not merely conservative in one direction: the driver fast
// forwards the clock straight to the minimum hint across all
// components, so a cycle where this CU would have acted but which the
// hint did not report would silently change timing. The equivalence
// tests (skip on vs off) pin this property.
//
// The hint is cached until the next touch or full Tick (see Tick), and a
// clean CU returns it unchanged: until then every term below is either
// state only a touch or a full Tick changes, or an absolute cycle at or
// beyond the hint. Alongside it the scan counts the warps issueOne polls
// (not retired, retiring, parked, fenced or computing), which is the
// WarpIssueStalls an idle Tick adds: with the hint in the future each of
// them is rejected, by a consistency gate or an unfinished release flush.
func (c *CU) NextWork(cycle int64) int64 {
	if c.clean {
		return c.wake
	}
	c.clean = true
	c.idleStalls = 0
	if c.depth() > 0 {
		// A queued transaction retries L1 issue every cycle.
		c.wake = cycle + 1
		return c.wake
	}
	wake := int64(-1)
	min := func(t int64) {
		if t <= cycle {
			t = cycle + 1
		}
		if wake < 0 || t < wake {
			wake = t
		}
	}
	for _, w := range c.warps {
		switch {
		case w.done || w.atBarrier:
			// Retired, or parked until the driver-side barrier release (which
			// itself only happens at processed cycles).
		case w.atEnd:
			// Retiring: wakes when trailing compute elapses, but only once
			// outstanding memory has completed — completions are events.
			if w.outLoads == 0 && w.outAtomics == 0 {
				min(w.busyUntil)
			}
		case w.fence:
			// SC fence: unblocked by completions.
		case w.busyUntil > cycle:
			// Computing: the next op issues (or begins stalling) the moment
			// compute finishes, regardless of memory still in flight.
			min(w.busyUntil)
		default:
			// issueOne polls this warp every cycle. A wedged warp must be hot
			// from its onset on, so the fault tally and the watchdog timeline
			// match cycle-by-cycle execution exactly.
			c.idleStalls++
			if f := c.env.Fault; f != nil {
				if from, ok := f.WedgeOnset(w.id); ok {
					min(from)
				}
			}
			// A release waits for the flush callback. Otherwise, if the
			// consistency gates pass, the warp issues (or retries a full
			// coalescer) next cycle. If they fail, every gate is a pure
			// function of outstanding-op counts, which only completions
			// change — so the warp is provably idle until the next event.
			if !(w.waitingFlush && !w.flushDone) && c.canIssue(w, &w.ops.Ops[w.pc]) {
				min(cycle + 1)
			}
		}
	}
	c.wake = wake
	return wake
}

// CoalescerDepth returns the number of transactions queued for L1 issue
// (liveness diagnostics).
func (c *CU) CoalescerDepth() int { return c.depth() }

// WarpDiag is one warp's state snapshot for liveness diagnostics.
type WarpDiag struct {
	Warp, Node int
	// PC and Ops locate the warp in its op stream.
	PC, Ops int
	// State names what the warp is doing or waiting on.
	State                string
	OutLoads, OutAtomics int
}

// Stuck reports whether the warp still has work it cannot finish on its
// own this instant (everything but retired).
func (d WarpDiag) Stuck() bool { return d.State != "retired" }

// Diag snapshots every warp's state at the given cycle.
func (c *CU) Diag(cycle int64) []WarpDiag {
	out := make([]WarpDiag, 0, len(c.warps))
	for _, w := range c.warps {
		d := WarpDiag{Warp: w.id, Node: c.node, PC: w.pc, Ops: len(w.ops.Ops),
			OutLoads: w.outLoads, OutAtomics: w.outAtomics}
		switch {
		case w.done:
			d.State = "retired"
		case w.atBarrier:
			d.State = "at-barrier"
		case c.env.Fault != nil && c.env.Fault.WedgeActive(w.id, cycle):
			d.State = "wedged (injected fault)"
		case w.fence:
			d.State = "sc-fence drain"
		case w.waitingFlush && !w.flushDone:
			d.State = "release-flush wait"
		case w.outLoads > 0 || w.outAtomics > 0:
			d.State = "memory wait"
		case w.busyUntil > cycle:
			d.State = "compute"
		case w.atEnd:
			d.State = "retiring"
		default:
			d.State = "ready"
		}
		out = append(out, d)
	}
	return out
}

// RetiredWarps counts warps that have finished their op streams.
func (c *CU) RetiredWarps() int { return c.retired }

// stallReasonOf classifies why a warp cannot issue this cycle (probe
// attribution): issueGate, then issueOp's coalescer-space check.
func (c *CU) stallReasonOf(w *warpState, cycle int64) probe.StallReason {
	switch {
	case w.done:
		return probe.StallNone
	case w.atBarrier:
		return probe.StallBarrier
	case w.atEnd:
		if w.outLoads > 0 || w.outAtomics > 0 {
			return probe.StallMemory
		}
		return probe.StallNone
	case w.busyUntil > cycle:
		return probe.StallNone // compute-occupied, not a stall
	case w.fence:
		return probe.StallConsistency // SC access or acquire draining
	case w.waitingFlush && !w.flushDone:
		return probe.StallConsistency // release flush in progress
	}
	if f := c.env.Fault; f != nil && f.WedgeActive(w.id, cycle) {
		return probe.StallFault
	}
	op := &w.ops.Ops[w.pc]
	if r := c.issueGate(w, op); r != probe.StallNone || !op.Kind.IsMem() {
		return r
	}
	var txns int
	switch op.Kind {
	case trace.Load, trace.Store:
		txns = len(c.linesOf(op.Addrs))
	case trace.Atomic:
		txns = len(op.Addrs)
	}
	if c.depth()+txns > c.env.Cfg.CoalescerQueue {
		if c.l1.SBFull() {
			return probe.StallStoreBufferFull
		}
		return probe.StallIssue
	}
	return probe.StallNone
}

// trackStalls maintains each warp's open stall interval, emitting
// begin/end events on transitions. It runs once per processed cycle when
// a hub is attached, so intervals span fast-forwarded gaps and each
// warp's stall intervals are disjoint (their sum is bounded by the run's
// total cycles).
func (c *CU) trackStalls(cycle int64, h *probe.Hub) {
	for _, w := range c.warps {
		r := c.stallReasonOf(w, cycle)
		if r == w.curStall {
			continue
		}
		if w.curStall != probe.StallNone {
			h.Emit(probe.Event{Cycle: cycle, Comp: probe.CompCU, Node: c.node, Warp: w.id,
				Kind: probe.StallEnd, Reason: w.curStall, Arg: cycle - w.stallSince})
		}
		if r != probe.StallNone {
			w.stallSince = cycle
			h.Emit(probe.Event{Cycle: cycle, Comp: probe.CompCU, Node: c.node, Warp: w.id,
				Kind: probe.StallBegin, Reason: r})
		}
		w.curStall = r
	}
}

// CloseStalls ends any open stall intervals (called by the system driver
// at the end of the run so no stalled cycles are lost).
func (c *CU) CloseStalls(cycle int64, h *probe.Hub) {
	for _, w := range c.warps {
		if w.curStall != probe.StallNone {
			h.Emit(probe.Event{Cycle: cycle, Comp: probe.CompCU, Node: c.node, Warp: w.id,
				Kind: probe.StallEnd, Reason: w.curStall, Arg: cycle - w.stallSince})
			w.curStall = probe.StallNone
		}
	}
}
