package memsys

import (
	"fmt"

	"rats/internal/probe"
	"rats/internal/sim/cache"
	"rats/internal/sim/noc"
)

// txnIDOf extracts the transaction id from an MSHR waiter for probe
// attribution.
func txnIDOf(w cache.Waiter) int64 {
	if w.Txn != nil {
		return w.Txn.(*Txn).ID
	}
	return w.Store.Txn
}

// L1 is a per-node first-level cache controller. Protocol behaviour
// (GPU coherence vs. DeNovo) is selected by the configuration:
//
//	GPU:    write-through no-allocate; atomics forwarded to the home L2
//	        bank; acquire flash-invalidates everything.
//	DeNovo: writeback with ownership; stores and atomics obtain ownership
//	        and then perform locally; same-line requests coalesce in the
//	        MSHR; acquire invalidates only non-owned lines.
type L1 struct {
	env  *Env
	node int

	array *cache.Array
	mshr  *cache.MSHR
	sb    *cache.StoreBuffer

	// pendingAtomics tracks GPU-coherence atomics in flight to L2 banks.
	pendingAtomics map[int64]*Txn
	// atomicFree is the cycle the local (DeNovo) atomic unit frees up.
	atomicFree int64
	// pendingFwds queues ownership-yield requests that arrived while this
	// L1's own ownership request for the line was still in flight (the
	// L2 registry can hand ownership onward before the previous grant
	// lands). The yield is performed once ownership arrives and the
	// queued local operations have drained.
	pendingFwds map[uint64][]noc.Payload

	// waiterScratch and needOwnScratch are reusable buffers for draining
	// MSHR waiter lists in response handlers (steady state allocates
	// nothing).
	waiterScratch  []cache.Waiter
	needOwnScratch []cache.Waiter

	flushCbs []func(int64)
}

// newL1 builds the controller for a node.
func newL1(env *Env, node int) *L1 {
	return &L1{
		env:            env,
		node:           node,
		array:          cache.NewArray(env.Cfg.L1Sets, env.Cfg.L1Ways),
		mshr:           cache.NewMSHR(env.Cfg.L1MSHRs, env.Cfg.L1MSHRTargets),
		sb:             cache.NewStoreBuffer(env.Cfg.StoreBuffer),
		pendingAtomics: map[int64]*Txn{},
		pendingFwds:    map[uint64][]noc.Payload{},
	}
}

// AttachProbe routes this controller's structure events (MSHR, store
// buffer) to the hub; the controller's own events go through env.Probe.
func (l *L1) AttachProbe(h *probe.Hub) {
	l.mshr.AttachProbe(h, l.node)
	l.sb.AttachProbe(h, l.node)
}

// emitTxn reports a tag-lookup outcome (or similar per-transaction
// event) when a probe hub is attached.
func (l *L1) emitTxn(cycle int64, kind probe.Kind, txn *Txn) {
	if h := l.env.Probe; h != nil {
		h.Emit(probe.Event{Cycle: cycle, Comp: probe.CompL1, Node: l.node,
			Warp: txn.Warp, Kind: kind, Txn: txn.ID, Addr: txn.Addr})
	}
}

// complete finishes a transaction: the TxnComplete event closes its
// latency span, then the Done callback fires. The transaction must not
// be touched afterwards (its issuer may recycle it).
func (l *L1) complete(cycle int64, txn *Txn, value int64) {
	if h := l.env.Probe; h != nil {
		h.Emit(probe.Event{Cycle: cycle, Comp: probe.CompL1, Node: l.node,
			Warp: txn.Warp, Kind: probe.TxnComplete, Txn: txn.ID, Addr: txn.Addr})
	}
	txn.Done.TxnDone(txn, cycle, value)
}

func (l *L1) send(cycle int64, dst, flits int, txn int64, p noc.Payload) {
	l.env.Mesh.Send(cycle, noc.Message{Src: l.node, Dst: dst, Flits: flits, Txn: txn, Payload: p})
}

func (l *L1) home(line uint64) int { return l.env.Cfg.HomeNode(line) }

// mshrFull reports whether a new MSHR entry cannot be allocated at this
// cycle, honouring injected capacity-pressure windows. Pressure applies
// only at these issue boundaries; response handlers use the real capacity
// so in-flight protocol state never exceeds it.
func (l *L1) mshrFull(cycle int64) bool {
	if l.mshr.Full() {
		return true
	}
	if f := l.env.Fault; f != nil && l.mshr.Outstanding() >= f.MSHRCap(cycle, l.env.Cfg.L1MSHRs) {
		return true
	}
	return false
}

// sbFull reports whether the store buffer cannot accept another store at
// this cycle, honouring injected capacity-pressure windows.
func (l *L1) sbFull(cycle int64) bool {
	if l.sb.Full() {
		return true
	}
	if f := l.env.Fault; f != nil && l.sb.Len() >= f.SBCap(cycle, l.env.Cfg.StoreBuffer) {
		return true
	}
	return false
}

// insertLine fills a line, writing back an evicted owned victim.
func (l *L1) insertLine(cycle int64, line uint64, st cache.State, dirty bool) {
	v, evicted := l.array.Insert(line, st, dirty)
	if evicted && v.State == cache.Owned {
		l.env.Stats.Writebacks++
		if h := l.env.Probe; h != nil {
			h.Emit(probe.Event{Cycle: cycle, Comp: probe.CompL1, Node: l.node, Warp: -1,
				Kind: probe.Writeback, Addr: v.LineAddr * l.env.Cfg.LineSize})
		}
		l.send(cycle, l.home(v.LineAddr), l.env.Cfg.DataFlits, 0,
			noc.Payload{Kind: pkWbReq, Line: v.LineAddr, Requester: l.node})
	}
}

// TryIssue accepts one transaction from the compute unit. It returns
// false when a resource (MSHR, store buffer, atomic tracker) is full; the
// caller retries next cycle.
func (l *L1) TryIssue(cycle int64, txn *Txn) bool {
	cfg := l.env.Cfg
	st := l.env.Stats
	line := txn.Addr / cfg.LineSize

	switch txn.Kind {
	case TxnLoad:
		if l.array.Lookup(line) != cache.Invalid {
			st.L1Accesses++
			st.L1Hits++
			l.emitTxn(cycle, probe.CacheHit, txn)
			l.env.At(cycle+cfg.L1HitLat, Deferred{kind: deferCompleteRead, l1: l, txn: txn})
			return true
		}
		if e := l.mshr.Lookup(line); e != nil {
			if !l.mshr.CanCoalesce(e) {
				st.WarpIssueStalls++
				return false
			}
			st.L1Accesses++
			st.L1Misses++
			st.MSHRCoalesced++
			l.emitTxn(cycle, probe.CacheMiss, txn)
			l.mshr.Coalesce(e, cache.Waiter{Txn: txn}, txn.ID)
			return true
		}
		if l.mshrFull(cycle) {
			st.WarpIssueStalls++
			return false
		}
		st.L1Accesses++
		st.L1Misses++
		l.emitTxn(cycle, probe.CacheMiss, txn)
		e := l.mshr.Allocate(line, false, txn.ID)
		e.Waiters = append(e.Waiters, cache.Waiter{Txn: txn})
		l.send(cycle, l.home(line), cfg.ControlFlits, txn.ID,
			noc.Payload{Kind: pkReadReq, Line: line, Requester: l.node, Txn: txn.ID})
		return true

	case TxnStore:
		if l.sbFull(cycle) {
			st.StoreBufferFullStalls++
			return false
		}
		l.sb.Push(cache.SBEntry{Line: line, Txn: txn.ID})
		l.env.At(cycle+1, Deferred{kind: deferComplete, l1: l, txn: txn, value: 0})
		return true

	case TxnAtomic:
		if txn.LocalScope {
			// HRF work-group scope: the atomic is private to this CU
			// until the next global synchronization, so it performs at
			// the L1 with no coherence traffic under either protocol.
			st.L1Accesses++
			st.L1Hits++
			l.emitTxn(cycle, probe.CacheHit, txn)
			l.performLocalAtomic(cycle, txn)
			return true
		}
		if cfg.Protocol == ProtoGPU {
			atomicCap := cfg.L1MSHRs
			if f := l.env.Fault; f != nil {
				atomicCap = f.MSHRCap(cycle, atomicCap)
			}
			if len(l.pendingAtomics) >= atomicCap {
				st.WarpIssueStalls++
				return false
			}
			l.pendingAtomics[txn.ID] = txn
			l.send(cycle, l.home(line), cfg.ControlFlits, txn.ID, noc.Payload{
				Kind: pkAtomicReq, Line: txn.Addr, Requester: l.node,
				Txn: txn.ID, Op: uint8(txn.AOp), Operand: txn.Operand,
			})
			return true
		}
		// DeNovo: perform locally once owned.
		if l.array.Lookup(line) == cache.Owned {
			st.L1Accesses++
			st.L1Hits++
			l.emitTxn(cycle, probe.CacheHit, txn)
			l.performLocalAtomic(cycle, txn)
			return true
		}
		if e := l.mshr.Lookup(line); e != nil {
			if !l.mshr.CanCoalesce(e) {
				st.WarpIssueStalls++
				return false
			}
			st.L1Accesses++
			st.L1Misses++
			st.MSHRCoalesced++
			l.emitTxn(cycle, probe.CacheMiss, txn)
			l.mshr.Coalesce(e, cache.Waiter{Txn: txn}, txn.ID)
			e.WantOwnership = true
			return true
		}
		if l.mshrFull(cycle) {
			st.WarpIssueStalls++
			return false
		}
		st.L1Accesses++
		st.L1Misses++
		l.emitTxn(cycle, probe.CacheMiss, txn)
		l.emitTxn(cycle, probe.OwnershipRequest, txn)
		e := l.mshr.Allocate(line, true, txn.ID)
		e.Waiters = append(e.Waiters, cache.Waiter{Txn: txn})
		l.send(cycle, l.home(line), cfg.ControlFlits, txn.ID,
			noc.Payload{Kind: pkOwnReq, Line: line, Requester: l.node, Txn: txn.ID})
		return true
	}
	panic("memsys: unknown txn kind")
}

// performLocalAtomic books a DeNovo atomic into the L1 atomic unit and
// schedules its perform.
func (l *L1) performLocalAtomic(cycle int64, txn *Txn) {
	cfg := l.env.Cfg
	start := cycle + cfg.L1HitLat
	if l.atomicFree > start {
		start = l.atomicFree
	}
	done := start + cfg.L1AtomicOccupancy
	l.atomicFree = done
	l.env.At(done, Deferred{kind: deferLocalAtomic, l1: l, txn: txn})
}

// fireLocalAtomic runs the scheduled atomic through the value layer.
func (l *L1) fireLocalAtomic(cycle int64, txn *Txn) {
	l.env.Stats.Atomics++
	l.env.Stats.AtomicsAtL1++
	l.emitTxn(cycle, probe.AtomicPerformed, txn)
	old := l.env.ApplyAtomic(txn.Addr, txn.AOp, txn.Operand)
	l.complete(cycle, txn, old)
}

// yieldOwnership invalidates the local copy and grants ownership to the
// forwarded requester.
func (l *L1) yieldOwnership(cycle int64, m noc.Payload) {
	if l.array.Peek(m.Line) == cache.Owned {
		l.array.Invalidate(m.Line)
	}
	l.send(cycle+l.env.Cfg.L1HitLat, m.Requester, l.env.Cfg.DataFlits, m.Txn,
		noc.Payload{Kind: pkOwnResp, Line: m.Line, Txn: m.Txn})
}

// handle processes a delivered network message.
func (l *L1) handle(cycle int64, p noc.Payload) {
	cfg := l.env.Cfg
	st := l.env.Stats
	switch p.Kind {
	case pkReadResp:
		l.insertLine(cycle, p.Line, cache.Valid, false)
		waiters := l.mshr.Release(p.Line, l.waiterScratch[:0])
		needOwn := l.needOwnScratch[:0]
		for _, w := range waiters {
			if w.Txn != nil {
				if txn := w.Txn.(*Txn); txn.Kind == TxnLoad {
					l.env.At(cycle+1, Deferred{kind: deferCompleteRead, l1: l, txn: txn})
				} else {
					needOwn = append(needOwn, w)
				}
			} else {
				needOwn = append(needOwn, w)
			}
		}
		if len(needOwn) > 0 {
			// The read raced with writers that joined the entry: the line
			// arrived readable but the writers still need ownership. The
			// re-request is attributed to the first waiting writer.
			lead := txnIDOf(needOwn[0])
			e := l.mshr.Allocate(p.Line, true, lead)
			e.Waiters = append(e.Waiters, needOwn...)
			l.send(cycle, l.home(p.Line), cfg.ControlFlits, lead,
				noc.Payload{Kind: pkOwnReq, Line: p.Line, Requester: l.node, Txn: lead})
		}
		l.waiterScratch = waiters[:0]
		l.needOwnScratch = needOwn[:0]

	case pkOwnResp:
		l.insertLine(cycle, p.Line, cache.Owned, true)
		waiters := l.mshr.Release(p.Line, l.waiterScratch[:0])
		for _, w := range waiters {
			if w.Txn != nil {
				if txn := w.Txn.(*Txn); txn.Kind == TxnLoad {
					l.env.At(cycle+1, Deferred{kind: deferCompleteRead, l1: l, txn: txn})
				} else {
					l.performLocalAtomic(cycle, txn)
				}
			} else {
				l.sb.Ack()
			}
		}
		l.waiterScratch = waiters[:0]
		// Ownership was already handed onward by the L2 while our request
		// was in flight: yield after the queued local work drains.
		if fwds := l.pendingFwds[p.Line]; len(fwds) > 0 {
			delete(l.pendingFwds, p.Line)
			when := cycle + 1
			if l.atomicFree > when {
				when = l.atomicFree
			}
			l.env.At(when, deferCall(func(c int64) {
				for _, f := range fwds {
					l.yieldOwnership(c, f)
				}
			}))
		}

	case pkFwdRead:
		// Serve a remote reader from the owned copy; keep ownership.
		st.L1Accesses++
		l.send(cycle+cfg.L1HitLat, p.Requester, cfg.DataFlits, p.Txn,
			noc.Payload{Kind: pkReadResp, Line: p.Line, Txn: p.Txn})

	case pkFwdOwn:
		st.L1Accesses++
		if e := l.mshr.Lookup(p.Line); e != nil && e.WantOwnership && l.array.Peek(p.Line) != cache.Owned {
			// Our own ownership request is still in flight: defer the
			// yield until it lands (otherwise two L1s would both believe
			// they own the line).
			l.pendingFwds[p.Line] = append(l.pendingFwds[p.Line], p)
			break
		}
		l.yieldOwnership(cycle, p)

	case pkWtAck:
		l.sb.Ack()

	case pkAtomicResp:
		txn := l.pendingAtomics[p.Txn]
		if txn == nil {
			panic(fmt.Sprintf("memsys: node %d atomic response for unknown id %d", l.node, p.Txn))
		}
		delete(l.pendingAtomics, p.Txn)
		l.env.At(cycle+1, Deferred{kind: deferComplete, l1: l, txn: txn, value: p.Operand})

	default:
		panic("memsys: L1 received unknown message")
	}
}

// tick drains the store buffer (one entry per cycle) and fires flush
// callbacks once drained.
func (l *L1) tick(cycle int64) {
	cfg := l.env.Cfg
	st := l.env.Stats
	if entry, ok := l.sb.Peek(); ok {
		if cfg.Protocol == ProtoGPU {
			st.L1Accesses++
			l.sb.Pop()
			l.send(cycle, l.home(entry.Line), cfg.DataFlits, entry.Txn,
				noc.Payload{Kind: pkWtReq, Line: entry.Line, Requester: l.node})
		} else {
			switch {
			case l.array.Lookup(entry.Line) == cache.Owned:
				st.L1Accesses++
				st.L1Hits++
				l.array.SetDirty(entry.Line)
				l.sb.Pop()
				l.sb.Ack()
			case l.mshr.Lookup(entry.Line) != nil && l.mshr.CanCoalesce(l.mshr.Lookup(entry.Line)):
				st.L1Accesses++
				st.L1Misses++
				st.MSHRCoalesced++
				e := l.mshr.Lookup(entry.Line)
				l.mshr.Coalesce(e, cache.Waiter{Store: entry}, entry.Txn)
				e.WantOwnership = true
				l.sb.Pop()
			case !l.mshrFull(cycle):
				st.L1Accesses++
				st.L1Misses++
				me := l.mshr.Allocate(entry.Line, true, entry.Txn)
				me.Waiters = append(me.Waiters, cache.Waiter{Store: entry})
				l.sb.Pop()
				if h := l.env.Probe; h != nil {
					h.Emit(probe.Event{Cycle: cycle, Comp: probe.CompL1, Node: l.node, Warp: -1,
						Kind: probe.OwnershipRequest, Txn: entry.Txn, Addr: entry.Line * cfg.LineSize})
				}
				l.send(cycle, l.home(entry.Line), cfg.ControlFlits, entry.Txn,
					noc.Payload{Kind: pkOwnReq, Line: entry.Line, Requester: l.node, Txn: entry.Txn})
			default:
				// MSHR full: retry next cycle.
			}
		}
	}
	if len(l.flushCbs) > 0 && l.sb.Drained() {
		cbs := l.flushCbs
		l.flushCbs = nil
		for _, cb := range cbs {
			cb(cycle)
		}
	}
}

// Flush registers a callback fired when the store buffer has fully
// drained (a release action).
func (l *L1) Flush(cycle int64, cb func(int64)) {
	if l.sb.Drained() {
		cb(cycle)
		return
	}
	l.flushCbs = append(l.flushCbs, cb)
}

// SBDrained reports whether the store buffer is empty and acknowledged.
func (l *L1) SBDrained() bool { return l.sb.Drained() }

// nextWork returns the earliest cycle this controller acts on its own:
// the store buffer drains (or retries) one entry per cycle while it
// holds pending or unacked stores. Everything else the L1 does — MSHR
// fills, forwarded requests, flush completion — happens in response to
// deliveries or scheduled events, which are processed cycles already.
func (l *L1) nextWork(cycle int64) int64 {
	if !l.sb.Drained() {
		return cycle + 1
	}
	return -1
}

// SBFull reports whether the store buffer cannot accept another store
// (probe stall attribution).
func (l *L1) SBFull() bool { return l.sb.Full() }

// AcquireInvalidate performs the acquire-side self-invalidation: GPU
// coherence drops everything; DeNovo keeps owned lines.
func (l *L1) AcquireInvalidate() {
	st := l.env.Stats
	st.AcquireInvalidations++
	var keep func(cache.Line) bool
	if l.env.Cfg.Protocol == ProtoDeNovo {
		keep = func(ln cache.Line) bool { return ln.State == cache.Owned }
	}
	dropped := int64(l.array.FlashInvalidate(keep))
	st.LinesInvalidated += dropped
	if h := l.env.Probe; h != nil {
		h.Emit(probe.Event{Cycle: h.Now(), Comp: probe.CompL1, Node: l.node, Warp: -1,
			Kind: probe.AcquireInvalidation, Arg: dropped})
	}
}

// L1Diag is one controller's occupancy snapshot for liveness diagnostics
// and the always-on invariant checks.
type L1Diag struct {
	Node            int
	MSHROutstanding int
	MSHRCapacity    int
	SBQueued        int
	SBCapacity      int
	SBUnacked       int
	PendingAtomics  int
	PendingForwards int
	FlushWaiters    int
}

// Busy reports whether the controller holds any outstanding work.
func (d L1Diag) Busy() bool {
	return d.MSHROutstanding > 0 || d.SBQueued > 0 || d.SBUnacked > 0 ||
		d.PendingAtomics > 0 || d.PendingForwards > 0 || d.FlushWaiters > 0
}

// Diag snapshots the controller's occupancy.
func (l *L1) Diag() L1Diag {
	return L1Diag{
		Node:            l.node,
		MSHROutstanding: l.mshr.Outstanding(),
		MSHRCapacity:    l.env.Cfg.L1MSHRs,
		SBQueued:        l.sb.Len(),
		SBCapacity:      l.env.Cfg.StoreBuffer,
		SBUnacked:       l.sb.Unacked(),
		PendingAtomics:  len(l.pendingAtomics),
		PendingForwards: len(l.pendingFwds),
		FlushWaiters:    len(l.flushCbs),
	}
}

// OverCapacity reports whether the MSHR or the store buffer holds more
// entries than configured: the always-on occupancy invariant the driver
// checks every processed cycle (Diag has the details).
func (l *L1) OverCapacity() bool {
	return l.mshr.Outstanding() > l.env.Cfg.L1MSHRs || l.sb.Len() > l.env.Cfg.StoreBuffer
}

// Quiesced reports whether the controller has no outstanding work.
func (l *L1) Quiesced() bool {
	return l.mshr.Outstanding() == 0 && l.sb.Drained() &&
		len(l.pendingAtomics) == 0 && len(l.flushCbs) == 0 &&
		len(l.pendingFwds) == 0
}

// OwnsLine reports whether the L1 currently holds the line in Owned
// state (test introspection).
func (l *L1) OwnsLine(line uint64) bool { return l.array.Peek(line) == cache.Owned }

// HoldsLine reports whether the L1 holds the line in any readable state
// (test introspection).
func (l *L1) HoldsLine(line uint64) bool { return l.array.Peek(line) != cache.Invalid }
