package memsys

import (
	"rats/internal/core"
	"rats/internal/probe"
	"rats/internal/sim/cache"
	"rats/internal/sim/noc"
)

// L2Bank is one NUCA slice of the shared last-level cache, co-located
// with a node. It serves line reads, ownership registrations (DeNovo),
// write-throughs (GPU coherence), and hosts the bank atomic unit that
// performs GPU-coherence atomics. Each bank has a private DRAM port with
// fixed latency and bounded bandwidth.
type L2Bank struct {
	env  *Env
	node int

	array *cache.Array
	// registry maps a line to the L1 node that owns (is registered for)
	// it under DeNovo; absent means the L2 owns the line.
	registry map[uint64]int

	// atomicFree is the cycle at which the bank's atomic unit frees up.
	atomicFree int64
	// dramFree is the cycle at which the DRAM port frees up.
	dramFree int64
}

// newL2Bank builds the bank at the given node.
func newL2Bank(env *Env, node int) *L2Bank {
	return &L2Bank{
		env:      env,
		node:     node,
		array:    cache.NewArray(env.Cfg.L2SetsPerBank, env.Cfg.L2Ways),
		registry: map[uint64]int{},
	}
}

// Owner returns the registered owner of a line, or -1.
func (b *L2Bank) Owner(line uint64) int {
	if o, ok := b.registry[line]; ok {
		return o
	}
	return -1
}

// emit reports a bank event when a probe hub is attached.
func (b *L2Bank) emit(cycle int64, kind probe.Kind, txn int64, addr uint64, arg int64) {
	if h := b.env.Probe; h != nil {
		h.Emit(probe.Event{Cycle: cycle, Comp: probe.CompL2, Node: b.node, Warp: -1,
			Kind: kind, Txn: txn, Addr: addr, Arg: arg})
	}
}

// serveLine ensures the line is present in the bank, returning the cycle
// at which its data is available. Misses go to the bank's DRAM port. The
// DRAMAccess event marks the end of the bank pipeline so the span layer
// can split bank time from memory (port queueing + access) time.
func (b *L2Bank) serveLine(cycle int64, line uint64, dirty bool, txn int64) int64 {
	st := b.env.Stats
	if b.array.Lookup(line) != cache.Invalid {
		st.L2Hits++
		b.emit(cycle, probe.CacheHit, txn, line*b.env.Cfg.LineSize, 0)
		if dirty {
			b.array.SetDirty(line)
		}
		return cycle + b.env.Cfg.L2Lat
	}
	st.L2Misses++
	b.emit(cycle, probe.CacheMiss, txn, line*b.env.Cfg.LineSize, 0)
	st.DRAMAccesses++
	b.emit(cycle+b.env.Cfg.L2Lat, probe.DRAMAccess, txn, line*b.env.Cfg.LineSize, 0)
	start := cycle + b.env.Cfg.L2Lat
	if b.dramFree > start {
		start = b.dramFree
	}
	b.dramFree = start + b.env.Cfg.DRAMOcc
	ready := start + b.env.Cfg.DRAMLat
	if v, evicted := b.array.Insert(line, cache.Valid, dirty); evicted && v.Dirty {
		// Dirty victim: one more DRAM write (bandwidth only).
		st.DRAMAccesses++
		b.dramFree += b.env.Cfg.DRAMOcc
	}
	return ready
}

func (b *L2Bank) send(cycle int64, dst, flits int, txn int64, p noc.Payload) {
	b.env.Mesh.Send(cycle, noc.Message{Src: b.node, Dst: dst, Flits: flits, Txn: txn, Payload: p})
}

// handle processes one delivered network request at the given cycle.
func (b *L2Bank) handle(cycle int64, p noc.Payload) {
	if f := b.env.Fault; f != nil {
		if until := f.L2StallUntil(cycle); until > cycle {
			// Injected bank stall storm: the bank is unavailable until the
			// window ends; deferral preserves arrival order (same-cycle
			// events run FIFO), so this perturbs timing only.
			b.env.At(until, deferCall(func(c int64) { b.handle(c, p) }))
			return
		}
	}
	cfg := b.env.Cfg
	st := b.env.Stats
	switch p.Kind {
	case pkReadReq:
		st.L2Accesses++
		if owner := b.Owner(p.Line); cfg.Protocol == ProtoDeNovo && owner >= 0 && owner != p.Requester {
			// Three-hop: ask the owning L1 to supply the requester.
			st.RemoteL1Forwards++
			b.emit(cycle, probe.RemoteForward, p.Txn, p.Line*cfg.LineSize, int64(owner))
			b.send(cycle+cfg.L2TagLat, owner, cfg.ControlFlits, p.Txn,
				noc.Payload{Kind: pkFwdRead, Line: p.Line, Requester: p.Requester, Txn: p.Txn})
			return
		}
		ready := b.serveLine(cycle, p.Line, false, p.Txn)
		b.send(ready, p.Requester, cfg.DataFlits, p.Txn,
			noc.Payload{Kind: pkReadResp, Line: p.Line, Txn: p.Txn})

	case pkOwnReq:
		st.L2Accesses++
		st.OwnershipRequests++
		prev := b.Owner(p.Line)
		b.registry[p.Line] = p.Requester
		if prev >= 0 && prev != p.Requester {
			st.RemoteL1Forwards++
			b.emit(cycle, probe.RemoteForward, p.Txn, p.Line*cfg.LineSize, int64(prev))
			b.send(cycle+cfg.L2TagLat, prev, cfg.ControlFlits, p.Txn,
				noc.Payload{Kind: pkFwdOwn, Line: p.Line, Requester: p.Requester, Txn: p.Txn})
			return
		}
		b.emit(cycle, probe.OwnershipGrant, p.Txn, p.Line*cfg.LineSize, int64(p.Requester))
		ready := b.serveLine(cycle, p.Line, false, p.Txn)
		b.send(ready, p.Requester, cfg.DataFlits, p.Txn,
			noc.Payload{Kind: pkOwnResp, Line: p.Line, Txn: p.Txn})

	case pkWtReq:
		st.L2Accesses++
		ready := b.serveLine(cycle, p.Line, true, 0)
		b.send(ready, p.Requester, cfg.ControlFlits, 0,
			noc.Payload{Kind: pkWtAck, Line: p.Line})

	case pkWbReq:
		st.L2Accesses++
		if b.Owner(p.Line) == p.Requester {
			delete(b.registry, p.Line)
		}
		b.serveLine(cycle, p.Line, true, 0)

	case pkAtomicReq:
		// Payload carries the word address in Line for atomics.
		st.L2Accesses++
		ready := b.serveLine(cycle, p.Line/cfg.LineSize, true, p.Txn)
		start := ready
		if b.atomicFree > start {
			start = b.atomicFree
		}
		done := start + cfg.L2AtomicOccupancy
		b.atomicFree = done
		b.env.At(done, Deferred{kind: deferL2Atomic, l2: b, pkt: p})

	default:
		panic("memsys: L2 bank received unknown message")
	}
}

// fireAtomic performs a GPU-coherence atomic at the bank atomic unit and
// replies with the old value.
func (b *L2Bank) fireAtomic(cycle int64, p noc.Payload) {
	st := b.env.Stats
	st.Atomics++
	st.AtomicsAtL2++
	b.emit(cycle, probe.AtomicPerformed, p.Txn, p.Line, p.Txn)
	old := b.env.ApplyAtomic(p.Line, core.AtomicOp(p.Op), p.Operand)
	b.send(cycle, p.Requester, b.env.Cfg.ControlFlits, p.Txn,
		noc.Payload{Kind: pkAtomicResp, Txn: p.Txn, Operand: old})
}
