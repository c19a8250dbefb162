// Package noc models the on-chip interconnect of the simulated system: a
// 2D mesh with XY dimension-order routing (the paper uses a Garnet 4x4
// mesh with one CU or CPU core per node). The model is link-accurate at
// message granularity: each directed link serializes at one flit per
// cycle, each hop adds router+link latency, and flit-hops are counted for
// the energy model.
package noc

import (
	"fmt"
	"sort"

	"rats/internal/fault"
	"rats/internal/probe"
	"rats/internal/sim/sched"
	"rats/internal/stats"
)

// Payload is the by-value body of a Message. The mesh treats it as opaque
// packet bits: the endpoints (package memsys) define the Kind codes and
// the meaning of each field, and register a namer for diagnostics. A
// fixed-shape struct rather than an interface keeps Send/Tick free of
// per-message boxing allocations on the simulator's hottest path.
type Payload struct {
	// Kind is the endpoint-defined message type code (0 is reserved for
	// "no payload").
	Kind uint8
	// Op is an endpoint-defined operation code (e.g. an atomic op).
	Op uint8
	// Requester is the node a response should be routed back to.
	Requester int
	// Line is the address the message concerns (line or word granular,
	// per Kind).
	Line uint64
	// Txn is the endpoint-level transaction or request id.
	Txn int64
	// Operand carries a kind-specific value (atomic operand or result).
	Operand int64
}

// Message is one network transfer.
type Message struct {
	Src, Dst int
	// Flits is the message size (1 for control, DataFlits for a cache
	// line plus header).
	Flits int
	// Txn is the originating memory transaction's id for latency-span
	// attribution, or 0 (e.g. writebacks, store-buffer drains).
	Txn int64
	// Payload is delivered to the destination's receiver.
	Payload Payload
}

// Output directions of a router. A node's directed outgoing links are
// the numLinkDirs slots at node*numLinkDirs in Mesh.nextFree.
const (
	dirXPlus = iota
	dirXMinus
	dirYPlus
	dirYMinus
	numLinkDirs
)

// inflight is a message on its way; the inbox queue keys it by its
// arrival cycle.
type inflight struct {
	seq int64 // message id for probe events
	msg Message
	// dup marks an injected duplicate: it occupies links like the
	// original but is dropped at delivery (endpoints dedupe).
	dup bool
}

// Mesh is the interconnect.
type Mesh struct {
	// Width and Height are the mesh dimensions (nodes = Width*Height).
	Width, Height int
	// HopLatency is the per-hop pipeline latency in cycles.
	HopLatency int64

	nextFree []int64 // earliest cycle each directed link is free, by (node, direction)
	inbox    sched.Queue[inflight]
	seq      int64 // id of the last message sent (probe events pair by it)
	stats    *stats.Stats
	probe    *probe.Hub
	fault    *fault.Injector
	// kindName renders a payload's Kind for diagnostics (set by the
	// endpoint package, which defines the codes).
	kindName func(Payload) string
}

// SetPayloadNamer registers the diagnostic renderer for payload kinds.
func (m *Mesh) SetPayloadNamer(fn func(Payload) string) { m.kindName = fn }

// AttachProbe routes enqueue/hop/deliver events to the hub.
func (m *Mesh) AttachProbe(h *probe.Hub) { m.probe = h }

// SetFault enables fault injection on this mesh (delay jitter,
// duplication, reordering bursts).
func (m *Mesh) SetFault(f *fault.Injector) { m.fault = f }

// NewMesh builds a width x height mesh.
func NewMesh(width, height int, hopLatency int64, st *stats.Stats) *Mesh {
	m := &Mesh{
		Width: width, Height: height, HopLatency: hopLatency,
		nextFree: make([]int64, width*height*numLinkDirs),
		stats:    st,
	}
	return m
}

// Nodes returns the node count.
func (m *Mesh) Nodes() int { return m.Width * m.Height }

func (m *Mesh) xy(node int) (x, y int) { return node % m.Width, node / m.Width }

// Route returns the XY path from src to dst as a sequence of node IDs
// (excluding src, including dst).
func (m *Mesh) Route(src, dst int) []int {
	if src < 0 || dst < 0 || src >= m.Nodes() || dst >= m.Nodes() {
		panic(fmt.Sprintf("noc: route %d -> %d out of range", src, dst))
	}
	var path []int
	x, y := m.xy(src)
	dx, dy := m.xy(dst)
	cur := src
	for x != dx {
		if x < dx {
			x++
		} else {
			x--
		}
		cur = y*m.Width + x
		path = append(path, cur)
	}
	for y != dy {
		if y < dy {
			y++
		} else {
			y--
		}
		cur = y*m.Width + x
		path = append(path, cur)
	}
	return path
}

// Hops returns the Manhattan distance between two nodes.
func (m *Mesh) Hops(src, dst int) int {
	x, y := m.xy(src)
	dx, dy := m.xy(dst)
	abs := func(v int) int {
		if v < 0 {
			return -v
		}
		return v
	}
	return abs(x-dx) + abs(y-dy)
}

// Send injects a message at the given cycle. Delivery time accounts for
// per-hop latency and per-link serialization (one flit per cycle per
// link); contention delays are modelled by tracking when each link next
// frees up.
func (m *Mesh) Send(cycle int64, msg Message) {
	if msg.Flits <= 0 {
		msg.Flits = 1
	}
	m.seq++
	if h := m.probe; h != nil {
		h.Emit(probe.Event{Cycle: cycle, Comp: probe.CompNoC, Node: msg.Src, Warp: -1,
			Kind: probe.NoCEnqueue, Txn: msg.Txn, Msg: m.seq, Arg: int64(msg.Dst), Aux: int64(msg.Flits)})
	}
	t := m.route(cycle, msg, m.seq)
	if f := m.fault; f != nil {
		if d := f.MessageDelay(); d > 0 {
			t += d
			if h := m.probe; h != nil {
				h.Emit(probe.Event{Cycle: cycle, Comp: probe.CompNoC, Node: msg.Src, Warp: -1,
					Kind: probe.FaultInjected, Txn: msg.Txn, Msg: m.seq, Arg: 0, Aux: d})
			}
		}
	}
	m.stats.NoCMessages++
	m.inbox.Push(t, inflight{seq: m.seq, msg: msg})
	if f := m.fault; f != nil && f.Duplicate() {
		// The duplicate traverses (and occupies) the links like a real
		// message — a pure timing perturbation — and is dropped at
		// delivery, as if endpoints deduplicated by sequence number.
		m.seq++
		td := m.route(cycle, msg, m.seq)
		m.stats.NoCMessages++
		m.inbox.Push(td, inflight{seq: m.seq, msg: msg, dup: true})
		if h := m.probe; h != nil {
			h.Emit(probe.Event{Cycle: cycle, Comp: probe.CompNoC, Node: msg.Src, Warp: -1,
				Kind: probe.FaultInjected, Txn: msg.Txn, Msg: m.seq, Arg: 1})
		}
	}
}

// route books the message across its XY path, advancing per-link
// free times, and returns the delivery cycle. The walk mirrors Route but
// is inlined hop by hop: materializing the path as a slice allocated on
// every message, which dominated the simulator's allocation profile.
func (m *Mesh) route(cycle int64, msg Message, seq int64) int64 {
	if msg.Src < 0 || msg.Dst < 0 || msg.Src >= m.Nodes() || msg.Dst >= m.Nodes() {
		panic(fmt.Sprintf("noc: route %d -> %d out of range", msg.Src, msg.Dst))
	}
	t := cycle
	if msg.Src != msg.Dst {
		x, y := m.xy(msg.Src)
		dx, dy := m.xy(msg.Dst)
		prev := msg.Src
		for x != dx || y != dy {
			var dir int
			switch {
			case x < dx:
				x++
				dir = dirXPlus
			case x > dx:
				x--
				dir = dirXMinus
			case y < dy:
				y++
				dir = dirYPlus
			default:
				y--
				dir = dirYMinus
			}
			next := y*m.Width + x
			l := prev*numLinkDirs + dir
			depart := t
			if nf := m.nextFree[l]; nf > depart {
				depart = nf
			}
			m.nextFree[l] = depart + int64(msg.Flits)
			t = depart + m.HopLatency
			m.stats.NoCFlitHops += int64(msg.Flits)
			if h := m.probe; h != nil {
				h.Emit(probe.Event{Cycle: t, Comp: probe.CompNoC, Node: next, Warp: -1,
					Kind: probe.NoCHop, Txn: msg.Txn, Msg: seq, Aux: int64(msg.Flits)})
			}
			prev = next
		}
	} else {
		// Local delivery still pays one router traversal.
		t += m.HopLatency
	}
	return t
}

// Tick hands every message whose arrival time has been reached to
// deliver, in (arrival, send order). A message sent for this cycle while
// Tick runs (zero hop latency) is delivered in the same Tick.
func (m *Mesh) Tick(cycle int64, deliver func(Message)) {
	for f, ok := m.inbox.Pop(cycle); ok; f, ok = m.inbox.Pop(cycle) {
		if f.dup {
			// Injected duplicate: consumed bandwidth, dropped here.
			continue
		}
		if h := m.probe; h != nil {
			h.Emit(probe.Event{Cycle: cycle, Comp: probe.CompNoC, Node: f.msg.Dst, Warp: -1,
				Kind: probe.NoCDeliver, Txn: f.msg.Txn, Msg: f.seq, Arg: int64(f.msg.Src)})
		}
		deliver(f.msg)
	}
}

// Pending reports whether messages are still in flight.
func (m *Mesh) Pending() bool { return m.inbox.Len() > 0 }

// NextWork is the mesh's wake hint: delivering in-flight messages is its
// only self-driven work, so the earliest arrival is the next cycle it
// needs to be ticked (-1 when nothing is in flight).
func (m *Mesh) NextWork(cycle int64) int64 { return m.inbox.Next() }

// MsgDiag is one in-flight message's snapshot for liveness diagnostics.
type MsgDiag struct {
	Src, Dst int
	Flits    int
	Arrival  int64
	// Payload is the payload's rendered name (e.g. memsys.readReq), via
	// the registered namer, or "kind(N)" when none is set.
	Payload string
	Dup     bool
}

// InFlight snapshots every undelivered message, soonest arrival first.
func (m *Mesh) InFlight() []MsgDiag {
	out := make([]MsgDiag, 0, m.inbox.Len())
	m.inbox.Each(func(arrival int64, f *inflight) {
		name := ""
		if m.kindName != nil {
			name = m.kindName(f.msg.Payload)
		}
		if name == "" {
			name = fmt.Sprintf("kind(%d)", f.msg.Payload.Kind)
		}
		out = append(out, MsgDiag{
			Src: f.msg.Src, Dst: f.msg.Dst, Flits: f.msg.Flits,
			Arrival: arrival, Payload: name, Dup: f.dup,
		})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Arrival < out[j].Arrival })
	return out
}
