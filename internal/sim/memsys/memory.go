package memsys

import (
	"rats/internal/fault"
	"rats/internal/probe"
	"rats/internal/sim/noc"
	"rats/internal/stats"
)

// Memory is the memory side of one machine: the mesh, an L1 controller
// and an L2 bank per node, and the Env they share, whose At is the
// clock their deferred work runs on. The system driver and the
// protocol-level test rigs drive it the same way: Step once per
// processed cycle, NextWork for the next cycle it acts on its own, Idle
// to tell when it has settled.
type Memory struct {
	Env
	// L1s holds node n's L1 controller at index n (each compute unit
	// issues to its own).
	L1s []*L1
	l2s []*L2Bank
	// cfg and stats back Env.Cfg and Env.Stats.
	cfg   Config
	stats stats.Stats
}

// NewMemory assembles the memory side for a configuration. When
// cfg.Faults is set it also builds the fault injector (Env.Fault) and
// arms the mesh with it.
func NewMemory(cfg Config) *Memory {
	m := &Memory{cfg: cfg}
	m.Env = Env{
		Cfg:    &m.cfg,
		Mesh:   noc.NewMesh(cfg.MeshWidth, cfg.MeshHeight, cfg.HopLat, &m.stats),
		Stats:  &m.stats,
		Values: map[uint64]int64{},
	}
	m.Mesh.SetPayloadNamer(payloadName)
	if cfg.Faults != nil {
		m.Fault = fault.NewInjector(cfg.Faults, cfg.FaultSeed)
		m.Mesh.SetFault(m.Fault)
	}
	for n := 0; n < cfg.Nodes(); n++ {
		m.L1s = append(m.L1s, newL1(&m.Env, n))
		m.l2s = append(m.l2s, newL2Bank(&m.Env, n))
	}
	return m
}

// AttachProbe routes every memory-side emission point to the hub (nil
// detaches).
func (m *Memory) AttachProbe(h *probe.Hub) {
	m.Probe = h
	m.Mesh.AttachProbe(h)
	for _, l1 := range m.L1s {
		l1.AttachProbe(h)
	}
}

// Step processes one cycle of the memory side, in a fixed order: the
// continuations due by cycle fire in scheduling order, then the messages
// arriving by cycle are delivered (requests to the destination's L2
// bank, everything else to its L1), then each L1 drains at most one
// store-buffer entry and runs its flush callbacks once drained.
func (m *Memory) Step(cycle int64) {
	m.now = cycle
	for d, ok := m.events.Pop(cycle); ok; d, ok = m.events.Pop(cycle) {
		d.fire(cycle)
	}
	m.Mesh.Tick(cycle, m.deliver)
	for _, l1 := range m.L1s {
		l1.tick(cycle)
	}
}

func (m *Memory) deliver(msg noc.Message) {
	if isL2Request(msg.Payload) {
		m.l2s[msg.Dst].handle(m.now, msg.Payload)
		return
	}
	m.L1s[msg.Dst].handle(m.now, msg.Payload)
}

// NextWork is the memory side's wake hint after processing cycle: the
// earliest of the next scheduled continuation, the next message arrival
// and the next store-buffer drain, or -1 when none is pending. An L2 bank
// never acts on its own — only on a delivery or a continuation, both
// counted here — so banks report nothing.
func (m *Memory) NextWork(cycle int64) int64 {
	next := m.events.Next()
	if t := m.Mesh.NextWork(cycle); t >= 0 && (next < 0 || t < next) {
		next = t
	}
	for _, l1 := range m.L1s {
		if t := l1.nextWork(cycle); t >= 0 && (next < 0 || t < next) {
			next = t
		}
	}
	return next
}

// Idle reports whether the memory side has settled: no continuation
// scheduled, no message in flight, and every L1 quiesced.
func (m *Memory) Idle() bool {
	if m.events.Len() > 0 || m.Mesh.Pending() {
		return false
	}
	for _, l1 := range m.L1s {
		if !l1.Quiesced() {
			return false
		}
	}
	return true
}

// PendingEvents returns the number of scheduled continuations that have
// not fired (liveness diagnostics).
func (m *Memory) PendingEvents() int { return m.events.Len() }
