// Package memsys implements the simulated memory system: per-node L1
// controllers under two coherence protocols (conventional GPU coherence
// and DeNovo), banked NUCA L2 slices with an atomic unit per bank, and a
// DRAM port per bank. Protocol behaviour follows Sections 2.1, 2.2, and 5
// of the RAts paper:
//
//   - GPU coherence: write-through no-allocate L1s, flash self-
//     invalidation on acquires, store-buffer flush on releases, and all
//     atomics performed at the L2 bank (no reuse, no coalescing).
//   - DeNovo: ownership (registration) obtained at the L2 for stores and
//     atomics, writeback caches, self-invalidation that spares owned
//     lines, atomics performed at the L1 once owned (reuse), and L1 MSHRs
//     that coalesce same-line requests (absorbing bursts of overlapped
//     atomics with a single ownership transfer).
package memsys

import (
	"rats/internal/core"
	"rats/internal/fault"
)

// Protocol selects the coherence protocol.
type Protocol uint8

const (
	// ProtoGPU is conventional software-driven GPU coherence.
	ProtoGPU Protocol = iota
	// ProtoDeNovo is the DeNovo hybrid protocol.
	ProtoDeNovo
)

func (p Protocol) String() string {
	if p == ProtoDeNovo {
		return "DeNovo"
	}
	return "GPU"
}

// Config holds every simulator parameter. Defaults reproduce Table 2 of
// the paper.
type Config struct {
	Protocol Protocol
	Model    core.Model

	// Topology.
	MeshWidth, MeshHeight int
	NumCUs                int // GPU compute units; CPU occupies the last node
	CPUNode               int

	// Geometry.
	LineSize uint64
	WordSize uint64

	// L1 (per node).
	L1Sets  int
	L1Ways  int
	L1MSHRs int
	// L1MSHRTargets bounds how many requests coalesce into one MSHR
	// entry before back-pressure.
	L1MSHRTargets int
	StoreBuffer   int
	L1HitLat      int64
	// L1AtomicOccupancy is the L1 atomic unit's cycles per operation
	// (DeNovo performs atomics at the L1 once owned).
	L1AtomicOccupancy int64

	// L2 (per bank; one bank per node).
	L2SetsPerBank int
	L2Ways        int
	L2Lat         int64
	// L2TagLat is the directory/registry lookup latency for forwarding
	// requests to a remote owner (no data-array access).
	L2TagLat int64
	// L2AtomicOccupancy is the bank atomic unit's cycles per operation.
	L2AtomicOccupancy int64

	// DRAM (per bank port).
	DRAMLat int64
	DRAMOcc int64

	// NoC.
	HopLat       int64
	ControlFlits int
	DataFlits    int

	// Core-side limits.
	MaxOutstandingPerWarp int
	// MaxOutstandingAtomicsPerWarp separately bounds atomic instructions
	// in flight per warp (relaxed atomics only; paired/unpaired are
	// gated by the consistency model).
	MaxOutstandingAtomicsPerWarp int
	CoalescerQueue               int
	CPUIssuePerCycle             int

	// MaxCycles aborts runaway simulations.
	MaxCycles int64
	// WatchdogWindow is the liveness watchdog's no-progress window: if no
	// forward progress (retired ops, cache/L2 accesses, atomics, message
	// sends, warp retirements) is observed for this many cycles, the run
	// aborts with a structured diagnostic dump. 0 disables the watchdog
	// (MaxCycles still guards, with the same diagnostics).
	WatchdogWindow int64

	// Faults, when non-nil, enables deterministic fault injection (see
	// package fault for the spec grammar); FaultSeed seeds the injector's
	// PRNG so the same spec+seed reproduce the same timing exactly.
	Faults    *fault.Spec
	FaultSeed int64
}

// Default returns the integrated CPU-GPU system of Table 2 under the
// given protocol and consistency model: 15 CUs + 1 CPU on a 4x4 mesh,
// 32 KB 8-way L1s, a 4 MB 16-bank NUCA L2, 128-entry store buffers and
// MSHRs. Latencies are chosen so that L2 hits land in the paper's
// 29–61-cycle range and remote L1 hits in the 35–83-cycle range,
// depending on mesh distance.
func Default(proto Protocol, model core.Model) Config {
	return Config{
		Protocol:   proto,
		Model:      model,
		MeshWidth:  4,
		MeshHeight: 4,
		NumCUs:     15,
		CPUNode:    15,

		LineSize: 64,
		WordSize: 4,

		L1Sets:            64, // 64 sets x 8 ways x 64B = 32 KB
		L1Ways:            8,
		L1MSHRs:           128,
		L1MSHRTargets:     8,
		StoreBuffer:       128,
		L1HitLat:          1,
		L1AtomicOccupancy: 1,

		L2SetsPerBank:     256, // 256 sets x 16 ways x 64B = 256 KB per bank
		L2Ways:            16,
		L2Lat:             25,
		L2TagLat:          4,
		L2AtomicOccupancy: 5,

		DRAMLat: 160,
		DRAMOcc: 20,

		HopLat:       2,
		ControlFlits: 1,
		DataFlits:    5,

		MaxOutstandingPerWarp:        4,
		MaxOutstandingAtomicsPerWarp: 2,
		CoalescerQueue:               64,
		CPUIssuePerCycle:             3, // the 2 GHz CPU vs 700 MHz GPU clock ratio

		MaxCycles:      200_000_000,
		WatchdogWindow: 1_000_000,
	}
}

// Discrete returns the discrete-GPU configuration used to reproduce
// Figure 1: a GPU whose atomics cross a slow bus to a distant L2 and
// whose SC atomics serialize the pipeline. Only GPU coherence applies.
func Discrete(model core.Model) Config {
	c := Default(ProtoGPU, model)
	c.L2Lat = 80
	c.L2AtomicOccupancy = 12
	c.DRAMLat = 350
	c.HopLat = 4
	return c
}

// Nodes returns the mesh node count.
func (c *Config) Nodes() int { return c.MeshWidth * c.MeshHeight }

// LineAddr converts a byte address to a line number.
func (c *Config) LineAddr(addr uint64) uint64 { return addr / c.LineSize }

// WordAddr aligns a byte address down to its word.
func (c *Config) WordAddr(addr uint64) uint64 { return addr / c.WordSize * c.WordSize }

// HomeNode returns the node whose L2 bank owns the line (address
// interleaved across all banks).
func (c *Config) HomeNode(line uint64) int { return int(line % uint64(c.Nodes())) }
