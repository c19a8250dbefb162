package cu

import (
	"testing"

	"rats/internal/core"
	"rats/internal/sim/memsys"
	"rats/internal/trace"
)

// harness wires one CU to the memory side so scheduler behaviour can
// be observed cycle by cycle.
type harness struct {
	*memsys.Memory
	cu    *CU
	cycle int64
}

func newHarness(model core.Model) *harness { return newHarnessOn(memsys.ProtoGPU, model) }

func newHarnessOn(proto memsys.Protocol, model core.Model) *harness {
	h := &harness{Memory: memsys.NewMemory(memsys.Default(proto, model))}
	h.cu = New(&h.Env, 0, h.L1s[0])
	return h
}

func (h *harness) step() {
	h.cycle++
	h.Step(h.cycle)
	h.cu.Tick(h.cycle, false)
}

func (h *harness) runUntilDone(t *testing.T, bound int) {
	t.Helper()
	for i := 0; i < bound; i++ {
		h.step()
		if h.cu.Done() {
			return
		}
	}
	t.Fatalf("CU not done after %d cycles", bound)
}

func TestComputeOccupiesWarp(t *testing.T) {
	h := newHarness(core.DRF0)
	w := &trace.Warp{CU: 0}
	w.Compute(10).Compute(10)
	h.cu.AddWarp(w)
	h.runUntilDone(t, 100)
	if h.cycle < 20 {
		t.Errorf("two 10-cycle computes finished in %d cycles", h.cycle)
	}
	if h.Stats.CoreOps != 2 {
		t.Errorf("core ops = %d", h.Stats.CoreOps)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	h := newHarness(core.DRFrlx)
	for i := 0; i < 4; i++ {
		w := &trace.Warp{CU: 0}
		for j := 0; j < 5; j++ {
			w.Compute(0)
		}
		h.cu.AddWarp(w)
	}
	// 4 warps x 5 zero-latency computes at 1 issue/cycle = 20 cycles.
	h.runUntilDone(t, 60)
	if h.cycle > 25 {
		t.Errorf("round robin starved warps: %d cycles for 20 issues", h.cycle)
	}
}

func TestSCAtomicFencesWarp(t *testing.T) {
	// Under DRF0, a warp's atomic blocks its subsequent compute; issue
	// count over the first few cycles stays at 1.
	h := newHarness(core.DRF0)
	w := &trace.Warp{CU: 0}
	w.Atomic(core.Commutative, core.OpInc, 0, 0x4000)
	w.Compute(1)
	h.cu.AddWarp(w)
	for i := 0; i < 5; i++ {
		h.step()
	}
	if h.Stats.CoreOps != 1 {
		t.Errorf("fence leaked: %d ops issued while atomic outstanding", h.Stats.CoreOps)
	}
	h.runUntilDone(t, 2000)
}

func TestRelaxedAtomicsPipelined(t *testing.T) {
	h := newHarness(core.DRFrlx)
	w := &trace.Warp{CU: 0}
	w.Atomic(core.Commutative, core.OpInc, 0, 0x4000)
	w.Atomic(core.Commutative, core.OpInc, 0, 0x4040)
	h.cu.AddWarp(w)
	for i := 0; i < 4; i++ {
		h.step()
	}
	// Both relaxed atomics issue back to back (atomic MLP = 2).
	if h.Stats.CoreOps != 2 {
		t.Errorf("relaxed atomics did not pipeline: %d issued", h.Stats.CoreOps)
	}
	h.runUntilDone(t, 2000)
	if h.Read(0x4000) != 1 || h.Read(0x4040) != 1 {
		t.Error("atomics lost")
	}
}

func TestBarrierParksWarp(t *testing.T) {
	h := newHarness(core.DRFrlx)
	w := &trace.Warp{CU: 0}
	w.Barrier()
	w.Compute(1)
	h.cu.AddWarp(w)
	for i := 0; i < 10; i++ {
		h.step()
	}
	if h.cu.BarrierWaiters() != 1 {
		t.Fatalf("barrier waiters = %d", h.cu.BarrierWaiters())
	}
	if h.cu.Done() {
		t.Fatal("warp done despite parked at barrier")
	}
	h.cu.ReleaseBarrier()
	h.runUntilDone(t, 50)
	if h.cu.RetiredWarps() != 1 {
		t.Error("warp did not retire after barrier release")
	}
}

func TestNextWork(t *testing.T) {
	h := newHarness(core.DRFrlx)
	w := &trace.Warp{CU: 0}
	w.Compute(50)
	h.cu.AddWarp(w)
	h.step() // issues the compute; busy until cycle+50
	wake := h.cu.NextWork(h.cycle)
	if wake <= h.cycle || wake > h.cycle+51 {
		t.Errorf("NextWork = %d at cycle %d", wake, h.cycle)
	}
	// A memory-bound warp reports no self-wake: its Join is gated on the
	// outstanding load, and only the load's completion (an event) can
	// change that.
	h2 := newHarness(core.DRF0)
	w2 := &trace.Warp{CU: 0}
	w2.Load(core.Data, 0x1000)
	w2.Join()
	h2.cu.AddWarp(w2)
	h2.step()
	h2.step()
	if wk := h2.cu.NextWork(h2.cycle); wk >= 0 && !h2.cu.Done() {
		t.Errorf("memory-bound warp should not self-wake (wake=%d)", wk)
	}
	h2.runUntilDone(t, 2000)
}

func TestEmptyWarpRetiresImmediately(t *testing.T) {
	h := newHarness(core.DRF0)
	h.cu.AddWarp(&trace.Warp{CU: 0})
	if !h.cu.Done() {
		t.Fatal("empty warp should be done at birth")
	}
}
