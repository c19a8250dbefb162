package system

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"rats/internal/core"
	"rats/internal/sim/memsys"
	"rats/internal/trace"
)

// allConfigs returns the paper's six configurations (GD0..DDR).
func allConfigs() map[string]memsys.Config {
	out := map[string]memsys.Config{}
	for _, p := range []memsys.Protocol{memsys.ProtoGPU, memsys.ProtoDeNovo} {
		for _, m := range core.Models() {
			name := "G"
			if p == memsys.ProtoDeNovo {
				name = "D"
			}
			switch m {
			case core.DRF0:
				name += "D0"
			case core.DRF1:
				name += "D1"
			default:
				name += "DR"
			}
			out[name] = memsys.Default(p, m)
		}
	}
	return out
}

func TestSingleLoad(t *testing.T) {
	for name, cfg := range allConfigs() {
		tr := trace.New("single-load")
		tr.AddWarp(0).Load(core.Data, 0x1000)
		res, err := RunTrace(cfg, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// A cold load misses L1 and L2: DRAM latency dominates.
		if res.Stats.Cycles < cfg.DRAMLat {
			t.Errorf("%s: %d cycles — cold miss should pay DRAM latency %d", name, res.Stats.Cycles, cfg.DRAMLat)
		}
		if res.Stats.Cycles > cfg.DRAMLat+200 {
			t.Errorf("%s: %d cycles — too slow for one load", name, res.Stats.Cycles)
		}
		if res.Stats.L1Misses != 1 || res.Stats.DRAMAccesses != 1 {
			t.Errorf("%s: misses=%d dram=%d, want 1/1", name, res.Stats.L1Misses, res.Stats.DRAMAccesses)
		}
	}
}

func TestLoadHitAfterMiss(t *testing.T) {
	for name, cfg := range allConfigs() {
		tr := trace.New("load-reuse")
		w := tr.AddWarp(0)
		w.Load(core.Data, 0x1000)
		w.Join() // register dependency: wait for the fill
		w.Load(core.Data, 0x1000)
		res, err := RunTrace(cfg, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.L1Hits < 1 {
			t.Errorf("%s: second load should hit (hits=%d misses=%d)", name, res.Stats.L1Hits, res.Stats.L1Misses)
		}
	}
}

func TestAtomicFunctionalAllConfigs(t *testing.T) {
	// 8 warps on different CUs, each incrementing the same counter 16
	// times: the final value must be exactly 128 under every protocol and
	// model — atomicity is protocol-independent.
	const warps, incs = 8, 16
	addr := uint64(0x4000)
	for name, cfg := range allConfigs() {
		tr := trace.New("inc-storm")
		for w := 0; w < warps; w++ {
			warp := tr.AddWarp(w % cfg.NumCUs)
			for i := 0; i < incs; i++ {
				warp.Atomic(core.Commutative, core.OpInc, 0, addr)
			}
		}
		tr.FinalCheck = func(read func(uint64) int64) error {
			if got := read(addr); got != warps*incs {
				return fmt.Errorf("counter = %d, want %d", got, warps*incs)
			}
			return nil
		}
		res, err := RunTrace(cfg, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.Atomics != warps*incs {
			t.Errorf("%s: %d atomics performed, want %d", name, res.Stats.Atomics, warps*incs)
		}
	}
}

func TestAtomicPlacementByProtocol(t *testing.T) {
	tr := func() *trace.Trace {
		tr := trace.New("placement")
		tr.AddWarp(0).Atomic(core.Commutative, core.OpInc, 0, 0x4000).
			Atomic(core.Commutative, core.OpInc, 0, 0x4000)
		return tr
	}
	res, err := RunTrace(memsys.Default(memsys.ProtoGPU, core.DRFrlx), tr())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.AtomicsAtL2 != 2 || res.Stats.AtomicsAtL1 != 0 {
		t.Errorf("GPU: atomics L2=%d L1=%d, want 2/0", res.Stats.AtomicsAtL2, res.Stats.AtomicsAtL1)
	}
	res, err = RunTrace(memsys.Default(memsys.ProtoDeNovo, core.DRFrlx), tr())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.AtomicsAtL1 != 2 || res.Stats.AtomicsAtL2 != 0 {
		t.Errorf("DeNovo: atomics L1=%d L2=%d, want 2/0", res.Stats.AtomicsAtL1, res.Stats.AtomicsAtL2)
	}
	if res.Stats.OwnershipRequests < 1 {
		t.Error("DeNovo: expected an ownership request")
	}
}

func TestConsistencyActionsByModel(t *testing.T) {
	// A paired atomic load invalidates; unpaired/relaxed do not.
	mk := func(class core.Class) *trace.Trace {
		tr := trace.New("inval")
		w := tr.AddWarp(0)
		w.Load(core.Data, 0x100) // warm a line
		w.AtomicLoad(class, 0x4000)
		return tr
	}
	for _, tc := range []struct {
		model     core.Model
		class     core.Class
		wantInval bool
	}{
		{core.DRF0, core.Unpaired, true}, // DRF0 strengthens to paired
		{core.DRF1, core.Unpaired, false},
		{core.DRF1, core.Paired, true},
		{core.DRFrlx, core.Commutative, false},
		{core.DRFrlx, core.Paired, true},
	} {
		cfg := memsys.Default(memsys.ProtoGPU, tc.model)
		res, err := RunTrace(cfg, mk(tc.class))
		if err != nil {
			t.Fatal(err)
		}
		got := res.Stats.AcquireInvalidations > 0
		if got != tc.wantInval {
			t.Errorf("%v/%v: invalidations=%d, wantInval=%v", tc.model, tc.class, res.Stats.AcquireInvalidations, tc.wantInval)
		}
	}
}

func TestReleaseFlushByModel(t *testing.T) {
	mk := func(class core.Class) *trace.Trace {
		tr := trace.New("flush")
		w := tr.AddWarp(0)
		w.Store(core.Data, 0x100)
		w.AtomicStore(class, 0x4000, 1)
		return tr
	}
	for _, tc := range []struct {
		model     core.Model
		class     core.Class
		wantFlush bool
	}{
		{core.DRF0, core.Commutative, true},
		{core.DRF1, core.Commutative, false},
		{core.DRFrlx, core.Commutative, false},
		{core.DRFrlx, core.Paired, true},
	} {
		cfg := memsys.Default(memsys.ProtoGPU, tc.model)
		res, err := RunTrace(cfg, mk(tc.class))
		if err != nil {
			t.Fatal(err)
		}
		got := res.Stats.ReleaseFlushes > 0
		if got != tc.wantFlush {
			t.Errorf("%v/%v: flushes=%d, wantFlush=%v", tc.model, tc.class, res.Stats.ReleaseFlushes, tc.wantFlush)
		}
	}
}

func TestBarrier(t *testing.T) {
	// Two warps on different CUs increment, barrier, then one reads.
	for name, cfg := range allConfigs() {
		tr := trace.New("barrier")
		a := tr.AddWarp(0)
		a.Atomic(core.Commutative, core.OpInc, 0, 0x4000)
		a.Barrier()
		a.AtomicLoad(core.Paired, 0x4000)
		b := tr.AddWarp(1)
		b.Atomic(core.Commutative, core.OpInc, 0, 0x4000)
		b.Barrier()
		tr.FinalCheck = func(read func(uint64) int64) error {
			if got := read(0x4000); got != 2 {
				return fmt.Errorf("counter = %d, want 2", got)
			}
			return nil
		}
		if _, err := RunTrace(cfg, tr); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestModelOrdering: weakening the model never slows a run down on an
// atomic-heavy workload — DRFrlx <= DRF1 <= DRF0 in cycles, for both
// protocols.
func TestModelOrdering(t *testing.T) {
	mk := func() *trace.Trace {
		tr := trace.New("atomic-heavy")
		for w := 0; w < 8; w++ {
			warp := tr.AddWarp(w)
			for i := 0; i < 32; i++ {
				warp.Atomic(core.Commutative, core.OpInc, 0, uint64(0x4000+16*(i%8)))
			}
		}
		return tr
	}
	for _, proto := range []memsys.Protocol{memsys.ProtoGPU, memsys.ProtoDeNovo} {
		var cycles [3]int64
		for i, m := range core.Models() {
			res, err := RunTrace(memsys.Default(proto, m), mk())
			if err != nil {
				t.Fatal(err)
			}
			cycles[i] = res.Stats.Cycles
		}
		if !(cycles[2] <= cycles[1] && cycles[1] <= cycles[0]) {
			t.Errorf("%v: cycles DRF0=%d DRF1=%d DRFrlx=%d not monotone",
				proto, cycles[0], cycles[1], cycles[2])
		}
		if cycles[2] >= cycles[0] {
			t.Errorf("%v: DRFrlx (%d) should beat DRF0 (%d) on atomic-heavy code",
				proto, cycles[2], cycles[0])
		}
	}
}

func TestCPUThread(t *testing.T) {
	cfg := memsys.Default(memsys.ProtoDeNovo, core.DRFrlx)
	tr := trace.New("cpu")
	tr.AddCPUThread().AtomicStore(core.Paired, 0x4000, 7)
	tr.AddWarp(0).AtomicLoad(core.Paired, 0x4000)
	res, err := RunTrace(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Read(0x4000) != 7 {
		t.Errorf("CPU store lost: %d", res.Read(0x4000))
	}
}

func TestEnergyNonZero(t *testing.T) {
	cfg := memsys.Default(memsys.ProtoGPU, core.DRF0)
	tr := trace.New("e")
	tr.AddWarp(0).Load(core.Data, 0x1000).Compute(10)
	res, err := RunTrace(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy.Total() <= 0 || res.Energy.L1 <= 0 || res.Energy.NoC <= 0 {
		t.Errorf("energy breakdown degenerate: %+v", res.Energy)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *trace.Trace {
		tr := trace.New("det")
		for w := 0; w < 6; w++ {
			warp := tr.AddWarp(w % 3)
			for i := 0; i < 20; i++ {
				warp.Atomic(core.Commutative, core.OpAdd, int64(w), uint64(0x4000+8*(i%4)))
				warp.Load(core.Data, uint64(0x10000+64*i))
			}
		}
		return tr
	}
	cfg := memsys.Default(memsys.ProtoDeNovo, core.DRFrlx)
	r1, err := RunTrace(cfg, mk())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunTrace(cfg, mk())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats != r2.Stats {
		t.Errorf("non-deterministic stats:\n%v\nvs\n%v", r1.Stats.String(), r2.Stats.String())
	}
}

// TestResultDoesNotPinMachine: a Result still answers Read once its
// machine has been collected, so a sweep that keeps its results does not
// keep its machines alive.
func TestResultDoesNotPinMachine(t *testing.T) {
	const addr = 0x4004
	tr := trace.New("one-add")
	tr.AddWarp(0).Atomic(core.Commutative, core.OpAdd, 5, addr)
	s := New(memsys.Default(memsys.ProtoGPU, core.DRF0))
	freed := make(chan struct{})
	runtime.SetFinalizer(s, func(*System) { close(freed) })
	if err := s.Load(tr); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	s = nil
	collected := false
	for i := 0; i < 50 && !collected; i++ {
		runtime.GC()
		select {
		case <-freed:
			collected = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !collected {
		t.Fatal("the machine stayed reachable from its Result")
	}
	if got := res.Read(addr + 1); got != 5 {
		t.Errorf("Read after collection = %d, want 5", got)
	}
}
