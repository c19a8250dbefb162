package memsys

import (
	"testing"

	"rats/internal/core"
)

// rig drives the memory side without the CU layer, so protocol corner
// cases can be exercised directly.
type rig struct {
	*Memory
	cycle int64
}

func newRig(proto Protocol) *rig {
	return &rig{Memory: NewMemory(Default(proto, core.DRFrlx))}
}

// run steps until everything quiesces (or the bound trips).
func (r *rig) run(t *testing.T, bound int64) {
	t.Helper()
	for i := int64(0); i < bound; i++ {
		r.cycle++
		r.Step(r.cycle)
		if r.Idle() {
			return
		}
	}
	t.Fatalf("rig did not quiesce within %d cycles", bound)
}

// atomicTxn builds an increment transaction, counting completions.
func atomicTxn(addr uint64, done *int) *Txn {
	return &Txn{
		Kind: TxnAtomic, Addr: addr, Class: core.Commutative, AOp: core.OpInc,
		Done: DoneFunc(func(int64, int64) { *done++ }),
	}
}

// TestDeferredOwnershipYield reproduces the registry race: three L1s
// request ownership of the same line nearly simultaneously; the middle
// one receives a yield request before its own grant has arrived and must
// defer. Afterwards exactly one L1 owns the line and all atomics have
// performed.
func TestDeferredOwnershipYield(t *testing.T) {
	r := newRig(ProtoDeNovo)
	const addr = 0x4000
	line := addr / r.Cfg.LineSize
	done := 0
	// Back-to-back issues from three different nodes.
	for _, node := range []int{3, 7, 9} {
		if !r.L1s[node].TryIssue(r.cycle, atomicTxn(addr, &done)) {
			t.Fatal("issue rejected")
		}
	}
	r.run(t, 2000)
	if done != 3 {
		t.Fatalf("completed %d atomics, want 3", done)
	}
	if got := r.Read(addr); got != 3 {
		t.Fatalf("value = %d, want 3", got)
	}
	owners := 0
	for _, l1 := range r.L1s {
		if l1.OwnsLine(line) {
			owners++
		}
	}
	if owners != 1 {
		t.Fatalf("%d L1s own the line, want exactly 1", owners)
	}
	if r.Stats.RemoteL1Forwards < 1 {
		t.Error("expected forwarded ownership")
	}
}

// TestReadThenWriteUpgrade: a read miss outstanding when a store joins
// the same MSHR entry forces a second, ownership-granting request.
func TestReadThenWriteUpgrade(t *testing.T) {
	r := newRig(ProtoDeNovo)
	const addr = 0x9000
	line := addr / r.Cfg.LineSize
	loads, atomics := 0, 0
	r.L1s[0].TryIssue(r.cycle, &Txn{
		Kind: TxnLoad, Addr: addr, Class: core.Data, AOp: core.OpLoad,
		Done: DoneFunc(func(int64, int64) { loads++ }),
	})
	// Same cycle: an atomic to the same line joins the read entry.
	if !r.L1s[0].TryIssue(r.cycle, atomicTxn(addr, &atomics)) {
		t.Fatal("atomic join rejected")
	}
	r.run(t, 3000)
	if loads != 1 || atomics != 1 {
		t.Fatalf("loads=%d atomics=%d", loads, atomics)
	}
	if !r.L1s[0].OwnsLine(line) {
		t.Error("line should end up owned after the upgrade")
	}
	if r.Stats.OwnershipRequests < 1 {
		t.Error("upgrade must issue an ownership request")
	}
	if r.Read(addr) != 1 {
		t.Errorf("value = %d", r.Read(addr))
	}
}

// TestFwdReadKeepsOwnership: a remote read is served by the owner without
// surrendering the registration.
func TestFwdReadKeepsOwnership(t *testing.T) {
	r := newRig(ProtoDeNovo)
	const addr = 0x5000
	line := addr / r.Cfg.LineSize
	done := 0
	r.L1s[2].TryIssue(r.cycle, atomicTxn(addr, &done))
	r.run(t, 2000)
	loaded := 0
	r.L1s[6].TryIssue(r.cycle, &Txn{
		Kind: TxnLoad, Addr: addr, Class: core.Data, AOp: core.OpLoad,
		Done: DoneFunc(func(_ int64, v int64) { loaded++; _ = v }),
	})
	r.run(t, 2000)
	if loaded != 1 {
		t.Fatal("remote read incomplete")
	}
	if !r.L1s[2].OwnsLine(line) {
		t.Error("owner lost its registration on a read")
	}
	if !r.L1s[6].HoldsLine(line) {
		t.Error("reader did not cache a valid copy")
	}
	if r.Stats.RemoteL1Forwards != 1 {
		t.Errorf("forwards = %d, want 1", r.Stats.RemoteL1Forwards)
	}
}

// TestGPUAtomicRoundTrip: a GPU-coherence atomic performs at the home L2
// bank and returns the old value.
func TestGPUAtomicRoundTrip(t *testing.T) {
	r := newRig(ProtoGPU)
	const addr = 0x7000
	r.Values[r.Cfg.WordAddr(addr)] = 41
	var got int64 = -1
	r.L1s[0].TryIssue(r.cycle, &Txn{
		Kind: TxnAtomic, Addr: addr, Class: core.Commutative, AOp: core.OpInc,
		Done: DoneFunc(func(_ int64, v int64) { got = v }),
	})
	r.run(t, 2000)
	if got != 41 {
		t.Errorf("old value = %d, want 41", got)
	}
	if r.Read(addr) != 42 {
		t.Errorf("new value = %d, want 42", r.Read(addr))
	}
	if r.Stats.AtomicsAtL2 != 1 || r.Stats.AtomicsAtL1 != 0 {
		t.Errorf("placement wrong: L1=%d L2=%d", r.Stats.AtomicsAtL1, r.Stats.AtomicsAtL2)
	}
}

// TestStoreBufferFlushCallback: Flush fires only after write-through
// acknowledgements return.
func TestStoreBufferFlushCallback(t *testing.T) {
	r := newRig(ProtoGPU)
	l1 := r.L1s[4]
	l1.TryIssue(r.cycle, &Txn{Kind: TxnStore, Addr: 0x3000, Class: core.Data, AOp: core.OpStore, Done: DoneFunc(func(int64, int64) {})})
	flushed := int64(-1)
	l1.Flush(r.cycle, func(c int64) { flushed = c })
	if flushed >= 0 {
		t.Fatal("flush fired before the write-through drained")
	}
	r.run(t, 2000)
	if flushed < 0 {
		t.Fatal("flush never fired")
	}
	if !l1.SBDrained() {
		t.Fatal("store buffer not drained")
	}
	// Immediate flush on a drained buffer fires synchronously.
	fired := false
	l1.Flush(r.cycle, func(int64) { fired = true })
	if !fired {
		t.Error("flush on drained buffer must fire immediately")
	}
}

// TestAcquireInvalidatePolicies: GPU drops valid lines; DeNovo keeps
// owned ones.
func TestAcquireInvalidatePolicies(t *testing.T) {
	for _, proto := range []Protocol{ProtoGPU, ProtoDeNovo} {
		r := newRig(proto)
		const addr = 0x2000
		line := addr / r.Cfg.LineSize
		n := 0
		if proto == ProtoGPU {
			r.L1s[0].TryIssue(r.cycle, &Txn{Kind: TxnLoad, Addr: addr, Class: core.Data, AOp: core.OpLoad, Done: DoneFunc(func(int64, int64) { n++ })})
		} else {
			r.L1s[0].TryIssue(r.cycle, atomicTxn(addr, &n))
		}
		r.run(t, 2000)
		if !r.L1s[0].HoldsLine(line) {
			t.Fatalf("%v: warm-up failed", proto)
		}
		r.L1s[0].AcquireInvalidate()
		if proto == ProtoGPU {
			if r.L1s[0].HoldsLine(line) {
				t.Error("GPU acquire must drop valid lines")
			}
		} else {
			if !r.L1s[0].OwnsLine(line) {
				t.Error("DeNovo acquire must keep owned lines")
			}
		}
	}
}

// TestConfigGeometry sanity-checks the Table 2 derived sizes.
func TestConfigGeometry(t *testing.T) {
	cfg := Default(ProtoGPU, core.DRF0)
	if l1 := int64(cfg.L1Sets*cfg.L1Ways) * int64(cfg.LineSize); l1 != 32*1024 {
		t.Errorf("L1 size = %d", l1)
	}
	if l2 := int64(cfg.L2SetsPerBank*cfg.L2Ways) * int64(cfg.LineSize) * int64(cfg.Nodes()); l2 != 4*1024*1024 {
		t.Errorf("L2 size = %d", l2)
	}
	if cfg.Nodes() != 16 || cfg.NumCUs != 15 || cfg.CPUNode != 15 {
		t.Error("topology wrong")
	}
	if cfg.HomeNode(0) != 0 || cfg.HomeNode(17) != 1 {
		t.Error("home mapping wrong")
	}
	if cfg.WordAddr(0x1007) != 0x1004 || cfg.LineAddr(0x1007) != 0x40 {
		t.Error("address helpers wrong")
	}
	d := Discrete(core.DRF0)
	if d.L2Lat <= cfg.L2Lat || d.DRAMLat <= cfg.DRAMLat {
		t.Error("discrete config should be slower")
	}
}

func TestTxnKindStrings(t *testing.T) {
	for k, want := range map[TxnKind]string{TxnLoad: "load", TxnStore: "store", TxnAtomic: "atomic"} {
		if k.String() != want {
			t.Errorf("%d -> %q", k, k.String())
		}
	}
	if ProtoGPU.String() != "GPU" || ProtoDeNovo.String() != "DeNovo" {
		t.Error("protocol strings wrong")
	}
}

// TestApplyAtomicValueLayer: Env value ops are word-aligned.
func TestApplyAtomicValueLayer(t *testing.T) {
	r := newRig(ProtoGPU)
	old := r.ApplyAtomic(0x1002, core.OpAdd, 5) // unaligned address
	if old != 0 {
		t.Errorf("old = %d", old)
	}
	if r.Read(0x1000) != 5 {
		t.Errorf("word-aligned read = %d", r.Read(0x1000))
	}
}
