package cu

import (
	"fmt"
	"testing"

	"rats/internal/core"
	"rats/internal/sim/memsys"
	"rats/internal/trace"
)

// orderOps are the op choices of TestMachineKeepsOrderingRule: a data
// load, a data store, and an atomic load, store and RMW of each atomic
// class.
func orderOps() []trace.Op {
	ops := []trace.Op{
		{Kind: trace.Load, Class: core.Data, AOp: core.OpLoad},
		{Kind: trace.Store, Class: core.Data, AOp: core.OpStore},
	}
	for _, c := range core.Classes()[1:] {
		for _, aop := range []core.AtomicOp{core.OpLoad, core.OpStore, core.OpInc} {
			ops = append(ops, trace.Op{Kind: trace.Atomic, Class: c, AOp: aop})
		}
	}
	return ops
}

func opName(op trace.Op) string {
	if op.Kind == trace.Atomic {
		return fmt.Sprintf("%v atomic %v", op.Class, op.AOp)
	}
	return fmt.Sprintf("%v %v", op.Class, op.Kind)
}

// TestMachineKeepsOrderingRule runs every two-op warp, op A on one line
// and then op B on another, under both protocols and all three models.
// Where the ordering rule (core.Model.Keeps) keeps A before B, B must not
// issue before A completes. The machine may be stricter than the rule,
// never weaker: only then does Theorem 3.1, proved for the system model
// that reorders everything the rule does not keep, speak for the
// simulator.
func TestMachineKeepsOrderingRule(t *testing.T) {
	ops := orderOps()
	var kept int
	var weaker []string
	for _, proto := range []memsys.Protocol{memsys.ProtoGPU, memsys.ProtoDeNovo} {
		for _, m := range core.Models() {
			for _, a := range ops {
				for _, b := range ops {
					early := issuedBeforeDone(t, proto, m, a, b)
					if !m.Keeps(a.Access(), b.Access()) {
						continue
					}
					kept++
					if early > 0 {
						weaker = append(weaker, fmt.Sprintf("%v %v: %s issued at cycle %d, before %s completed",
							proto, m, opName(b), early, opName(a)))
					}
				}
			}
		}
	}
	t.Logf("%d kept pairs checked", kept)
	for i, s := range weaker {
		if i == 10 {
			t.Errorf("... %d pairs in all", len(weaker))
			break
		}
		t.Error(s)
	}
}

// issuedBeforeDone runs the warp a, b to the end and returns the cycle b
// issued at if a had not completed by then, else 0. A load or atomic
// completes when its last transaction's TxnDone runs, a data store when
// the store buffer has drained it. Completion is read at the cycle
// boundary: after the memory side steps, before the CU ticks.
func issuedBeforeDone(t *testing.T, proto memsys.Protocol, m core.Model, a, b trace.Op) int64 {
	t.Helper()
	h := newHarnessOn(proto, m)
	a.Addrs, b.Addrs = []uint64{0x1000}, []uint64{0x2040}
	h.cu.AddWarp(&trace.Warp{CU: 0, Ops: []trace.Op{a, b}})
	w := h.cu.warps[0]
	aDone := false
	var early int64
	for !h.cu.Done() {
		if h.cycle == 10000 {
			t.Fatalf("%v %v: warp %s, %s not done after %d cycles", proto, m, opName(a), opName(b), h.cycle)
		}
		h.cycle++
		h.Step(h.cycle)
		if w.pc == 1 && !aDone {
			if a.Kind == trace.Store {
				aDone = h.cu.depth() == 0 && h.cu.l1.SBDrained()
			} else {
				aDone = w.outLoads == 0 && w.outAtomics == 0
			}
		}
		h.cu.Tick(h.cycle, false)
		if w.pc == 2 && !aDone && early == 0 {
			early = h.cycle
		}
	}
	return early
}
