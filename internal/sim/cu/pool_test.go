package cu

import (
	"testing"

	"rats/internal/core"
	"rats/internal/trace"
)

// TestTxnPoolRecycles pins the free-list behaviour: after a warp's ops
// complete, the pool holds the recycled transactions and reissues them.
func TestTxnPoolRecycles(t *testing.T) {
	h := newHarness(core.DRFrlx)
	w := &trace.Warp{CU: 0}
	for i := 0; i < 8; i++ {
		w.Load(core.Data, uint64(0x1000*(i+1)))
		w.Join()
	}
	h.cu.AddWarp(w)
	h.runUntilDone(t, 5000)
	if n := len(h.cu.txnFree); n == 0 {
		t.Fatal("free list empty after completions")
	}
	if h.TxnSeq != 8 {
		t.Fatalf("issued %d txns", h.TxnSeq)
	}
	// Serialised loads: at most one in flight, so the pool should have
	// served all but the first from recycled transactions.
	if n := len(h.cu.txnFree); n > 2 {
		t.Fatalf("pool grew to %d entries for serialised loads", n)
	}
}
