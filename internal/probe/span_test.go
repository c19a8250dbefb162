package probe_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"rats/internal/core"
	"rats/internal/probe"
	"rats/internal/sim/memsys"
	"rats/internal/sim/system"
)

// ev builds a minimal transaction-keyed event for synthetic streams.
func ev(cycle int64, comp probe.Component, kind probe.Kind, txn int64) probe.Event {
	return probe.Event{Cycle: cycle, Comp: comp, Kind: kind, Txn: txn}
}

// push builds the span-opening CoalescerPush event (Aux carries the op
// class, as emitted by the CU).
func push(cycle int64, txn int64, op probe.SpanOp) probe.Event {
	return probe.Event{Cycle: cycle, Comp: probe.CompCU, Kind: probe.CoalescerPush,
		Txn: txn, Aux: int64(op), Warp: 3, Node: 2, Addr: 0x40}
}

// sumSegs is the span invariant's left-hand side.
func sumSegs(sp probe.Span) int64 {
	var sum int64
	for _, v := range sp.Segs {
		sum += v
	}
	return sum
}

// TestSpanReassemblyMissPath drives a synthetic L1-miss-to-DRAM load
// through the sink and checks the exact per-segment attribution: every
// gap lands in the segment implied by the previous event, and the
// segments sum to the span duration.
func TestSpanReassemblyMissPath(t *testing.T) {
	var spans []probe.Span
	s := probe.NewSpanSink(func(sp probe.Span) { spans = append(spans, sp) })

	s.Emit(push(10, 1, probe.SpanLoad))
	s.Emit(ev(14, probe.CompCU, probe.CoalescerDrain, 1)) // coalescer += 4
	s.Emit(ev(15, probe.CompL1, probe.CacheMiss, 1))      // l1 += 1
	s.Emit(ev(15, probe.CompL1, probe.MSHRAlloc, 1))      // zero gap
	s.Emit(ev(16, probe.CompL1, probe.NoCEnqueue, 1))     // mshr ends, l1? no: mode was MSHR -> mshr += 1
	s.Emit(ev(22, probe.CompNoC, probe.NoCDeliver, 1))    // noc += 6
	s.Emit(ev(23, probe.CompL2, probe.CacheMiss, 1))      // post-NoC at L2: l2 += 1
	s.Emit(ev(48, probe.CompL2, probe.DRAMAccess, 1))     // l2 += 25
	s.Emit(ev(210, probe.CompL2, probe.NoCEnqueue, 1))    // mem += 162
	s.Emit(ev(218, probe.CompNoC, probe.NoCDeliver, 1))   // noc += 8
	s.Emit(ev(220, probe.CompL1, probe.TxnComplete, 1))   // post-NoC at L1: l1 += 2

	if len(spans) != 1 {
		t.Fatalf("completed %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Op != probe.SpanLoad || sp.Level != probe.HitMem {
		t.Errorf("span classified as %s/%s, want load/mem", sp.Op, sp.Level)
	}
	if sp.Start != 10 || sp.End != 220 {
		t.Errorf("span window [%d,%d], want [10,220]", sp.Start, sp.End)
	}
	want := map[probe.Seg]int64{
		probe.SegCoalescer: 4, probe.SegL1: 1 + 2, probe.SegMSHR: 1,
		probe.SegNoC: 6 + 8, probe.SegL2: 1 + 25, probe.SegMem: 162,
	}
	for seg, w := range want {
		if sp.Segs[seg] != w {
			t.Errorf("seg %s = %d, want %d", seg, sp.Segs[seg], w)
		}
	}
	if got := sumSegs(sp); got != sp.End-sp.Start {
		t.Errorf("segments sum to %d, span duration is %d", got, sp.End-sp.Start)
	}
	if s.Open() != 0 || s.Completed() != 1 {
		t.Errorf("open=%d completed=%d, want 0/1", s.Open(), s.Completed())
	}
}

// TestSpanOutOfOrderDelivery: an event behind the transaction's clock
// must be tolerated (counted, charged zero) without breaking the
// segments-sum-to-duration invariant.
func TestSpanOutOfOrderDelivery(t *testing.T) {
	var spans []probe.Span
	s := probe.NewSpanSink(func(sp probe.Span) { spans = append(spans, sp) })

	s.Emit(push(10, 7, probe.SpanAtomic))
	s.Emit(ev(20, probe.CompL1, probe.CacheHit, 7))
	s.Emit(ev(15, probe.CompNoC, probe.NoCEnqueue, 7)) // behind the clock
	s.Emit(ev(25, probe.CompL1, probe.TxnComplete, 7))

	if s.OutOfOrder() != 1 {
		t.Errorf("out-of-order count = %d, want 1", s.OutOfOrder())
	}
	if len(spans) != 1 {
		t.Fatalf("completed %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if got := sumSegs(sp); got != sp.End-sp.Start {
		t.Errorf("segments sum to %d, span duration is %d", got, sp.End-sp.Start)
	}
	if sp.End != 25 {
		t.Errorf("end = %d, want 25 (clock must never go backwards)", sp.End)
	}
}

// TestSpanCoalescedSecondaryMiss: an MSHR-coalesced secondary must get
// its waiting time attributed to the MSHR segment, and both primary and
// secondary must complete without leaking open state.
func TestSpanCoalescedSecondaryMiss(t *testing.T) {
	got := map[int64]probe.Span{}
	s := probe.NewSpanSink(func(sp probe.Span) { got[sp.Txn] = sp })

	s.Emit(push(0, 1, probe.SpanLoad))
	s.Emit(push(1, 2, probe.SpanLoad))
	s.Emit(ev(2, probe.CompCU, probe.CoalescerDrain, 1))
	s.Emit(ev(3, probe.CompL1, probe.CacheMiss, 1))
	s.Emit(ev(3, probe.CompL1, probe.MSHRAlloc, 1))
	s.Emit(ev(4, probe.CompCU, probe.CoalescerDrain, 2))
	s.Emit(ev(5, probe.CompL1, probe.CacheMiss, 2))
	s.Emit(ev(5, probe.CompL1, probe.MSHRCoalesce, 2))
	s.Emit(ev(100, probe.CompL1, probe.TxnComplete, 1))
	s.Emit(ev(100, probe.CompL1, probe.TxnComplete, 2))

	if len(got) != 2 || s.Open() != 0 {
		t.Fatalf("completed %d spans with %d open, want 2/0", len(got), s.Open())
	}
	sec := got[2]
	if sec.Segs[probe.SegMSHR] != 95 {
		t.Errorf("secondary MSHR wait = %d, want 95", sec.Segs[probe.SegMSHR])
	}
	for txn, sp := range got {
		if sum := sumSegs(sp); sum != sp.End-sp.Start {
			t.Errorf("txn %d: segments sum to %d, duration %d", txn, sum, sp.End-sp.Start)
		}
	}
}

// TestSpanDroppedAndUnknown: unterminated spans stay open (observable,
// bounded) and events for unknown or zero transactions are ignored — no
// leak, no panic.
func TestSpanDroppedAndUnknown(t *testing.T) {
	s := probe.NewSpanSink(nil)

	// Unknown transaction: mid-flight events with no opening push (e.g.
	// a store draining from the store buffer after its span completed).
	s.Emit(ev(5, probe.CompL1, probe.CacheMiss, 42))
	s.Emit(ev(6, probe.CompL1, probe.TxnComplete, 42))
	// Zero transaction id: not attributable.
	s.Emit(ev(7, probe.CompL2, probe.CacheHit, 0))
	if s.Open() != 0 || s.Completed() != 0 {
		t.Fatalf("unknown-txn events created state: open=%d completed=%d", s.Open(), s.Completed())
	}

	// A pushed span that never completes (watchdog abort) stays open.
	s.Emit(push(10, 1, probe.SpanStore))
	s.Emit(ev(12, probe.CompL1, probe.CacheHit, 1))
	if s.Open() != 1 {
		t.Fatalf("open = %d, want 1 unterminated span", s.Open())
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close with an open span: %v", err)
	}
	if s.Completed() != 0 {
		t.Errorf("unterminated span was counted as completed")
	}
}

// spanConfigs spans both protocols and the consistency-model extremes.
func spanConfigs() map[string]memsys.Config {
	return map[string]memsys.Config{
		"GD0": memsys.Default(memsys.ProtoGPU, core.DRF0),
		"GDR": memsys.Default(memsys.ProtoGPU, core.DRFrlx),
		"DD0": memsys.Default(memsys.ProtoDeNovo, core.DRF0),
		"DDR": memsys.Default(memsys.ProtoDeNovo, core.DRFrlx),
	}
}

// TestSpanInvariantRealRuns runs the two-warp workload under both
// protocols and the consistency extremes, asserting the structural span
// invariants on the real event stream: every span's segments sum to its
// duration, and every transaction completes.
func TestSpanInvariantRealRuns(t *testing.T) {
	for name, cfg := range spanConfigs() {
		t.Run(name, func(t *testing.T) {
			var spans []probe.Span
			sink := probe.NewSpanSink(func(sp probe.Span) { spans = append(spans, sp) })
			hub := probe.NewHub()
			hub.Attach(sink)
			sys := system.New(cfg)
			sys.AttachProbe(hub)
			if err := sys.Load(twoWarpTrace()); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if len(spans) == 0 {
				t.Fatal("no spans completed")
			}
			if n := sink.Open(); n != 0 {
				t.Errorf("%d spans left open after a successful run", n)
			}
			for _, sp := range spans {
				if sp.End < sp.Start {
					t.Fatalf("txn %d: end %d before start %d", sp.Txn, sp.End, sp.Start)
				}
				if sum := sumSegs(sp); sum != sp.End-sp.Start {
					t.Errorf("txn %d (%s/%s): segments sum to %d, duration %d",
						sp.Txn, sp.Op, sp.Level, sum, sp.End-sp.Start)
				}
				if sp.Op >= probe.NumSpanOps || sp.Level >= probe.NumHitLevels {
					t.Errorf("txn %d: out-of-range classification %d/%d", sp.Txn, sp.Op, sp.Level)
				}
			}
		})
	}
}

// TestSpanWriterDeterministic: the same workload and configuration must
// produce byte-identical span JSONL across runs, and every line must be
// valid JSON whose segments sum to its duration.
func TestSpanWriterDeterministic(t *testing.T) {
	runOnce := func() []byte {
		var buf bytes.Buffer
		hub := probe.NewHub()
		hub.Attach(probe.NewSpanWriter(&buf))
		runWithHub(t, hub)
		return buf.Bytes()
	}
	first := runOnce()
	second := runOnce()
	if !bytes.Equal(first, second) {
		t.Errorf("span stream not deterministic: %d vs %d bytes", len(first), len(second))
	}

	sc := bufio.NewScanner(bytes.NewReader(first))
	lines := 0
	for sc.Scan() {
		lines++
		var rec struct {
			Start int64            `json:"start"`
			End   int64            `json:"end"`
			Segs  map[string]int64 `json:"segs"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", lines, err)
		}
		var sum int64
		for _, v := range rec.Segs {
			sum += v
		}
		if sum != rec.End-rec.Start {
			t.Errorf("line %d: segments sum to %d, duration %d", lines, sum, rec.End-rec.Start)
		}
	}
	if lines == 0 {
		t.Fatal("span writer produced no lines")
	}
}

// BenchmarkSpanSink bounds the per-event cost of span reassembly on the
// synthetic miss path (one full span per 11 events).
func BenchmarkSpanSink(b *testing.B) {
	s := probe.NewSpanSink(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		txn := int64(i) + 1
		s.Emit(push(10, txn, probe.SpanLoad))
		s.Emit(ev(14, probe.CompCU, probe.CoalescerDrain, txn))
		s.Emit(ev(15, probe.CompL1, probe.CacheMiss, txn))
		s.Emit(ev(15, probe.CompL1, probe.MSHRAlloc, txn))
		s.Emit(ev(16, probe.CompL1, probe.NoCEnqueue, txn))
		s.Emit(ev(22, probe.CompNoC, probe.NoCDeliver, txn))
		s.Emit(ev(23, probe.CompL2, probe.CacheMiss, txn))
		s.Emit(ev(48, probe.CompL2, probe.DRAMAccess, txn))
		s.Emit(ev(210, probe.CompL2, probe.NoCEnqueue, txn))
		s.Emit(ev(218, probe.CompNoC, probe.NoCDeliver, txn))
		s.Emit(ev(220, probe.CompL1, probe.TxnComplete, txn))
	}
	if s.Open() != 0 {
		b.Fatalf("%d spans left open", s.Open())
	}
}
