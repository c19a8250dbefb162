package core

import (
	"testing"
	"testing/quick"
)

func TestClassStringRoundTrip(t *testing.T) {
	for _, c := range Classes() {
		got, err := ParseClass(c.String())
		if err != nil {
			t.Fatalf("ParseClass(%q): %v", c.String(), err)
		}
		if got != c {
			t.Errorf("round trip %v -> %q -> %v", c, c.String(), got)
		}
	}
}

func TestParseClassAliases(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Class
	}{
		{"seq_cst", Paired},
		{"sc", Paired},
		{"nonordering", NonOrdering},
		{"non_ordering", NonOrdering},
	} {
		got, err := ParseClass(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseClass(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseClass("bogus"); err == nil {
		t.Error("ParseClass(bogus) should fail")
	}
}

func TestClassPredicates(t *testing.T) {
	if Data.IsAtomic() {
		t.Error("Data must not be atomic")
	}
	for _, c := range Classes()[1:] {
		if !c.IsAtomic() {
			t.Errorf("%v must be atomic", c)
		}
	}
	for _, c := range Classes() {
		if !c.Valid() {
			t.Errorf("%v should be valid", c)
		}
	}
	if Class(200).Valid() {
		t.Error("Class(200) should be invalid")
	}
}

func TestModelEffective(t *testing.T) {
	// DRF0 collapses every atomic to paired.
	for _, c := range Classes() {
		eff := DRF0.Effective(c)
		if c == Data && eff != Data {
			t.Errorf("DRF0.Effective(Data) = %v", eff)
		}
		if c != Data && eff != Paired {
			t.Errorf("DRF0.Effective(%v) = %v, want Paired", c, eff)
		}
	}
	// DRF1 keeps paired, collapses relaxed to unpaired.
	if got := DRF1.Effective(Paired); got != Paired {
		t.Errorf("DRF1.Effective(Paired) = %v", got)
	}
	for _, c := range []Class{Unpaired, Commutative, NonOrdering, Quantum, Speculative} {
		if got := DRF1.Effective(c); got != Unpaired {
			t.Errorf("DRF1.Effective(%v) = %v, want Unpaired", c, got)
		}
	}
	// DRFrlx is the identity.
	for _, c := range Classes() {
		if got := DRFrlx.Effective(c); got != c {
			t.Errorf("DRFrlx.Effective(%v) = %v", c, got)
		}
	}
}

// TestModelMonotonicity: moving to a weaker model never adds consistency
// actions — the core soundness property the simulator relies on.
func TestModelMonotonicity(t *testing.T) {
	for _, c := range Classes() {
		b0 := DRF0.Behavior(c)
		b1 := DRF1.Behavior(c)
		br := DRFrlx.Behavior(c)
		if c == Data {
			continue
		}
		if b1.InvalidateOnLoad && !b0.InvalidateOnLoad {
			t.Errorf("%v: DRF1 invalidates but DRF0 does not", c)
		}
		if br.InvalidateOnLoad && !b1.InvalidateOnLoad {
			t.Errorf("%v: DRFrlx invalidates but DRF1 does not", c)
		}
		if b1.FlushOnStore && !b0.FlushOnStore {
			t.Errorf("%v: DRF1 flushes but DRF0 does not", c)
		}
		if br.FlushOnStore && !b1.FlushOnStore {
			t.Errorf("%v: DRFrlx flushes but DRF1 does not", c)
		}
		if b1.Overlap < b0.Overlap || br.Overlap < b1.Overlap {
			t.Errorf("%v: overlap not monotone: %v %v %v", c, b0.Overlap, b1.Overlap, br.Overlap)
		}
	}
}

func TestBehaviorPaired(t *testing.T) {
	for _, m := range Models() {
		b := m.Behavior(Paired)
		if !b.InvalidateOnLoad || !b.FlushOnStore || b.Overlap != OverlapNone {
			t.Errorf("%v: paired behaviour %+v must be full SC atomic", m, b)
		}
	}
}

func TestBenefitsTableMatchesPaper(t *testing.T) {
	// Table 4 of the paper: rows are (DRF0, DRF1, DRFrlx).
	want := [][3]bool{
		{false, true, true},  // avoid cache invalidations
		{false, true, true},  // avoid store buffer flushes
		{false, false, true}, // overlap atomics
	}
	got := BenefitsTable()
	if len(got) != len(want) {
		t.Fatalf("BenefitsTable has %d rows, want %d", len(got), len(want))
	}
	for i, row := range got {
		if row.Has != want[i] {
			t.Errorf("row %q = %v, want %v", row.Name, row.Has, want[i])
		}
	}
}

func TestAtomicOpApply(t *testing.T) {
	for _, tc := range []struct {
		op                     AtomicOp
		old, operand, expected int64
		want                   int64
	}{
		{OpLoad, 7, 99, 0, 7},
		{OpStore, 7, 99, 0, 99},
		{OpAdd, 7, 3, 0, 10},
		{OpSub, 7, 3, 0, 4},
		{OpInc, 7, 0, 0, 8},
		{OpDec, 7, 0, 0, 6},
		{OpAnd, 0b1100, 0b1010, 0, 0b1000},
		{OpOr, 0b1100, 0b1010, 0, 0b1110},
		{OpXor, 0b1100, 0b1010, 0, 0b0110},
		{OpMin, 7, 3, 0, 3},
		{OpMin, 3, 7, 0, 3},
		{OpMax, 7, 3, 0, 7},
		{OpMax, 3, 7, 0, 7},
		{OpExchange, 7, 99, 0, 99},
		{OpCAS, 7, 99, 7, 99},
		{OpCAS, 7, 99, 8, 7},
	} {
		if got := tc.op.Apply(tc.old, tc.operand, tc.expected); got != tc.want {
			t.Errorf("%v.Apply(%d,%d,%d) = %d, want %d", tc.op, tc.old, tc.operand, tc.expected, got, tc.want)
		}
	}
}

// TestCommutesSound: whenever Commutes says yes, applying the two
// operations in either order must produce the same final value, for
// arbitrary old values and operands (property-based, testing/quick).
func TestCommutesSound(t *testing.T) {
	ops := []AtomicOp{OpStore, OpAdd, OpSub, OpInc, OpDec, OpAnd, OpOr, OpXor, OpMin, OpMax, OpExchange}
	f := func(oi, oj uint8, old, a, b int64) bool {
		opX := ops[int(oi)%len(ops)]
		opY := ops[int(oj)%len(ops)]
		if !Commutes(opX, a, opY, b) {
			return true // nothing claimed
		}
		xy := opY.Apply(opX.Apply(old, a, 0), b, 0)
		yx := opX.Apply(opY.Apply(old, b, 0), a, 0)
		return xy == yx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestCommutesCases(t *testing.T) {
	if !Commutes(OpInc, 0, OpAdd, 5) {
		t.Error("inc and add must commute")
	}
	if !Commutes(OpAdd, 2, OpSub, 9) {
		t.Error("add and sub must commute")
	}
	if Commutes(OpAdd, 1, OpMax, 1) {
		t.Error("add and max must not commute")
	}
	if Commutes(OpLoad, 0, OpAdd, 1) {
		t.Error("load never commutes (not a modifying op)")
	}
	if !Commutes(OpStore, 4, OpStore, 4) {
		t.Error("stores of equal values commute")
	}
	if Commutes(OpStore, 4, OpStore, 5) {
		t.Error("stores of different values must not commute")
	}
	if Commutes(OpCAS, 1, OpCAS, 1) {
		t.Error("CAS must not be treated as commutative")
	}
}

func TestModelStringParse(t *testing.T) {
	for _, m := range Models() {
		got, err := ParseModel(m.String())
		if err != nil || got != m {
			t.Errorf("ParseModel(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseModel("TSO"); err == nil {
		t.Error("ParseModel(TSO) should fail")
	}
}

func TestOpPredicates(t *testing.T) {
	if OpLoad.Writes() || !OpLoad.Reads() {
		t.Error("load predicates wrong")
	}
	if !OpStore.Writes() || OpStore.Reads() {
		t.Error("store predicates wrong")
	}
	for _, op := range []AtomicOp{OpAdd, OpSub, OpInc, OpDec, OpAnd, OpOr, OpXor, OpMin, OpMax, OpExchange, OpCAS} {
		if !op.Writes() || !op.Reads() {
			t.Errorf("%v must be a full RMW", op)
		}
	}
}

func TestAcquireReleaseExtension(t *testing.T) {
	if !Acquire.OrdersLikePaired() || !Release.OrdersLikePaired() || Unpaired.OrdersLikePaired() {
		t.Error("OrdersLikePaired wrong")
	}
	// DRF0/DRF1 strengthen the extension classes to paired.
	for _, m := range []Model{DRF0, DRF1} {
		if m.Effective(Acquire) != Paired || m.Effective(Release) != Paired {
			t.Errorf("%v must strengthen acquire/release to paired", m)
		}
	}
	// Under DRFrlx: acquire invalidates without flushing; release flushes
	// without invalidating; neither pays the full SC fence.
	a := DRFrlx.Behavior(Acquire)
	if !a.InvalidateOnLoad || a.FlushOnStore || a.Overlap != OverlapAtomicSerial {
		t.Errorf("acquire behaviour %+v", a)
	}
	r := DRFrlx.Behavior(Release)
	if r.InvalidateOnLoad || !r.FlushOnStore || r.Overlap != OverlapAtomicSerial {
		t.Errorf("release behaviour %+v", r)
	}
}
