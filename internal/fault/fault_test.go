package fault

import (
	"strings"
	"testing"
)

func TestParseFullSpec(t *testing.T) {
	spec, err := Parse("delay:p=0.05,max=12;dup:p=0.02;reorder:p=0.01,window=16,burst=4;" +
		"mshr:cap=2,period=5000,len=500;sb:cap=1,period=7000,len=300;" +
		"l2stall:period=10000,len=200;wedge:warp=3,from=100")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if spec.Delay == nil || spec.Delay.P != 0.05 || spec.Delay.Max != 12 {
		t.Errorf("delay clause: %+v", spec.Delay)
	}
	if spec.Dup == nil || spec.Dup.P != 0.02 {
		t.Errorf("dup clause: %+v", spec.Dup)
	}
	if spec.Reorder == nil || spec.Reorder.Window != 16 || spec.Reorder.Burst != 4 {
		t.Errorf("reorder clause: %+v", spec.Reorder)
	}
	if spec.MSHR == nil || spec.MSHR.Cap != 2 || spec.MSHR.Period != 5000 || spec.MSHR.Len != 500 {
		t.Errorf("mshr clause: %+v", spec.MSHR)
	}
	if spec.SB == nil || spec.SB.Cap != 1 {
		t.Errorf("sb clause: %+v", spec.SB)
	}
	if spec.L2Stall == nil || spec.L2Stall.Period != 10000 || spec.L2Stall.Len != 200 {
		t.Errorf("l2stall clause: %+v", spec.L2Stall)
	}
	if spec.Wedge == nil || spec.Wedge.Warp != 3 || spec.Wedge.From != 100 {
		t.Errorf("wedge clause: %+v", spec.Wedge)
	}
	if spec.Metamorphic() {
		t.Error("spec with wedge must not be metamorphic")
	}
}

func TestParseDefaults(t *testing.T) {
	spec, err := Parse("delay:p=0.1;reorder:p=0.2;mshr:cap=0;l2stall:;wedge:")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if spec.Delay.Max != 8 {
		t.Errorf("delay max default = %d, want 8", spec.Delay.Max)
	}
	if spec.Reorder.Window != 16 || spec.Reorder.Burst != 1 {
		t.Errorf("reorder defaults: %+v", spec.Reorder)
	}
	if spec.MSHR.Period != 10000 || spec.MSHR.Len != 500 {
		t.Errorf("mshr defaults: %+v", spec.MSHR)
	}
	if spec.Wedge.Warp != 0 || spec.Wedge.From != 0 {
		t.Errorf("wedge defaults: %+v", spec.Wedge)
	}
}

func TestParseMetamorphic(t *testing.T) {
	spec, err := Parse("delay:p=0.1,max=4;dup:p=0.1")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !spec.Metamorphic() {
		t.Error("delay+dup spec should be metamorphic")
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"bogus:p=0.1",              // unknown clause
		"delay:p=0.1,max=0",        // max must be > 0
		"delay:p=0",                // p must be > 0
		"delay:p=x",                // unparsable float
		"dup:q=0.1",                // unknown key
		"reorder:p=0.1,burst=0",    // burst must be > 0
		"mshr:cap=2,period=0",      // period must be > 0
		"mshr:cap=2,len=20000",     // len must be < period
		"l2stall:period=10,len=10", // len must be < period
		"delay:p",                  // malformed key=value
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error, got nil", bad)
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	spec, err := Parse("delay:p=0.3,max=10;dup:p=0.2;reorder:p=0.1,window=8,burst=3")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	draw := func(seed int64) ([]int64, []bool) {
		inj := NewInjector(spec, seed)
		delays := make([]int64, 200)
		dups := make([]bool, 200)
		for i := range delays {
			delays[i] = inj.MessageDelay()
			dups[i] = inj.Duplicate()
		}
		return delays, dups
	}
	d1, u1 := draw(42)
	d2, u2 := draw(42)
	for i := range d1 {
		if d1[i] != d2[i] || u1[i] != u2[i] {
			t.Fatalf("same seed diverged at draw %d: (%d,%v) vs (%d,%v)", i, d1[i], u1[i], d2[i], u2[i])
		}
	}
	d3, _ := draw(43)
	same := true
	for i := range d1 {
		if d1[i] != d3[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical delay sequences")
	}
}

func TestPressureWindows(t *testing.T) {
	spec, err := Parse("mshr:cap=2,period=100,len=10;sb:cap=1,period=100,len=10;l2stall:period=100,len=10")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	inj := NewInjector(spec, 1)
	// Inside the window.
	if got := inj.MSHRCap(5, 16); got != 2 {
		t.Errorf("MSHRCap in window = %d, want 2", got)
	}
	if got := inj.SBCap(205, 16); got != 1 {
		t.Errorf("SBCap in window = %d, want 1", got)
	}
	if until := inj.L2StallUntil(305); until != 310 {
		t.Errorf("L2StallUntil(305) = %d, want 310", until)
	}
	// Outside the window: real capacity, no stall.
	if got := inj.MSHRCap(50, 16); got != 16 {
		t.Errorf("MSHRCap outside window = %d, want 16", got)
	}
	if until := inj.L2StallUntil(50); until != 0 {
		t.Errorf("L2StallUntil outside window = %d, want 0", until)
	}
	c := inj.Counts()
	if c.MSHRSqueezes != 1 || c.SBSqueezes != 1 || c.L2Stalls != 1 {
		t.Errorf("counts = %+v", c)
	}
}

func TestWedge(t *testing.T) {
	spec, err := Parse("wedge:warp=2,from=50")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	inj := NewInjector(spec, 1)
	if inj.Wedged(2, 10) {
		t.Error("wedged before `from` cycle")
	}
	if inj.Wedged(1, 100) {
		t.Error("wrong warp wedged")
	}
	if !inj.Wedged(2, 50) {
		t.Error("warp 2 not wedged at cycle 50")
	}
	if s := inj.Counts().String(); !strings.Contains(s, "1 wedge-held") {
		t.Errorf("counts string = %q", s)
	}
	if from, ok := inj.WedgeOnset(2); !ok || from != 50 {
		t.Errorf("WedgeOnset(2) = %d, %v; want 50, true", from, ok)
	}
	if _, ok := inj.WedgeOnset(1); ok {
		t.Error("WedgeOnset reports an onset for an unwedged warp")
	}
	if got := inj.Counts().WedgeHolds; got != 1 {
		t.Errorf("WedgeOnset changed the tally: %d wedge holds, want 1", got)
	}
}
