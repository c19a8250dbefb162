package memmodel

import (
	"reflect"
	"testing"

	"rats/internal/core"
	"rats/internal/litmus"
)

func TestSystemModelSBPaired(t *testing.T) {
	// Paired store buffering: the system must not produce OUT0=OUT1=0.
	sys, err := systemSearch(litmus.SB("sb", core.Paired), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sys.results["OUT0=0;OUT1=0;X=1;Y=1;"] {
		t.Error("paired SB produced the forbidden 0,0 outcome")
	}
	if len(sys.results) == 0 {
		t.Fatal("no system results")
	}
}

func TestSystemModelSBRelaxed(t *testing.T) {
	// Non-ordering store buffering: the relaxed system reorders the
	// store and load, producing the non-SC 0,0 outcome — consistent with
	// the program being illegal (it has a non-ordering race).
	sys, err := systemSearch(litmus.SB("sb_no", core.NonOrdering), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.results["OUT0=0;OUT1=0;X=1;Y=1;"] {
		t.Errorf("relaxed SB never produced 0,0: %v", sys.results)
	}
}

func TestSystemModelPerLocationSC(t *testing.T) {
	// CoRR: even with fully relaxed accesses, two same-location reads
	// must not observe values going backwards (per-location SC).
	sys, err := systemSearch(litmus.CoRR(core.NonOrdering), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sys.results["OUT0=1;OUT1=0;X=1;"] {
		t.Error("per-location SC violated: read of 1 then 0")
	}
}

func TestSystemModelMPPaired(t *testing.T) {
	// Paired MP: the guarded data read must never miss the payload, in
	// the relaxed system too (acquire/release preserved).
	p := litmus.New("mp_out")
	t0 := p.Thread("producer")
	t0.Store("D", 1, core.Data)
	t0.Store("F", 1, core.Paired)
	t1 := p.Thread("consumer")
	f := t1.Load("F", core.Paired)
	t1.StoreExpr("OUTF", litmus.RegExpr(f), core.Data)
	t1.WithGuards(litmus.NZ(f))
	d := t1.Load("D", core.Data)
	t1.StoreExpr("OUT", litmus.RegExpr(d), core.Data)
	t1.EndGuards()
	sys, err := systemSearch(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// OUTF=1 means the flag was observed; OUT must then be 1.
	if sys.results["D=1;F=1;OUT=0;OUTF=1;"] {
		t.Error("paired MP lost the payload in the system model")
	}
}

func TestSystemModelMPUnpairedWeak(t *testing.T) {
	// Unpaired MP: unpaired atomics do not order data, so the system may
	// reorder the payload store after the flag store and the consumer
	// can observe F=1 with D=0. (That is why MP_unpaired is illegal.)
	p := litmus.New("mp_unpaired_out")
	t0 := p.Thread("producer")
	t0.Store("D", 1, core.Data)
	t0.Store("F", 1, core.Unpaired)
	t1 := p.Thread("consumer")
	f := t1.Load("F", core.Unpaired)
	t1.StoreExpr("OUTF", litmus.RegExpr(f), core.Data)
	t1.WithGuards(litmus.NZ(f))
	d := t1.Load("D", core.Data)
	t1.StoreExpr("OUT", litmus.RegExpr(d), core.Data)
	t1.EndGuards()
	sys, err := systemSearch(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.results["D=1;F=1;OUT=0;OUTF=1;"] {
		t.Errorf("unpaired MP never exhibited the weak outcome: %v", sys.results)
	}
}

// TestTheoremOnSuite validates Theorem 3.1 on every legal program of the
// suite: everything the straightforward DRFrlx system can produce is an
// SC result of the quantum-equivalent program.
func TestTheoremOnSuite(t *testing.T) {
	for _, tc := range litmus.Suite() {
		tc := tc
		t.Run(tc.Prog.Name, func(t *testing.T) {
			rep, err := ValidateTheorem(tc.Prog)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Legal && !rep.SystemSC {
				t.Errorf("Theorem 3.1 violated for legal program %s: non-SC results %v",
					tc.Prog.Name, rep.NonSCResults)
			}
		})
	}
}

// TestTheoremNOUnpairedMP pins the smallest program that broke Theorem
// 3.1 while the system model let a relaxed atomic overtake a later
// unpaired one: the inc of X could then run after t1's guarded store of
// X, leaving X=2, which no SC execution does. The program is legal under
// DRFrlx, so the system must reach only SC results.
func TestTheoremNOUnpairedMP(t *testing.T) {
	p, err := litmus.Parse(`litmus "NOUnpairedMP"
thread t0
  inc X 0 non-ordering
  store Y 1 unpaired
thread t1
  r0 = load Y paired
  if r0 == 1 {
    store X 1 paired
  }
`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ValidateTheorem(p)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Legal || !rep.SystemSC {
		t.Errorf("legal=%t, system results outside SC: %v", rep.Legal, rep.NonSCResults)
	}
}

// TestValidateTheoremVerdictMatchesFullCheck: validating Theorem 3.1
// from a DRFrlx verdict the caller already has gives exactly the report
// of the full check on every catalog program, and a verdict under any
// other model is refused.
func TestValidateTheoremVerdictMatchesFullCheck(t *testing.T) {
	for _, tc := range litmus.Suite() {
		want, err := ValidateTheorem(tc.Prog)
		if err != nil {
			t.Fatal(err)
		}
		v, err := CheckProgram(tc.Prog, core.DRFrlx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ValidateTheoremVerdict(tc.Prog, v, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: report from the verdict %+v, full check %+v", tc.Prog.Name, got, want)
		}
	}
	v, err := CheckProgram(litmus.IRIW(), core.DRF1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateTheoremVerdict(litmus.IRIW(), v, 0, nil); err == nil {
		t.Error("a DRF1 verdict was accepted for Theorem 3.1")
	}
}

// TestTheoremConverseOnRacyPrograms: the racy SB variant must actually
// exhibit non-SC behaviour (the theorem's contrapositive sanity check —
// our system model is not vacuously strong).
func TestTheoremConverseOnRacyPrograms(t *testing.T) {
	rep, err := ValidateTheorem(litmus.SB("sb_no", core.NonOrdering))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Legal {
		t.Fatal("SB with non-ordering labels should be illegal")
	}
	if rep.SystemSC {
		t.Error("racy SB produced only SC results — system model too strong to be a useful check")
	}
}

// TestPreservedPOSubsetOfPO: ppo must be a sub-relation of program order.
func TestPreservedPOSubsetOfPO(t *testing.T) {
	for _, tc := range litmus.Suite() {
		p := tc.Prog
		ppo := preservedPO(p)
		lay := layout(p)
		thread := make([]int, lay.n)
		opIdx := make([]int, lay.n)
		for ti, th := range p.Threads {
			for i := range th.Ops {
				if id := lay.id[ti][i]; id >= 0 {
					thread[id] = ti
					opIdx[id] = i
				}
			}
		}
		for _, pr := range ppo.Pairs() {
			i, j := pr[0], pr[1]
			if thread[i] != thread[j] || opIdx[i] >= opIdx[j] {
				t.Fatalf("%s: ppo edge (%d,%d) not in program order", p.Name, i, j)
			}
		}
	}
}

// TestSystemModelMPReleaseAcquire: the Section 7 extension — a release
// store to the flag and an acquire load of it order the data payload, so
// the weak MP outcome is impossible in the system model.
func TestSystemModelMPReleaseAcquire(t *testing.T) {
	p := litmus.New("mp_ra_out")
	t0 := p.Thread("producer")
	t0.Store("D", 1, core.Data)
	t0.Store("F", 1, core.Release)
	t1 := p.Thread("consumer")
	f := t1.Load("F", core.Acquire)
	t1.StoreExpr("OUTF", litmus.RegExpr(f), core.Data)
	t1.WithGuards(litmus.NZ(f))
	d := t1.Load("D", core.Data)
	t1.StoreExpr("OUT", litmus.RegExpr(d), core.Data)
	t1.EndGuards()
	sys, err := systemSearch(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sys.results["D=1;F=1;OUT=0;OUTF=1;"] {
		t.Error("release/acquire MP lost the payload in the system model")
	}
	v, err := CheckProgram(p, core.DRFrlx)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Legal {
		t.Errorf("release/acquire MP should be race-free: %s", v.Summary())
	}
}
