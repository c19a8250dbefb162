package litmus

import (
	"slices"
	"strings"
	"testing"

	"rats/internal/core"
)

const mpSource = `
litmus "MP_from_text"
init D=0 F=0

thread producer
  store D 1 data
  store F 1 paired

thread consumer
  r0 = load F paired
  if r0 != 0 {
    r1 = load D data
  }
  use r1
`

func TestParseMP(t *testing.T) {
	p, err := Parse(mpSource)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "MP_from_text" {
		t.Errorf("name %q", p.Name)
	}
	if len(p.Threads) != 2 {
		t.Fatalf("%d threads", len(p.Threads))
	}
	prod, cons := p.Threads[0], p.Threads[1]
	if prod.Name != "producer" || len(prod.Ops) != 2 {
		t.Fatalf("producer wrong: %+v", prod)
	}
	if prod.Ops[1].Class != core.Paired || prod.Ops[1].Loc != "F" {
		t.Error("flag store wrong")
	}
	if len(cons.Ops) != 3 { // load, guarded load, branch(use)
		t.Fatalf("consumer has %d ops", len(cons.Ops))
	}
	guarded := cons.Ops[1]
	if len(guarded.Guards) != 1 || guarded.Guards[0].Op != GuardNE {
		t.Fatalf("guard wrong: %+v", guarded.Guards)
	}
	if !cons.Ops[2].IsBranch {
		t.Error("use should become a branch marker")
	}
}

func TestParseRMWAndCAS(t *testing.T) {
	src := `
litmus "rmw"
quantum-domain 0 1 2
thread t0
  inc C commutative
  r0 = add C 5 quantum
  r1 = cas L 0 1 paired
  if r1 == 0 && r0 == r1 {
    store D r0+r1+2 data
  }
  xchg X 9 speculative
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ops := p.Threads[0].Ops
	if ops[0].AOp != core.OpInc || ops[0].Dst != NoReg {
		t.Error("inc wrong")
	}
	if ops[1].AOp != core.OpAdd || ops[1].Operand.Const != 5 || ops[1].Dst == NoReg {
		t.Error("add wrong")
	}
	if ops[2].AOp != core.OpCAS || ops[2].Expected.Const != 0 || ops[2].Operand.Const != 1 {
		t.Error("cas wrong")
	}
	st := ops[3]
	if len(st.Guards) != 2 {
		t.Fatalf("guards: %+v", st.Guards)
	}
	if st.Operand.Const != 2 || len(st.Operand.Regs) != 2 {
		t.Errorf("store expr wrong: %+v", st.Operand)
	}
	if ops[4].AOp != core.OpExchange || ops[4].Class != core.Speculative {
		t.Error("xchg wrong")
	}
	if len(p.QuantumDomain) != 3 {
		t.Error("domain lost")
	}
}

func TestParseSeqlockWithEven(t *testing.T) {
	src := `
litmus "seq"
thread reader
  r0 = load SEQ paired
  r1 = load D speculative
  r2 = add SEQ 0 paired
  if r0 == r2 even {
    store OUT r1 data
  }
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Threads[0].Ops[3].Guards[0]
	if g.Op != GuardEQEven {
		t.Fatalf("guard %+v", g)
	}
}

func TestParseErrors(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want string
	}{
		{"store X 1 data", "outside a thread"},
		{"thread t\n  load X bogus", "unknown access class"},
		{"thread t\n  frobnicate X", "unknown statement"},
		{"thread t\n  store X r9 data", "unknown term"},
		{"thread t\n  if r0 != 0 {", "unknown term"}, // guard on undefined register
		{"thread t\n  r0 = load X data\n  if r0 != 0 {\n  store Y 1 data", "unclosed"},
		{"thread t\n  }", "unmatched"},
		{"init X", "bad init"},
		{"quantum-domain q", "bad domain"},
		{"thread t\n  r0 = load X data\n  r0 = load X data", "redefined"},
		{"thread t\n  use r4", "undefined register"},
		{"thread t\n  r0 = load X data addr r0", "undefined register"},
		{"thread t\n  r0 = load X data\n  store Y 1 data addr", "addr wants registers"},
		{"thread t\n  if r0 < 0 {\n  }", "bad condition"},
	} {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("Parse(%q) should fail", tc.src)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) error %q, want containing %q", tc.src, err, tc.want)
		}
	}
}

func TestParseErrorHasLine(t *testing.T) {
	_, err := Parse("litmus \"x\"\nthread t\n  bogus X")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("want *ParseError, got %T", err)
	}
	if pe.Line != 3 {
		t.Errorf("line = %d, want 3", pe.Line)
	}
}

// opsEqual compares two programs structurally.
func opsEqual(a, b *Program) bool {
	if len(a.Threads) != len(b.Threads) {
		return false
	}
	for i := range a.Threads {
		ta, tb := a.Threads[i], b.Threads[i]
		if len(ta.Ops) != len(tb.Ops) {
			return false
		}
		for j := range ta.Ops {
			oa, ob := ta.Ops[j], tb.Ops[j]
			if oa.IsBranch != ob.IsBranch || oa.Class != ob.Class || oa.AOp != ob.AOp ||
				oa.Loc != ob.Loc || oa.Dst != ob.Dst || len(oa.Guards) != len(ob.Guards) ||
				oa.Operand.Eval(make([]int64, 16)) != ob.Operand.Eval(make([]int64, 16)) ||
				!slices.Equal(oa.AddrDeps, ob.AddrDeps) {
				return false
			}
		}
	}
	return true
}

// TestFormatParseRoundTrip: every suite program, and one with address
// dependencies, survives Format -> Parse structurally.
func TestFormatParseRoundTrip(t *testing.T) {
	dep := New("LoadDep")
	th := dep.Thread("t0")
	r := th.Load("X", core.Paired)
	r = th.LoadDep("Y", r, core.Release)
	th.WithGuards(NZ(r))
	th.LoadDep("X", r, core.Data)
	progs := []*Program{dep}
	for _, tc := range Suite() {
		progs = append(progs, tc.Prog)
	}
	for _, p := range progs {
		text := Format(p)
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("%s: reparse failed: %v\n%s", p.Name, err, text)
		}
		if back.Name != p.Name {
			t.Errorf("%s: name lost", p.Name)
		}
		if !opsEqual(p, back) {
			t.Errorf("%s: round trip changed structure:\n%s", p.Name, text)
		}
		if len(back.Init) != len(p.Init) || len(back.QuantumDomain) != len(p.QuantumDomain) {
			t.Errorf("%s: metadata lost", p.Name)
		}
	}
	if want := "r1 = load Y release addr r0"; !strings.Contains(Format(dep), want) {
		t.Errorf("Format lacks %q:\n%s", want, Format(dep))
	}
}

func TestFormatReadable(t *testing.T) {
	out := Format(Seqlocks())
	for _, want := range []string{"litmus \"Seqlocks\"", "thread writer", "cas SEQ", "speculative", "if", "even"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}
