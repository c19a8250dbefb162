package memmodel

import (
	"flag"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"rats/internal/core"
	"rats/internal/litmus"
)

var theoremFamily = flag.Bool("theorem-family", false,
	"run TestTheoremFamily on all 2,519,424 programs of the family (minutes), not a stride")

// Op kinds of the two-thread theorem family.
const (
	famLoad  = iota // r = load
	famStore        // store 1
	famInc          // discarding inc
	famCAS          // r = cas 0 2
	famKinds
)

// famChoices is the number of (kind, class) choices per op, and
// famIndices the number of family indices: four ops, and whether D is
// guarded.
var (
	famClasses = core.Classes()
	famChoices = famKinds * len(famClasses)
	famIndices = famChoices * famChoices * famChoices * famChoices * 2
)

type famOp struct {
	kind  int
	class core.Class
}

// famMember is one program of the two-thread family: thread t0 runs op A
// on X, then op B on Y; thread t1 runs op C on Y, then op D on X, under
// `if rC == 1` when guarded. The quantum domain is {0,1,2}.
type famMember struct {
	ops     [4]famOp // A, B, C, D
	guarded bool
}

// familyMember decodes family index i. ok is false for a guarded D
// behind a C that loads into no register, which is not in the family.
func familyMember(i int) (m famMember, ok bool) {
	m.guarded = i%2 == 1
	i /= 2
	for k := range m.ops {
		c := i % famChoices
		i /= famChoices
		m.ops[k] = famOp{kind: c / len(famClasses), class: famClasses[c%len(famClasses)]}
	}
	return m, !m.guarded || m.ops[2].kind == famLoad || m.ops[2].kind == famCAS
}

func (m famMember) program(name string) *litmus.Program {
	p := litmus.New(name)
	t0 := p.Thread("t0")
	m.ops[0].emit(t0, "X")
	m.ops[1].emit(t0, "Y")
	t1 := p.Thread("t1")
	r := m.ops[2].emit(t1, "Y")
	if m.guarded {
		t1.WithGuards(litmus.EQConst(r, 1))
	}
	m.ops[3].emit(t1, "X")
	t1.EndGuards()
	p.QuantumDomain = []int64{0, 1, 2}
	return p
}

func (o famOp) emit(th *litmus.Thread, loc litmus.Loc) litmus.Reg {
	switch o.kind {
	case famLoad:
		return th.Load(loc, o.class)
	case famStore:
		th.Store(loc, 1, o.class)
	case famInc:
		th.Inc(loc, o.class)
	default:
		return th.CAS(loc, 0, 2, o.class)
	}
	return litmus.NoReg
}

// access is the op's shape for the ordering rule.
func (o famOp) access() core.Access {
	return core.Access{Class: o.class, Reads: o.kind != famStore, Writes: o.kind != famLoad}
}

// violationShape reports whether m has the shape of every program the
// system model took outside the SC set while the system let a relaxed
// atomic overtake a later ordered one: A a non-ordering write to X, B a
// write to Y labelled unpaired or acquire, C a read of Y that the rule
// keeps after an earlier atomic such as A (paired, unpaired, acquire or
// release), and D a guarded atomic write to X.
func (m famMember) violationShape() bool {
	a, b, c, d := m.ops[0], m.ops[1], m.ops[2], m.ops[3]
	return a.kind != famLoad && a.class == core.NonOrdering &&
		b.kind != famLoad && (b.class == core.Unpaired || b.class == core.Acquire) &&
		c.kind != famStore && core.DRFrlx.Keeps(a.access(), c.access()) &&
		m.guarded && d.kind != famLoad && d.class.IsAtomic()
}

// TestTheoremFamily validates Theorem 3.1 on the two-thread family: every
// program legal under DRFrlx reaches only SC results in the system
// model. By default it checks every 1009th index plus every program of
// violationShape (about a second); -theorem-family checks the whole
// family.
func TestTheoremFamily(t *testing.T) {
	stride := 1009
	if *theoremFamily {
		stride = 1
	}
	var next atomic.Int64
	var mu sync.Mutex
	var checked, legal int
	var violations []string
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var nChecked, nLegal int
			for {
				i := int(next.Add(1) - 1)
				if i >= famIndices {
					break
				}
				m, ok := familyMember(i)
				if !ok || (i%stride != 0 && !m.violationShape()) {
					continue
				}
				nChecked++
				p := m.program(fmt.Sprintf("family%d", i))
				v, err := CheckProgram(p, core.DRFrlx)
				if err != nil {
					t.Errorf("%s: %v", p.Name, err)
					continue
				}
				if !v.Legal {
					continue
				}
				nLegal++
				rep, err := ValidateTheoremVerdict(p, v, 0, nil)
				if err != nil {
					t.Errorf("%s: %v", p.Name, err)
					continue
				}
				if !rep.SystemSC {
					mu.Lock()
					violations = append(violations, fmt.Sprintf("%v outside the SC set of\n%s", rep.NonSCResults, litmus.Format(p)))
					mu.Unlock()
				}
			}
			mu.Lock()
			checked += nChecked
			legal += nLegal
			mu.Unlock()
		}()
	}
	wg.Wait()
	t.Logf("%d programs checked, %d legal under DRFrlx, %d violate Theorem 3.1", checked, legal, len(violations))
	if legal == 0 {
		t.Fatal("no legal program checked")
	}
	sort.Strings(violations)
	for k, v := range violations {
		if k == 5 {
			t.Errorf("... and %d more", len(violations)-k)
			break
		}
		t.Errorf("Theorem 3.1 violated: %s", v)
	}
}
