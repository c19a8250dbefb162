package main

import (
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel"
	"rats/internal/serve"
	"rats/internal/workloads"
)

// Each workload runs at reduced size twice with the same seed: the exact
// counts it reports (simulated statistics, checker telemetry, solver
// counters) must repeat bit for bit, and generated inputs must follow
// the seed.

func TestFiguresRepeat(t *testing.T) {
	run := func() *figuresBench {
		f, err := newFiguresBench(config{traced: true}, workloads.Test)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, errs := f.sweep(); errors.Join(errs...) != nil {
			t.Fatal(errors.Join(errs...))
		}
		return f
	}
	a, b := run(), run()
	if a.totals != b.totals {
		t.Errorf("simulated statistics differ between identical sweeps:\n%+v\n%+v", a.totals, b.totals)
	}
	if a.totals.Cycles == 0 || len(a.tr.traces) != len(a.jobs) {
		t.Errorf("sweep recorded %d traces for %d jobs, %d cycles", len(a.tr.traces), len(a.jobs), a.totals.Cycles)
	}
}

// exactCounts drops the scheduling-dependent fields (analysis workers
// spawned, idle waits, wall time) from a checkCounts.
func exactCounts(c checkCounts) checkCounts {
	c.workers, c.idleWaits, c.sysMs = 0, 0, 0
	return c
}

func TestCatalogRepeat(t *testing.T) {
	run := func() checkCounts {
		c := &catalogBench{cfg: config{traced: true}, tr: newOpTracer(true)}
		for _, tc := range litmus.Suite() {
			if !heavyCases[tc.Prog.Name] {
				c.suite = append(c.suite, tc)
			}
		}
		tr := c.tr.start("catalog-pass")
		if _, err := c.tracedPass(tr); err != nil {
			t.Fatal(err)
		}
		c.tr.finish(tr)
		return exactCounts(c.counts)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("checker telemetry differs between identical passes:\n%+v\n%+v", a, b)
	}
	if a.executions == 0 || a.sysMemoHits == 0 {
		t.Errorf("pass recorded no executions or memo hits: %+v", a)
	}
}

func TestSolveRepeat(t *testing.T) {
	run := func(seed int64) (*solveBench, checkCounts) {
		b, err := setupSolve(config{seed: seed, traced: true})
		if err != nil {
			t.Fatal(err)
		}
		s := b.(*solveBench)
		tr := s.tr.start("solve-pass")
		vs, err := s.pass(tr)
		if err == nil {
			err = s.verify(vs)
		}
		if err != nil {
			t.Fatal(err)
		}
		s.tr.finish(tr)
		return s, exactCounts(s.counts)
	}
	a, ca := run(7)
	b, cb := run(7)
	if ca != cb {
		t.Errorf("solver counters differ between identical passes:\n%+v\n%+v", ca, cb)
	}
	if ca.searched == 0 || ca.decisions == 0 {
		t.Errorf("no check reached phase 2, or no decisions: %+v", ca)
	}
	other, _ := run(8)
	same, differ := true, false
	for i := range a.progs {
		fa, fb, fo := litmus.Format(a.progs[i].prog), litmus.Format(b.progs[i].prog), litmus.Format(other.progs[i].prog)
		same = same && fa == fb
		differ = differ || fa != fo
	}
	if !same || !differ {
		t.Errorf("generated programs: same seed identical=%v, other seed different=%v", same, differ)
	}
}

// TestSeededSolveReferences checks the analytic references of generated
// litmus-solve programs against the enumeration pipeline wherever
// enumeration finishes, and that the solver agrees with enumeration on
// the increment family serve-mix sends in solve mode.
func TestSeededSolveReferences(t *testing.T) {
	for i := 0; i < 2000; i++ {
		rng := rand.New(&splitmix{uint64(i)})
		p, want := incrementProgram(rng, "u", 2+rng.Intn(2), func() int { return 1 + rng.Intn(3) }, int64(1000+2*i))
		m := core.Models()[i%3]
		for _, mode := range []memmodel.Mode{memmodel.ModeEnumerate, memmodel.ModeSolve} {
			v, err := memmodel.CheckProgramWith(p, m, memmodel.CheckOptions{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if got := renderVerdict(p.Name, v); got != want(m) {
				t.Fatalf("%s under %s, mode %q:\n%s\ngives\n%s, analytic reference is\n%s", p.Name, m, mode, litmus.Format(p), got, want(m))
			}
		}
	}
	checked := 0
	for seed := int64(1); seed <= 5; seed++ {
		for _, sp := range seededSolvePrograms(seed) {
			v, err := memmodel.CheckProgramWith(sp.prog, sp.model, memmodel.CheckOptions{Limit: 20_000})
			if errors.Is(err, memmodel.ErrLimit) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := renderVerdict(sp.prog.Name, v); got != sp.want {
				t.Errorf("seed %d %s: enumeration gives\n%s, analytic reference is\n%s", seed, sp.key(), got, sp.want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no generated program was small enough to enumerate")
	}
}

// TestServeMix runs a reduced serve-mix against an in-process service:
// every response must match its reference, and the traffic must follow
// the seed.
func TestServeMix(t *testing.T) {
	run := func(seed int64) *serveBench {
		s, fill, err := newServeMix(config{seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		svc := serve.New(serve.Options{})
		mux := http.NewServeMux()
		mux.Handle("/", svc.Handler())
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) { svc.WriteMetrics(w) })
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		s.base = ts.URL
		if err := s.fill(fill); err != nil {
			t.Fatal(err)
		}
		m, err := s.measure(0, 300)
		if err != nil {
			t.Fatal(err)
		}
		if m.failed != 0 {
			t.Fatalf("%d of %d requests failed", m.failed, m.attempted)
		}
		if s.delta("shed") != 0 || s.delta("deadline_exceeded") != 0 {
			t.Errorf("service shed or missed deadlines: %v", s.after)
		}
		return s
	}
	a, b, other := run(3), run(3), run(4)
	for i := 0; i < 300; i++ {
		pa, pb, po := a.plan(i), b.plan(i), other.plan(i)
		if !reflect.DeepEqual(pa, pb) {
			t.Fatalf("request %d differs between runs with the same seed", i)
		}
		if pa.kind == kindUnique && po.kind == kindUnique && pa.program == po.program {
			t.Fatalf("request %d is the same program under another seed", i)
		}
	}
}
