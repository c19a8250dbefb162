package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"rats/internal/core"
	"rats/internal/litmus"
)

// contended builds the contended-increment family: t threads each
// incrementing X k times with unpaired atomics. Every op conflicts with
// every other, so enumeration faces the full multinomial of
// interleavings while the verdict is simple: legal, and X ends at t*k.
func contended(t, k int) *litmus.Program {
	p := litmus.New(fmt.Sprintf("contended_%dx%d", t, k))
	for i := 0; i < t; i++ {
		th := p.Thread("h" + strconv.Itoa(i))
		for j := 0; j < k; j++ {
			th.Inc("X", core.Unpaired)
		}
	}
	return p
}

// fixedSolvePrograms is the seed-independent part of the litmus-solve
// pass: contention-dominated programs of 3-8 threads on which
// enumeration is 18-4000x slower than the solver or cannot finish, plus
// the two that keep phase 2 (solve.search) busy — Flags_3 under DRFrlx
// and EventCounter_3x1. Sizes keep any one program well under half a
// pass.
func fixedSolvePrograms() []solveProg {
	var out []solveProg
	for _, tk := range [][2]int{{3, 2}, {4, 2}, {5, 2}, {6, 2}, {8, 2}, {4, 3}, {7, 3}} {
		out = append(out, solveProg{prog: contended(tk[0], tk[1]), model: core.DRFrlx})
	}
	for _, n := range []int{3, 4} {
		for _, m := range []core.Model{core.DRF0, core.DRF1} {
			out = append(out, solveProg{prog: litmus.Flags(n), model: m})
		}
	}
	return append(out,
		solveProg{prog: litmus.RefCounter(), model: core.DRFrlx},
		solveProg{prog: litmus.RefCounterTwo(), model: core.DRFrlx},
		solveProg{prog: litmus.Flags(3), model: core.DRFrlx},
		solveProg{prog: litmus.EventCounter(3, 1), model: core.DRFrlx},
	)
}

// analyticContended is the reference for contended(t, k) when
// enumeration cannot finish.
func analyticContended(name string, t, k int, m core.Model) string {
	return diffText(name, m.String(), true, nil, []string{fmt.Sprintf("X=%d;", t*k)})
}

// seededSolvePrograms generates the seed-dependent part of the
// litmus-solve pass: four programs of 4 threads x 2 increments under a
// seeded model. The shape is fixed so that a pass costs about the same
// under every seed.
func seededSolvePrograms(seed int64) []solveProg {
	rng := rand.New(rand.NewSource(seed))
	var out []solveProg
	for g := 0; g < 4; g++ {
		p, want := incrementProgram(rng, "gen"+strconv.Itoa(g), 4, func() int { return 2 }, 0)
		m := core.Models()[rng.Intn(3)]
		out = append(out, solveProg{prog: p, model: m, want: want(m)})
	}
	return out
}

// incrementProgram generates a mixed-contention program: the given
// number of threads, each doing ops() increments of X or Y with unpaired
// or commutative atomics whose old values are discarded, from the
// initial values X=init and Y=init+1. Such a program is legal under every
// model and has exactly one SC result, the initial values plus the
// per-location increment counts; want renders that analytic verdict.
func incrementProgram(rng *rand.Rand, name string, threads int, ops func() int, init int64) (p *litmus.Program, want func(core.Model) string) {
	p = litmus.New(name)
	final := map[litmus.Loc]int64{}
	if init != 0 {
		p.SetInit("X", init)
		p.SetInit("Y", init+1)
		final["X"], final["Y"] = init, init+1
	}
	for t := 0; t < threads; t++ {
		th := p.Thread("g" + strconv.Itoa(t))
		for i, n := 0, ops(); i < n; i++ {
			loc := litmus.Loc([]string{"X", "Y"}[rng.Intn(2)])
			th.Inc(loc, []core.Class{core.Unpaired, core.Commutative}[rng.Intn(2)])
			final[loc]++
		}
	}
	key := ""
	for _, loc := range p.Locs() {
		key += fmt.Sprintf("%s=%d;", loc, final[loc])
	}
	return p, func(m core.Model) string { return diffText(name, m.String(), true, nil, []string{key}) }
}

// randomSmallProgram generates one of serve-mix's unique programs for
// the enumeration backend: 2-3 threads of 2-3 loads, stores and
// increments over X and Y with random classes (quantum excluded). A store
// of the distinct constant c makes every generated program canonically
// distinct, so each one misses the service's verdict cache.
func randomSmallProgram(rng *rand.Rand, name string, c int64) *litmus.Program {
	classes := []core.Class{core.Data, core.Paired, core.Unpaired, core.Commutative, core.NonOrdering, core.Speculative}
	locs := []litmus.Loc{"X", "Y"}
	p := litmus.New(name)
	for t, n := 0, 2+rng.Intn(2); t < n; t++ {
		th := p.Thread("t" + strconv.Itoa(t))
		for i, n := 0, 2+rng.Intn(2); i < n; i++ {
			cl := classes[rng.Intn(len(classes))]
			loc := locs[rng.Intn(len(locs))]
			switch rng.Intn(3) {
			case 0:
				r := th.Load(loc, cl)
				if rng.Intn(2) == 0 {
					th.Use(r)
				}
			case 1:
				th.Store(loc, int64(1+rng.Intn(2)), cl)
			default:
				th.RMWDiscard(core.OpInc, loc, 0, cl)
			}
		}
	}
	p.Threads[0].Store(locs[rng.Intn(2)], c, classes[rng.Intn(len(classes))])
	return p
}

// renamed returns a copy of p that is canonically equal to it but
// spelled differently: threads in reverse order and renamed, every
// location suffixed. The service answers it from p's cache entry, in the
// renamed namespace.
func renamed(p *litmus.Program, suffix string) *litmus.Program {
	cp := p.Relabel(func(c core.Class) core.Class { return c })
	q := litmus.New(p.Name + "_" + suffix)
	for l, v := range cp.Init {
		q.SetInit(litmus.Loc(string(l)+"_"+suffix), v)
	}
	q.QuantumDomain = cp.QuantumDomain
	for i := len(cp.Threads) - 1; i >= 0; i-- {
		th := cp.Threads[i]
		th.Name = th.Name + "_" + suffix
		for j := range th.Ops {
			if !th.Ops[j].IsBranch {
				th.Ops[j].Loc = litmus.Loc(string(th.Ops[j].Loc) + "_" + suffix)
			}
		}
		q.Threads = append(q.Threads, th)
	}
	return q
}
