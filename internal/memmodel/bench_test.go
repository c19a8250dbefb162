package memmodel

import (
	"testing"

	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel/telemetry"
)

// benchProgram pulls a named program from the suite in its analysis form
// (quantum-equivalent under DRFrlx — what CheckProgram enumerates).
func benchProgram(b *testing.B, name string) *litmus.Program {
	b.Helper()
	tc := litmus.ByName(name)
	if tc == nil {
		b.Fatalf("no suite program named %q", name)
	}
	return tc.Prog.Under(core.DRFrlx)
}

func benchEnumerate(b *testing.B, p *litmus.Program, opts EnumOptions) {
	b.Helper()
	b.ReportAllocs()
	execs := 0
	for i := 0; i < b.N; i++ {
		got, err := Enumerate(p, opts)
		if err != nil {
			b.Fatal(err)
		}
		execs = len(got)
	}
	b.ReportMetric(float64(execs), "execs")
	b.ReportMetric(float64(execs)*float64(b.N)/b.Elapsed().Seconds(), "execs/sec")
}

// BenchmarkEnumerate compares the naive enumerator against the default
// sleep-set-reduced one, both collecting into a slice, on the catalog's
// enumeration-heavy programs. IRIW is the independence showcase (4
// threads, 2 locations: the reduction collapses 6300 interleavings to
// 15); RefCounterTwo is dominated by conflicting RMWs, bounding the
// reduction's overhead when little commutes; Flags_2 sits in between.
func BenchmarkEnumerate(b *testing.B) {
	for _, name := range []string{"IRIW", "Flags_2", "RefCounterTwo"} {
		p := benchProgram(b, name)
		b.Run(name+"/naive", func(b *testing.B) {
			benchEnumerate(b, p, EnumOptions{Quantum: true, Naive: true})
		})
		b.Run(name+"/por", func(b *testing.B) {
			benchEnumerate(b, p, EnumOptions{Quantum: true})
		})
		// The enabled-telemetry variant prices the atomic counters; the
		// plain por variant above is the disabled (nil-fold) path the CI
		// overhead gate pins against the pre-telemetry baseline.
		b.Run(name+"/por+tel", func(b *testing.B) {
			benchEnumerate(b, p, EnumOptions{Quantum: true, Telemetry: telemetry.NewCheck(name, "bench")})
		})
	}
}

// BenchmarkAnalyze measures per-execution race classification on catalog
// programs: "arena" reuses one analyzer across executions (the streaming
// pipeline's steady state — the allocs/op floor the CI gate enforces),
// "fresh" allocates a new arena per execution (the old behaviour of the
// package-level Analyze).
func BenchmarkAnalyze(b *testing.B) {
	for _, name := range []string{"WorkQueue", "Seqlocks", "Flags_2"} {
		p := benchProgram(b, name)
		execs, err := Enumerate(p, EnumOptions{Quantum: true})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/arena", func(b *testing.B) {
			b.ReportAllocs()
			an := new(analyzer)
			for i := 0; i < b.N; i++ {
				an.Analyze(execs[i%len(execs)])
			}
		})
		b.Run(name+"/fresh", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Analyze(execs[i%len(execs)])
			}
		})
	}
}

// BenchmarkCheckProgram measures whole-program verdicts: "streaming" is
// CheckProgram (the POR walk with each execution analyzed inline and the
// order memo), "materialize" is the two-phase reference that collects
// every execution into a slice and then analyzes serially. Both already
// use the bitset kernels; EXPERIMENTS.md records the pre-bitset serial
// baseline these are gated against.
func BenchmarkCheckProgram(b *testing.B) {
	for _, name := range []string{"WorkQueue", "Seqlocks", "Flags_2", "IRIW"} {
		tc := litmus.ByName(name)
		if tc == nil {
			b.Fatalf("no suite program named %q", name)
		}
		for _, mode := range []struct {
			name  string
			check func(*litmus.Program, core.Model) (*Verdict, error)
		}{
			{"streaming", CheckProgram},
			{"materialize", func(p *litmus.Program, m core.Model) (*Verdict, error) { return checkTwoPhase(p, m, nil) }},
		} {
			b.Run(name+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := mode.check(tc.Prog, core.DRFrlx); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		// Enabled-telemetry streaming variant: one fresh check per
		// iteration, matching how a sweep instruments each verdict.
		b.Run(name+"/streaming+tel", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := CheckOptions{Telemetry: telemetry.NewCheck(name, "bench")}
				if _, err := CheckProgramWith(tc.Prog, core.DRFrlx, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolve compares the constraint solver (Mode: solve)
// against the streaming enumeration pipeline on contention-dominated
// programs — the shape POR cannot reduce, because every increment
// conflicts with every other. contended(5,2) is the ratio pair the CI
// gate pins at >=10x; contended(7,3) has too many interleavings to
// enumerate at all, so only the solver runs there (the absolute-latency
// evidence). Flags_2 prices the solver on an ordinary catalog case
// where POR already collapses the space. Flags_4 under DRF0 is the
// litmus-solve check whose time goes to the state engine (phase 3).
func BenchmarkSolve(b *testing.B) {
	run := func(b *testing.B, p *litmus.Program, m core.Model, opts CheckOptions) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := CheckProgramWith(p, m, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	c52 := contendedProgram(5, 2)
	b.Run("contended_5x2/enumerate", func(b *testing.B) {
		run(b, c52, core.DRFrlx, CheckOptions{})
	})
	b.Run("contended_5x2/solve", func(b *testing.B) {
		run(b, c52, core.DRFrlx, CheckOptions{Mode: ModeSolve})
	})
	b.Run("contended_7x3/solve", func(b *testing.B) {
		run(b, contendedProgram(7, 3), core.DRFrlx, CheckOptions{Mode: ModeSolve})
	})
	tc := litmus.ByName("Flags_2")
	if tc == nil {
		b.Fatal("no suite program named Flags_2")
	}
	b.Run("Flags_2/solve", func(b *testing.B) {
		run(b, tc.Prog, core.DRFrlx, CheckOptions{Mode: ModeSolve})
	})
	b.Run("Flags_4/solve", func(b *testing.B) {
		run(b, litmus.Flags(4), core.DRF0, CheckOptions{Mode: ModeSolve})
	})
}

// BenchmarkSystemResults pins the memoized system-model search on the
// theorem fuzzer's worst case shape (every interleaving of a 3×3
// program converges onto few distinct states).
func BenchmarkSystemResults(b *testing.B) {
	p := benchProgram(b, "RefCounterTwo")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := systemSearch(p, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}
