package report

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeomean(t *testing.T) {
	if g := Geomean(nil); g != 1 {
		t.Errorf("empty geomean = %f", g)
	}
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Errorf("geomean(2,8) = %f", g)
	}
	if g := Geomean([]float64{5}); math.Abs(g-5) > 1e-9 {
		t.Errorf("geomean(5) = %f", g)
	}
}

// Geomean lies between min and max (property).
func TestGeomeanBounds(t *testing.T) {
	f := func(a, b, c uint16) bool {
		vals := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		g := Geomean(vals)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("test", "wl", []string{"A", "B"})
	tb.Set("x", "A", 10)
	tb.Set("x", "B", 5)
	tb.Set("y", "A", 4)
	tb.Set("y", "B", 8)
	if tb.Get("x", "B") != 5 || tb.Get("zzz", "A") != 0 {
		t.Fatal("get wrong")
	}
	n := tb.Normalize("A")
	if n.Get("x", "A") != 1 || n.Get("x", "B") != 0.5 || n.Get("y", "B") != 2 {
		t.Fatalf("normalize wrong: %+v", n.Cells)
	}
	if g := n.ColGeomean("B"); math.Abs(g-1) > 1e-9 {
		t.Errorf("col geomean = %f, want 1", g)
	}
	out := n.Render("%10.3f", true)
	for _, want := range []string{"wl", "A", "B", "x", "y", "geomean", "0.500", "2.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRowOrderPreserved(t *testing.T) {
	tb := NewTable("t", "r", []string{"C"})
	for _, r := range []string{"z", "a", "m"} {
		tb.Set(r, "C", 1)
	}
	if tb.Rows[0] != "z" || tb.Rows[1] != "a" || tb.Rows[2] != "m" {
		t.Errorf("row order not insertion order: %v", tb.Rows)
	}
}

func TestStackedTable(t *testing.T) {
	st := NewStackedTable("energy", []string{"L1", "L2"}, []string{"GD0", "DDR"})
	st.Set("H", "GD0", "L1", 6)
	st.Set("H", "GD0", "L2", 4)
	st.Set("H", "DDR", "L1", 3)
	st.Set("H", "DDR", "L2", 2)
	if st.Total("H", "GD0") != 10 || st.Total("H", "DDR") != 5 {
		t.Fatal("totals wrong")
	}
	out := st.Render("GD0")
	if !strings.Contains(out, "0.500") { // DDR total normalized
		t.Errorf("render missing normalized total:\n%s", out)
	}
	if !strings.Contains(out, "energy") {
		t.Error("title missing")
	}
}
