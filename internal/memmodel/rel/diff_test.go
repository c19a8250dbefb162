package rel

import (
	"fmt"
	"math/rand"
	"testing"
)

// toBool converts a bitset relation to the reference representation.
func toBool(r Rel) boolRel {
	c := newBoolRel(r.Size())
	r.ForEach(func(i, j int) { c.Set(i, j) })
	return c
}

// equalRefs compares a bitset relation against a reference relation
// exactly (same size, same pairs).
func equalRef(r Rel, ref boolRel) error {
	if r.Size() != ref.Size() {
		return fmt.Errorf("size %d vs %d", r.Size(), ref.Size())
	}
	for i := 0; i < r.Size(); i++ {
		for j := 0; j < r.Size(); j++ {
			if r.Has(i, j) != ref.Has(i, j) {
				return fmt.Errorf("pair (%d,%d): bitset %v, reference %v", i, j, r.Has(i, j), ref.Has(i, j))
			}
		}
	}
	return nil
}

func randPair(rng *rand.Rand, n int, density float64) (Rel, boolRel) {
	r := New(n)
	ref := newBoolRel(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				r.Set(i, j)
				ref.Set(i, j)
			}
		}
	}
	return r, ref
}

func randSet(rng *rand.Rand, n int, density float64) []bool {
	s := make([]bool, n)
	for i := range s {
		s[i] = rng.Float64() < density
	}
	return s
}

// TestDifferentialAgainstReference checks every bitset operator against
// the retained []bool implementation on randomized relations of sizes
// 1–80 (crossing the one-word boundary at 64) and densities from sparse
// to near-full.
func TestDifferentialAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(80)
		if trial%10 == 0 {
			// Force word-boundary sizes regularly.
			n = []int{1, 63, 64, 65, 80}[rng.Intn(5)]
		}
		density := []float64{0.02, 0.1, 0.3, 0.7, 0.95}[rng.Intn(5)]
		a, refA := randPair(rng, n, density)
		b, refB := randPair(rng, n, density)

		type op struct {
			name string
			got  Rel
			want boolRel
		}
		checks := []op{
			{"Union", a.Union(b), refA.Union(refB)},
			{"Inter", a.Inter(b), refA.Inter(refB)},
			{"Diff", a.Diff(b), refA.Diff(refB)},
			{"Compose", a.Compose(b), refA.Compose(refB)},
			{"Inverse", a.Inverse(), refA.Inverse()},
			{"TransClosure", a.TransClosure(), refA.TransClosure()},
			{"ReflTransClosure", a.ReflTransClosure(), refA.ReflTransClosure()},
			{"Sym", a.Sym(), refA.Sym()},
			{"Identity", Identity(n), boolIdentity(n)},
		}
		for _, c := range checks {
			if err := equalRef(c.got, c.want); err != nil {
				t.Fatalf("n=%d density=%.2f %s: %v", n, density, c.name, err)
			}
		}

		// Scalar queries.
		if a.Count() != refA.Count() {
			t.Fatalf("n=%d Count: %d vs %d", n, a.Count(), refA.Count())
		}
		if a.Empty() != refA.Empty() {
			t.Fatalf("n=%d Empty: %v vs %v", n, a.Empty(), refA.Empty())
		}
		if a.Acyclic() != refA.Acyclic() {
			t.Fatalf("n=%d Acyclic: %v vs %v", n, a.Acyclic(), refA.Acyclic())
		}
		if fmt.Sprint(a.Pairs()) != fmt.Sprint(refA.Pairs()) {
			t.Fatalf("n=%d Pairs differ", n)
		}

		// Set-product and restriction operators.
		sa, sb := randSet(rng, n, 0.5), randSet(rng, n, 0.5)
		if err := equalRef(Cross(sa, sb), boolCross(sa, sb)); err != nil {
			t.Fatalf("n=%d Cross: %v", n, err)
		}
		if err := equalRef(a.Restrict(sa, sb), refA.Inter(boolCross(sa, sb))); err != nil {
			t.Fatalf("n=%d Restrict: %v", n, err)
		}

		// In-place variants must match their allocating counterparts.
		in := a.Clone()
		in.UnionIn(b)
		if err := equalRef(in, refA.Union(refB)); err != nil {
			t.Fatalf("n=%d UnionIn: %v", n, err)
		}
		in.CopyFrom(a)
		in.InterIn(b)
		if err := equalRef(in, refA.Inter(refB)); err != nil {
			t.Fatalf("n=%d InterIn: %v", n, err)
		}
		in.CopyFrom(a)
		in.DiffIn(b)
		if err := equalRef(in, refA.Diff(refB)); err != nil {
			t.Fatalf("n=%d DiffIn: %v", n, err)
		}
		in.CopyFrom(a)
		in.TransCloseIn()
		if err := equalRef(in, refA.TransClosure()); err != nil {
			t.Fatalf("n=%d TransCloseIn: %v", n, err)
		}
		in.CopyFrom(a)
		in.ReflTransCloseIn()
		if err := equalRef(in, refA.ReflTransClosure()); err != nil {
			t.Fatalf("n=%d ReflTransCloseIn: %v", n, err)
		}
		in.ComposeInto(a, b)
		if err := equalRef(in, refA.Compose(refB)); err != nil {
			t.Fatalf("n=%d ComposeInto: %v", n, err)
		}
		in.InverseInto(a)
		if err := equalRef(in, refA.Inverse()); err != nil {
			t.Fatalf("n=%d InverseInto: %v", n, err)
		}

		// Mask kernels against their definitional expansions.
		sBits := BitsFromBools(sa)
		any := make([]bool, n)
		for i := range any {
			any[i] = true
		}
		in.InterAloInto(a, sBits)
		alo := refA.Inter(boolCross(sa, any).Union(boolCross(any, sa)))
		if err := equalRef(in, alo); err != nil {
			t.Fatalf("n=%d InterAloInto: %v", n, err)
		}
		in.CopyFrom(a)
		in.RestrictToIn(sBits)
		if err := equalRef(in, refA.Inter(boolCross(sa, sa))); err != nil {
			t.Fatalf("n=%d RestrictToIn: %v", n, err)
		}
		in.CrossIn(BitsFromBools(sa), BitsFromBools(sb))
		if err := equalRef(in, boolCross(sa, sb)); err != nil {
			t.Fatalf("n=%d CrossIn: %v", n, err)
		}

		// ForEach visits exactly the reference pairs, in row-major order.
		var fe [][2]int
		a.ForEach(func(i, j int) { fe = append(fe, [2]int{i, j}) })
		if fmt.Sprint(fe) != fmt.Sprint(refA.Pairs()) {
			t.Fatalf("n=%d ForEach ordering differs", n)
		}
	}
}

// TestBitsMatchesBoolSets checks the Bits set ops against plain []bool
// reasoning on randomized sets of sizes 1–80.
func TestBitsMatchesBoolSets(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(80)
		va, vb := randSet(rng, n, 0.4), randSet(rng, n, 0.4)
		a, b := BitsFromBools(va), BitsFromBools(vb)
		count, anyB := 0, false
		for i := 0; i < n; i++ {
			if a.Has(i) != va[i] {
				t.Fatalf("n=%d Has(%d) mismatch", n, i)
			}
			if va[i] {
				count++
				anyB = true
			}
		}
		if a.Count() != count || a.Any() != anyB {
			t.Fatalf("n=%d Count/Any mismatch", n)
		}
		check := func(name string, got Bits, want func(x, y bool) bool) {
			for i := 0; i < n; i++ {
				if got.Has(i) != want(va[i], vb[i]) {
					t.Fatalf("n=%d %s bit %d mismatch", n, name, i)
				}
			}
		}
		s := MakeBits(n)
		s.CopyFrom(a)
		s.AndIn(b)
		check("AndIn", s, func(x, y bool) bool { return x && y })
		s.CopyFrom(a)
		s.AndNotIn(b)
		check("AndNotIn", s, func(x, y bool) bool { return x && !y })

		k := rng.Intn(n)
		s.CopyFrom(a)
		s.KeepAbove(k)
		for i := 0; i < n; i++ {
			want := va[i] && i > k
			if s.Has(i) != want {
				t.Fatalf("n=%d KeepAbove(%d) bit %d: got %v want %v", n, k, i, s.Has(i), want)
			}
		}

		var visited []int
		a.ForEach(func(i int) { visited = append(visited, i) })
		for idx := 1; idx < len(visited); idx++ {
			if visited[idx] <= visited[idx-1] {
				t.Fatalf("ForEach not ascending: %v", visited)
			}
		}
		if len(visited) != count {
			t.Fatalf("ForEach visited %d, want %d", len(visited), count)
		}
	}
}

// TestResizedReusesStorage pins the arena contract: shrinking or
// same-size Resized reuses the backing array and clears it.
func TestResizedReusesStorage(t *testing.T) {
	r := New(64)
	r.Set(3, 5)
	small := r.Resized(16)
	if small.Size() != 16 || !small.Empty() {
		t.Fatalf("Resized(16): size %d empty %v", small.Size(), small.Empty())
	}
	small.Set(1, 2)
	grown := small.Resized(80)
	if grown.Size() != 80 || !grown.Empty() {
		t.Fatalf("Resized(80): size %d empty %v", grown.Size(), grown.Empty())
	}
}
