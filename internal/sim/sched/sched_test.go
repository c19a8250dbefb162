package sched

import (
	"math/rand"
	"testing"
)

// refQueue is the reference the heap is checked against: a plain slice
// scanned for the (cycle, push order) minimum.
type refQueue struct {
	items []refItem
	seq   int64
}

type refItem struct {
	cycle, seq int64
	v          int
}

func (r *refQueue) push(cycle int64, v int) {
	r.seq++
	r.items = append(r.items, refItem{cycle: cycle, seq: r.seq, v: v})
}

// min returns the index of the earliest item, or -1 when empty.
func (r *refQueue) min() int {
	best := -1
	for i, it := range r.items {
		if best < 0 || it.cycle < r.items[best].cycle ||
			(it.cycle == r.items[best].cycle && it.seq < r.items[best].seq) {
			best = i
		}
	}
	return best
}

func (r *refQueue) next() int64 {
	if i := r.min(); i >= 0 {
		return r.items[i].cycle
	}
	return -1
}

func (r *refQueue) pop(now int64) (int, bool) {
	i := r.min()
	if i < 0 || r.items[i].cycle > now {
		return 0, false
	}
	v := r.items[i].v
	r.items = append(r.items[:i], r.items[i+1:]...)
	return v, true
}

// TestQueueMatchesReference drives the queue and the reference with the
// same random schedule — pushes with many ties (including cycles already
// past), drains at increasing now, and pushes for the current cycle made
// mid-drain, which must come out in the same drain — and compares every
// popped value and Next and Len after every step.
func TestQueueMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue[int]
		var ref refQueue
		check := func(where string) {
			t.Helper()
			if q.Len() != len(ref.items) || q.Next() != ref.next() {
				t.Fatalf("seed %d, %s: Len %d Next %d, reference Len %d Next %d",
					seed, where, q.Len(), q.Next(), len(ref.items), ref.next())
			}
		}
		check("empty")
		now, v := int64(0), 0
		for step := 0; step < 300; step++ {
			if rng.Intn(3) > 0 {
				// Cycles within a narrow window force ties; some land at
				// or before now and are due at once.
				c := now - 2 + int64(rng.Intn(8))
				v++
				q.Push(c, v)
				ref.push(c, v)
				check("push")
				continue
			}
			now += int64(rng.Intn(4))
			for {
				got, ok := q.Pop(now)
				want, wantOK := ref.pop(now)
				if got != want || ok != wantOK {
					t.Fatalf("seed %d, Pop(%d) = %d, %v; reference %d, %v", seed, now, got, ok, want, wantOK)
				}
				check("pop")
				if !ok {
					break
				}
				if rng.Intn(4) == 0 {
					// A handler scheduling more work for this very cycle.
					v++
					q.Push(now, v)
					ref.push(now, v)
					check("push during drain")
				}
			}
		}
		// Drain the rest at a cycle past every push.
		for {
			got, ok := q.Pop(now + 100)
			want, wantOK := ref.pop(now + 100)
			if got != want || ok != wantOK {
				t.Fatalf("seed %d, final drain: %d, %v; reference %d, %v", seed, got, ok, want, wantOK)
			}
			check("final drain")
			if !ok {
				break
			}
		}
	}
}

// TestQueueEach: Each visits every queued value once, with its cycle.
func TestQueueEach(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue[int]
	var ref refQueue
	for v := 1; v <= 100; v++ {
		c := int64(rng.Intn(20))
		q.Push(c, v)
		ref.push(c, v)
		if v%3 == 0 {
			now := int64(rng.Intn(5))
			q.Pop(now)
			ref.pop(now)
		}
	}
	got := map[int]int64{} // values are distinct
	q.Each(func(cycle int64, v *int) { got[*v] = cycle })
	if len(got) != len(ref.items) {
		t.Fatalf("Each visited %d distinct values, reference holds %d", len(got), len(ref.items))
	}
	for _, it := range ref.items {
		if c, ok := got[it.v]; !ok || c != it.cycle {
			t.Errorf("value %d: Each gave cycle %d (visited %v), want %d", it.v, c, ok, it.cycle)
		}
	}
}
