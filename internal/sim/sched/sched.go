// Package sched is the simulator's clock: one queue type that orders
// pending work by the cycle it is due, then by the order it was pushed.
// The memory side's scheduled continuations and the mesh's in-flight
// messages both live in one, so "same cycle, first pushed, first out" is
// written once.
package sched

// Queue is a min-heap of values keyed by (cycle, push order). Values are
// stored by value, so pushing and popping allocate nothing once the
// backing array has grown to the queue's peak length. The zero Queue is
// empty and ready to use.
type Queue[T any] struct {
	items []item[T]
	seq   int64 // push counter: the tiebreak within a cycle
}

type item[T any] struct {
	cycle int64
	seq   int64
	v     T
}

func (q *Queue[T]) less(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.seq < b.seq
}

// Len returns the number of queued values.
func (q *Queue[T]) Len() int { return len(q.items) }

// Next returns the cycle the earliest value is due, or -1 when the queue
// is empty.
func (q *Queue[T]) Next() int64 {
	if len(q.items) == 0 {
		return -1
	}
	return q.items[0].cycle
}

// Push queues v to come due at cycle. Values due at the same cycle come
// out in the order they were pushed.
func (q *Queue[T]) Push(cycle int64, v T) {
	q.seq++
	q.items = append(q.items, item[T]{cycle: cycle, seq: q.seq, v: v})
	for i := len(q.items) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

// Pop removes and returns the earliest value if it is due by now; ok is
// false when the queue is empty or its earliest value is due later. A
// value pushed for a cycle at or before now while a caller drains the
// queue comes out in the same drain.
func (q *Queue[T]) Pop(now int64) (v T, ok bool) {
	h := q.items
	if len(h) == 0 || h[0].cycle > now {
		return v, false
	}
	v = h[0].v
	n := len(h) - 1
	h[0] = h[n]
	h[n] = item[T]{} // drop the vacated slot's references
	h = h[:n]
	q.items = h
	for i := 0; ; {
		s := i
		if l := 2*i + 1; l < n && q.less(l, s) {
			s = l
		}
		if r := 2*i + 2; r < n && q.less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	return v, true
}

// Each calls fn for every queued value with the cycle it is due, in no
// particular order (diagnostics snapshot the queue with it). fn must not
// push or pop.
func (q *Queue[T]) Each(fn func(cycle int64, v *T)) {
	for i := range q.items {
		fn(q.items[i].cycle, &q.items[i].v)
	}
}
