package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLookupInsert(t *testing.T) {
	a := NewArray(4, 2)
	if a.Lookup(100) != Invalid {
		t.Fatal("empty cache should miss")
	}
	if _, ev := a.Insert(100, Valid, false); ev {
		t.Fatal("no eviction expected")
	}
	if a.Lookup(100) != Valid {
		t.Fatal("inserted line should hit")
	}
	// Same set (4 sets): 100 % 4 == 0; 104 % 4 == 0.
	a.Insert(104, Owned, true)
	if a.Lookup(104) != Owned {
		t.Fatal("owned line should hit")
	}
	// Third line in the same set evicts LRU (line 100, untouched since
	// 104's insert... but 100 was looked up; touch 104 to make 100 LRU).
	a.Lookup(104)
	v, ev := a.Insert(108, Valid, false)
	if !ev || v.LineAddr != 100 {
		t.Fatalf("expected eviction of 100, got %+v ev=%v", v, ev)
	}
}

func TestInPlaceUpgrade(t *testing.T) {
	a := NewArray(4, 2)
	a.Insert(8, Valid, false)
	if _, ev := a.Insert(8, Owned, true); ev {
		t.Fatal("in-place upgrade must not evict")
	}
	if a.Peek(8) != Owned {
		t.Fatal("upgrade lost")
	}
	a.SetDirty(8)
	if got := a.Invalidate(8); got != Owned {
		t.Fatalf("Invalidate returned %v", got)
	}
	if a.Peek(8) != Invalid {
		t.Fatal("line survived invalidation")
	}
}

func TestFlashInvalidateKeep(t *testing.T) {
	a := NewArray(8, 4)
	a.Insert(1, Valid, false)
	a.Insert(2, Owned, true)
	a.Insert(3, Valid, false)
	n := a.FlashInvalidate(func(l Line) bool { return l.State == Owned })
	if n != 2 {
		t.Fatalf("dropped %d, want 2", n)
	}
	if a.Peek(2) != Owned || a.Peek(1) != Invalid || a.Peek(3) != Invalid {
		t.Fatal("keep predicate not honoured")
	}
	if a.CountState(Owned) != 1 || a.CountState(Valid) != 0 {
		t.Fatal("counts wrong")
	}
	// nil keep drops everything.
	if got := a.FlashInvalidate(nil); got != 1 {
		t.Fatalf("second flash dropped %d, want 1", got)
	}
}

// TestLRUProperty: with an access sequence over a single set, the victim
// is always the least recently used line.
func TestLRUProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewArray(1, 4)
		// Model of recency.
		var order []uint64 // most recent last
		touch := func(line uint64) {
			for i, l := range order {
				if l == line {
					order = append(order[:i], order[i+1:]...)
					break
				}
			}
			order = append(order, line)
		}
		for i := 0; i < 200; i++ {
			line := uint64(rng.Intn(8))
			if a.Lookup(line) != Invalid {
				touch(line)
				continue
			}
			v, ev := a.Insert(line, Valid, false)
			if ev {
				if v.LineAddr != order[0] {
					return false
				}
				order = order[1:]
			}
			touch(line)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMSHRLifecycle(t *testing.T) {
	m := NewMSHR(2, 2)
	if m.Full() || m.Lookup(5) != nil {
		t.Fatal("fresh MSHR wrong")
	}
	e := m.Allocate(5, true, 1)
	m.Coalesce(e, Waiter{Store: SBEntry{Line: 5, Txn: 1}}, 1)
	if !m.CanCoalesce(e) {
		t.Fatal("one waiter of two targets should coalesce")
	}
	m.Coalesce(e, Waiter{Store: SBEntry{Line: 5, Txn: 2}}, 2)
	if m.CanCoalesce(e) {
		t.Fatal("target cap not enforced")
	}
	m.Allocate(9, false, 2)
	if !m.Full() {
		t.Fatal("capacity 2 should be full")
	}
	ws := m.Release(5, nil)
	if len(ws) != 2 || ws[0].Store.Txn != 1 || ws[1].Store.Txn != 2 || m.Outstanding() != 1 {
		t.Fatal("release wrong")
	}
	// Released entries recycle with their waiter lists cleared.
	e2 := m.Allocate(5, false, 3)
	if len(e2.Waiters) != 0 {
		t.Fatal("recycled entry kept stale waiters")
	}
}

func TestMSHRPanics(t *testing.T) {
	m := NewMSHR(1, 4)
	m.Allocate(1, false, 1)
	for _, fn := range []func(){
		func() { m.Allocate(2, false, 2) }, // full
		func() { m.Release(3, nil) },       // absent
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
	// Double allocate panics even with room.
	m2 := NewMSHR(4, 4)
	m2.Allocate(1, false, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected double-allocate panic")
		}
	}()
	m2.Allocate(1, true, 2)
}

func TestStoreBuffer(t *testing.T) {
	b := NewStoreBuffer(2)
	if !b.Drained() || b.Full() {
		t.Fatal("fresh buffer wrong")
	}
	b.Push(SBEntry{Line: 1, Txn: 1})
	b.Push(SBEntry{Line: 2, Txn: 2})
	if !b.Full() || b.Drained() || b.Len() != 2 {
		t.Fatal("full buffer wrong")
	}
	if e, ok := b.Peek(); !ok || e.Txn != 1 {
		t.Fatal("peek wrong")
	}
	if e, ok := b.Pop(); !ok || e.Txn != 1 || b.Unacked() != 1 {
		t.Fatal("pop wrong")
	}
	b.Pop()
	if b.Drained() {
		t.Fatal("unacked entries must block drain")
	}
	b.Ack()
	b.Ack()
	if !b.Drained() {
		t.Fatal("acked buffer should be drained")
	}
	if _, ok := b.Pop(); ok {
		t.Fatal("empty pop should report not-ok")
	}
}

func TestStoreBufferPanics(t *testing.T) {
	b := NewStoreBuffer(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected ack panic")
			}
		}()
		b.Ack()
	}()
	b.Push(SBEntry{Line: 1})
	defer func() {
		if recover() == nil {
			t.Error("expected push-full panic")
		}
	}()
	b.Push(SBEntry{Line: 2})
}

// TestStoreBufferFIFO: drain order equals push order (property).
func TestStoreBufferFIFO(t *testing.T) {
	f := func(n uint8) bool {
		k := int(n%32) + 1
		b := NewStoreBuffer(k)
		for i := 0; i < k; i++ {
			b.Push(SBEntry{Txn: int64(i)})
		}
		for i := 0; i < k; i++ {
			if e, ok := b.Pop(); !ok || e.Txn != int64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{Invalid: "I", Valid: "V", Owned: "O"} {
		if st.String() != want {
			t.Errorf("%v string wrong", st)
		}
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewArray(0, 4)
}
