package noc

import (
	"testing"
	"testing/quick"

	"rats/internal/stats"
)

func newTestMesh(hop int64) (*Mesh, *stats.Stats) {
	st := &stats.Stats{}
	return NewMesh(4, 4, hop, st), st
}

// recorder collects delivered messages in delivery order.
type recorder []Message

func (r *recorder) deliver(msg Message) { *r = append(*r, msg) }

func TestRouteXY(t *testing.T) {
	m, _ := newTestMesh(2)
	// Node layout: node = y*4 + x.
	path := m.Route(0, 15) // (0,0) -> (3,3)
	want := []int{1, 2, 3, 7, 11, 15}
	if len(path) != len(want) {
		t.Fatalf("path %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path %v, want %v", path, want)
		}
	}
	if len(m.Route(5, 5)) != 0 {
		t.Error("self route should be empty")
	}
}

func TestHops(t *testing.T) {
	m, _ := newTestMesh(2)
	for _, tc := range []struct{ a, b, want int }{
		{0, 15, 6}, {0, 0, 0}, {0, 3, 3}, {3, 12, 6}, {5, 6, 1},
	} {
		if got := m.Hops(tc.a, tc.b); got != tc.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestDeliveryLatency(t *testing.T) {
	m, _ := newTestMesh(2)
	var delivered recorder
	m.Send(0, Message{Src: 0, Dst: 15, Flits: 1, Payload: Payload{Txn: 1}})
	// 6 hops x 2 cycles = arrival at 12.
	for c := int64(0); c < 12; c++ {
		m.Tick(c, delivered.deliver)
		if len(delivered) != 0 {
			t.Fatalf("delivered early at cycle %d", c)
		}
	}
	m.Tick(12, delivered.deliver)
	if len(delivered) != 1 {
		t.Fatal("not delivered at cycle 12")
	}
}

func TestLocalDelivery(t *testing.T) {
	m, _ := newTestMesh(2)
	var delivered recorder
	m.Send(0, Message{Src: 7, Dst: 7, Flits: 1, Payload: Payload{Txn: 1}})
	m.Tick(2, delivered.deliver)
	if len(delivered) != 1 {
		t.Fatal("local message not delivered after router traversal")
	}
}

func TestLinkContention(t *testing.T) {
	m, _ := newTestMesh(1)
	var delivered recorder
	// Two 5-flit messages over the same single link (0 -> 1): the second
	// serializes behind the first.
	m.Send(0, Message{Src: 0, Dst: 1, Flits: 5, Payload: Payload{Txn: 1}})
	m.Send(0, Message{Src: 0, Dst: 1, Flits: 5, Payload: Payload{Txn: 2}})
	m.Tick(1, delivered.deliver)
	if len(delivered) != 1 {
		t.Fatalf("first message should arrive at hop latency; got %d", len(delivered))
	}
	m.Tick(5, delivered.deliver) // second departs at 5 (after 5 flits), arrives 6
	if len(delivered) != 1 {
		t.Fatal("second message arrived too early")
	}
	m.Tick(6, delivered.deliver)
	if len(delivered) != 2 {
		t.Fatal("second message should have arrived by cycle 6")
	}
}

func TestFlitHopAccounting(t *testing.T) {
	m, st := newTestMesh(2)
	m.Send(0, Message{Src: 0, Dst: 3, Flits: 5, Payload: Payload{Txn: 1}})
	if st.NoCFlitHops != 15 { // 3 hops x 5 flits
		t.Errorf("flit-hops = %d, want 15", st.NoCFlitHops)
	}
	if st.NoCMessages != 1 {
		t.Errorf("messages = %d, want 1", st.NoCMessages)
	}
}

func TestFIFOPerArrivalCycle(t *testing.T) {
	m, _ := newTestMesh(1)
	var delivered recorder
	// Same-cycle arrivals must deliver in send order (deterministic).
	m.Send(0, Message{Src: 4, Dst: 5, Flits: 1, Payload: Payload{Txn: 1}})
	m.Send(0, Message{Src: 6, Dst: 5, Flits: 1, Payload: Payload{Txn: 2}})
	m.Tick(10, delivered.deliver)
	if len(delivered) != 2 {
		t.Fatal("both should arrive")
	}
	if delivered[0].Payload.Txn != 1 || delivered[1].Payload.Txn != 2 {
		t.Error("delivery order not FIFO by send sequence")
	}
}

func TestPendingAndNextArrival(t *testing.T) {
	m, _ := newTestMesh(2)
	if m.Pending() || m.NextWork(0) != -1 {
		t.Fatal("fresh mesh should be idle")
	}
	m.Send(0, Message{Src: 0, Dst: 1, Flits: 1})
	if !m.Pending() || m.NextWork(0) != 2 {
		t.Fatalf("pending=%v nextWork=%d", m.Pending(), m.NextWork(0))
	}
	m.Tick(2, func(Message) {})
	if m.Pending() {
		t.Fatal("should be idle after delivery")
	}
}

// TestDeliveryIsComplete: every sent message is delivered exactly once,
// and never before Manhattan-distance x hop latency.
func TestDeliveryIsComplete(t *testing.T) {
	f := func(seed int64) bool {
		m, _ := newTestMesh(2)
		type rec struct {
			sent    int64
			arrived int64
			src     int
			dst     int
		}
		var recs []rec
		count := 0
		deliver := func(msg Message) {
			count++
			recs[msg.Payload.Txn].arrived = 1
		}
		rnd := seed
		next := func(n int) int {
			rnd = rnd*6364136223846793005 + 1442695040888963407
			v := int((rnd >> 33) % int64(n))
			if v < 0 {
				v += n
			}
			return v
		}
		const N = 50
		for i := 0; i < N; i++ {
			src, dst := next(16), next(16)
			recs = append(recs, rec{src: src, dst: dst})
			m.Send(int64(i), Message{Src: src, Dst: dst, Flits: 1 + next(5), Payload: Payload{Txn: int64(i)}})
		}
		for c := int64(0); c <= 100000 && m.Pending(); c++ {
			m.Tick(c, deliver)
		}
		if count != N {
			return false
		}
		for _, r := range recs {
			if r.arrived == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteOutOfRangePanics(t *testing.T) {
	m, _ := newTestMesh(2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.Route(0, 99)
}
