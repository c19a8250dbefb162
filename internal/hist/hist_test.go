package hist

import (
	"math/rand"
	"sort"
	"testing"
)

func TestExactBelowSubCount(t *testing.T) {
	var h Histogram
	for v := int64(0); v < subCount; v++ {
		h.Record(v)
	}
	if got := h.Quantile(0); got != 0 {
		t.Errorf("q0 = %d, want 0", got)
	}
	if got := h.Quantile(1); got != subCount-1 {
		t.Errorf("q1 = %d, want %d", got, subCount-1)
	}
	// Every small value is its own bucket, so the median is exact.
	if got := h.Quantile(0.5); got != subCount/2-1 && got != subCount/2 {
		t.Errorf("q0.5 = %d, want ~%d", got, subCount/2)
	}
}

func TestBucketRoundTrip(t *testing.T) {
	// upperBound(bucketIndex(v)) must be >= v, and the next bucket's
	// upper bound must be > this one's (buckets are ordered and disjoint).
	vals := []int64{0, 1, 31, 32, 33, 63, 64, 65, 100, 1023, 1024, 1 << 20, 1<<40 + 12345}
	for _, v := range vals {
		i := bucketIndex(v)
		if u := upperBound(i); u < v {
			t.Errorf("upperBound(bucketIndex(%d)) = %d < value", v, u)
		}
		if i > 0 && upperBound(i-1) >= v {
			t.Errorf("value %d should not fit in bucket %d (upper %d)", v, i-1, upperBound(i-1))
		}
	}
}

func TestRelativeErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	var vals []int64
	for i := 0; i < 5000; i++ {
		v := int64(rng.Intn(1 << 16))
		vals = append(vals, v)
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99} {
		rank := int(q*float64(len(vals)) + 0.5)
		if rank < 1 {
			rank = 1
		}
		exact := vals[rank-1]
		got := h.Quantile(q)
		if got < exact {
			t.Errorf("q%.2f = %d below exact %d", q, got, exact)
		}
		// Upper bound within one sub-bucket width: <= exact * (1 + 2^-subBits) + 1.
		lim := exact + exact>>subBits + 1
		if got > lim {
			t.Errorf("q%.2f = %d exceeds error bound %d (exact %d)", q, got, lim, exact)
		}
	}
}

func TestMergeMatchesCombinedRecording(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var a, b, both Histogram
	for i := 0; i < 2000; i++ {
		v := int64(rng.Intn(1 << 12))
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		both.Record(v)
	}
	a.Merge(&b)
	if a != both {
		t.Fatal("merged histogram differs from directly-recorded one")
	}
}

func TestEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Max() != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	var o Histogram
	o.Record(5)
	h.Merge(&o)
	if h.Max() != 5 || h.Count() != 1 {
		t.Fatal("merge into empty lost state")
	}
}

func TestEachCoversAllCounts(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 1, 40, 40, 40, 5000} {
		h.Record(v)
	}
	var n, lastUpper int64 = 0, -1
	h.Each(func(upper, count int64) {
		if upper <= lastUpper {
			t.Fatalf("Each out of order: %d after %d", upper, lastUpper)
		}
		lastUpper = upper
		n += count
	})
	if n != h.Count() {
		t.Fatalf("Each visited %d counts, want %d", n, h.Count())
	}
}

func BenchmarkRecord(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Record(int64(i & 0xffff))
	}
}

func BenchmarkQuantile(b *testing.B) {
	var h Histogram
	for v := int64(0); v < 1<<16; v += 7 {
		h.Record(v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Quantile(0.99)
	}
}

func TestP999TracksTail(t *testing.T) {
	var h Histogram
	for i := 0; i < 1997; i++ {
		h.Record(10)
	}
	for i := 0; i < 3; i++ {
		h.Record(100000)
	}
	s := h.Summarize()
	if s.P99 >= s.P999 {
		t.Fatalf("P99 %d should be below P999 %d with a 1.5-in-1000 outlier", s.P99, s.P999)
	}
	if s.P999 < 100000 || s.P999 != s.Max {
		t.Fatalf("P999 = %d, want clamped to max %d", s.P999, s.Max)
	}
}

func TestUpperForMatchesEach(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 31, 32, 1000, 123456, 1 << 40} {
		h.Record(v)
		u := UpperFor(v)
		if v > u {
			t.Fatalf("UpperFor(%d) = %d is below the value", v, u)
		}
		found := false
		h.Each(func(upper, count int64) {
			if upper == u {
				found = true
			}
		})
		if !found {
			t.Fatalf("UpperFor(%d) = %d is not a bucket edge Each reports", v, u)
		}
	}
	if got := UpperFor(-5); got != UpperFor(0) {
		t.Fatalf("UpperFor(-5) = %d, want clamp to UpperFor(0) = %d", got, UpperFor(0))
	}
}
