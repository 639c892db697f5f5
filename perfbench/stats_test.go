package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileInterpolatesAndCounts(t *testing.T) {
	v, n, err := percentile(seq(5), 0.5)
	if err != nil || v != 3 || n != 5 {
		t.Fatalf("p50 of 1..5 = %v, %d, %v; want 3, 5, nil", v, n, err)
	}
	v, _, err = percentile([]float64{10, 20}, 0.25)
	if err != nil || v != 12.5 {
		t.Fatalf("p25 of {10,20} = %v, %v; want 12.5", v, err)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	// p99 needs 1000 samples (ten beyond it); 999 is one short.
	if _, _, err := percentile(seq(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples accepted")
	}
	v, n, err := percentile(seq(1000), 0.99)
	if err != nil || n != 1000 || math.Abs(v-990.01) > 1e-9 {
		t.Fatalf("p99 of 1..1000 = %v, %d, %v; want 990.01, 1000, nil", v, n, err)
	}
	// The median is never a tail: one sample is enough.
	if _, _, err := percentile(seq(1), 0.5); err != nil {
		t.Fatalf("p50 of one sample refused: %v", err)
	}
	if _, _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples accepted")
	}
}

func TestTailPicksHighestSupportedLevel(t *testing.T) {
	_, q, err := tail(seq(5000), 0.99)
	if err != nil || q != 0.99 {
		t.Fatalf("tail of 5000 samples chose p%v (%v); want p99", 100*q, err)
	}
	_, q, err = tail(seq(40), 0.99)
	if err != nil || math.Abs(q-0.75) > 1e-12 {
		t.Fatalf("tail of 40 samples chose p%v (%v); want p75", 100*q, err)
	}
	if _, _, err := tail(seq(15), 0.99); err == nil {
		t.Fatal("tail of 15 samples accepted (below the median)")
	}
}

func TestReservoirBoundedAndUniform(t *testing.T) {
	r := newReservoir(1000, 7)
	for i := 0; i < 100000; i++ {
		r.add(float64(i))
	}
	if len(r.buf) != 1000 || r.seen != 100000 {
		t.Fatalf("kept %d of %d", len(r.buf), r.seen)
	}
	m, _, _ := percentile(r.sorted(), 0.5)
	if m < 45000 || m > 55000 {
		t.Fatalf("median of a uniform 0..99999 stream kept as %v", m)
	}
}
