package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a tail percentile before
// it is reported: fewer, and the "percentile" is one or two outliers.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of sorted by linear
// interpolation between closest ranks, together with the sample count.
// A tail percentile (q > 0.5) with fewer than minBeyond samples beyond
// it is refused.
func percentile(sorted []float64, q float64) (float64, int, error) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, fmt.Errorf("percentile p%g: no samples", 100*q)
	}
	if q <= 0 || q >= 1 {
		return 0, n, fmt.Errorf("percentile p%g: level out of range", 100*q)
	}
	if q > 0.5 && float64(n)*(1-q) < minBeyond-1e-9 {
		return 0, n, fmt.Errorf("percentile p%g: %d samples leave fewer than %d beyond it", 100*q, n, minBeyond)
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1], n, nil
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo]), n, nil
}

// tail returns the highest percentile at or below maxQ that still has
// minBeyond samples beyond it, and the level it chose. With many
// samples that is maxQ itself; a workload whose operations are few (a
// city run takes most of a second) gets the highest level its count
// supports.
func tail(sorted []float64, maxQ float64) (v, q float64, err error) {
	n := len(sorted)
	q = math.Min(maxQ, 1-float64(minBeyond)/float64(n))
	if n == 0 || q < 0.5 {
		return 0, q, fmt.Errorf("tail percentile: %d samples are too few", n)
	}
	v, _, err = percentile(sorted, q)
	return v, q, err
}

// median of xs (which it sorts in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// reservoir keeps a uniform random sample of at most cap(buf) values
// from an unbounded stream (Algorithm R), so a run of millions of
// requests records latencies in constant memory that does not inflate
// the heap the benchmark also measures. The generator is seeded, so a
// given stream always keeps the same positions.
type reservoir struct {
	buf  []float64
	seen int64
	rng  uint64
}

func newReservoir(size int, seed int64) *reservoir {
	return &reservoir{buf: make([]float64, 0, size), rng: uint64(seed)*0x9E3779B97F4A7C15 | 1}
}

func (r *reservoir) add(v float64) {
	r.seen++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	// xorshift64*: cheap, and good enough to pick slots uniformly.
	r.rng ^= r.rng >> 12
	r.rng ^= r.rng << 25
	r.rng ^= r.rng >> 27
	if j := (r.rng * 2685821657736338717) % uint64(r.seen); j < uint64(len(r.buf)) {
		r.buf[j] = v
	}
}

// sorted returns the kept sample in ascending order.
func (r *reservoir) sorted() []float64 {
	out := append([]float64(nil), r.buf...)
	sort.Float64s(out)
	return out
}

// tailLevel is the percentile the end-to-end tail metric reports. A
// p99 lands on the knee where the rare slow operations begin (garbage
// collection cycles during a deploy, scheduler stalls under a
// co-tenant's load), so from run to run it swings by more than any
// usable regression bound; p90 still tracks the slow side steadily.
// The report prints p99 as well, wherever it is supported.
const tailLevel = 0.90

// phaseStats is what a measured phase reports: its operation rate, the
// median and tail of its per-operation latency (µs) with the tail's
// percentile level, p99 when supported (else 0), and the sample count
// behind the figures.
type phaseStats struct {
	rate      float64
	p50, tail float64
	tailQ     float64
	p99       float64
	n         int
}

// latencyStats summarizes one pooled latency sample.
func latencyStats(sorted []float64) (phaseStats, error) {
	p50, n, err := percentile(sorted, 0.5)
	if err != nil {
		return phaseStats{}, err
	}
	tv, q, err := tail(sorted, tailLevel)
	if err != nil {
		return phaseStats{}, err
	}
	p99, _, err := percentile(sorted, 0.99)
	if err != nil {
		p99 = 0
	}
	return phaseStats{p50: p50, tail: tv, tailQ: q, p99: p99, n: n}, nil
}

// intervals splits a phase into fixed slices of wall time and keeps,
// per slice, the operations completed and a bounded latency sample.
// The phase reports the median slice, which damps bursts of
// interference from other processes sharing the machine.
type intervals struct {
	start time.Time
	every time.Duration
	keep  int
	seed  int64
	count []int64
	lat   []*reservoir
}

func newIntervals(every time.Duration, keep int, seed int64) *intervals {
	return &intervals{start: time.Now(), every: every, keep: keep, seed: seed}
}

// add records one operation completed at now with latency latUS.
func (iv *intervals) add(now time.Time, latUS float64) {
	i := int(now.Sub(iv.start) / iv.every)
	for len(iv.count) <= i {
		iv.count = append(iv.count, 0)
		iv.lat = append(iv.lat, newReservoir(iv.keep, iv.seed+int64(len(iv.lat))))
	}
	iv.count[i]++
	iv.lat[i].add(latUS)
}

// stats summarizes the slices that ended by end: the median over slices
// of each one's rate, median latency and tail latency.
func (iv *intervals) stats(end time.Time) (phaseStats, error) {
	full := min(int(end.Sub(iv.start)/iv.every), len(iv.count))
	if full == 0 {
		return phaseStats{}, fmt.Errorf("phase shorter than one %v interval", iv.every)
	}
	var rates, p50s, tails, qs, p99s []float64
	var n int
	for i := 0; i < full; i++ {
		rates = append(rates, float64(iv.count[i])/iv.every.Seconds())
		if iv.count[i] == 0 {
			continue // a stalled slice: its rate counts, it has no latency
		}
		st, err := latencyStats(iv.lat[i].sorted())
		if err != nil {
			return phaseStats{}, fmt.Errorf("interval %d: %w", i, err)
		}
		p50s, tails, qs, p99s = append(p50s, st.p50), append(tails, st.tail), append(qs, st.tailQ), append(p99s, st.p99)
		n += st.n
	}
	return phaseStats{rate: median(rates), p50: median(p50s), tail: median(tails), tailQ: median(qs),
		p99: median(p99s), n: n}, nil
}

// perOp divides a counter delta by an operation count (0 for no ops).
func perOp(total, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return float64(total) / float64(ops)
}
