package main

import (
	"math"
	"sort"
	"time"

	"hsched/internal/analysis"
)

// reservoirCap bounds the durations one reservoir keeps. A fast
// in-process workload completes millions of ops per run; a uniform
// sample of this size gives p99 to well under a percent while keeping
// the benchmark's own memory (which shares the process's peak RSS with
// the service) small and constant.
const reservoirCap = 1 << 16

// reservoir is a uniform random sample (Algorithm R) of durations plus
// their exact count and sum. One goroutine owns each reservoir.
type reservoir struct {
	n      int64
	sumNS  int64
	sample []int64
	rng    uint64
}

// newReservoir returns an empty reservoir with room for capHint
// samples before it first grows.
func newReservoir(seed uint64, capHint int) *reservoir {
	return &reservoir{sample: make([]int64, 0, capHint), rng: seed | 1}
}

func (r *reservoir) add(d time.Duration) {
	ns := int64(d)
	r.n++
	r.sumNS += ns
	if len(r.sample) < reservoirCap {
		r.sample = append(r.sample, ns)
		return
	}
	// xorshift64: the replacement slot must not depend on the values.
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	if k := r.rng % uint64(r.n); k < reservoirCap {
		r.sample[k] = ns
	}
}

// merged pools reservoirs into one weighted sample: each kept value
// stands for n/len(sample) ops of its reservoir, so reservoirs that
// saw different op counts merge without bias.
type merged struct {
	n      int64
	sumNS  int64
	values []float64 // ns, sorted
	weight []float64
}

func merge(rs ...*reservoir) merged {
	var m merged
	type wv struct{ v, w float64 }
	var all []wv
	for _, r := range rs {
		if r == nil || len(r.sample) == 0 {
			continue
		}
		m.n += r.n
		m.sumNS += r.sumNS
		w := float64(r.n) / float64(len(r.sample))
		for _, v := range r.sample {
			all = append(all, wv{float64(v), w})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	m.values = make([]float64, len(all))
	m.weight = make([]float64, len(all))
	for i, x := range all {
		m.values[i], m.weight[i] = x.v, x.w
	}
	return m
}

// quantileUS returns the q-quantile in microseconds: the smallest
// sampled value whose cumulative weight reaches q of the total.
func (m merged) quantileUS(q float64) float64 {
	if len(m.values) == 0 {
		return 0
	}
	var total float64
	for _, w := range m.weight {
		total += w
	}
	target, cum := q*total, 0.0
	for i, w := range m.weight {
		cum += w
		if cum >= target {
			return m.values[i] / 1e3
		}
	}
	return m.values[len(m.values)-1] / 1e3
}

// meanUS returns the exact mean over every recorded op.
func (m merged) meanUS() float64 {
	if m.n == 0 {
		return 0
	}
	return float64(m.sumNS) / float64(m.n) / 1e3
}

// digest hashes every field of a Result the analysis promises to
// reproduce bit for bit on every path (memo hit, delta, cold): the
// verdict, the iteration count and each task's bounds and critical
// scenario. Work profiles (Delta, pruning counts) are excluded.
func digest(res *analysis.Result) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	mix(uint64(res.Iterations))
	mix(flag(res.Converged)<<1 | flag(res.Schedulable))
	mix(uint64(len(res.Tasks)))
	for _, row := range res.Tasks {
		mix(uint64(len(row)))
		for _, t := range row {
			mix(math.Float64bits(t.Offset))
			mix(math.Float64bits(t.Jitter))
			mix(math.Float64bits(t.Best))
			mix(math.Float64bits(t.Worst))
			mix(uint64(int64(t.CriticalInitiator)))
			mix(uint64(int64(t.CriticalJob)))
		}
	}
	return h
}

// ratio returns num/den, or 0 when the base is empty, so a metric a
// workload does not exercise reads 0 rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
