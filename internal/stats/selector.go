package stats

import "math"

// Selector computes exact medians over float64 slices without modifying the
// input and without steady-state allocations. It is the package's only
// hot-path median: Thrive's checking points, the detection scan's
// selectivity and the preamble validator all select through one, while the
// sort-based Median and Percentile serve cold callers and tests. The
// Selector copies the values into an internal scratch buffer that grows to
// the largest input seen and is reused, then runs the branch-predictable
// distribute selection (selectPair) over it.
//
// The result is bit-identical to Percentile(x, 50) for any NaN-free input
// (for signed zeros the result can differ in the sign of zero only, never in
// value), so callers can swap it in without perturbing results. A Selector
// is not safe for concurrent use.
type Selector struct {
	scratch []float64
}

// grow returns the scratch buffer resized to 2n (working copy plus
// distribute target).
func (s *Selector) grow(n int) []float64 {
	if cap(s.scratch) < 2*n {
		s.scratch = make([]float64, 2*n)
	}
	return s.scratch[:2*n]
}

// median selects the median over buf[:n], with buf[n:2n] as the distribute
// target, mirroring Percentile(50)'s interpolation bit for bit.
func median(buf []float64, n int) float64 {
	i := (n - 1) / 2
	frac := 0.5 * float64((n-1)%2)
	kth, next := selectPair(buf[:n], buf[n:], i)
	if i+1 >= n {
		return kth
	}
	return kth*(1-frac) + next*frac
}

// Median returns the median of x — bit-identical to Percentile(x, 50) for
// NaN-free input (see the type comment for the ±0 caveat) — without
// modifying x and without steady-state allocations.
func (s *Selector) Median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	buf := s.grow(len(x))
	copy(buf, x)
	return median(buf, len(x))
}

// MedianArgMin returns the median of x together with the index of the first
// occurrence of its minimum, or (0, 0) for empty x. hint seeds the first
// selection round: that round reads x directly (skipping Median's copy) and
// folds in the minimum search, so the detection scan walks each window once
// for both its selectivity threshold and its peak-finder rotation. The hint
// never changes the result — selection returns the exact order statistics
// under any pivot sequence — but one near the median (a neighboring scan
// window's, say) shrinks the active range to the rank error in one pass. A
// NaN hint takes the plain Median path.
func (s *Selector) MedianArgMin(x []float64, hint float64) (med float64, argMin int) {
	n := len(x)
	if n > 16 && !math.IsNaN(hint) {
		buf := s.grow(n)
		i := (n - 1) / 2
		frac := 0.5 * float64((n-1)%2)
		kth, next, am := selectPairHint(x, buf[:n], buf[n:], i, hint)
		return kth*(1-frac) + next*frac, am
	}
	for t, v := range x {
		if v < x[argMin] {
			argMin = t
		}
	}
	return s.Median(x), argMin
}

// MedianAbsResiduals returns the median of |x[i] - fit[i]| over the common
// prefix of x and fit — the same value as stats.MedianAbsResiduals — with
// no steady-state allocations.
func (s *Selector) MedianAbsResiduals(x, fit []float64) float64 {
	n := min(len(x), len(fit))
	if n == 0 {
		return 0
	}
	buf := s.grow(n)
	for i := 0; i < n; i++ {
		buf[i] = math.Abs(x[i] - fit[i])
	}
	return median(buf, n)
}

// selectPair returns the k-th and (k+1)-th order statistics of a, destroying
// a and using b (same length) as the distribute target. Each round streams
// the active range through a two-ended distribute — every element is stored
// unconditionally at both the low and high cursor and a comparison flag
// advances exactly one of them — so the partition has no data-dependent
// branches to mispredict, unlike an in-place partition swap walk. The
// buffers ping-pong between rounds. When k is the last index the second
// return value is meaningless (+Inf at worst); callers guard on k+1.
func selectPair(a, b []float64, k int) (kth, next float64) {
	return selectRounds(a, b, 0, len(a), k, math.Inf(1))
}

// selectPairHint is selectPair preceded by one distribute round that reads x
// without modifying it and uses the caller's pivot instead of a sampled one.
// The pivot sequence changes only how fast the active range shrinks, never
// the order statistics returned, so any hint yields the same bits as
// selectPair over a copy of x; a hint near the k-th order statistic (e.g.
// the previous scan window's median) collapses the range to the rank error
// in a single streaming pass. A hint at or below the minimum degenerates to
// a reversed copy of x and the usual sampled rounds take over.
//
// Since the hint round already streams all of x, it also reports the index
// of the first occurrence of the minimum, which the detection scan feeds to
// the peak finder as its rotation point.
func selectPairHint(x, a, b []float64, k int, hint float64) (kth, next float64, argMin int) {
	n := len(x)
	i, j := 0, n-1
	minV := math.Inf(1)
	for t := 0; t < n; t++ {
		v := x[t]
		a[i] = v
		a[j] = v
		c := 0
		if v < hint {
			c = 1
		}
		i += c
		j += c - 1
		if v < minV {
			minV, argMin = v, t
		}
	}
	// a[0:i] holds everything < hint, a[i:n] everything >= it — a partitioned
	// permutation of x in every case, including the degenerate i == 0 (where
	// a is x reversed), so no separate copy is ever needed.
	if k < i {
		rightMin := math.Inf(1)
		for _, v := range a[i:] {
			if v < rightMin {
				rightMin = v
			}
		}
		kth, next = selectRounds(a, b, 0, i, k, rightMin)
		return kth, next, argMin
	}
	kth, next = selectRounds(a, b, i, n, k, math.Inf(1))
	return kth, next, argMin
}

// selectRounds runs the sampled-pivot distribute rounds of selectPair over
// the active range src[lo:hi], with rightMin the minimum of everything
// already discarded to the right of it — the (k+1)-th order statistic when
// k+1 falls past the final range.
func selectRounds(src, dst []float64, lo, hi, k int, rightMin float64) (kth, next float64) {
rounds:
	for hi-lo > 16 {
		mid := lo + (hi-lo)/2
		p0, p1, p2 := src[lo], src[mid], src[hi-1]
		if p1 < p0 {
			p0, p1 = p1, p0
		}
		if p2 < p1 {
			p1 = p2
			if p1 < p0 {
				p1 = p0
			}
		}
		pivot := p1

		i, j := lo, hi-1
		for t := lo; t < hi; t++ {
			v := src[t]
			dst[i] = v
			dst[j] = v
			c := 0
			if v < pivot {
				c = 1
			}
			i += c
			j += c - 1
		}
		// dst[lo:i] holds everything < pivot, dst[i:hi] everything >= it.
		switch {
		case k < i:
			for _, v := range dst[i:hi] {
				if v < rightMin {
					rightMin = v
				}
			}
			hi = i
		case i > lo:
			lo = i
		default:
			// Nothing below the pivot (constant stretches are common in
			// gated signal vectors): split equals from greaters so the
			// range still shrinks.
			i, j = lo, hi-1
			for t := lo; t < hi; t++ {
				v := src[t]
				dst[i] = v
				dst[j] = v
				c := 0
				if v <= pivot {
					c = 1
				}
				i += c
				j += c - 1
			}
			if k < i {
				// dst[lo:i] are all == pivot.
				if k+1 < i {
					return pivot, pivot
				}
				for _, v := range dst[i:hi] {
					if v < rightMin {
						rightMin = v
					}
				}
				return pivot, rightMin
			}
			if i == lo {
				// No comparison holds (NaN data): bail to the sort below,
				// which terminates on any input.
				break rounds
			}
			lo = i
		}
		src, dst = dst, src
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && src[j] < src[j-1]; j-- {
			src[j], src[j-1] = src[j-1], src[j]
		}
	}
	kth = src[k]
	if k+1 < hi {
		next = src[k+1]
	} else {
		next = rightMin
	}
	return kth, next
}
