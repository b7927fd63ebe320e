// Package stats provides the small statistical toolkit used across the
// receiver and the evaluation harness: exact medians and percentiles, a
// residual deviation measure, empirical CDFs and a moving-average smoother.
package stats

import (
	"math"
	"sort"
)

// Median returns the median of x, or 0 for an empty slice. x is not
// modified.
func Median(x []float64) float64 {
	return Percentile(x, 50)
}

// Percentile returns the p-th percentile (0..100) of x using linear
// interpolation between order statistics. x is not modified.
func Percentile(x []float64, p float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i]*(1-frac) + s[i+1]*frac
}

// MedianAbsResiduals returns the median of |x[i] - fit[i]|, the per-sample
// residual deviation against a fitted curve. It is the allocating,
// sort-based reference for Selector.MedianAbsResiduals.
func MedianAbsResiduals(x, fit []float64) float64 {
	n := min(len(x), len(fit))
	if n == 0 {
		return 0
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = math.Abs(x[i] - fit[i])
	}
	return Median(d)
}

// MovingAverageInto writes the centered moving average of x with the given
// window (forced odd, at least 1) into dst and returns it. Near the edges
// the window shrinks symmetrically, matching MATLAB's
// smoothdata(..,'movmean') behaviour. dst is resized (reallocated only when
// its capacity is short of len(x)), so a caller reusing the returned slice
// pays no steady-state allocations. dst must not alias x.
func MovingAverageInto(dst, x []float64, window int) []float64 {
	if window < 1 {
		window = 1
	}
	if window%2 == 0 {
		window++
	}
	half := window / 2
	if cap(dst) < len(x) {
		dst = make([]float64, len(x))
	}
	out := dst[:len(x)]
	for i := range x {
		lo := max(0, i-half)
		hi := min(len(x)-1, i+half)
		var s float64
		for j := lo; j <= hi; j++ {
			s += x[j]
		}
		out[i] = s / float64(hi-lo+1)
	}
	return out
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the samples. The input is copied.
func NewCDF(samples []float64) *CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X <= v).
func (c *CDF) At(v float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, v)
	// Advance over equal values so At is right-continuous.
	for i < len(c.sorted) && c.sorted[i] == v {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Points returns up to n evenly spaced (value, probability) points of the
// CDF, convenient for printing a figure series.
func (c *CDF) Points(n int) (values, probs []float64) {
	if len(c.sorted) == 0 || n <= 0 {
		return nil, nil
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	values = make([]float64, n)
	probs = make([]float64, n)
	for k := 0; k < n; k++ {
		i := k * (len(c.sorted) - 1) / max(1, n-1)
		if n == 1 {
			i = len(c.sorted) - 1
		}
		values[k] = c.sorted[i]
		probs[k] = float64(i+1) / float64(len(c.sorted))
	}
	return values, probs
}

// Len returns the number of samples behind the CDF.
func (c *CDF) Len() int { return len(c.sorted) }
