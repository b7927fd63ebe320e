package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanMedian(t *testing.T) {
	if Median(nil) != 0 {
		t.Error("empty-slice median should be 0")
	}
	x := []float64{3, 1, 2}
	if !almostEq(Median(x), 2, 1e-12) {
		t.Errorf("Median = %g", Median(x))
	}
	y := []float64{4, 1, 3, 2}
	if !almostEq(Median(y), 2.5, 1e-12) {
		t.Errorf("even Median = %g", Median(y))
	}
	// Median must not modify its input.
	if x[0] != 3 || x[1] != 1 {
		t.Error("Median modified its input")
	}
}

func TestPercentileBounds(t *testing.T) {
	x := []float64{10, 20, 30, 40}
	if Percentile(x, 0) != 10 || Percentile(x, 100) != 40 {
		t.Error("percentile endpoints wrong")
	}
	if !almostEq(Percentile(x, 50), 25, 1e-12) {
		t.Errorf("P50 = %g", Percentile(x, 50))
	}
	if Percentile(x, -5) != 10 || Percentile(x, 105) != 40 {
		t.Error("out-of-range percentiles should clamp")
	}
}

func TestMedianIsOrderInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		m1 := Median(x)
		shuffled := append([]float64(nil), x...)
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		return almostEq(m1, Median(shuffled), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMedianAbsResiduals(t *testing.T) {
	x := []float64{1, 2, 3}
	fit := []float64{1.5, 2, 2}
	// residuals {0.5, 0, 1} → median 0.5
	if got := MedianAbsResiduals(x, fit); !almostEq(got, 0.5, 1e-12) {
		t.Errorf("residual MAD = %g", got)
	}
	if MedianAbsResiduals(x, nil) != 0 {
		t.Error("empty fit should give 0")
	}
}

func TestMovingAverageConstantSignal(t *testing.T) {
	x := []float64{5, 5, 5, 5, 5}
	for _, w := range []int{1, 2, 3, 9} {
		got := MovingAverageInto(nil, x, w)
		for i, v := range got {
			if !almostEq(v, 5, 1e-12) {
				t.Errorf("w=%d i=%d: %g", w, i, v)
			}
		}
	}
}

func TestMovingAverageSmooths(t *testing.T) {
	x := []float64{0, 10, 0, 10, 0, 10}
	got := MovingAverageInto(nil, x, 3)
	// Interior points average their neighborhoods.
	want := []float64{5, 10.0 / 3, 20.0 / 3, 10.0 / 3, 20.0 / 3, 5}
	for i := range want {
		if !almostEq(got[i], want[i], 1e-9) {
			t.Errorf("i=%d: got %g want %g", i, got[i], want[i])
		}
	}
}

func TestMovingAveragePreservesLinearTrendInterior(t *testing.T) {
	x := make([]float64, 20)
	for i := range x {
		x[i] = 2 * float64(i)
	}
	got := MovingAverageInto(nil, x, 5)
	for i := 2; i < len(x)-2; i++ {
		if !almostEq(got[i], x[i], 1e-9) {
			t.Errorf("linear trend not preserved at %d: %g", i, got[i])
		}
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ v, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.v); !almostEq(got, cse.want, 1e-12) {
			t.Errorf("At(%g) = %g, want %g", cse.v, got, cse.want)
		}
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	vals, probs := c.Points(5)
	if len(vals) != 5 || len(probs) != 5 {
		t.Fatalf("got %d points", len(vals))
	}
	if !sort.Float64sAreSorted(vals) || !sort.Float64sAreSorted(probs) {
		t.Error("points should be nondecreasing")
	}
	if probs[len(probs)-1] != 1 {
		t.Errorf("last prob %g, want 1", probs[len(probs)-1])
	}
	if v, p := c.Points(0); v != nil || p != nil {
		t.Error("Points(0) should be nil")
	}
}
