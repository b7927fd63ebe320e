package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n²) reference transform used to validate the FFT.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, ang))
		}
		out[k] = sum
	}
	return out
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func randomVec(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256, 1024} {
		x := randomVec(rng, n)
		got := FFT(x)
		want := naiveDFT(x)
		if e := maxErr(got, want); e > 1e-8*float64(n) {
			t.Errorf("n=%d: max error %g vs naive DFT", n, e)
		}
	}
}

// inverseDFT is the normalized inverse transform via the conjugation
// identity IDFT(X) = conj(DFT(conj(X)))/n.
func inverseDFT(x []complex128) []complex128 {
	n := len(x)
	c := make([]complex128, n)
	for i, v := range x {
		c[i] = cmplx.Conj(v)
	}
	out := FFT(c)
	for i, v := range out {
		out[i] = cmplx.Conj(v) / complex(float64(n), 0)
	}
	return out
}

func TestFFTInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 8, 256, 2048} {
		x := randomVec(rng, n)
		y := inverseDFT(FFT(x))
		if e := maxErr(x, y); e > 1e-9*float64(n) {
			t.Errorf("n=%d: round-trip error %g", n, e)
		}
	}
}

func TestFFTImpulse(t *testing.T) {
	// An impulse transforms to a flat spectrum of ones.
	n := 128
	x := make([]complex128, n)
	x[0] = 1
	y := FFT(x)
	for k, v := range y {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d: got %v, want 1", k, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// A complex tone at bin k concentrates all energy in bin k.
	n := 256
	for _, k := range []int{0, 1, 17, 255} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = Cis(2 * math.Pi * float64(k) * float64(i) / float64(n))
		}
		y := FFT(x)
		idx, mag := MaxAbs(y)
		if idx != k {
			t.Errorf("tone k=%d: peak at %d", k, idx)
		}
		if math.Abs(math.Sqrt(mag)-float64(n)) > 1e-6 {
			t.Errorf("tone k=%d: peak magnitude %g, want %d", k, math.Sqrt(mag), n)
		}
	}
}

func TestFFTParseval(t *testing.T) {
	// Parseval: sum |x|² == (1/n) sum |X|². Checked as a property.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(10))
		x := randomVec(rng, n)
		tx := Energy(x)
		fx := Energy(FFT(x)) / float64(n)
		return math.Abs(tx-fx) < 1e-6*tx+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFFTLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(8))
		a := randomVec(rng, n)
		b := randomVec(rng, n)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a[i] + 2*b[i]
		}
		fa, fb, fs := FFT(a), FFT(b), FFT(sum)
		for i := range fs {
			if cmplx.Abs(fs[i]-(fa[i]+2*fb[i])) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestForwardMagMatchesForwardPlusMagSq checks the fused spectrum-magnitude
// path against the two-pass reference. For sizes ≥ 8 the final fused stage
// runs the same stored-twiddle butterflies as Forward, so the match is
// bit-exact; the tiny sizes (where Forward's last stage is one of the
// unrolled exact-twiddle specializations) are held to 1e-12 relative.
func TestForwardMagMatchesForwardPlusMagSq(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 4, 8, 64, 256, 1024} {
		x := randomVec(rng, n)
		p := MustPlan(n)

		spec := make([]complex128, n)
		copy(spec, x)
		p.Forward(spec)
		want := make([]float64, n)
		MagSq(want, spec)

		buf := make([]complex128, n)
		copy(buf, x)
		got := make([]float64, n)
		p.ForwardMag(got, buf)

		for i := range got {
			if n >= 8 {
				if got[i] != want[i] {
					t.Fatalf("n=%d bin %d: ForwardMag %v != Forward+MagSq %v", n, i, got[i], want[i])
				}
			} else if math.Abs(got[i]-want[i]) > 1e-12*(want[i]+1) {
				t.Fatalf("n=%d bin %d: ForwardMag %v vs Forward+MagSq %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestNewFFTPlanRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, -4, 3, 6, 100} {
		if _, err := NewFFTPlan(n); err == nil {
			t.Errorf("NewFFTPlan(%d): expected error", n)
		}
	}
}

func TestPlanCacheReuse(t *testing.T) {
	a := MustPlan(512)
	b := MustPlan(512)
	if a != b {
		t.Error("expected cached plan to be reused")
	}
	if a.Size() != 512 {
		t.Errorf("plan size %d, want 512", a.Size())
	}
}

func BenchmarkFFT256(b *testing.B)  { benchFFT(b, 256) }
func BenchmarkFFT1024(b *testing.B) { benchFFT(b, 1024) }

func BenchmarkForwardMag256(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := randomVec(rng, 256)
	p := MustPlan(256)
	buf := make([]complex128, 256)
	y := make([]float64, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		p.ForwardMag(y, buf)
	}
}

func benchFFT(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(3))
	x := randomVec(rng, n)
	p := MustPlan(n)
	buf := make([]complex128, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		p.Forward(buf)
	}
}
