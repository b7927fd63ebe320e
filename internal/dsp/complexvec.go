package dsp

import "math"

// MulConj writes a[i] * conj(b[i]) into dst. All three slices must have the
// same length; dst may alias a or b.
func MulConj(dst, a, b []complex128) {
	for i := range dst {
		br, bi := real(b[i]), imag(b[i])
		ar, ai := real(a[i]), imag(a[i])
		dst[i] = complex(ar*br+ai*bi, ai*br-ar*bi)
	}
}

// AddTo accumulates src into dst element-wise.
func AddTo(dst, src []complex128) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// Scale multiplies every element of x by s in place.
func Scale(x []complex128, s float64) {
	c := complex(s, 0)
	for i := range x {
		x[i] *= c
	}
}

// Energy returns the sum of |x[i]|².
func Energy(x []complex128) float64 {
	var e float64
	for _, v := range x {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e
}

// Power returns the mean of |x[i]|², or 0 for an empty slice.
func Power(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	return Energy(x) / float64(len(x))
}

// MagSq writes |x[i]|² into dst. The slices must have the same length.
func MagSq(dst []float64, x []complex128) {
	for i, v := range x {
		dst[i] = real(v)*real(v) + imag(v)*imag(v)
	}
}

// MaxAbs returns the index and squared magnitude of the largest-magnitude
// element of x. It returns (-1, 0) for an empty slice.
func MaxAbs(x []complex128) (idx int, magSq float64) {
	idx = -1
	for i, v := range x {
		m := real(v)*real(v) + imag(v)*imag(v)
		if m > magSq {
			magSq, idx = m, i
		}
	}
	return idx, magSq
}

// Cis returns e^{iθ}.
func Cis(theta float64) complex128 {
	s, c := math.Sincos(theta)
	return complex(c, s)
}

// ApplyTone multiplies x[i] by e^{i(phase0 + 2π f i)} in place, i.e. mixes x
// with a complex tone of normalized frequency f (cycles per sample). The
// tone comes from a Rotator phase recurrence (one Sincos per
// RotatorRenormBlock samples) rather than per-sample Cis evaluation.
func ApplyTone(x []complex128, f, phase0 float64) {
	rot := NewRotator(phase0, 2*math.Pi*f)
	for i := range x {
		x[i] *= rot.Next()
	}
}
