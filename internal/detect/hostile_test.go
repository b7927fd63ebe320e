package detect

import (
	"bufio"
	"bytes"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"

	"tnb/internal/lora"
	"tnb/internal/obs"
)

// toneComb is a dense comb of equal-power tones spread over the band, each
// with a random phase: after dechirping every tone smears into a chirp, so
// every scan window sees a broadband floor with many shallow local maxima.
func toneComb(p lora.Params, samples, tones int, rng *rand.Rand) []complex128 {
	fs := p.SampleRate()
	x := make([]complex128, samples)
	for k := 0; k < tones; k++ {
		f := (float64(k)/float64(tones) - 0.5) * p.Bandwidth
		ph := rng.Float64() * 2 * math.Pi
		for i := range x {
			x[i] += cmplx.Rect(1, 2*math.Pi*f*float64(i)/fs+ph)
		}
	}
	return x
}

// chirpComb is a train of pseudo-preambles: every minRun symbol periods it
// picks maxPeaksPerWindow fresh cyclic shifts and repeats upchirps at all of
// them for minRun periods. Every scan window is then full of peaks, and
// every group of windows completes a fresh run per shift, the most preamble
// candidates the scan can be made to raise.
func chirpComb(p lora.Params, samples int, rng *rand.Rand) []complex128 {
	sym := p.SymbolSamples()
	n := p.N()
	x := make([]complex128, samples)
	buf := make([]complex128, sym)
	var shifts []int
	for g, s0 := 0, 0; s0+sym <= samples; g, s0 = g+1, s0+sym {
		if g%minRun == 0 {
			shifts = rng.Perm(n / 4)[:maxPeaksPerWindow]
		}
		for _, h := range shifts {
			lora.ModulateSymbol(buf, 4*h, n, p.Bandwidth, p.OSF)
			for i, v := range buf {
				x[s0+i] += v
			}
		}
	}
	for i := range x {
		x[i] += complex(rng.NormFloat64(), rng.NormFloat64()) * 0.3
	}
	return x
}

// TestHostileIQBoundsDetectWork pins the work bound maxPeaksPerWindow
// enforces on adversarial IQ: a scan window contributes at most
// maxPeaksPerWindow peaks, so the preamble candidates (each one a full
// refine) number at most windows × maxPeaksPerWindow; refine can only
// accept or reject a candidate, so Detect returns no more packets than
// candidates; and a repeated Detect on the same input stays under an
// allocation ceiling.
func TestHostileIQBoundsDetectWork(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 2)
	samples := 120 * p.SymbolSamples()
	windows := samples / p.SymbolSamples()
	rng := rand.New(rand.NewSource(77))
	for _, tc := range []struct {
		name string
		iq   []complex128
	}{
		{"tone-comb", toneComb(p, samples, 96, rng)},
		{"chirp-comb", chirpComb(p, samples, rng)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sink bytes.Buffer
			d := NewDetector(p)
			d.Workers = 1
			d.Trace = obs.New(obs.Options{Sink: &sink})
			ants := [][]complex128{tc.iq}
			pkts := d.Detect(ants)

			cands := 0
			sc := bufio.NewScanner(&sink)
			for sc.Scan() {
				if strings.Contains(sc.Text(), `"type":"detect"`) {
					cands++
				}
			}
			if limit := windows * maxPeaksPerWindow; cands > limit {
				t.Errorf("%d candidates from %d windows, bound %d", cands, windows, limit)
			}
			if len(pkts) > cands {
				t.Errorf("%d packets from %d candidates", len(pkts), cands)
			}

			// The ceiling does not scale with the candidate count: refine
			// runs on reused scratch, and disabled tracing costs nothing.
			d.Trace = nil
			allocs := testing.AllocsPerRun(3, func() { d.Detect(ants) })
			if allocs > 32 {
				t.Errorf("repeated Detect allocated %.0f times per call, ceiling 32", allocs)
			}
			t.Logf("%d windows: %d candidates, %d packets, %.0f allocs per repeated Detect",
				windows, cands, len(pkts), allocs)
		})
	}
}
