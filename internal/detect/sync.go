package detect

import (
	"math"

	"tnb/internal/dsp"
	"tnb/internal/lora"
)

// Fractional synchronization (paper §7 step 4): a 3-phase search over
// Q(δt, δf), the coherent preamble peak energy, and Q*(δt, δf), which is Q
// gated on both the upchirp and downchirp peaks sitting at bin 0.
//
// δt is measured in receiver samples and δf in cycles per symbol (the bin
// unit), both relative to the coarse estimates.
//
// Q sums the CFO-corrected spectra of the 8 preamble upchirps and, apart,
// of the 2 full downchirps. Two exact identities make a hypothesis cheap:
//
//   - FFT linearity: Σₖ FFT(xₖ) = FFT(Σₖ xₖ), so each sum is formed in the
//     time domain and transformed once — 2 FFTs per hypothesis, not 10.
//   - Separable CFO correction: the correction for symbol k at sample i is
//     e^{-2πi·c·k} · e^{-2πi·c·i/N}, a per-symbol scalar times a
//     per-sample rotation every symbol shares. The windows at one timing
//     hypothesis are therefore dechirped once without CFO (dechirpSet);
//     each δf is then a 10-term weighted sum (weightSums) and one rotation
//     pass (qAt). The weights depend on c only modulo 1.

// qRows is the number of windows Q sums: the preamble upchirps (rows
// 0–7, symbol index = row) and the 2 full downchirps (rows 8–9, symbol
// indices 10–11, after the 2 sync symbols).
const qRows = lora.PreambleUpchirps + 2

// qSymIndex returns the packet symbol index of Q row r.
func qSymIndex(r int) int {
	if r < lora.PreambleUpchirps {
		return r
	}
	return r + lora.SyncSymbols
}

// qResult carries one evaluation of the Q function.
type qResult struct {
	energy  float64
	upBin   int
	downBin int
}

// dechirpSet fills rs.dechirps with the Q windows of the timing hypothesis
// s0, dechirped without CFO correction and summed over antennas. A window
// starting before sample 0 is left out of Q: its row is zeroed.
func (d *Detector) dechirpSet(antennas [][]complex128, s0 float64, rs *refineScratch) {
	n := d.p.N()
	sym := d.p.SymbolSamples()
	for r := 0; r < qRows; r++ {
		s := s0 + float64(qSymIndex(r)*sym)
		row := rs.dechirps[r*n : (r+1)*n]
		if s < 0 {
			clear(row)
			continue
		}
		for a, ant := range antennas {
			dst := row
			if a > 0 {
				dst = rs.buf
			}
			if r < lora.PreambleUpchirps {
				d.demod.DechirpInto(dst, ant, s, 0, 0)
			} else {
				d.demod.DechirpDownInto(dst, ant, s, 0, 0)
			}
			if a > 0 {
				dsp.AddTo(row, dst)
			}
		}
	}
}

// weightSums forms the per-symbol part of the CFO correction for c:
// rs.upW = Σ e^{-2πi·c·k}·Dₖ over the upchirp rows of rs.dechirps, and
// rs.downW likewise over the downchirp rows. The result is the same for
// every c of one residue modulo 1.
func (d *Detector) weightSums(c float64, rs *refineScratch) {
	n := d.p.N()
	clear(rs.upW)
	clear(rs.downW)
	for r := 0; r < qRows; r++ {
		s, co := math.Sincos(-2 * math.Pi * float64(qSymIndex(r)) * c)
		w := complex(co, s)
		dst := rs.upW
		if r >= lora.PreambleUpchirps {
			dst = rs.downW
		}
		row := rs.dechirps[r*n : (r+1)*n]
		for i, v := range row {
			dst[i] += w * v
		}
	}
}

// qAt completes the CFO correction for c on the weighted sums of
// weightSums — one shared per-sample rotation e^{-2πi·c·i/N} — and
// transforms both sums. Q is the summed peak energy of the two spectra.
// rs.upW/rs.downW are left intact, so one weighted sum serves c and c±1.
func (d *Detector) qAt(c float64, rs *refineScratch) qResult {
	up, down := rs.upSum, rs.downSum
	rot := dsp.NewRotator(0, -2*math.Pi*c/float64(d.p.N()))
	for i := range up {
		w := rot.Next()
		up[i] = rs.upW[i] * w
		down[i] = rs.downW[i] * w
	}
	d.demod.Forward(up)
	d.demod.Forward(down)
	ub, ue := maxEnergy(up)
	db, de := maxEnergy(down)
	return qResult{energy: ue + de, upBin: ub, downBin: db}
}

// maxEnergy returns the bin and squared magnitude of the strongest element.
func maxEnergy(v []complex128) (int, float64) {
	bi, best := 0, 0.0
	for i, x := range v {
		e := real(x)*real(x) + imag(x)*imag(x)
		if e > best {
			best, bi = e, i
		}
	}
	return bi, best
}

// qStar gates Q on the peak locations: nonzero only when both the up and
// down summed peaks sit exactly at bin 0 (the paper's "location 1"). A
// looser gate would let a ±1-cycle CFO alias through, since an integer
// cycle per symbol preserves inter-symbol coherence and only shifts both
// peaks by one bin.
func (d *Detector) qStar(r qResult) float64 {
	if r.upBin == 0 && r.downBin == 0 {
		return r.energy
	}
	return 0
}

// phase2Steps is the number of δt values on each δf line of phase 2: a
// half-sample grid over ±(OSF/2 + 1/2) samples.
func (d *Detector) phase2Steps() int { return 2*d.p.OSF + 3 }

// fractionalSearch runs the paper's 3-phase search and returns the
// fractional timing (receiver samples), fractional CFO (cycles/symbol) and
// the final Q energy. It dechirps 1 + phase2Steps + OSF+1 window sets, one
// per distinct δt, and does not allocate.
func (d *Detector) fractionalSearch(antennas [][]complex128, start, cfo float64, rs *refineScratch) (dt, df, q float64) {
	// Phase 1: δt = 0, δf from −1 to 0 in steps of 1/16; maximize Q.
	d.dechirpSet(antennas, start, rs)
	bestF, bestQ := 0.0, -1.0
	for i := 0; i <= 16; i++ {
		f := -1 + float64(i)/16
		c := cfo + f
		d.weightSums(c, rs)
		if r := d.qAt(c, rs); r.energy > bestQ {
			bestQ, bestF = r.energy, f
		}
	}

	// Phase 2: δt swept at half-sample steps on two lines δf* and δf*+1;
	// maximize Q*, which kills the ±1-cycle CFO alias. The paper sweeps
	// δt ∈ [−1, 1]; our coarse stage quantizes the timing to half a chip
	// (OSF/2 receiver samples), so the sweep covers that full range. The
	// two lines share each δt's dechirp set and weighted sum; their Q*
	// values are then scanned δf-outer, δt-inner so ties resolve as in a
	// line-by-line sweep.
	halfChip := float64(d.p.OSF) / 2
	steps := d.phase2Steps()
	lines := [2]float64{bestF, bestF + 1}
	qs := rs.qStars[:2*steps]
	for i := 0; i < steps; i++ {
		t := -halfChip - 0.5 + float64(i)/2
		d.dechirpSet(antennas, start+t, rs)
		d.weightSums(cfo+lines[0], rs)
		for l, f := range lines {
			qs[l*steps+i] = d.qStar(d.qAt(cfo+f, rs))
		}
	}
	bestT, bestF2, bestQS := 0.0, bestF, -1.0
	for l, f := range lines {
		for i := 0; i < steps; i++ {
			if v := qs[l*steps+i]; v > bestQS {
				bestQS, bestT, bestF2 = v, -halfChip-0.5+float64(i)/2, f
			}
		}
	}
	if bestQS < 0 {
		// No hypothesis put the peaks at bin 0; fall back to the phase-1
		// estimate.
		return 0, bestF, bestQ
	}

	// Phase 3: δt from bestT−1/2 to bestT+1/2 in steps of 1/U.
	u := d.p.OSF
	c := cfo + bestF2
	finalT, finalQ := bestT, -1.0
	for i := 0; i <= u; i++ {
		t := bestT - 0.5 + float64(i)/float64(u)
		d.dechirpSet(antennas, start+t, rs)
		d.weightSums(c, rs)
		if v := d.qStar(d.qAt(c, rs)); v > finalQ {
			finalQ, finalT = v, t
		}
	}
	if finalQ < 0 {
		return bestT, bestF2, bestQS
	}
	return finalT, bestF2, finalQ
}
