package detect

import (
	"math"
	"math/rand"
	"testing"

	"tnb/internal/lora"
	"tnb/internal/trace"
)

// Properties of the Q/Q* search surface (paper Fig. 8).

func qSurfaceSetup(t *testing.T) (*Detector, [][]complex128, float64, float64) {
	t.Helper()
	p := lora.MustParams(8, 4, 125e3, 8)
	rng := rand.New(rand.NewSource(500))
	b := trace.NewBuilder(p, 1.0, 1, rng)
	payload := make([]uint8, 14)
	start, cfoHz := 25000.0, 1830.0
	if err := b.AddPacket(0, 0, payload, start, 15, cfoHz, nil); err != nil {
		t.Fatal(err)
	}
	tr, _ := b.Build()
	return NewDetector(p), tr.Antennas, start, cfoHz * p.SymbolDuration()
}

func TestQPeaksAtTrueParameters(t *testing.T) {
	d, ants, start, cfo := qSurfaceSetup(t)
	at := func(dt, df float64) float64 {
		return d.evalQ(ants, start, cfo, dt, df, d.newRefineScratch()).energy
	}
	center := at(0, 0)
	// Fractional CFO errors collapse Q (Fig. 8 top: sharp ridges).
	if v := at(0, 0.5); v > center/10 {
		t.Errorf("Q at df=0.5 is %g vs center %g", v, center)
	}
	if v := at(0, 0.25); v > center/2 {
		t.Errorf("Q at df=0.25 is %g vs center %g", v, center)
	}
	// Chip-scale timing errors reduce Q.
	if v := at(4, 0); v > 0.7*center {
		t.Errorf("Q at dt=4 (half chip) is %g vs center %g", v, center)
	}
}

func TestQIntegerCFOAliasHasEqualEnergyButShiftedPeaks(t *testing.T) {
	// The ±1-cycle alias keeps Q's energy (integer cycles preserve
	// inter-symbol coherence) but moves the peaks off bin 0 — exactly why
	// Q* gates on the peak location.
	d, ants, start, cfo := qSurfaceSetup(t)
	center := d.evalQ(ants, start, cfo, 0, 0, d.newRefineScratch())
	alias := d.evalQ(ants, start, cfo, 0, 1, d.newRefineScratch())
	if alias.energy < 0.9*center.energy {
		t.Errorf("alias energy %g vs center %g: expected near-equal", alias.energy, center.energy)
	}
	if center.upBin != 0 || center.downBin != 0 {
		t.Errorf("center peaks at (%d, %d), want (0, 0)", center.upBin, center.downBin)
	}
	if alias.upBin == 0 && alias.downBin == 0 {
		t.Error("alias peaks also at bin 0; Q* could not disambiguate")
	}
	if d.qStar(center) == 0 {
		t.Error("Q* zero at the true parameters")
	}
	if d.qStar(alias) != 0 {
		t.Error("Q* nonzero at the alias")
	}
}

func TestQTimingCFOTradeoffBreaksOnDownchirps(t *testing.T) {
	// A (+1 chip, +1 cycle) error keeps upchirp peaks at bin 0 (the +1
	// chip window delay and the -1 cycle residual cancel) but moves the
	// downchirp peaks by -2 bins: the up/down combination is what makes
	// the coarse estimate identifiable.
	d, ants, start, cfo := qSurfaceSetup(t)
	p := lora.MustParams(8, 4, 125e3, 8)
	r := d.evalQ(ants, start+float64(p.OSF), cfo, 0, 1, d.newRefineScratch())
	if r.upBin != 0 {
		t.Fatalf("compensated up peak at %d, want 0", r.upBin)
	}
	if r.downBin == 0 {
		t.Error("down peak at 0 despite the timing/CFO tradeoff")
	}
	if d.qStar(r) != 0 {
		t.Error("Q* accepted the traded-off hypothesis")
	}
}

func TestFractionalSearchConvergesFromCoarseOffsets(t *testing.T) {
	// From any plausible coarse error (≤ half chip timing, ≤ 1 cycle
	// CFO), the 3-phase search lands within 1/OSF samples and 1/16 cycle.
	d, ants, start, cfo := qSurfaceSetup(t)
	cases := []struct{ dt, df float64 }{
		{0, 0}, {3.5, 0.4}, {-3.5, -0.4}, {2, -0.9}, {-2, 0.9},
	}
	for _, c := range cases {
		ft, fc, q := d.fractionalSearch(ants, start+c.dt, cfo+c.df, d.newRefineScratch())
		if q <= 0 {
			t.Fatalf("offset (%g, %g): search found nothing", c.dt, c.df)
		}
		gotStart := start + c.dt + ft
		gotCFO := cfo + c.df + fc
		if e := math.Abs(gotStart - start); e > 1.0 {
			t.Errorf("offset (%g, %g): timing error %.3f samples", c.dt, c.df, e)
		}
		if e := math.Abs(gotCFO - cfo); e > 1.0/12 {
			t.Errorf("offset (%g, %g): CFO error %.4f cycles", c.dt, c.df, e)
		}
	}
}

// evalQ computes Q at the single hypothesis (start+δt, cfo+δf): the
// one-shot form of the search's shared dechirp set and weighted sums.
func (d *Detector) evalQ(antennas [][]complex128, start, cfo, dt, df float64, rs *refineScratch) qResult {
	c := cfo + df
	d.dechirpSet(antennas, start+dt, rs)
	d.weightSums(c, rs)
	return d.qAt(c, rs)
}

// evalQLegacy is the pre-factorization Q evaluation: every window is
// dechirped with its own phase-continuous CFO correction and transformed
// separately (10 FFTs), and the spectra are summed. It is the oracle the
// factored search is differentially tested against.
func evalQLegacy(d *Detector, antennas [][]complex128, start, cfo, dt, df float64) qResult {
	n := d.p.N()
	sym := d.p.SymbolSamples()
	upSum, downSum := make([]complex128, n), make([]complex128, n)
	buf := make([]complex128, n)
	s0 := start + dt
	c := cfo + df
	for k := 0; k < lora.PreambleUpchirps; k++ {
		s := s0 + float64(k*sym)
		if s < 0 {
			continue
		}
		for _, ant := range antennas {
			d.demod.DechirpInto(buf, ant, s, c, k)
			d.demod.Forward(buf)
			for i := range upSum {
				upSum[i] += buf[i]
			}
		}
	}
	for k := 0; k < 2; k++ {
		s := s0 + float64((10+k)*sym)
		if s < 0 {
			continue
		}
		for _, ant := range antennas {
			d.demod.DechirpDownInto(buf, ant, s, c, 10+k)
			d.demod.Forward(buf)
			for i := range downSum {
				downSum[i] += buf[i]
			}
		}
	}
	ub, ue := maxEnergy(upSum)
	db, de := maxEnergy(downSum)
	return qResult{energy: ue + de, upBin: ub, downBin: db}
}

// fractionalSearchLegacy is the pre-factorization 3-phase search: one
// evalQLegacy per hypothesis, each phase-2 line swept in turn.
func fractionalSearchLegacy(d *Detector, antennas [][]complex128, start, cfo float64) (dt, df, q float64) {
	bestF, bestQ := 0.0, -1.0
	for i := 0; i <= 16; i++ {
		f := -1 + float64(i)/16
		r := evalQLegacy(d, antennas, start, cfo, 0, f)
		if r.energy > bestQ {
			bestQ, bestF = r.energy, f
		}
	}
	halfChip := float64(d.p.OSF) / 2
	bestT, bestF2, bestQS := 0.0, bestF, -1.0
	for _, f := range []float64{bestF, bestF + 1} {
		steps := int(4*halfChip) + 3
		for i := 0; i < steps; i++ {
			t := -halfChip - 0.5 + float64(i)/2
			r := evalQLegacy(d, antennas, start, cfo, t, f)
			if qs := d.qStar(r); qs > bestQS {
				bestQS, bestT, bestF2 = qs, t, f
			}
		}
	}
	if bestQS < 0 {
		return 0, bestF, bestQ
	}
	u := d.p.OSF
	finalT, finalQ := bestT, -1.0
	for i := 0; i <= u; i++ {
		t := bestT - 0.5 + float64(i)/float64(u)
		r := evalQLegacy(d, antennas, start, cfo, t, bestF2)
		if qs := d.qStar(r); qs > finalQ {
			finalQ, finalT = qs, t
		}
	}
	if finalQ < 0 {
		return bestT, bestF2, bestQS
	}
	return finalT, bestF2, finalQ
}

// qOracleCase is one collided trace of the differential Q test.
type qOracleCase struct {
	name     string
	p        lora.Params
	antennas int
	seed     int64
}

// buildCollidedTrace puts 4 packets with spread CFOs and SNRs at uniformly
// scheduled (overlapping) starts.
func buildCollidedTrace(tb testing.TB, c qOracleCase) (*trace.Trace, []trace.TxRecord) {
	tb.Helper()
	rng := rand.New(rand.NewSource(c.seed))
	dur := 1.2
	if c.p.SF >= 10 {
		dur = 2.0
	}
	b := trace.NewBuilder(c.p, dur, c.antennas, rng)
	starts := b.ScheduleUniform(4, 14)
	for i, s := range starts {
		payload := make([]uint8, 14)
		rng.Read(payload)
		snr := 6 + 3*float64(i)
		if err := b.AddPacket(i, 0, payload, s, snr, -3000+float64(i)*1900, nil); err != nil {
			tb.Fatal(err)
		}
	}
	return b.Build()
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestFactoredQMatchesLegacy is the differential oracle of the factored
// Q-search: across seeded hypotheses around every packet of collided SF8,
// SF10 and 2-antenna SF8 traces — plus hypotheses whose first windows start
// before sample 0 and ones at exactly zero CFO — evalQ matches the 10-FFT
// evaluation within 1e-9 relative energy with identical peak bins, and
// fractionalSearch returns the identical (δt, δf).
func TestFactoredQMatchesLegacy(t *testing.T) {
	cases := []qOracleCase{
		{"sf8", lora.MustParams(8, 4, 125e3, 8), 1, 31},
		{"sf10", lora.MustParams(10, 4, 125e3, 8), 1, 32},
		{"sf8-2ant", lora.MustParams(8, 4, 125e3, 8), 2, 33},
	}
	hyps, searches, maxErr := 0, 0, 0.0
	for _, c := range cases {
		tr, recs := buildCollidedTrace(t, c)
		d := NewDetector(c.p)
		rs := d.newRefineScratch()
		rng := rand.New(rand.NewSource(c.seed))
		sym := float64(c.p.SymbolSamples())
		type hyp struct{ start, cfo, dt, df float64 }
		var hs []hyp
		for _, r := range recs {
			cfo := r.CFOHz * c.p.SymbolDuration()
			hs = append(hs, hyp{r.StartSample, cfo, 0, 0})
			for j := 0; j < 5; j++ {
				hs = append(hs, hyp{r.StartSample + (rng.Float64()-0.5)*8, cfo + (rng.Float64()-0.5)*2,
					(rng.Float64() - 0.5) * 10, -1 + rng.Float64()*2})
			}
		}
		// Windows before sample 0 are skipped; zero CFO skips the rotation
		// in the legacy dechirp.
		hs = append(hs, hyp{-2.5*sym + 3.25, 0.4, 0, 0}, hyp{-7 * sym, -0.2, 0.5, 0.125},
			hyp{recs[0].StartSample, 0, 0, 0}, hyp{recs[1].StartSample + 1.5, 0.25, -0.5, -0.25})
		for i, h := range hs {
			got := d.evalQ(tr.Antennas, h.start, h.cfo, h.dt, h.df, rs)
			want := evalQLegacy(d, tr.Antennas, h.start, h.cfo, h.dt, h.df)
			if got.upBin != want.upBin || got.downBin != want.downBin {
				t.Errorf("%s hyp %d %+v: peaks (%d, %d), legacy (%d, %d)",
					c.name, i, h, got.upBin, got.downBin, want.upBin, want.downBin)
			}
			e := relErr(got.energy, want.energy)
			if e > 1e-9 {
				t.Errorf("%s hyp %d %+v: energy %g, legacy %g (rel err %.2e)",
					c.name, i, h, got.energy, want.energy, e)
			}
			maxErr = math.Max(maxErr, e)
			hyps++
		}
		for i, h := range hs {
			if i%3 != 0 && h.cfo != 0 && h.start > 0 {
				continue // every third hypothesis plus the edge cases
			}
			dt, df, q := d.fractionalSearch(tr.Antennas, h.start, h.cfo, rs)
			wdt, wdf, wq := fractionalSearchLegacy(d, tr.Antennas, h.start, h.cfo)
			if dt != wdt || df != wdf {
				t.Errorf("%s search %d %+v: (δt, δf) = (%v, %v), legacy (%v, %v)",
					c.name, i, h, dt, df, wdt, wdf)
			}
			if e := relErr(q, wq); e > 1e-9 {
				t.Errorf("%s search %d: Q %g, legacy %g (rel err %.2e)", c.name, i, q, wq, e)
			}
			searches++
		}
	}
	if hyps < 50 {
		t.Fatalf("only %d hypotheses compared, want ≥ 50", hyps)
	}
	t.Logf("%d hypotheses (max energy rel err %.1e), %d searches identical to the 10-FFT oracle",
		hyps, maxErr, searches)
}

// TestFractionalSearchZeroAllocs pins the search's reuse contract: all of
// its state lives in the worker's refineScratch.
func TestFractionalSearchZeroAllocs(t *testing.T) {
	d, ants, start, cfo := qSurfaceSetup(t)
	rs := d.newRefineScratch()
	d.fractionalSearch(ants, start+1.5, cfo-0.3, rs)
	a := testing.AllocsPerRun(10, func() { d.fractionalSearch(ants, start+1.5, cfo-0.3, rs) })
	if a != 0 {
		t.Fatalf("fractionalSearch allocates %v/op in steady state", a)
	}
}
