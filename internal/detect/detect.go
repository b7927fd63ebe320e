// Package detect implements TnB's packet detection (paper §7): preamble
// discovery from repeated dechirped peaks (step 1), start-time validation
// with ±2T adjustments (step 2), coarse timing/CFO estimation from the
// upchirp and downchirp peak locations (step 3), and the 3-phase fractional
// timing/CFO search over the Q/Q* functions (step 4).
//
// Candidate refinement (steps 2–4) is embarrassingly parallel: each
// candidate's ±2T × fractional Q/Q* search touches only read-shared trace
// samples and per-worker scratch, so Detect fans refinement out across
// Workers goroutines and merges results in candidate order — the output is
// identical for every worker count.
package detect

import (
	"math"
	"sort"

	"tnb/internal/lora"
	"tnb/internal/obs"
	"tnb/internal/parallel"
	"tnb/internal/peaks"
	"tnb/internal/stats"
)

// Packet is one detected LoRa packet.
type Packet struct {
	Start     float64 // packet (preamble) start, fractional rx samples
	CFOCycles float64 // CFO in cycles per symbol
	Quality   float64 // preamble peak energy, for ordering and SNR estimates
}

// Detector finds LoRa preambles in a trace. Construct with NewDetector.
type Detector struct {
	p     lora.Params
	demod *lora.Demodulator

	// MaxCFOCycles bounds the CFO search; the paper's hardware stays
	// within ±4.88 kHz (§8.5), i.e. ±4880/BW·N cycles per symbol.
	MaxCFOCycles float64
	// MinRun is the number of consecutive windows with a stable dechirped
	// peak required to declare a preamble candidate.
	MinRun int
	// MaxPeaksPerWindow bounds the peaks tracked per detection window.
	MaxPeaksPerWindow int
	// MinPeakHeight discards detection peaks below this height (absolute,
	// in signal-vector units). Zero selects an adaptive threshold.
	MinPeakHeight float64
	// Workers caps the goroutines used by the parallel detection stages —
	// the per-window transform of the preamble scan and the candidate
	// refinement (0 → GOMAXPROCS, 1 → serial). Both stages write into
	// index-addressed slots and merge serially, so the value never changes
	// the output.
	Workers int
	// RefineStats reports the last Detect call's refinement fan-out (wall
	// and summed busy time); the receiver exports it as a speedup gauge.
	RefineStats parallel.Stats
	// ScanStats reports the last Detect call's per-window scan fan-out.
	ScanStats parallel.Stats
	// Trace, when non-nil, receives one event per preamble candidate:
	// accepted with the refined estimates, or rejected with the reason.
	Trace *obs.Tracer
	// CFOBiasCycles is a fault-injection hook: it is added to every
	// refined packet's CFO estimate, corrupting downstream dechirping the
	// way a wrong sync lock would. Used by the failure-attribution tests;
	// zero in production.
	CFOBiasCycles float64

	scanPeaks     [][]peaks.Peak      // per-window peak slots, reused across calls
	scanScratches []*scanScratch      // per-worker scan state, reused across calls
	scanFn        func(w, lo, hi int) // bound scan worker, created once so the
	// fan-out does not allocate a fresh closure per call
	scanAnts     [][]complex128   // scan call arguments, set around the fan-out
	refScratches []*refineScratch // per-worker refine state, reused across calls
	runPrev      []runState       // trackRuns generations, reused across calls
	runCur       []runState
	runPrevStamp []int32
	runCurStamp  []int32
	cands        []candidate // candidate buffer, reused across calls
}

// NewDetector builds a detector with the paper's defaults.
func NewDetector(p lora.Params) *Detector {
	return &Detector{
		p:                 p,
		demod:             lora.NewDemodulator(p),
		MaxCFOCycles:      4880.0 / p.Bandwidth * float64(p.N()),
		MinRun:            5,
		MaxPeaksPerWindow: 8,
	}
}

// Demodulator exposes the detector's demodulator so downstream stages reuse
// its FFT plan and reference chirps.
func (d *Detector) Demodulator() *lora.Demodulator { return d.demod }

// candidate is a raw preamble hit before refinement.
type candidate struct {
	window int // grid window index where the run completed
	bin    int // stable up-peak bin
	height float64
}

// refineScratch is one worker's reusable buffers for steps 2–4: the
// accumulators refine and validatePreamble used to allocate per window and
// per hypothesis, the Q-search state of sync.go, and the median selector of
// peakNearZero.
type refineScratch struct {
	acc      []float64      // summed signal vector (validate + down location)
	y        []float64      // per-antenna magnitude vector
	buf      []complex128   // dechirp/FFT buffer
	dechirps []complex128   // qRows dechirped windows at one δt, CFO-free (dechirpSet)
	upW      []complex128   // CFO-weighted upchirp sum (weightSums)
	downW    []complex128   // CFO-weighted downchirp sum (weightSums)
	upSum    []complex128   // rotated, transformed upchirp sum (qAt)
	downSum  []complex128   // rotated, transformed downchirp sum (qAt)
	qStars   []float64      // phase-2 Q* values, two δf lines × phase2Steps
	sel      stats.Selector // noise-floor median (peakNearZero)
}

func (d *Detector) newRefineScratch() *refineScratch {
	n := d.p.N()
	return &refineScratch{
		acc:      make([]float64, n),
		y:        make([]float64, n),
		buf:      make([]complex128, n),
		dechirps: make([]complex128, qRows*n),
		upW:      make([]complex128, n),
		downW:    make([]complex128, n),
		upSum:    make([]complex128, n),
		downSum:  make([]complex128, n),
		qStars:   make([]float64, 2*d.phase2Steps()),
	}
}

// Detect scans the trace (all antennas, signal vectors summed) and returns
// the refined packets sorted by start time.
func (d *Detector) Detect(antennas [][]complex128) []Packet {
	d.ScanStats, d.RefineStats = parallel.Stats{}, parallel.Stats{}
	if len(antennas) == 0 || len(antennas[0]) == 0 {
		return nil
	}
	cands := d.scanPreambles(antennas)

	type refined struct {
		pkt    Packet
		reject string
	}
	results := make([]refined, len(cands))
	maxWorkers := parallel.Workers(d.Workers)
	if maxWorkers > len(cands) {
		maxWorkers = len(cands)
	}
	if maxWorkers < 1 {
		maxWorkers = 1
	}
	for len(d.refScratches) < maxWorkers {
		d.refScratches = append(d.refScratches, nil)
	}
	d.RefineStats = parallel.ForEach(d.Workers, len(cands), func(w, i int) {
		if d.refScratches[w] == nil {
			d.refScratches[w] = d.newRefineScratch()
		}
		pkt, reject := d.refine(antennas, cands[i], d.refScratches[w])
		results[i] = refined{pkt: pkt, reject: reject}
	})

	// Merge in candidate order: trace events and the packet list are
	// byte-identical to the serial path regardless of scheduling.
	var pkts []Packet
	for i, c := range cands {
		r := results[i]
		if r.reject != "" {
			d.Trace.OnDetect(obs.DetectEvent{Window: c.window, Bin: c.bin, Reason: r.reject})
			continue
		}
		pkt := r.pkt
		pkt.CFOCycles += d.CFOBiasCycles
		d.Trace.OnDetect(obs.DetectEvent{Window: c.window, Bin: c.bin, Accepted: true,
			Start: pkt.Start, CFOCycles: pkt.CFOCycles})
		pkts = append(pkts, pkt)
	}
	pkts = dedup(pkts, float64(d.p.SymbolSamples())/2)
	sort.Slice(pkts, func(i, j int) bool { return pkts[i].Start < pkts[j].Start })
	return pkts
}

// scanBatchRows is the number of consecutive windows a scan worker
// transforms per ScanKernel call: enough rows to amortize the batched FFT's
// per-call work while the batch (rows·N complex samples plus two rows·N
// float stacks) stays cache-resident.
const scanBatchRows = 8

// scanScratch is one scan worker's reusable state for the window transform:
// the batched scan kernel, the batch accumulator, the per-antenna batch
// vector (multi-antenna traces only) and the median selector of the adaptive
// selectivity.
type scanScratch struct {
	kernel *lora.ScanKernel
	accb   []float64      // summed batch, scanBatchRows·n
	yb     []float64      // per-antenna batch, allocated on first multi-antenna use
	sel    stats.Selector // per-window noise-floor median
	// lastMed seeds the next window's median selection: neighboring windows
	// share a noise floor, so the previous median splits the distribute at
	// the rank error. A stale or useless seed only costs speed — the
	// selection returns the exact median under any pivot — so it never
	// resets, not even across traces.
	lastMed float64
}

func (d *Detector) newScanScratch() *scanScratch {
	n := d.p.N()
	return &scanScratch{
		kernel: d.demod.NewScanKernel(),
		accb:   make([]float64, scanBatchRows*n),
	}
}

// scanPreambles is step 1: windows of one symbol slide over the trace;
// a peak persisting across MinRun consecutive windows marks a preamble.
//
// The per-window work — dechirp + FFT per antenna, the median-based
// selectivity and the peak search — touches only the read-shared trace and
// per-worker scratch, so it fans out across workers. Each worker owns one
// contiguous window range (per-window hand-off measured slower than the
// serial scan at 4 workers: the per-item cursor and slot-neighbor cache
// traffic cost more than a window's work) and walks it in batches of
// scanBatchRows windows through the fused ScanKernel. Results land in
// window-indexed slots; every batch row is bit-identical to the
// SignalVectorInto path, so chunk and batch boundaries never change the
// output. The run-tracking pass that strings peaks into preamble candidates
// is inherently sequential (window g's runs extend window g−1's) and walks
// the slots serially in window order, so the candidate list is
// byte-identical at every pool width.
func (d *Detector) scanPreambles(antennas [][]complex128) []candidate {
	n := d.p.N()
	sym := d.p.SymbolSamples()
	nwin := len(antennas[0]) / sym
	if nwin == 0 {
		return nil
	}

	if cap(d.scanPeaks) < nwin {
		sp := make([][]peaks.Peak, nwin)
		copy(sp, d.scanPeaks)
		d.scanPeaks = sp
	}
	winPeaks := d.scanPeaks[:nwin]
	// Fan out over whole batches, not windows, so every worker's range is
	// batch-aligned and only the final batch of the whole scan can be
	// partial — otherwise each worker ends its range on a short kernel
	// call, an overhead that grows with the pool width.
	nbat := (nwin + scanBatchRows - 1) / scanBatchRows
	maxWorkers := parallel.Workers(d.Workers)
	if maxWorkers > nbat {
		maxWorkers = nbat
	}
	if maxWorkers < 1 {
		maxWorkers = 1
	}
	for len(d.scanScratches) < maxWorkers {
		d.scanScratches = append(d.scanScratches, nil)
	}
	if d.scanFn == nil {
		d.scanFn = d.scanWorker
	}
	d.scanAnts = antennas
	d.ScanStats = parallel.ForEachChunks(d.Workers, nbat, d.scanFn)
	d.scanAnts = nil

	return d.trackRuns(winPeaks, n)
}

// scanWorker transforms the scan windows of batch range [blo, bhi) into
// d.scanPeaks slots, scanBatchRows consecutive windows per kernel call. It
// reads its call arguments from d.scanAnts (set by scanPreambles around the
// fan-out) so the bound d.scanFn closure is created once instead of per
// call.
func (d *Detector) scanWorker(w, blo, bhi int) {
	n := d.p.N()
	sym := d.p.SymbolSamples()
	antennas := d.scanAnts
	nwin := len(antennas[0]) / sym
	lo, hi := blo*scanBatchRows, bhi*scanBatchRows
	if hi > nwin {
		hi = nwin
	}
	sc := d.scanScratches[w]
	if sc == nil {
		sc = d.newScanScratch()
		d.scanScratches[w] = sc
	}
	for g0 := lo; g0 < hi; g0 += scanBatchRows {
		rows := hi - g0
		if rows > scanBatchRows {
			rows = scanBatchRows
		}
		acc := sc.accb[:rows*n]
		sc.kernel.UpVectorsInto(acc, antennas[0], g0*sym, sym, rows)
		for _, ant := range antennas[1:] {
			if sc.yb == nil {
				sc.yb = make([]float64, scanBatchRows*n)
			}
			y := sc.yb[:rows*n]
			sc.kernel.UpVectorsInto(y, ant, g0*sym, sym, rows)
			for i := range acc {
				acc[i] += y[i]
			}
		}
		for r := 0; r < rows; r++ {
			row := acc[r*n : (r+1)*n]
			// Selectivity tied to the noise floor (median bin) rather
			// than the window's range, so a weak preamble is tracked
			// next to a much stronger collider.
			g := g0 + r
			if sel := d.MinPeakHeight; sel != 0 {
				d.scanPeaks[g] = peaks.FindInto(d.scanPeaks[g], row, sel, d.MaxPeaksPerWindow)
			} else {
				med, rot := sc.sel.MedianArgMin(row, sc.lastMed)
				sc.lastMed = med
				if sel = 6 * med; sel > 0 {
					d.scanPeaks[g] = peaks.FindIntoAt(d.scanPeaks[g], row, sel, d.MaxPeaksPerWindow, rot)
				} else {
					// Degenerate window (median 0 or NaN): keep FindInto's
					// default-selectivity handling.
					d.scanPeaks[g] = peaks.FindInto(d.scanPeaks[g], row, sel, d.MaxPeaksPerWindow)
				}
			}
		}
	}
}

// runState is one bin's active run of consecutive-window peaks.
type runState struct {
	count   int
	height  float64
	emitted bool
}

// trackRuns strings the per-window peak lists into preamble candidates: a
// peak within ±1 bin of a peak in the previous window extends that run, and
// a run reaching MinRun windows emits a candidate once. The two generations
// (previous and current window) live in slice-backed rings keyed by bin with
// a window stamp marking live entries, so the tracking allocates nothing per
// window — the stamp check replaces both the map lookups and the per-window
// map churn.
func (d *Detector) trackRuns(winPeaks [][]peaks.Peak, n int) []candidate {
	if cap(d.runPrev) < n {
		d.runPrev, d.runCur = make([]runState, n), make([]runState, n)
		d.runPrevStamp, d.runCurStamp = make([]int32, n), make([]int32, n)
	}
	prev, cur := d.runPrev[:n], d.runCur[:n]
	prevStamp, curStamp := d.runPrevStamp[:n], d.runCurStamp[:n]
	for i := range prevStamp {
		prevStamp[i] = -1
		curStamp[i] = -1
	}

	cands := d.cands[:0]
	for g, ps := range winPeaks {
		for _, pk := range ps {
			best := (*runState)(nil)
			for _, db := range []int{0, -1, 1} {
				b := (pk.Bin + db + n) % n
				if prevStamp[b] == int32(g)-1 {
					if st := &prev[b]; best == nil || st.count > best.count {
						best = st
					}
				}
			}
			st := runState{count: 1, height: pk.Height}
			if best != nil {
				st.count = best.count + 1
				st.height = math.Max(best.height, pk.Height)
				st.emitted = best.emitted
			}
			stored := false
			if curStamp[pk.Bin] != int32(g) || st.count > cur[pk.Bin].count {
				cur[pk.Bin] = st
				curStamp[pk.Bin] = int32(g)
				stored = true
			}
			if st.count >= d.MinRun && !st.emitted {
				if stored {
					cur[pk.Bin].emitted = true
				}
				cands = append(cands, candidate{window: g, bin: pk.Bin, height: st.height})
			}
		}
		prev, cur = cur, prev
		prevStamp, curStamp = curStamp, prevStamp
	}
	d.cands = cands
	return cands
}

// refine runs steps 2–4 for one candidate and returns the packet estimate;
// a non-empty reject reason means the candidate was discarded. It touches
// only the read-shared trace and its own scratch, so candidates refine
// concurrently.
func (d *Detector) refine(antennas [][]complex128, c candidate, rs *refineScratch) (Packet, string) {
	n := d.p.N()
	sym := d.p.SymbolSamples()
	acc := rs.acc

	// Locate the downchirp: windows shortly after the run completion
	// should contain the 2.25 downchirps (the run completes MinRun
	// windows into the 8 upchirps, so the downchirps start 3–7 windows
	// later). Pick the window/bin with maximum down-dechirped energy.
	bestE, bestBin, bestWin := 0.0, 0, -1
	for g := c.window + 1; g <= c.window+8; g++ {
		start := float64(g * sym)
		if int(start)+sym >= len(antennas[0]) {
			break
		}
		for i := range acc {
			acc[i] = 0
		}
		for _, ant := range antennas {
			d.demod.DownSignalVectorInto(rs.y, rs.buf, ant, start, 0, 0)
			for i := range acc {
				acc[i] += rs.y[i]
			}
		}
		bi := peaks.HighestBin(acc)
		if acc[bi] > bestE {
			bestE, bestBin, bestWin = acc[bi], bi, g
		}
	}
	if bestWin < 0 {
		return Packet{}, "no_downchirp"
	}

	// Step 3: coarse timing and CFO from x1 (up peak) and x2 (down peak):
	// x1 = δ + c, x2 = c − δ (mod N), with δ the window offset in chips
	// and c the CFO in cycles/symbol. The N/2 ambiguity is resolved by
	// the CFO bound.
	x1, x2 := float64(c.bin), float64(bestBin)
	cfo := math.Mod((x1+x2)/2, float64(n))
	delta := math.Mod((x1-x2)/2, float64(n))
	cfo, delta = d.resolveAmbiguity(cfo, delta)
	if math.Abs(cfo) > d.MaxCFOCycles+2 {
		return Packet{}, "cfo_out_of_bounds"
	}

	// Anchor: the max-energy down window overlaps the downchirp section,
	// which starts 10 symbols after the preamble start.
	if delta < 0 {
		delta += float64(n)
	}
	start := float64(bestWin*sym) - delta*float64(d.p.OSF) - float64(10*sym)

	// Step 2: test adjustments of -2T..2T; every adjustment that passes
	// preamble validation is refined by the step-4 fractional search, and
	// the hypothesis with the highest gated energy Q* wins. Selecting on
	// Q* rather than the raw validation score disambiguates aliases under
	// collisions, where a foreign packet can inflate the validation
	// energy of a misaligned hypothesis.
	var best Packet
	found := false
	for adj := -2; adj <= 2; adj++ {
		s := start + float64(adj*sym)
		if s < -float64(sym) {
			continue
		}
		if _, ok := d.validatePreamble(antennas, s, cfo, rs); !ok {
			continue
		}
		ft, fc, q := d.fractionalSearch(antennas, s, cfo, rs)
		if !found || q > best.Quality {
			best = Packet{Start: s + ft, CFOCycles: cfo + fc, Quality: q}
			found = true
		}
	}
	if !found || math.Abs(best.CFOCycles) > d.MaxCFOCycles+2 {
		return Packet{}, "no_valid_start"
	}
	return best, ""
}

// resolveAmbiguity maps (cfo, delta) into the canonical range: cfo into
// (−N/2, N/2] and then, if the CFO bound is violated, shifts both by N/2
// (the inherent half-period ambiguity of the x1/x2 system).
func (d *Detector) resolveAmbiguity(cfo, delta float64) (float64, float64) {
	n := float64(d.p.N())
	norm := func(v float64) float64 {
		v = math.Mod(v, n)
		if v > n/2 {
			v -= n
		}
		if v <= -n/2 {
			v += n
		}
		return v
	}
	cfo = norm(cfo)
	if math.Abs(cfo) > d.MaxCFOCycles+2 {
		cfo = norm(cfo + n/2)
		delta += n / 2
	}
	return cfo, math.Mod(delta, n)
}

// validatePreamble checks that a hypothesized start time produces upchirp
// peaks at the expected location in most preamble symbols and a downchirp
// peak at the matching location, returning the total peak energy.
func (d *Detector) validatePreamble(antennas [][]complex128, start, cfo float64, rs *refineScratch) (float64, bool) {
	sym := d.p.SymbolSamples()
	acc := rs.acc
	hits, total := 0, 0
	var energy float64
	for k := 0; k < lora.PreambleUpchirps; k++ {
		s := start + float64(k*sym)
		if s < 0 || int(s)+sym >= len(antennas[0]) {
			continue
		}
		total++
		for i := range acc {
			acc[i] = 0
		}
		for _, ant := range antennas {
			d.demod.SignalVectorInto(rs.y, rs.buf, ant, s, cfo, k)
			for i := range acc {
				acc[i] += rs.y[i]
			}
		}
		if e, ok := peakNearZero(acc, &rs.sel); ok {
			hits++
			energy += e
		}
	}
	if total < 4 || hits < total-2 {
		return 0, false
	}
	// Downchirp check at start + 10T.
	s := start + float64(10*sym)
	if int(s)+sym < len(antennas[0]) && s >= 0 {
		for i := range acc {
			acc[i] = 0
		}
		for _, ant := range antennas {
			d.demod.DownSignalVectorInto(rs.y, rs.buf, ant, s, cfo, 10)
			for i := range acc {
				acc[i] += rs.y[i]
			}
		}
		e, ok := peakNearZero(acc, &rs.sel)
		if !ok {
			return 0, false
		}
		energy += e
	}
	return energy, true
}

// peakNearZero checks for a substantial peak within ±2 bins of bin 0. A
// stronger collider may own the global maximum of a preamble window, so the
// test is local: the neighborhood value must stand well above the noise
// floor (median bin, selected by the caller's reusable Selector).
func peakNearZero(acc []float64, sel *stats.Selector) (float64, bool) {
	n := len(acc)
	best := 0.0
	for db := -2; db <= 2; db++ {
		if v := acc[(db+n)%n]; v > best {
			best = v
		}
	}
	floor := sel.Median(acc)
	if floor <= 0 {
		return best, best > 0
	}
	return best, best >= 8*floor
}

// binDist is the circular distance between two bin positions.
func binDist(a, b float64, n int) float64 {
	d := math.Abs(math.Mod(a-b, float64(n)))
	if d > float64(n)/2 {
		d = float64(n) - d
	}
	return d
}

func dedup(pkts []Packet, tol float64) []Packet {
	var out []Packet
	for _, p := range pkts {
		dup := false
		for i, o := range out {
			if math.Abs(p.Start-o.Start) < tol {
				dup = true
				if p.Quality > o.Quality {
					out[i] = p
				}
				break
			}
		}
		if !dup {
			out = append(out, p)
		}
	}
	return out
}
