package stagegraph

import (
	"math"
	"math/rand"
	"sort"

	"tnb/internal/bec"
	"tnb/internal/detect"
	"tnb/internal/lora"
	"tnb/internal/obs"
	"tnb/internal/parallel"
	"tnb/internal/peaks"
	"tnb/internal/stats"
	"tnb/internal/thrive"
	"tnb/internal/trace"
)

// Config selects the receiver variant. The zero value of optional fields
// picks the paper's settings.
type Config struct {
	Params lora.Params
	// Policy selects the peak-assignment algorithm: Thrive (default),
	// Sibling (no history cost) or AlignTrack* (baseline).
	Policy thrive.Policy
	// UseBEC enables Block Error Correction; false uses the default
	// per-codeword Hamming decoder (the "Thrive" configuration of §8.4).
	UseBEC bool
	// SecondPass re-decodes failed packets with decoded packets' peaks
	// masked (paper §4). Default on; set DisableSecondPass to turn off.
	DisableSecondPass bool
	// W caps BEC's packet CRC tests; 0 selects the paper's defaults.
	W int
	// MaxPayloadLen bounds the provisional packet length before the PHY
	// header is decoded. 0 defaults to 48 bytes.
	MaxPayloadLen int
	// Omega overrides the history-cost weight ω (0 → paper's 0.1).
	Omega float64
	// ListDecode retries a failed packet with Thrive's runner-up peak
	// substituted one symbol at a time — a list-decoding extension in the
	// spirit of the papers §2 cites ([16, 17]), applied per collided
	// packet. Off by default to match the paper's configuration.
	ListDecode bool
	// ListDecodeBudget caps the substitution attempts per packet
	// (0 → 24).
	ListDecodeBudget int
	// Seed drives BEC's random candidate sampling. Each packet gets its own
	// deterministic stream derived from (Seed, pass, packet index), so the
	// sampling is independent of decode order and worker count.
	Seed int64
	// Workers caps the goroutines used by the parallel pipeline stages
	// (candidate refinement, signal-vector prefill, packet decoding).
	// 0 uses GOMAXPROCS; 1 runs fully serial. The decoded output is
	// byte-identical for every value.
	Workers int
	// Metrics receives per-stage latencies and pipeline counters; nil
	// disables instrumentation (the sample path is then a nil check).
	// Use DefaultPipelineMetrics() to record into the process registry.
	Metrics *PipelineMetrics
	// Tracer receives one structured decode trace per detected packet
	// (internal/obs): detection parameters, per-symbol assignment
	// decisions, BEC block outcomes, and a failure reason. Nil disables
	// tracing; the hot path is then a nil check per packet.
	Tracer *obs.Tracer
	// Recorder, when non-nil, snapshots every stage boundary the pipeline
	// crosses into a replayable recording (see record.go). Recording is a
	// debugging/testing facility: it copies boundary data per window and is
	// not meant for the steady-state hot path.
	Recorder *Recorder
	// FaultCFOBiasCycles shifts every detection's CFO estimate by this
	// many cycles per symbol. It is a fault-injection hook for the
	// failure-attribution tests — it corrupts dechirping the way a wrong
	// sync lock would — and must stay zero in production.
	FaultCFOBiasCycles float64
}

// Decoded is one successfully decoded packet.
type Decoded struct {
	Payload   []uint8
	Header    lora.Header
	Start     float64 // packet start in rx samples
	CFOCycles float64
	SNRdB     float64 // estimated from preamble peaks vs the noise floor
	Rescued   int     // codewords fixed beyond the default decoder
	Pass      int     // 1 or 2 (second decoding attempt)
	// DataSymbols is the packet's on-air data symbol count, derived from
	// the decoded PHY header (LDRO-aware), and AirtimeSec the full on-air
	// time including the preamble — the fields reports and trace
	// summaries share.
	DataSymbols int
	AirtimeSec  float64
	// Trace is the packet's decode trace when the receiver has a Tracer.
	Trace *obs.PacketTrace
}

// Pipeline is the TnB gateway-side decoder as a stage graph. Create with
// New; a Pipeline may be reused across traces but is not safe for
// concurrent use (core.Receiver is an alias of this type).
type Pipeline struct {
	cfg      Config
	detector *detect.Detector
	demod    *lora.Demodulator
	met      *PipelineMetrics
	obs      *obs.Tracer
	rec      *Recorder
	// engine and calcs persist across Decode calls: the Thrive engine's
	// symbol pool and the calculators' signal-vector arenas are the decode
	// loop's two big recurring allocations, and reusing them makes the
	// steady-state loop allocation-light (pinned by the alloc-ceiling test).
	engine *thrive.Engine
	calcs  peaks.CalcPool

	// graph runs a full window (pass 1); passGraph re-runs the window
	// tail for the masked second pass, skipping detection.
	graph     *Graph
	passGraph *Graph
}

// New builds a pipeline for the parameter set in cfg.
func New(cfg Config) *Pipeline {
	if cfg.MaxPayloadLen == 0 {
		cfg.MaxPayloadLen = 48
	}
	d := detect.NewDetector(cfg.Params)
	d.Trace = cfg.Tracer
	d.CFOBiasCycles = cfg.FaultCFOBiasCycles
	d.Workers = cfg.Workers
	p := &Pipeline{
		cfg:      cfg,
		detector: d,
		demod:    d.Demodulator(),
		met:      cfg.Metrics,
		obs:      cfg.Tracer,
		rec:      cfg.Recorder,
		engine:   thrive.NewEngine(cfg.Params, thrive.Config{Policy: cfg.Policy, Omega: cfg.Omega}),
	}
	p.graph = NewGraph(DetectStage{}, SigCalcStage{}, ThriveStage{}, BECStage{})
	p.passGraph = NewGraph(p.graph.Stages()[1:]...)
	if p.rec != nil {
		p.rec.init(&cfg)
	}
	return p
}

// Graph returns the pipeline's full stage graph (detect → sigcalc →
// thrive → bec); the second pass runs the same graph minus detection.
func (p *Pipeline) Graph() *Graph { return p.graph }

// packetRNG returns the BEC sampling source for one packet of one pass.
// Seeding per (pass, packet) instead of sharing one stream across packets
// makes the rare random-sampling fallback independent of decode order, which
// is what lets the BEC stage fan out without changing its output.
func (p *Pipeline) packetRNG(pass, idx int) *rand.Rand {
	return rand.New(rand.NewSource(p.cfg.Seed + 1 + int64(pass)*1_000_003 + int64(idx)*7919))
}

// prefillWorkers splits the pool across npkts packets: packets are the outer
// fan-out, and when the pool is wider than the packet count the remainder
// accelerates each packet's own vector prefill.
func prefillWorkers(workers, npkts int) int {
	if npkts <= 0 || workers <= npkts {
		return 1
	}
	return (workers + npkts - 1) / npkts
}

// Decode runs the full pipeline on a trace and returns the decoded packets
// in start-time order.
func (p *Pipeline) Decode(tr *trace.Trace) []Decoded {
	return p.DecodeSamples(tr.Antennas)
}

// DecodeSamples is Decode for raw per-antenna sample slices. It schedules
// the stage graph over one window, then — when the first pass decoded some
// but not all detections — a second window with the decoded packets' peaks
// masked (paper §4).
func (p *Pipeline) DecodeSamples(antennas [][]complex128) []Decoded {
	w := &Window{Antennas: antennas, Pass: 1}
	p.graph.Run(p, w)
	if len(w.Pkts) == 0 {
		return nil
	}

	var out []Decoded
	decodedIdx := map[int]bool{}
	for i, res := range w.Results {
		if res.OK {
			out = append(out, res.Dec)
			decodedIdx[i] = true
		}
	}

	retrying := !p.cfg.DisableSecondPass && len(decodedIdx) > 0 && len(decodedIdx) < len(w.States)
	for i, st := range w.States {
		if pt := st.Trace; pt != nil {
			// A pass-1 failure about to be retried is not the packet's
			// final verdict.
			pt.Final = decodedIdx[i] || !retrying
			p.obs.Finish(pt)
		}
	}
	if retrying {
		w2 := &Window{
			Antennas:   antennas,
			TraceLen:   w.TraceLen,
			Pass:       2,
			ObsWindow:  w.ObsWindow,
			Pkts:       w.Pkts,
			DecodedIdx: decodedIdx,
			Prior:      w.States,
		}
		p.passGraph.Run(p, w2)
		for j, i := range w2.RetryIdx {
			if w2.Results[j].OK {
				out = append(out, w2.Results[j].Dec)
			}
			if pt := w2.States[i].Trace; pt != nil {
				pt.Final = true
				p.obs.Finish(pt)
			}
		}
	}
	return out
}

// DetectStage scans the window for preambles and refines each candidate's
// timing/CFO estimate (paper §7). Its boundary output is Window.Pkts.
type DetectStage struct{}

// Name implements Stage.
func (DetectStage) Name() string { return StageDetect }

// Run implements Stage.
func (DetectStage) Run(p *Pipeline, w *Window) {
	p.met.onPoolWorkers(parallel.Workers(p.cfg.Workers))
	t0 := p.met.now()
	w.Pkts = p.detector.Detect(w.Antennas)
	p.met.observeDetect(t0)
	p.met.observeDetectSplit(p.detector.ScanStats.Wall, p.detector.RefineStats.Wall)
	p.met.onScanParallel(p.detector.ScanStats)
	p.met.onRefineParallel(p.detector.RefineStats)
	p.met.onDetected(len(w.Pkts))
	if len(w.Pkts) > 0 {
		w.TraceLen = len(w.Antennas[0])
	}
}

// SigCalcStage builds one prefilled signal-vector calculator and one
// assignment state per detection, so every later SigVec read — Thrive, SNR
// estimation, list decoding — is a pure cached read. Calculators come from
// the pool (drawn serially; the cursor is not goroutine-safe), then packets
// fan out across the worker pool for the prefill; leftover width speeds up
// each packet's own prefill. Traces are opened serially afterwards so the
// tracer sees packets in detection order. In pass 2 a decoded packet keeps
// only its masked peak positions and preamble history, and a failed packet
// carries its pass-1 heights as the history prior (paper §5.3.3).
type SigCalcStage struct{}

// Name implements Stage.
func (SigCalcStage) Name() string { return StageSigCalc }

// Run implements Stage.
func (SigCalcStage) Run(p *Pipeline, w *Window) {
	if w.Pass == 1 {
		p.calcs.Rewind()
		w.ObsWindow = p.obs.NextWindow()
	}
	t0 := p.met.now()
	inner := prefillWorkers(parallel.Workers(p.cfg.Workers), len(w.Pkts))
	states := make([]*thrive.PacketState, len(w.Pkts))
	calcs := make([]*peaks.Calculator, len(w.Pkts))
	for i := range w.Pkts {
		calcs[i] = p.newCalc(w.Antennas, w.Pkts[i], w.TraceLen)
	}
	sigSt := parallel.ForEach(p.cfg.Workers, len(w.Pkts), func(_, i int) {
		st := thrive.NewPacketState(i, calcs[i])
		if w.Pass == 2 {
			if w.DecodedIdx[i] {
				st.Known = true
				st.KnownShifts = w.Prior[i].KnownShifts
				// A known packet contributes only its masked peak positions
				// and preamble history; its data vectors are never read.
				st.Calc.PrefillPreamble()
			} else {
				st.PriorHeights = append([]float64(nil), w.Prior[i].Heights...)
				st.Calc.Prefill(inner)
			}
		} else {
			calcs[i].Prefill(inner)
		}
		states[i] = st
	})
	for i := range states {
		if w.Pass == 1 {
			states[i].Trace = p.newTrace(w.ObsWindow, i, 1, w.Pkts[i], states[i])
		} else if !w.DecodedIdx[i] {
			states[i].Trace = p.newTrace(w.ObsWindow, i, 2, w.Pkts[i], states[i])
		}
	}
	p.met.observeSigCalc(t0)
	p.met.onSigCalcParallel(sigSt)
	w.Calcs, w.States = calcs, states
}

// ThriveStage runs the greedy peak assignment (paper §5). The assignment is
// order-dependent by design and stays serial; with prefilled calculators it
// only does pure reads. Its boundary output is each state's Assignment.
type ThriveStage struct{}

// Name implements Stage.
func (ThriveStage) Name() string { return StageThrive }

// Run implements Stage.
func (ThriveStage) Run(p *Pipeline, w *Window) {
	t0 := p.met.now()
	p.engine.Run(w.States, w.TraceLen)
	p.met.observeThrive(t0)
}

// BECStage decodes every assigned packet concurrently into indexed slots
// (Hamming or BEC per the config), then the pipeline merges in detection
// order. In pass 2 only the packets pass 1 failed are attempted.
type BECStage struct{}

// Name implements Stage.
func (BECStage) Name() string { return StageBEC }

// Run implements Stage.
func (BECStage) Run(p *Pipeline, w *Window) {
	w.RetryIdx = w.RetryIdx[:0]
	for i := range w.States {
		if w.Pass == 2 && w.DecodedIdx[i] {
			continue
		}
		w.RetryIdx = append(w.RetryIdx, i)
	}
	w.Results = make([]Outcome, len(w.RetryIdx))
	decSt := parallel.ForEach(p.cfg.Workers, len(w.RetryIdx), func(_, j int) {
		i := w.RetryIdx[j]
		dec, ok := p.decodeAssigned(w.States[i], w.Pkts[i], w.Pass, i)
		w.Results[j] = Outcome{Dec: dec, OK: ok}
	})
	p.met.onDecodeParallel(decSt)
}

// newTrace opens the packet's decode trace; nil without a tracer.
func (p *Pipeline) newTrace(window uint64, id, pass int, pk detect.Packet, st *thrive.PacketState) *obs.PacketTrace {
	if p.obs == nil {
		return nil
	}
	start := math.Floor(pk.Start)
	pt := p.obs.NewPacket(window, id, pass, obs.Detection{
		StartSample: int(start),
		FracTiming:  pk.Start - start,
		CFOCycles:   pk.CFOCycles,
		CFOHz:       pk.CFOCycles / p.cfg.Params.SymbolDuration(),
		Quality:     pk.Quality,
		SNRdB:       p.estimateSNR(st),
	})
	pt.SyncScore = p.syncScore(st)
	pt.InitSymbols(st.Calc.NumData())
	return pt
}

// syncScore measures how well the estimated sync explains the preamble: the
// fraction of upchirps whose signal-vector maximum lands within ±1 bin of
// bin 0. A correct lock scores near 1; a wrong timing/CFO lock scatters the
// maxima and scores near 0.
func (p *Pipeline) syncScore(st *thrive.PacketState) float64 {
	n := p.cfg.Params.N()
	total, hits := 0, 0
	for k := 0; k < lora.PreambleUpchirps; k++ {
		idx := k - (lora.PreambleUpchirps + lora.SyncSymbols)
		if !st.Calc.InRange(idx) {
			continue
		}
		total++
		hb := peaks.HighestBin(st.Calc.SigVec(idx))
		if hb <= 1 || hb >= n-1 {
			hits++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// newCalc draws a pooled signal-vector calculator with a provisional symbol
// count (the true count is learned from the PHY header after assignment).
// The pool cursor is not goroutine-safe: call serially, before any fan-out.
func (p *Pipeline) newCalc(antennas [][]complex128, pk detect.Packet, traceLen int) *peaks.Calculator {
	pr := p.cfg.Params
	lay, err := lora.NewLayout(pr, p.cfg.MaxPayloadLen)
	maxSyms := 0
	if err == nil {
		maxSyms = lay.DataSymbols
	}
	dataStart := pk.Start + (lora.PreambleUpchirps+lora.SyncSymbols+
		float64(lora.DownchirpQuarters)/4)*float64(pr.SymbolSamples())
	avail := int((float64(traceLen) - dataStart) / float64(pr.SymbolSamples()))
	if avail < 0 {
		avail = 0
	}
	if maxSyms == 0 || avail < maxSyms {
		maxSyms = avail
	}
	return p.calcs.Get(p.demod, antennas, pk.Start, pk.CFOCycles, maxSyms)
}

// decodeAssigned turns a packet's assigned peak bins into a payload. idx is
// the packet's detection index, which seeds its BEC sampling stream. It runs
// concurrently across packets: everything it touches is either per-packet
// (state, trace, rng), atomic (metrics), or a pure read (prefilled
// calculator, shared demodulator).
func (p *Pipeline) decodeAssigned(st *thrive.PacketState, pk detect.Packet, pass, idx int) (Decoded, bool) {
	t0 := p.met.now()
	defer p.met.observeDecode(t0)
	rng := p.packetRNG(pass, idx)
	pr := p.cfg.Params
	shifts := make([]int, len(st.Assigned))
	for i, b := range st.Assigned {
		if b >= 0 {
			shifts[i] = b
		}
	}
	if len(shifts) < lora.HeaderSymbols {
		st.Trace.Fail(obs.FailTooShort)
		return Decoded{}, false
	}

	var hdr lora.Header
	var payload []uint8
	rescued := 0
	// Failure-attribution evidence, accumulated across decode attempts.
	var becInfo bec.PacketResult
	attempts := 0
	decodeOnce := func(sh []int) (lora.Header, []uint8, int, bool) {
		attempts++
		if p.cfg.UseBEC {
			pd := bec.NewPacketDecoder(p.cfg.W, rng)
			if attempts == 1 {
				// Block outcomes are traced for the first attempt only;
				// list-decode retries would append duplicate rows.
				pd.Trace = st.Trace
			}
			res := pd.DecodePacket(pr, sh)
			becInfo.CRCTests += res.CRCTests
			becInfo.HeaderOK = becInfo.HeaderOK || res.HeaderOK
			becInfo.BlockFailed = becInfo.BlockFailed || res.BlockFailed
			becInfo.Exhausted = becInfo.Exhausted || res.Exhausted
			return res.Header, res.Payload, res.Rescued, res.OK
		}
		res := lora.DecodeDefault(pr, sh)
		return res.Header, res.Payload, 0, res.OK
	}
	var ok bool
	hdr, payload, rescued, ok = decodeOnce(shifts)
	if !ok && p.cfg.ListDecode {
		hdr, payload, rescued, ok = p.listDecode(st, shifts, decodeOnce)
	}
	if !ok {
		if pt := st.Trace; pt != nil {
			pt.CRCTests = becInfo.CRCTests
			pt.ListDecodeTried = attempts - 1
			pt.BECExhausted = becInfo.Exhausted
			headerOK := becInfo.HeaderOK
			if !p.cfg.UseBEC {
				// The default decoder keeps no evidence; re-derive header
				// validity from the cleaned header block.
				_, headerOK = lora.HeaderFromCleanBlock(
					lora.CleanBlock(lora.HeaderBlockFromShifts(pr, shifts), 4))
			}
			pt.Fail(attributeFailure(pt, headerOK, becInfo.BlockFailed, becInfo.Exhausted))
		}
		p.met.onDecodeFailed()
		return Decoded{}, false
	}

	// Mark decoded: re-encode to obtain the true on-air shifts for
	// masking in the second pass.
	pp := pr
	pp.CR = hdr.CR
	if trueShifts, _, err := lora.Encode(pp, payload); err == nil {
		st.Known = true
		st.KnownShifts = trueShifts
	}

	dataSyms := pp.PayloadSymbols(hdr.PayloadLen)
	dec := Decoded{
		Payload:     payload,
		Header:      hdr,
		Start:       pk.Start,
		CFOCycles:   pk.CFOCycles,
		SNRdB:       p.estimateSNR(st),
		Rescued:     rescued,
		Pass:        pass,
		DataSymbols: dataSyms,
		AirtimeSec:  (pp.PreambleSymbols() + float64(dataSyms)) * pp.SymbolDuration(),
		Trace:       st.Trace,
	}
	if pt := st.Trace; pt != nil {
		pt.OK = true
		pt.Rescued = rescued
		pt.CRCTests = becInfo.CRCTests
		pt.ListDecodeTried = attempts - 1
		pt.DataSymbols = dec.DataSymbols
		pt.AirtimeSec = dec.AirtimeSec
	}
	p.met.onDecoded(dec)
	return dec, true
}

// attributeFailure maps the evidence of a failed decode to the taxonomy.
// Definite causes come first (wrong sync, no valid header, exhausted CRC
// budget); the peak-misassignment heuristic — an outsized share of
// near-coin-flip assignments — is consulted only after them, so forced
// faults in tests attribute deterministically.
func attributeFailure(pt *obs.PacketTrace, headerOK, blockFailed, exhausted bool) obs.FailureReason {
	if pt.SyncScore < 0.5 {
		return obs.FailNoSync
	}
	if !headerOK {
		return obs.FailHeaderInvalid
	}
	if exhausted {
		return obs.FailBECBudget
	}
	if amb, assigned := pt.AmbiguousSymbols(obs.AmbiguityMargin); assigned > 0 && 4*amb >= assigned {
		return obs.FailPeakMisassign
	}
	if blockFailed {
		return obs.FailBECUnrepairable
	}
	return obs.FailCRC
}

// listDecode retries the packet with the runner-up peak substituted one
// symbol at a time, most-ambiguous symbols first (smallest height gap
// between the chosen peak and its alternate).
func (p *Pipeline) listDecode(st *thrive.PacketState, shifts []int,
	decodeOnce func([]int) (lora.Header, []uint8, int, bool)) (lora.Header, []uint8, int, bool) {

	budget := p.cfg.ListDecodeBudget
	if budget <= 0 {
		budget = 24
	}
	type cand struct {
		idx int
		gap float64
	}
	var cands []cand
	for i, alt := range st.Alternates {
		if i >= len(shifts) || alt < 0 || alt == shifts[i] {
			continue
		}
		// Ambiguity proxy: how close the alternate's signal level is to
		// the chosen peak's.
		chosen := st.Heights[i]
		altH := st.Calc.ValueAt(i, float64(alt))
		gap := chosen - altH
		cands = append(cands, cand{idx: i, gap: gap})
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].gap < cands[b].gap })
	if len(cands) > budget {
		cands = cands[:budget]
	}
	trial := make([]int, len(shifts))
	for _, c := range cands {
		copy(trial, shifts)
		trial[c.idx] = st.Alternates[c.idx]
		if hdr, payload, rescued, ok := decodeOnce(trial); ok {
			return hdr, payload, rescued, true
		}
	}
	return lora.Header{}, nil, 0, false
}

// estimateSNR derives a per-packet SNR estimate from the preamble peak
// height against the noise floor read from the median signal-vector bin
// (exponential noise: median = ln2·mean).
func (p *Pipeline) estimateSNR(st *thrive.PacketState) float64 {
	pr := p.cfg.Params
	hs := st.Calc.PreamblePeakHeights()
	if len(hs) == 0 {
		return math.Inf(-1)
	}
	peak := stats.Median(hs)
	y := st.Calc.SigVec(-(lora.PreambleUpchirps + lora.SyncSymbols))
	floor := stats.Median(y) / math.Ln2
	if floor <= 0 {
		return math.Inf(1)
	}
	snr := peak / (floor * float64(pr.N()))
	return 10 * math.Log10(snr)
}
