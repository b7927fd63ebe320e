package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"time"

	"tnb/internal/detect"
	"tnb/internal/lora"
	"tnb/internal/obs"
	"tnb/internal/parallel"
	"tnb/internal/sim"
	"tnb/internal/stagegraph"
	"tnb/internal/trace"
)

// rx-collide-sf8: independent ~1 s captures at the paper's heaviest load
// (Outdoor 2, SF8 CR4 OSF8, 25 pkt/s), decoded one after another by one
// stagegraph.Pipeline at Workers 1. The decode is single-threaded, so its
// clock is the process CPU time: that is its latency on a core of its own,
// and it leaves out the time the hypervisor steals from the VM, which on a
// shared host slowed wall-clock figures by up to 40 % for minutes at a time.
const (
	rxCaptures   = 32
	rxCaptureSec = 1.0
	rxLoad       = 25.0
)

// capture is one synthesized capture stored as interleaved int16 I/Q with
// a per-capture scale that maps its largest component to full range, the
// form an SDR delivers: 32 captures at OSF8 take 128 MB instead of 512 MB.
type capture struct {
	iq    []int16
	scale float64
	recs  []trace.TxRecord
	air   float64 // on-air seconds
}

func quantize(x []complex128) ([]int16, float64) {
	peak := 0.0
	for _, v := range x {
		peak = max(peak, math.Abs(real(v)), math.Abs(imag(v)))
	}
	scale := 1.0
	if peak > 0 {
		scale = math.MaxInt16 / peak
	}
	iq := make([]int16, 2*len(x))
	for i, v := range x {
		iq[2*i] = int16(math.Round(real(v) * scale))
		iq[2*i+1] = int16(math.Round(imag(v) * scale))
	}
	return iq, scale
}

type rxSetup struct {
	params lora.Params
	caps   []capture
	pipe   *stagegraph.Pipeline
	buf    []complex128 // the capture being decoded, expanded
}

// samples expands capture i into the reused decode buffer and returns it
// as the pipeline's single-antenna input.
func (s *rxSetup) samples(i int) [][]complex128 {
	c := &s.caps[i]
	buf := s.buf[:len(c.iq)/2]
	for j := range buf {
		buf[j] = complex(float64(c.iq[2*j])/c.scale, float64(c.iq[2*j+1])/c.scale)
	}
	return [][]complex128{buf}
}

// buildRx synthesizes the captures on nproc goroutines, builds the
// pipeline and decodes one warm-up capture.
func buildRx(opt options) (*rxSetup, error) {
	caps := make([]capture, rxCaptures)
	errs := make([]error, rxCaptures)
	parallel.ForEach(opt.nproc, rxCaptures, func(_, i int) {
		gt, err := sim.Generate(sim.Config{
			Deployment: sim.Outdoor2, SF: 8, CR: 4,
			LoadPktPerSec: rxLoad, DurationSec: rxCaptureSec,
			Seed: opt.seed*1_000_003 + int64(i),
		}, 1)
		if err != nil {
			errs[i] = err
			return
		}
		iq, scale := quantize(gt.Trace.Antennas[0])
		caps[i] = capture{iq: iq, scale: scale, recs: gt.Records,
			air: float64(gt.Trace.Len()) / gt.Params.SampleRate()}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	params := lora.MustParams(8, 4, 125e3, 8)
	s := &rxSetup{params: params, caps: caps,
		pipe: stagegraph.New(stagegraph.Config{Params: params, UseBEC: true, Workers: 1, Seed: opt.seed})}
	longest := 0
	for _, c := range caps {
		longest = max(longest, len(c.iq)/2)
	}
	s.buf = make([]complex128, longest)
	s.pipe.DecodeSamples(s.samples(0))
	return s, nil
}

// rxPass is the result of decoding every capture once.
type rxPass struct {
	payloads [][][]uint8 // per capture, in decode order
	digest   []uint64    // per capture
}

func newRxPass(n int) *rxPass {
	return &rxPass{payloads: make([][][]uint8, n), digest: make([]uint64, n)}
}

func digestPayloads(ps [][]uint8) uint64 {
	h := uint64(fnvOffset)
	for _, p := range ps {
		h = fnvBytes(h, p)
	}
	return h
}

// rxLoop decodes captures round-robin until the budget is spent and every
// capture has been decoded at least once. decode returns the payloads; the
// first pass is recorded, later passes must repeat it exactly.
type rxLoop struct {
	wall     []float64 // per decode call: wall seconds
	rtfs     []float64 // per decode call, from process CPU time
	lat      []float64 // per decoded packet, seconds
	offered  int       // transmitted packets handed to the decoder
	mismatch int       // packets in captures whose repeat decode differed
	first    *rxPass
	// firstAlloc is the heap bytes allocated by the first pass, which
	// decodes every capture exactly once.
	firstAlloc uint64
}

func runRxLoop(s *rxSetup, budget time.Duration, decode func(i int, ants [][]complex128) [][]uint8) *rxLoop {
	l := &rxLoop{first: newRxPass(len(s.caps))}
	start := time.Now()
	a0, _ := heapAllocated()
	for i := 0; i < len(s.caps) || time.Since(start) < budget; i++ {
		c := i % len(s.caps)
		ants := s.samples(c)
		t0, c0 := time.Now(), cpuTime()
		ps := decode(c, ants)
		dt := (cpuTime() - c0).Seconds()
		l.wall = append(l.wall, time.Since(t0).Seconds())
		l.rtfs = append(l.rtfs, s.caps[c].air/dt)
		for range ps {
			l.lat = append(l.lat, dt)
		}
		l.offered += len(s.caps[c].recs)
		d := digestPayloads(ps)
		if i < len(s.caps) {
			l.first.payloads[c] = ps
			l.first.digest[c] = d
			if i == len(s.caps)-1 {
				a1, _ := heapAllocated()
				l.firstAlloc = a1 - a0
			}
		} else if d != l.first.digest[c] {
			l.mismatch += len(s.caps[c].recs)
		}
	}
	return l
}

func untracedDecode(s *rxSetup) func(int, [][]complex128) [][]uint8 {
	return func(_ int, ants [][]complex128) [][]uint8 {
		var ps [][]uint8
		for _, d := range s.pipe.DecodeSamples(ants) {
			ps = append(ps, d.Payload)
		}
		return ps
	}
}

// scoreRx matches one pass's decodes to the transmitted packets: every
// decoded payload must be a distinct transmitted one; wrong counts those
// that are not.
func scoreRx(s *rxSetup, pass *rxPass, out *outcome) (matched, sent, wrong int) {
	for c, cp := range s.caps {
		used := make([]bool, len(cp.recs))
		sent += len(cp.recs)
		for _, p := range pass.payloads[c] {
			found := false
			for j, r := range cp.recs {
				if !used[j] && bytes.Equal(p, r.Payload) {
					used[j], found = true, true
					matched++
					break
				}
			}
			if !found {
				wrong++
				out.check(false, "capture %d: decoded payload %x matches no transmitted packet", c, p)
			}
		}
	}
	return matched, sent, wrong
}

func runRx(opt options) (*outcome, error) {
	s, setupS, err := timeSetup(func() (*rxSetup, error) { return buildRx(opt) }, nil)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	budget := opt.budget
	if opt.trace {
		budget /= 2
	}

	l := runRxLoop(s, budget, untracedDecode(s))
	matched, sent, wrong := scoreRx(s, l.first, out)
	out.check(l.mismatch == 0, "repeat decodes differed from the first pass on %d packets", l.mismatch)
	out.attempted, out.failed = l.offered, wrong+l.mismatch
	air := 0.0
	for _, c := range s.caps {
		air += c.air
	}
	untracedRTF := median(l.rtfs)
	out.note("captures=%d decodes=%d sent=%d decoded=%d", len(s.caps), len(l.rtfs), sent, matched)

	if !opt.trace {
		out.metrics["setup_s"] = setupS
		out.metrics["rtf"] = untracedRTF
		out.metrics["prr"] = float64(matched) / float64(sent)
		out.metrics["latency_p50_ms"] = 1e3 * quantile(l.lat, 0.5)
		out.metrics["latency_p95_ms"] = 1e3 * quantile(l.lat, 0.95)
		out.metrics["alloc_mb_per_air_s"] = float64(l.firstAlloc) / 1e6 / air
		out.note("wall time per decode: p50=%.2f ms p95=%.2f ms (n=%d)",
			1e3*quantile(l.wall, 0.5), 1e3*quantile(l.wall, 0.95), len(l.wall))
		return out, nil
	}
	traceRx(s, l, untracedRTF, budget, out)
	return out, nil
}

// traceRx runs the traced pass: DecodeSamples re-enacted stage by stage
// through Pipeline.Graph().Stages() with a span around each Stage.Run, then
// a bench-owned detect.Detector replays the same captures for the scan and
// refine split and the candidate funnel.
func traceRx(s *rxSetup, untraced *rxLoop, untracedRTF float64, budget time.Duration, out *outcome) {
	log := newSpanLog()
	stages := s.pipe.Graph().Stages()
	// Counts come from the first pass over the captures only.
	first, repeats := &rxTraceStats{}, &rxTraceStats{}
	decodes := 0
	_, gc0 := heapAllocated()
	l := runRxLoop(s, budget, func(i int, ants [][]complex128) [][]uint8 {
		st := first
		if decodes >= len(s.caps) {
			st = repeats
		}
		decodes++
		return tracedDecode(log, s.pipe, stages, ants, fmt.Sprintf("capture-%d", i), st)
	})
	_, gc1 := heapAllocated()
	for c := range s.caps {
		out.check(l.first.digest[c] == untraced.first.digest[c],
			"capture %d: traced decode differs from the untraced decode", c)
	}
	out.check(l.mismatch == 0, "traced repeat decodes differed on %d packets", l.mismatch)
	units := float64(len(l.rtfs))
	perUnit := func(name string) float64 { return log.total(name).Seconds() / units }

	m := out.metrics
	m["detect.s"] = perUnit("detect")
	m["stagegraph.decode_s"] = perUnit("DecodeSamples")
	m["stagegraph.sigcalc_s"] = perUnit("sigcalc")
	m["stagegraph.pass2_s"] = perUnit("pass2")
	m["stagegraph.pass2_decoded"] = float64(first.pass2Decoded)
	m["stagegraph.decode_failed"] = float64(first.detections - first.decoded)
	m["thrive.s"] = perUnit("thrive")
	m["bec.s"] = perUnit("bec")
	m["bec.rescued"] = float64(first.rescued)
	m["runtime.gc_cycles"] = float64(gc1-gc0) / units
	tracedRTF := median(l.rtfs)
	m["trace.overhead_rtf"] = tracedRTF - untracedRTF
	out.note("trace: untraced_rtf=%.4f traced_rtf=%.4f", untracedRTF, tracedRTF)

	r := replayDetect(s.params, len(s.caps), s.samples)
	r.report(m, float64(len(s.caps)))
	out.spans = log

	// Premise: the Q-search refine is the largest receiver layer here.
	premise := "premise met: detect.refine_s is the largest receiver layer"
	for _, k := range []string{"detect.scan_s", "stagegraph.sigcalc_s", "thrive.s", "bec.s"} {
		if m[k] > m["detect.refine_s"] {
			premise = fmt.Sprintf("PREMISE NOT MET: %s (%.4f s) exceeds detect.refine_s (%.4f s)", k, m[k], m["detect.refine_s"])
		}
	}
	out.note("%s", premise)
}

// rxTraceStats counts decode outcomes over one pass of the captures.
type rxTraceStats struct {
	detections, decoded, pass2Decoded, rescued int
}

// tracedDecode is Pipeline.DecodeSamples re-enacted with the pipeline's
// own stage objects, so each Stage.Run gets a span. It mirrors the
// two-pass schedule of DecodeSamples exactly; the caller checks that the
// decoded payloads equal the untraced DecodeSamples output.
func tracedDecode(log *spanLog, p *stagegraph.Pipeline, stages []stagegraph.Stage, ants [][]complex128, unit string, st *rxTraceStats) [][]uint8 {
	root := log.begin(0, "DecodeSamples", unit)
	defer log.end(root)
	run := func(parent int, stages []stagegraph.Stage, w *stagegraph.Window) {
		for _, stg := range stages {
			id := log.begin(parent, stg.Name(), unit)
			stg.Run(p, w)
			log.end(id)
			if len(w.Pkts) == 0 {
				return
			}
		}
	}
	w := &stagegraph.Window{Antennas: ants, Pass: 1}
	run(root, stages, w)
	if len(w.Pkts) == 0 {
		return nil
	}
	var ps [][]uint8
	decodedIdx := map[int]bool{}
	for i, res := range w.Results {
		if res.OK {
			ps = append(ps, res.Dec.Payload)
			st.rescued += res.Dec.Rescued
			decodedIdx[i] = true
		}
	}
	st.detections += len(w.Pkts)
	if len(decodedIdx) > 0 && len(decodedIdx) < len(w.States) {
		pass2 := log.begin(root, "pass2", unit)
		w2 := &stagegraph.Window{
			Antennas: ants, TraceLen: w.TraceLen, Pass: 2, ObsWindow: w.ObsWindow,
			Pkts: w.Pkts, DecodedIdx: decodedIdx, Prior: w.States,
		}
		run(pass2, stages[1:], w2)
		log.end(pass2)
		for j := range w2.RetryIdx {
			if w2.Results[j].OK {
				ps = append(ps, w2.Results[j].Dec.Payload)
				st.rescued += w2.Results[j].Dec.Rescued
				st.pass2Decoded++
			}
		}
	}
	st.decoded += len(ps)
	return ps
}

// detectReplay holds a bench-owned detector's figures over a set of
// windows: call time, the scan and refine split from its public
// ScanStats/RefineStats, and the candidate funnel counted from the
// DetectEvents its tracer emits.
type detectReplay struct {
	detect, scan, refine time.Duration
	packets              int
	funnel               *funnelSink
}

func replayDetect(p lora.Params, n int, window func(i int) [][]complex128) *detectReplay {
	r := &detectReplay{funnel: &funnelSink{}}
	d := detect.NewDetector(p)
	d.Workers = 1
	d.Trace = obs.New(obs.Options{Sink: r.funnel})
	for i := 0; i < n; i++ {
		w := window(i)
		t0 := time.Now()
		pkts := d.Detect(w)
		r.detect += time.Since(t0)
		r.scan += d.ScanStats.Wall
		r.refine += d.RefineStats.Wall
		r.packets += len(pkts)
	}
	return r
}

// report stores the replay's figures; times are divided by units.
func (r *detectReplay) report(m map[string]float64, units float64) {
	m["detect.scan_s"] = r.scan.Seconds() / units
	m["detect.refine_s"] = r.refine.Seconds() / units
	cands := r.funnel.accepted + r.funnel.rejected
	m["detect.candidates"] = float64(cands)
	m["detect.accepted"] = float64(r.funnel.accepted)
	m["detect.rejected"] = float64(r.funnel.rejected)
	m["detect.packets"] = float64(r.packets)
	if cands > 0 {
		m["detect.yield"] = float64(r.packets) / float64(cands)
	}
}

// funnelSink counts the detect events a tracer writes as JSON lines.
type funnelSink struct {
	accepted, rejected int
}

func (f *funnelSink) Write(line []byte) (int, error) {
	switch {
	case !bytes.Contains(line, []byte(`"type":"detect"`)):
	case bytes.Contains(line, []byte(`"accepted":true`)):
		f.accepted++
	default:
		f.rejected++
	}
	return len(line), nil
}
