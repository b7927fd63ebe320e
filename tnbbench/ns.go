package main

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"time"

	"tnb/internal/fleet"
	"tnb/internal/netserver"
)

// ns-fleet: a large frame-level fleet (8 gateways, 8 channels, SF7–SF10,
// in-flight corruption on) driven through netserver.Ingest in
// fleet.DefaultBatch batches at Workers nproc. Each pass is a fresh server:
// the join phase is timed apart, the data phase (Ingest + Flush) is the
// clock.
func nsFleetConfig(seed int64) fleet.Config {
	return fleet.Config{
		Seed: seed, Nodes: 10000, Gateways: 8,
		Channels: []int{0, 1, 2, 3, 4, 5, 6, 7}, SFs: []int{7, 8, 9, 10},
		PacketsPerNode: 10, DurationSec: 600, CorruptPermille: 60,
	}
}

type nsSetup struct {
	cfg        fleet.Config
	devices    []netserver.Device
	joins      []netserver.Uplink
	t0         float64
	traffic    []netserver.Uplink
	joinDigest uint64
	sent       int // data transmissions
}

func buildNs(opt options) (*nsSetup, error) {
	cfg := nsFleetConfig(opt.seed)
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &nsSetup{cfg: cfg, devices: f.Devices(), t0: f.TrafficStartSec()}
	if s.joins, err = f.JoinRequests(); err != nil {
		return nil, err
	}
	ns, err := netserver.New(netserver.Config{Devices: s.devices, Workers: opt.nproc})
	if err != nil {
		return nil, err
	}
	joinEvs, err := joinPhase(ns, s.joins, s.t0, nil, 0, "")
	if err != nil {
		return nil, err
	}
	s.joinDigest = digestEvents(fnvOffset, joinEvs)
	activated, err := f.ApplyJoinAccepts(joinEvs)
	if err != nil {
		return nil, err
	}
	s.sent = activated * cfg.PacketsPerNode
	if s.traffic, err = f.Traffic(); err != nil {
		return nil, err
	}
	// Warm-up: one batch through the set-up server.
	if _, err := ns.Ingest(s.traffic[:fleet.DefaultBatch]); err != nil {
		return nil, err
	}
	return s, nil
}

// nsPass is one fresh-server run of the whole fleet.
type nsPass struct {
	data   time.Duration // Ingest calls plus Flush
	lat    []float64     // per Ingest call, seconds
	digest uint64
	stats  netserver.Stats
	events map[eventKey]uint64
	alloc  uint64 // heap bytes allocated during the data phase
}

// runNsPass runs joins (outside the clock) and the data phase on a fresh
// server. With a span log, every call into the server gets a span.
func runNsPass(s *nsSetup, workers int, log *spanLog, unit string, onBatch func(*netserver.Server)) (*nsPass, error) {
	ns, err := netserver.New(netserver.Config{Devices: s.devices, Workers: workers})
	if err != nil {
		return nil, err
	}
	root := 0
	if log != nil {
		root = log.begin(0, "pass", unit)
		defer log.end(root)
	}
	joinEvs, err := joinPhase(ns, s.joins, s.t0, log, root, unit)
	if err != nil {
		return nil, err
	}
	if digestEvents(fnvOffset, joinEvs) != s.joinDigest {
		return nil, errors.New("join phase events differ from the set-up run")
	}
	p := &nsPass{lat: make([]float64, 0, len(s.traffic)/fleet.DefaultBatch+1), events: map[eventKey]uint64{}}
	countEvents(p.events, joinEvs)
	h := uint64(fnvOffset)
	a0, _ := heapAllocated()
	evs, flush, err := dataPhase(ns, s.traffic, log, root, unit, func(evs []netserver.Event, dt time.Duration) {
		p.data += dt
		p.lat = append(p.lat, dt.Seconds())
		if onBatch != nil {
			onBatch(ns)
		}
		h = digestEvents(h, evs)
		countEvents(p.events, evs)
	})
	if err != nil {
		return nil, err
	}
	p.data += flush
	a1, _ := heapAllocated()
	p.alloc = a1 - a0
	p.digest = digestEvents(h, evs)
	countEvents(p.events, evs)
	p.stats = ns.Stats()
	return p, nil
}

// eventKey counts events by type and, for drops, reason.
type eventKey struct{ typ, reason string }

func countEvents(m map[eventKey]uint64, evs []netserver.Event) {
	for i := range evs {
		m[eventKey{evs[i].Type, evs[i].Reason}]++
	}
}

// digestEvents folds every field of every event into the running digest h.
func digestEvents(h uint64, evs []netserver.Event) uint64 {
	for i := range evs {
		ev := &evs[i]
		h = fnvString(h, ev.Type)
		h = fnvUint(h, math.Float64bits(ev.TimeSec))
		h = fnvString(h, ev.DevEUI)
		h = fnvString(h, ev.DevAddr)
		h = fnvUint(h, uint64(ev.FCnt))
		h = fnvUint(h, uint64(ev.FPort))
		h = fnvBytes(h, ev.Payload)
		h = fnvUint(h, uint64(ev.Channel))
		h = fnvUint(h, uint64(ev.SF))
		h = fnvString(h, ev.Gateway)
		h = fnvUint(h, math.Float64bits(ev.SNRdB))
		h = fnvUint(h, uint64(ev.Copies))
		h = fnvUint(h, uint64(len(ev.Gateways)))
		for _, g := range ev.Gateways {
			h = fnvString(h, g)
		}
		h = fnvString(h, ev.Tenant)
		h = fnvBytes(h, ev.JoinAccept)
		h = fnvString(h, ev.Reason)
	}
	return h
}

// checkNsPass verifies one pass's accounting: every ingested uplink landed
// in exactly one counter, and the event stream agrees with the counters.
// It returns how many uplinks are unaccounted for.
func checkNsPass(s *nsSetup, p *nsPass, out *outcome) int {
	st := p.stats
	ingested := uint64(len(s.joins) + len(s.traffic))
	var drops uint64
	for reason, n := range st.DropReasons {
		drops += n
		k := eventKey{"drop", reason}
		out.check(p.events[k] == n, "drop reason %s: %d events, %d counted", reason, p.events[k], n)
	}
	accounted := st.Joins + st.Delivered + st.DupSuppressed + drops
	out.check(st.Uplinks == ingested, "netserver counted %d uplinks, %d were ingested", st.Uplinks, ingested)
	out.check(accounted == ingested, "uplinks %d != joins %d + delivered %d + duplicates %d + drops %d",
		ingested, st.Joins, st.Delivered, st.DupSuppressed, drops)
	k := eventKey{typ: "delivery"}
	out.check(p.events[k] == st.Delivered, "%d delivery events, %d counted", p.events[k], st.Delivered)
	if accounted > ingested {
		return int(accounted - ingested)
	}
	return int(ingested - accounted)
}

type nsLoop struct {
	passes    []*nsPass
	rtfs      []float64 // per pass, from steal-adjusted wall time
	lat       []float64 // per Ingest call, steal-adjusted seconds
	runShares []float64 // per pass: share of the wall time the VM ran
	alloc     uint64
}

func runNsLoop(s *nsSetup, opt options, budget time.Duration, log *spanLog, onBatch func(*netserver.Server)) (*nsLoop, error) {
	l := &nsLoop{}
	start := time.Now()
	for len(l.passes) == 0 || time.Since(start) < budget {
		unit := ""
		if log != nil {
			unit = "pass-" + strconv.Itoa(len(l.passes))
		}
		sc := startStealClock()
		p, err := runNsPass(s, opt.nproc, log, unit, onBatch)
		if err != nil {
			return nil, err
		}
		run := sc.runShare()
		l.runShares = append(l.runShares, run)
		l.passes = append(l.passes, p)
		l.rtfs = append(l.rtfs, s.cfg.DurationSec/(run*p.data.Seconds()))
		for _, v := range p.lat {
			l.lat = append(l.lat, run*v)
		}
		l.alloc += p.alloc
	}
	return l, nil
}

// checkNs checks every pass of a loop against the first and returns the
// uplinks that failed (unaccounted, or in a pass whose stream differed).
func checkNs(s *nsSetup, l *nsLoop, ref uint64, out *outcome) int {
	failed := 0
	for i, p := range l.passes {
		failed += checkNsPass(s, p, out)
		if p.digest != ref {
			failed += len(s.traffic)
			out.check(false, "pass %d: event stream digest differs from the Workers 1 run", i)
		}
	}
	return failed
}

func runNs(opt options) (*outcome, error) {
	s, setupS, err := timeSetup(func() (*nsSetup, error) { return buildNs(opt) }, nil)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	budget := opt.budget
	if opt.trace {
		budget /= 2
	}
	l, err := runNsLoop(s, opt, budget, nil, nil)
	if err != nil {
		return nil, err
	}
	// Reference: the same fleet at Workers 1, after the clock.
	ref, err := runNsPass(s, 1, nil, "", nil)
	if err != nil {
		return nil, err
	}
	out.attempted = len(s.traffic) * len(l.passes)
	out.failed = checkNs(s, l, ref.digest, out)
	first := l.passes[0]
	untracedRTF := median(l.rtfs)
	out.note("uplinks/pass=%d joins/pass=%d passes=%d sent=%d delivered=%d ingest_pps=%.0f ingest_p50_us=%.1f ingest_p99_us=%.1f (n=%d)",
		len(s.traffic), len(s.joins), len(l.passes), s.sent, first.stats.Delivered,
		untracedRTF*float64(len(s.traffic))/s.cfg.DurationSec, 1e6*quantile(l.lat, 0.5), 1e6*quantile(l.lat, 0.99), len(l.lat))
	out.note("VM run share per pass: median %.3f, min %.3f", median(l.runShares), quantile(l.runShares, 0))
	if !opt.trace {
		m := out.metrics
		m["setup_s"] = setupS
		m["rtf"] = untracedRTF
		m["prr"] = float64(first.stats.Delivered) / float64(s.sent)
		m["latency_p50_ms"] = 1e3 * quantile(l.lat, 0.5)
		m["latency_p95_ms"] = 1e3 * quantile(l.lat, 0.95)
		m["alloc_mb_per_air_s"] = float64(l.alloc) / 1e6 / (s.cfg.DurationSec * float64(len(l.passes)))
		return out, nil
	}

	log := newSpanLog()
	var peak int64
	_, gc0 := heapAllocated()
	tl, err := runNsLoop(s, opt, budget, log, func(ns *netserver.Server) {
		peak = max(peak, ns.Stats().DedupBytes)
	})
	if err != nil {
		return nil, err
	}
	_, gc1 := heapAllocated()
	checkNs(s, tl, ref.digest, out)
	units := float64(len(tl.passes))
	m := out.metrics
	reportNetSpans(m, log, units)
	m["netserver.dedup_bytes_peak"] = float64(peak)
	reportNetStats(m, tl.passes[0].stats)
	m["runtime.gc_cycles"] = float64(gc1-gc0) / units
	tracedRTF := median(tl.rtfs)
	m["trace.overhead_rtf"] = tracedRTF - untracedRTF
	out.note("trace: untraced_rtf=%.4f traced_rtf=%.4f", untracedRTF, tracedRTF)
	out.spans = log

	// Premise: no receiver layer runs; every call this workload makes is
	// into the netserver.
	verdict := "premise met: only netserver calls were traced"
	for name := range log.selfTimes() {
		if !strings.HasPrefix(name, "netserver.") && name != "pass" {
			verdict = "PREMISE NOT MET: traced a call to " + name
		}
	}
	out.note("%s", verdict)
	return out, nil
}
