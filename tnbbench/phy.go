package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"time"

	"tnb/internal/core"
	"tnb/internal/fleet"
	"tnb/internal/gateway"
	"tnb/internal/lora"
	"tnb/internal/metrics"
	"tnb/internal/netserver"
	"tnb/internal/parallel"
	"tnb/internal/stream"
	"tnb/internal/trace"
)

// phy-fleet: a duty-cycled fleet whose data phase is rendered to int16 IQ
// per (channel, SF) shard at OSF2 and streamed over loopback TCP to an
// in-process gateway.Server, nproc connections in flight, Workers 1 each;
// the reports go to a netserver. One gateway hears every transmission once,
// so the reception count, and with it the decode work, is the same for
// every seed.
func phyFleetConfig(seed int64) fleet.Config {
	return fleet.Config{
		Seed: seed, Nodes: 36, Gateways: 1,
		Channels: []int{0, 1, 2, 3, 4, 5, 6, 7}, SFs: []int{7, 8, 9},
		PacketsPerNode: 2, DurationSec: 5,
	}
}

const (
	phyOSF        = 2
	phyWriteChunk = 1 << 16 // bytes per socket write
	// phySockBuf caps both ends' socket buffers, so report latency reflects
	// decoding rather than how much IQ the kernel queues ahead of it.
	phySockBuf = 1 << 17
)

// phyShard is one (gateway, channel, SF) group of receptions rendered to the
// gateway wire format.
type phyShard struct {
	gw     string
	ch, sf int
	hello  []byte
	iq     []byte // int16 I/Q little endian, 4 bytes per sample
	air    float64
	rate   float64
	// window and overlap are the gateway streamer's geometry for this
	// shard: window k decodes samples [k·window, k·window+window+overlap).
	window, overlap int
}

func (s *phyShard) key() string { return fmt.Sprintf("%s/c%d/sf%d", s.gw, s.ch, s.sf) }

type phySetup struct {
	devices  []netserver.Device
	joins    []netserver.Uplink
	t0       float64 // traffic start, seconds
	shards   []*phyShard
	ref      map[string]bool // frame-mode reference deliveries
	server   *gwServer       // the fleet's one gateway
	totalAir float64
}

type gwServer struct {
	addr   string
	cancel context.CancelFunc
	done   chan error
}

func startGateway(id string) (*gwServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	g := &gwServer{addr: ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	srv := &gateway.Server{Workers: 1, ID: id}
	go func() { g.done <- srv.Serve(ctx, smallBufListener{ln}) }()
	return g, nil
}

// smallBufListener caps each accepted connection's receive buffer.
type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetReadBuffer(phySockBuf)
	}
	return c, err
}

func (g *gwServer) stop() {
	g.cancel()
	<-g.done
}

func (s *phySetup) stop() { s.server.stop() }

func deliveryKey(ev netserver.Event) string {
	return fmt.Sprintf("%s/%d/%x", ev.DevEUI, ev.FCnt, ev.Payload)
}

// dataPhase feeds ups to ns in fleet.DefaultBatch batches, then flushes.
// Only the calls into the server are timed. After each Ingest, seen gets
// its events and duration, outside the clock. With a span log, every call
// gets a span under parent. It returns the Flush events and duration.
func dataPhase(ns *netserver.Server, ups []netserver.Uplink, log *spanLog, parent int, unit string,
	seen func(evs []netserver.Event, dt time.Duration)) ([]netserver.Event, time.Duration, error) {
	for len(ups) > 0 {
		n := min(fleet.DefaultBatch, len(ups))
		t0 := time.Now()
		evs, err := ns.Ingest(ups[:n])
		t1 := time.Now()
		if err != nil {
			return nil, 0, err
		}
		if log != nil {
			log.add(parent, "netserver.Ingest", unit, t0, t1)
		}
		seen(evs, t1.Sub(t0))
		ups = ups[n:]
	}
	t0 := time.Now()
	evs, err := ns.Flush()
	t1 := time.Now()
	if err != nil {
		return nil, 0, err
	}
	if log != nil {
		log.add(parent, "netserver.Flush", unit, t0, t1)
	}
	return evs, t1.Sub(t0), nil
}

func buildPhy(opt options) (*phySetup, error) {
	cfg := phyFleetConfig(opt.seed)
	s := &phySetup{ref: map[string]bool{}}

	// Frame-mode reference: the deliveries the same seed makes without the
	// radio.
	rf, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	rns, err := netserver.New(netserver.Config{Devices: rf.Devices(), Workers: 1})
	if err != nil {
		return nil, err
	}
	if _, err := fleet.Drive(rf, rns, 0, func(ev netserver.Event) {
		if ev.Type == "delivery" {
			s.ref[deliveryKey(ev)] = true
		}
	}); err != nil {
		return nil, err
	}

	// PHY fleet: joins at the frame level (control plane), then the data
	// phase grouped per shard.
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	s.devices = f.Devices()
	s.t0 = f.TrafficStartSec()
	if s.joins, err = f.JoinRequests(); err != nil {
		return nil, err
	}
	ns, err := netserver.New(netserver.Config{Devices: s.devices, Workers: 1})
	if err != nil {
		return nil, err
	}
	joinEvs, err := joinPhase(ns, s.joins, s.t0, nil, 0, "")
	if err != nil {
		return nil, err
	}
	if _, err := f.ApplyJoinAccepts(joinEvs); err != nil {
		return nil, err
	}
	traffic, err := f.Traffic()
	if err != nil {
		return nil, err
	}
	// Every gateway listens on every (channel, SF) for the whole data
	// phase, so the shard set and IQ length are the same for every seed;
	// only the packets in them vary.
	type shardKey struct {
		gw     string
		ch, sf int
	}
	groups := map[shardKey][]netserver.Uplink{}
	for _, u := range traffic {
		k := shardKey{u.GatewayID, u.Channel, u.SF}
		groups[k] = append(groups[k], u)
	}
	for _, ch := range cfg.Channels {
		for _, sf := range cfg.SFs {
			s.shards = append(s.shards, &phyShard{gw: fleet.GatewayID(0), ch: ch, sf: sf})
		}
	}

	errs := make([]error, len(s.shards))
	parallel.ForEach(opt.nproc, len(s.shards), func(_, i int) {
		sh := s.shards[i]
		errs[i] = renderShard(sh, groups[shardKey{sh.gw, sh.ch, sh.sf}], s.t0, cfg.DurationSec+1)
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for _, sh := range s.shards {
		s.totalAir += sh.air
	}
	if s.server, err = startGateway(fleet.GatewayID(0)); err != nil {
		return nil, err
	}
	// Warm-up: one shard through the gateway.
	if r := streamShard(s.shards[0], s.server.addr); r.err != nil {
		s.stop()
		return nil, fmt.Errorf("warm-up %s: %w", s.shards[0].key(), r.err)
	}
	return s, nil
}

// joinPhase ingests the join requests and closes their windows.
func joinPhase(ns *netserver.Server, joins []netserver.Uplink, t0 float64, log *spanLog, parent int, unit string) ([]netserver.Event, error) {
	var evs []netserver.Event
	start := time.Now()
	for b := joins; len(b) > 0; {
		n := min(fleet.DefaultBatch, len(b))
		e, err := ns.Ingest(b[:n])
		if err != nil {
			return nil, err
		}
		evs = append(evs, e...)
		b = b[n:]
	}
	mid := time.Now()
	e, err := ns.AdvanceTo(t0)
	if log != nil {
		log.add(parent, "netserver.join_ingest", unit, start, mid)
		log.add(parent, "netserver.AdvanceTo", unit, mid, time.Now())
	}
	return append(evs, e...), err
}

// renderShard renders one group of receptions to durSec of int16 IQ, as
// the tnbnet PHY mode does (per-group deterministic noise seed).
func renderShard(sh *phyShard, ups []netserver.Uplink, t0, durSec float64) error {
	p, err := lora.NewParams(sh.sf, 4, 125e3, phyOSF)
	if err != nil {
		return err
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", sh.gw, sh.ch, sh.sf)
	rng := rand.New(rand.NewSource(int64(h.Sum64()>>1) ^ 0x5EED))
	b := trace.NewBuilder(p, durSec, 1, rng)
	for i, u := range ups {
		if err := b.AddPacket(i, 0, u.Payload, (u.TimeSec-t0)*p.SampleRate(), u.SNRdB, 0, nil); err != nil {
			return err
		}
	}
	tr, _ := b.Build()
	buf := bytesWriter{b: make([]byte, 0, 4*tr.Len())}
	if err := trace.WriteIQ16(&buf, tr); err != nil {
		return err
	}
	hello, err := json.Marshal(gateway.Hello{SF: sh.sf, CR: 4, OSF: phyOSF, Channel: sh.ch})
	if err != nil {
		return err
	}
	sh.hello = append(hello, '\n')
	sh.iq = buf.b
	sh.rate = p.SampleRate()
	geom, err := stream.New(stream.Config{Receiver: core.Config{Params: p}})
	if err != nil {
		return err
	}
	sh.window, sh.overlap = geom.WindowSamples(), geom.OverlapSamples()
	sh.air = float64(tr.Len()) / sh.rate
	return nil
}

type bytesWriter struct{ b []byte }

func (w *bytesWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// connResult is one shard connection as the client saw it.
type connResult struct {
	reports []gateway.Report
	// lat is, per report, the time from writing the last IQ sample of the
	// stream window that reports the packet to reading the report line;
	// pktLat starts the clock at the packet's own last sample instead, so
	// it adds the wait for the rest of the window.
	lat, pktLat []float64
	start       time.Time
	end         time.Time
	err         error
}

// replyLine is a gateway reply: a report, or an error verdict.
type replyLine struct {
	gateway.Report
	Code  string `json:"code"`
	Error string `json:"error"`
}

// streamShard streams one shard's IQ to a gateway as fast as the server
// takes it, reading report lines concurrently.
func streamShard(sh *phyShard, addr string) (r connResult) {
	r.start = time.Now()
	defer func() { r.end = time.Now() }()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		r.err = err
		return r
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetWriteBuffer(phySockBuf)
	if _, err := conn.Write(sh.hello); err != nil {
		r.err = err
		return r
	}
	type mark struct {
		samples int
		at      time.Time
	}
	marks := make([]mark, 0, len(sh.iq)/phyWriteChunk+1)
	var werr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for off := 0; off < len(sh.iq); {
			n, err := conn.Write(sh.iq[off:min(off+phyWriteChunk, len(sh.iq))])
			off += n
			marks = append(marks, mark{samples: off / 4, at: time.Now()})
			if err != nil {
				werr = err
				return
			}
		}
		werr = conn.(*net.TCPConn).CloseWrite()
	}()
	type read struct {
		rep gateway.Report
		at  time.Time
	}
	var reads []read
	br := bufio.NewReader(conn)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 1 {
			at := time.Now()
			var rl replyLine
			if jerr := json.Unmarshal(line, &rl); jerr != nil {
				r.err = fmt.Errorf("bad reply line: %v", jerr)
			} else if rl.Error != "" {
				r.err = fmt.Errorf("gateway verdict %s: %s", rl.Code, rl.Error)
			} else {
				reads = append(reads, read{rep: rl.Report, at: at})
			}
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			r.err = err
			break
		}
	}
	<-done
	if r.err == nil {
		r.err = werr
	}
	total := len(sh.iq) / 4
	writtenAt := func(sample int) time.Time {
		k := sort.Search(len(marks), func(i int) bool { return marks[i].samples >= sample })
		return marks[min(k, len(marks)-1)].at
	}
	for _, rd := range reads {
		r.reports = append(r.reports, rd.rep)
		end := int(rd.rep.AbsStart + rd.rep.AirtimeSec*sh.rate)
		r.pktLat = append(r.pktLat, rd.at.Sub(writtenAt(end)).Seconds())
		// The streamer commits a packet in the window its start falls in
		// (the flush for the tail). A start estimate a sample past a
		// window boundary can name the next window; step back to the
		// window whose end was written before the report arrived.
		k := int(rd.rep.AbsStart) / sh.window
		winEnd := writtenAt(min(k*sh.window+sh.window+sh.overlap, total))
		for k > 0 && winEnd.After(rd.at) {
			k--
			winEnd = writtenAt(min(k*sh.window+sh.window+sh.overlap, total))
		}
		r.lat = append(r.lat, rd.at.Sub(winEnd).Seconds())
	}
	return r
}

// phyRound is one pass of the whole fleet through the PHY path.
type phyRound struct {
	wall      time.Duration
	conns     []connResult // per shard, in s.shards order
	delivered map[string]bool
	stats     netserver.Stats
	digest    uint64
}

// runPhyRound streams every shard with nproc connections in flight, then
// hands the decoded reports to a fresh netserver (joins replayed outside
// the clock).
func runPhyRound(s *phySetup, nproc int, log *spanLog, unit string, onBatch func(*netserver.Server)) (*phyRound, error) {
	ns, err := netserver.New(netserver.Config{Devices: s.devices, Workers: 1})
	if err != nil {
		return nil, err
	}
	root := 0
	if log != nil {
		root = log.begin(0, "round", unit)
	}
	if _, err := joinPhase(ns, s.joins, s.t0, log, root, unit); err != nil {
		return nil, err
	}
	r := &phyRound{conns: make([]connResult, len(s.shards)), delivered: map[string]bool{}}
	start := time.Now()
	parallel.ForEach(nproc, len(s.shards), func(_, i int) {
		sh := s.shards[i]
		r.conns[i] = streamShard(sh, s.server.addr)
		if log != nil {
			log.add(root, "gateway.conn", sh.key(), r.conns[i].start, r.conns[i].end)
		}
	})
	var ups []netserver.Uplink
	for i, sh := range s.shards {
		if err := r.conns[i].err; err != nil {
			return nil, fmt.Errorf("shard %s: %w", sh.key(), err)
		}
		ups = gateway.Uplinks(ups, r.conns[i].reports, sh.gw, sh.sf, s.t0, sh.rate)
	}
	fleet.SortUplinks(ups)
	var evs []netserver.Event
	flushEvs, _, err := dataPhase(ns, ups, log, root, unit, func(e []netserver.Event, _ time.Duration) {
		evs = append(evs, e...)
		if onBatch != nil {
			onBatch(ns)
		}
	})
	if err != nil {
		return nil, err
	}
	r.wall = time.Since(start)
	evs = append(evs, flushEvs...)
	if log != nil {
		log.end(root)
	}
	r.digest = fnvOffset
	for _, ev := range evs {
		if ev.Type == "delivery" {
			k := deliveryKey(ev)
			r.delivered[k] = true
			r.digest = fnvString(r.digest, k)
		}
	}
	r.stats = ns.Stats()
	return r, nil
}

// phyLoop runs rounds until the budget is spent (at least one round).
type phyLoop struct {
	rounds      []*phyRound
	rtfs        []float64 // per round, from steal-adjusted wall time
	lat, pktLat []float64 // steal-adjusted, seconds
	runShares   []float64 // per round: share of the wall time the VM ran
}

func runPhyLoop(s *phySetup, opt options, budget time.Duration, log *spanLog, onBatch func(*netserver.Server)) (*phyLoop, error) {
	l := &phyLoop{}
	start := time.Now()
	for len(l.rounds) == 0 || time.Since(start) < budget {
		sc := startStealClock()
		r, err := runPhyRound(s, opt.nproc, log, fmt.Sprintf("round-%d", len(l.rounds)), onBatch)
		if err != nil {
			return nil, err
		}
		run := sc.runShare()
		l.runShares = append(l.runShares, run)
		l.rounds = append(l.rounds, r)
		l.rtfs = append(l.rtfs, s.totalAir/(run*r.wall.Seconds()))
		for _, c := range r.conns {
			for _, v := range c.lat {
				l.lat = append(l.lat, run*v)
			}
			for _, v := range c.pktLat {
				l.pktLat = append(l.pktLat, run*v)
			}
		}
	}
	return l, nil
}

// checkPhy verifies a loop's rounds: deliveries are a subset of the
// frame-mode reference, and every round delivers what the first did.
func checkPhy(s *phySetup, l *phyLoop, out *outcome) (failedRounds int) {
	first := l.rounds[0]
	for k := range first.delivered {
		out.check(s.ref[k], "delivery %s is not in the frame-mode reference", k)
	}
	for i, r := range l.rounds[1:] {
		if r.digest != first.digest {
			failedRounds++
			out.check(false, "round %d delivered a different set than round 0", i+1)
		}
	}
	return failedRounds
}

func runPhy(opt options) (*outcome, error) {
	s, setupS, err := timeSetup(func() (*phySetup, error) { return buildPhy(opt) }, (*phySetup).stop)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	out := &outcome{metrics: map[string]float64{}}
	budget := opt.budget
	if opt.trace {
		budget /= 2
	}
	a0, _ := heapAllocated()
	l, err := runPhyLoop(s, opt, budget, nil, nil)
	if err != nil {
		return nil, err
	}
	a1, _ := heapAllocated()
	failedRounds := checkPhy(s, l, out)
	out.attempted = len(s.ref) * len(l.rounds)
	out.failed = len(s.ref) * failedRounds
	first := l.rounds[0]
	reports := 0
	for _, c := range first.conns {
		reports += len(c.reports)
	}
	untracedRTF := median(l.rtfs)
	out.note("shards=%d air_s=%.1f rounds=%d reference=%d delivered=%d reports/round=%d report_samples=%d",
		len(s.shards), s.totalAir, len(l.rounds), len(s.ref), len(first.delivered), reports, len(l.lat))
	out.note("VM run share per round: median %.3f, min %.3f", median(l.runShares), quantile(l.runShares, 0))
	if !opt.trace {
		m := out.metrics
		m["setup_s"] = setupS
		m["rtf"] = untracedRTF
		m["prr"] = float64(len(first.delivered)) / float64(len(s.ref))
		m["latency_p50_ms"] = 1e3 * quantile(l.lat, 0.5)
		m["latency_p95_ms"] = 1e3 * quantile(l.lat, 0.95)
		m["alloc_mb_per_air_s"] = float64(a1-a0) / 1e6 / (s.totalAir * float64(len(l.rounds)))
		out.note("report latency from the packet's last sample: p50=%.2f ms p95=%.2f ms",
			1e3*quantile(l.pktLat, 0.5), 1e3*quantile(l.pktLat, 0.95))
		return out, nil
	}
	return out, tracePhy(opt, s, l, untracedRTF, budget, out)
}

// tracePhy runs traced rounds (a span per connection, Ingest and Flush),
// then replays every shard's IQ through a bench-owned stream.Streamer and
// the streamer's windows through a bench-owned detect.Detector.
func tracePhy(opt options, s *phySetup, untraced *phyLoop, untracedRTF float64, budget time.Duration, out *outcome) error {
	log := newSpanLog()
	var peak int64
	_, gc0 := heapAllocated()
	l, err := runPhyLoop(s, opt, budget, log, func(ns *netserver.Server) {
		peak = max(peak, ns.Stats().DedupBytes)
	})
	if err != nil {
		return err
	}
	_, gc1 := heapAllocated()
	checkPhy(s, l, out)
	out.check(l.rounds[0].digest == untraced.rounds[0].digest, "traced round delivered a different set than the untraced one")
	units := float64(len(l.rounds))
	m := out.metrics
	connS := log.total("gateway.conn").Seconds() / units
	m["gateway.conn_s"] = connS
	reportNetSpans(m, log, units)
	m["netserver.dedup_bytes_peak"] = float64(peak)
	reportNetStats(m, l.rounds[0].stats)
	m["runtime.gc_cycles"] = float64(gc1-gc0) / units
	tracedRTF := median(l.rtfs)
	m["trace.overhead_rtf"] = tracedRTF - untracedRTF
	out.note("trace: untraced_rtf=%.4f traced_rtf=%.4f", untracedRTF, tracedRTF)

	bySF := map[int][]float64{}
	for _, r := range l.rounds {
		for i, c := range r.conns {
			sh := s.shards[i]
			bySF[sh.sf] = append(bySF[sh.sf], sh.air/c.end.Sub(c.start).Seconds())
		}
	}
	reports := 0
	for _, c := range l.rounds[0].conns {
		reports += len(c.reports)
	}
	for sf, v := range bySF {
		m[fmt.Sprintf("gateway.shard_rtf.sf%d", sf)] = median(v)
	}
	m["gateway.reports"] = float64(reports)

	feed, windows, dr, err := replayShards(s, l.rounds[0], out)
	if err != nil {
		return err
	}
	m["stream.feed_s"] = feed.Seconds()
	m["stream.windows"] = float64(windows)
	m["gateway.transport_s"] = connS - feed.Seconds()
	m["detect.s"] = dr.detect.Seconds()
	dr.report(m, 1)
	out.spans = log

	// Premise: refine is a minority of receiver time on this workload.
	verdict := "premise met"
	if dr.refine >= feed/2 {
		verdict = "PREMISE NOT MET"
	}
	out.note("%s: refine %.4f s of %.4f s stream time (%.0f%%)", verdict, dr.refine.Seconds(), feed.Seconds(), 100*dr.refine.Seconds()/feed.Seconds())
	return nil
}

// replayShards feeds each shard's IQ through a bench-owned Streamer in the
// gateway's 64 Ki-sample chunks (checking it decodes what the gateway
// reported), and runs a bench-owned Detector over the streamer's windows.
func replayShards(s *phySetup, round *phyRound, out *outcome) (time.Duration, uint64, *detectReplay, error) {
	var feed time.Duration
	var windows uint64
	dr := &detectReplay{funnel: &funnelSink{}}
	const chunk = 1 << 16
	maxLen := 0
	for _, sh := range s.shards {
		maxLen = max(maxLen, len(sh.iq)/4)
	}
	buf := make([]complex128, maxLen)
	runtime.GC()
	for i, sh := range s.shards {
		p, err := lora.NewParams(sh.sf, 4, 125e3, phyOSF)
		if err != nil {
			return 0, 0, nil, err
		}
		samples := buf[:len(sh.iq)/4]
		for j := range samples {
			re := int16(binary.LittleEndian.Uint16(sh.iq[4*j:]))
			im := int16(binary.LittleEndian.Uint16(sh.iq[4*j+2:]))
			samples[j] = complex(float64(re)/4096, float64(im)/4096)
		}
		met := stream.NewMetrics(metrics.NewRegistry())
		st, err := stream.New(stream.Config{
			Receiver: core.Config{Params: p, UseBEC: true, Workers: 1},
			Metrics:  met,
		})
		if err != nil {
			return 0, 0, nil, err
		}
		var got []string
		for off := 0; off < len(samples); off += chunk {
			t0 := time.Now()
			ds, err := st.Feed(samples[off:min(off+chunk, len(samples))])
			feed += time.Since(t0)
			if err != nil {
				return 0, 0, nil, err
			}
			for _, d := range ds {
				got = append(got, string(d.Payload))
			}
		}
		t0 := time.Now()
		ds, err := st.Flush()
		feed += time.Since(t0)
		if err != nil {
			return 0, 0, nil, err
		}
		for _, d := range ds {
			got = append(got, string(d.Payload))
		}
		windows += met.WindowPasses.Value() + met.Flushes.Value()
		var want []string
		for _, rep := range round.conns[i].reports {
			want = append(want, string(rep.Payload))
		}
		out.check(fmt.Sprint(got) == fmt.Sprint(want), "shard %s: bench streamer decoded %d packets, gateway reported %d", sh.key(), len(got), len(want))

		// The streamer's windows: full passes while window+overlap is
		// buffered, then the flushed tail.
		var wins [][][]complex128
		w, o := st.WindowSamples(), st.OverlapSamples()
		base := 0
		for ; base+w+o <= len(samples); base += w {
			wins = append(wins, [][]complex128{samples[base : base+w+o]})
		}
		if base < len(samples) {
			wins = append(wins, [][]complex128{samples[base:]})
		}
		r := replayDetect(p, len(wins), func(i int) [][]complex128 { return wins[i] })
		dr.detect += r.detect
		dr.scan += r.scan
		dr.refine += r.refine
		dr.packets += r.packets
		dr.funnel.accepted += r.funnel.accepted
		dr.funnel.rejected += r.funnel.rejected
	}
	return feed, windows, dr, nil
}

// reportNetSpans stores the netserver call times, per work unit.
func reportNetSpans(m map[string]float64, log *spanLog, units float64) {
	m["netserver.join_ingest_s"] = log.total("netserver.join_ingest").Seconds() / units
	m["netserver.advance_s"] = log.total("netserver.AdvanceTo").Seconds() / units
	m["netserver.data_ingest_s"] = log.total("netserver.Ingest").Seconds() / units
	m["netserver.flush_s"] = log.total("netserver.Flush").Seconds() / units
}

// reportNetStats stores the netserver's counters.
func reportNetStats(m map[string]float64, st netserver.Stats) {
	m["netserver.delivered"] = float64(st.Delivered)
	m["netserver.dup_suppressed"] = float64(st.DupSuppressed)
	for reason, n := range st.DropReasons {
		m["netserver.dropped."+reason] = float64(n)
	}
}
