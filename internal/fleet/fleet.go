// Package fleet simulates a LoRaWAN deployment for driving the netserver
// at scale without a radio: a population of battery-class nodes spread
// over several gateways, each node duty-cycled, channel-hopping and
// heard — with different SNRs — by every gateway inside its coverage.
//
// The simulator is honest about the MAC layer: nodes marshal real
// JoinRequest and data frames with internal/lorawan, parse the real
// JoinAccept the netserver returns, and derive their own session keys, so
// a key-schedule regression breaks the fleet golden trace, not just a
// unit test. The RF layer is abstracted to per-(node, gateway) coverage
// with SNR jitter plus an optional in-flight corruption rate that feeds
// the netserver's drop taxonomy.
//
// Everything is driven by a single seed: node identities, keys, coverage,
// timing phases, jitter and corruption all come from per-node PRNGs
// seeded from (seed, node index), so a run is byte-reproducible and
// independent of netserver worker width.
package fleet

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"tnb/internal/lorawan"
	"tnb/internal/netserver"
)

// Defaults for Config zero values.
const (
	DefaultNodes          = 8
	DefaultGateways       = 2
	DefaultPacketsPerNode = 3
	DefaultDurationSec    = 30.0
)

// Config shapes a fleet.
type Config struct {
	// Seed drives every random choice. Same seed, same traffic.
	Seed int64
	// Nodes is the device population size. 0 selects DefaultNodes.
	Nodes int
	// Gateways is the gateway count. 0 selects DefaultGateways.
	Gateways int
	// Channels is the hop set; nil selects {0, 1}.
	Channels []int
	// SFs are the spreading factors assigned round-robin; nil selects {7, 8}.
	SFs []int
	// PacketsPerNode is each node's data uplink budget (its duty cycle
	// across DurationSec). 0 selects DefaultPacketsPerNode.
	PacketsPerNode int
	// DurationSec is the traffic-phase span. 0 selects DefaultDurationSec.
	DurationSec float64
	// CorruptPermille is the per-copy probability (×1000) that a reception
	// is corrupted in flight, exercising the netserver drop paths.
	CorruptPermille int
}

// joinStaggerSec spaces consecutive nodes' join requests.
const joinStaggerSec = 0.05

// trafficGapSec separates the join phase from the traffic phase.
const trafficGapSec = 1.0

// coverage is one (node, gateway) link.
type coverage struct {
	heard bool
	snr   float64 // mean SNR; per-copy jitter is added on top
}

// node is one simulated device: identity, radio plan and session state.
type node struct {
	idx      int
	dev      netserver.Device
	sf       int
	devNonce uint16
	phase    float64 // per-node start offset inside the traffic phase
	cov      []coverage
	rng      *rand.Rand

	// Session state, populated by ApplyJoinAccepts.
	joined  bool
	devAddr lorawan.DevAddr
	nwkSKey []byte
	appSKey []byte
}

// Fleet is a simulated deployment. Build with New; it is not safe for
// concurrent use (the drivers are single-goroutine, like the netserver).
type Fleet struct {
	cfg   Config
	nodes []*node
}

// New builds a deterministic fleet from cfg.
func New(cfg Config) (*Fleet, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = DefaultNodes
	}
	if cfg.Gateways == 0 {
		cfg.Gateways = DefaultGateways
	}
	if len(cfg.Channels) == 0 {
		cfg.Channels = []int{0, 1}
	}
	if len(cfg.SFs) == 0 {
		cfg.SFs = []int{7, 8}
	}
	if cfg.PacketsPerNode == 0 {
		cfg.PacketsPerNode = DefaultPacketsPerNode
	}
	if cfg.DurationSec == 0 {
		cfg.DurationSec = DefaultDurationSec
	}
	if cfg.Nodes < 1 || cfg.Gateways < 1 {
		return nil, fmt.Errorf("fleet: need at least one node and one gateway (have %d, %d)", cfg.Nodes, cfg.Gateways)
	}
	if cfg.DurationSec <= 0 || cfg.PacketsPerNode < 1 {
		return nil, fmt.Errorf("fleet: need a positive duration and packet budget")
	}
	for _, ch := range cfg.Channels {
		if ch < 0 {
			return nil, fmt.Errorf("fleet: negative channel %d", ch)
		}
	}

	f := &Fleet{cfg: cfg, nodes: make([]*node, cfg.Nodes)}
	for i := range f.nodes {
		// Per-node PRNG from (seed, index): adding or removing one node
		// never perturbs another node's identity or timing.
		rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(i)))
		key := make([]byte, 16)
		for j := range key {
			key[j] = byte(rng.Intn(256))
		}
		n := &node{
			idx: i,
			dev: netserver.Device{
				DevEUI: lorawan.EUI(0x70B3_0000_0000_0000 + uint64(i)),
				AppEUI: lorawan.EUI(0x70B3_0000_FFFF_0000),
				AppKey: key,
				Tenant: fmt.Sprintf("tenant-%d", i%2),
			},
			sf:       cfg.SFs[i%len(cfg.SFs)],
			devNonce: uint16(1 + i),
			phase:    rng.Float64() * cfg.DurationSec / float64(cfg.PacketsPerNode),
			cov:      make([]coverage, cfg.Gateways),
			rng:      rng,
		}
		// Every node has a home gateway that always hears it; the rest
		// cover it with 40% probability at a distance-penalized SNR.
		home := i % cfg.Gateways
		for g := range n.cov {
			switch {
			case g == home:
				n.cov[g] = coverage{heard: true, snr: 2 + rng.Float64()*8}
			case rng.Float64() < 0.4:
				n.cov[g] = coverage{heard: true, snr: -8 + rng.Float64()*8}
			}
		}
		f.nodes[i] = n
	}
	return f, nil
}

// GatewayID names gateway g ("gw-00", "gw-01", ...).
func GatewayID(g int) string { return fmt.Sprintf("gw-%02d", g) }

// Gateways returns the gateway count.
func (f *Fleet) Gateways() int { return f.cfg.Gateways }

// Devices returns the provisioning table for netserver.Config.
func (f *Fleet) Devices() []netserver.Device {
	devs := make([]netserver.Device, len(f.nodes))
	for i, n := range f.nodes {
		devs[i] = n.dev
	}
	return devs
}

// TrafficStartSec is when the data phase begins: after the last join
// window has had time to settle.
func (f *Fleet) TrafficStartSec() float64 {
	return float64(len(f.nodes))*joinStaggerSec + trafficGapSec
}

// JoinRequests returns every node's join request as heard by its covering
// gateways, sorted by receive time: the input for the activation phase.
func (f *Fleet) JoinRequests() ([]netserver.Uplink, error) {
	var ups []netserver.Uplink
	for _, n := range f.nodes {
		jr := &lorawan.JoinRequestFrame{AppEUI: n.dev.AppEUI, DevEUI: n.dev.DevEUI, DevNonce: n.devNonce}
		wire, err := jr.Marshal(n.dev.AppKey)
		if err != nil {
			return nil, fmt.Errorf("fleet: node %d join: %w", n.idx, err)
		}
		at := float64(n.idx) * joinStaggerSec
		ch := f.cfg.Channels[n.idx%len(f.cfg.Channels)]
		ups = append(ups, n.receptions(wire, at, ch, n.sf, f.cfg.CorruptPermille)...)
	}
	SortUplinks(ups)
	return ups, nil
}

// ApplyJoinAccepts completes activation device-side: each join event's
// JoinAccept is decrypted with the node's AppKey and the session keys are
// derived exactly as a real device would. Returns how many nodes joined.
func (f *Fleet) ApplyJoinAccepts(evs []netserver.Event) (int, error) {
	byEUI := make(map[string]*node, len(f.nodes))
	for _, n := range f.nodes {
		byEUI[n.dev.DevEUI.String()] = n
	}
	joined := 0
	for _, ev := range evs {
		if ev.Type != "join" {
			continue
		}
		n, ok := byEUI[ev.DevEUI]
		if !ok {
			return joined, fmt.Errorf("fleet: join for unknown device %s", ev.DevEUI)
		}
		acc, err := lorawan.ParseJoinAccept(ev.JoinAccept, n.dev.AppKey)
		if err != nil {
			return joined, fmt.Errorf("fleet: node %d cannot parse its join accept: %w", n.idx, err)
		}
		nwk, app, err := lorawan.DeriveSessionKeys(n.dev.AppKey, acc.AppNonce, acc.NetID, n.devNonce)
		if err != nil {
			return joined, err
		}
		n.joined = true
		n.devAddr = acc.DevAddr
		n.nwkSKey, n.appSKey = nwk, app
		joined++
	}
	return joined, nil
}

// Traffic returns the data phase: every joined node's duty-cycled,
// channel-hopping uplinks with all gateway copies, sorted by receive
// time. Nodes that never joined stay silent, like real hardware.
func (f *Fleet) Traffic() ([]netserver.Uplink, error) {
	start := f.TrafficStartSec()
	interval := f.cfg.DurationSec / float64(f.cfg.PacketsPerNode)
	var ups []netserver.Uplink
	for _, n := range f.nodes {
		if !n.joined {
			continue
		}
		for k := 0; k < f.cfg.PacketsPerNode; k++ {
			frame := &lorawan.DataFrame{
				MType:   lorawan.UnconfirmedDataUp,
				DevAddr: n.devAddr,
				FCnt:    uint16(k + 1),
				HasPort: true,
				FPort:   1,
				FRMPayload: []byte(fmt.Sprintf("n%03d-p%03d-%04x",
					n.idx, k, n.rng.Intn(1<<16))),
			}
			wire, err := frame.Marshal(n.nwkSKey, n.appSKey)
			if err != nil {
				return nil, fmt.Errorf("fleet: node %d packet %d: %w", n.idx, k, err)
			}
			at := start + n.phase + float64(k)*interval
			ch := f.cfg.Channels[(n.idx+k)%len(f.cfg.Channels)] // hop sequence
			ups = append(ups, n.receptions(wire, at, ch, n.sf, f.cfg.CorruptPermille)...)
		}
	}
	SortUplinks(ups)
	return ups, nil
}

// receptions fans one transmission out to the node's covering gateways,
// adding per-copy SNR jitter, a small propagation skew per gateway, and
// optional in-flight corruption.
func (n *node) receptions(wire []byte, at float64, ch, sf, corruptPermille int) []netserver.Uplink {
	var ups []netserver.Uplink
	for g, cov := range n.cov {
		if !cov.heard {
			continue
		}
		payload := wire
		if corruptPermille > 0 && n.rng.Intn(1000) < corruptPermille {
			payload = append([]byte(nil), wire...)
			payload[n.rng.Intn(len(payload))] ^= 1 << uint(n.rng.Intn(8))
		}
		ups = append(ups, netserver.Uplink{
			GatewayID: GatewayID(g),
			Channel:   ch,
			SF:        sf,
			TimeSec:   at + float64(g)*1e-4,
			SNRdB:     round1(cov.snr + (n.rng.Float64()-0.5)*2),
			Payload:   payload,
		})
	}
	return ups
}

// round1 quantizes SNR to 0.1 dB so golden traces stay readable.
func round1(v float64) float64 { return float64(int(v*10+0.5)) / 10 }

// SortUplinks orders receptions by time with a full deterministic
// tie-break, so the netserver sees one canonical stream regardless of how
// the generating loops were arranged. cmd/tnbnet uses it to canonicalize
// report streams decoded from separate per-gateway PHY traces.
func SortUplinks(ups []netserver.Uplink) {
	sort.Slice(ups, func(i, j int) bool {
		a, b := &ups[i], &ups[j]
		if a.TimeSec != b.TimeSec {
			return a.TimeSec < b.TimeSec
		}
		if a.GatewayID != b.GatewayID {
			return a.GatewayID < b.GatewayID
		}
		return bytes.Compare(a.Payload, b.Payload) < 0
	})
}
