package core

import (
	"testing"

	"tnb/internal/lora"
	"tnb/internal/metrics"
)

// TestPipelineMetricsRecorded runs an instrumented receiver over a
// two-packet collision and checks every stage histogram and the pipeline
// counters observed the run.
func TestPipelineMetricsRecorded(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	tr, recs := makeTrace(t, 640, p, 1.5, []txSpec{
		{start: 20000, snr: 10, cfo: 1500, payload: payloadOf(1)},
		{start: 52000, snr: 9, cfo: -2400, payload: payloadOf(2)},
	})

	reg := metrics.NewRegistry()
	met := NewPipelineMetrics(reg)
	r := NewReceiver(Config{Params: p, UseBEC: true, Metrics: met})
	decoded := r.Decode(tr)
	if n := countDecoded(decoded, recs); n != 2 {
		t.Fatalf("decoded %d/2 packets", n)
	}

	for name, h := range map[string]*metrics.Histogram{
		"detect":  met.DetectSeconds,
		"scan":    met.ScanSeconds,
		"refine":  met.RefineSeconds,
		"sigcalc": met.SigCalcSeconds,
		"thrive":  met.ThriveSeconds,
		"decode":  met.DecodeSeconds,
	} {
		if h.Count() == 0 {
			t.Errorf("stage %q recorded no observations", name)
		}
	}
	if v := met.PacketsDetected.Value(); v < 2 {
		t.Errorf("packets detected = %d, want >= 2", v)
	}
	if v := met.PacketsDecoded.Value(); v != uint64(len(decoded)) {
		t.Errorf("packets decoded counter = %d, want %d", v, len(decoded))
	}
	if v := met.Windows.Value(); v != 1 {
		t.Errorf("windows = %d, want 1", v)
	}
}

// TestNilMetricsIsNoop checks the un-instrumented receiver works. The
// nil-receiver safety of the stage hooks themselves is pinned in
// internal/stagegraph, where they live.
func TestNilMetricsIsNoop(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	tr, recs := makeTrace(t, 641, p, 1.0, []txSpec{
		{start: 20000, snr: 10, cfo: 0, payload: payloadOf(3)},
	})
	r := NewReceiver(Config{Params: p, UseBEC: true})
	if n := countDecoded(r.Decode(tr), recs); n != 1 {
		t.Fatalf("decoded %d/1 packets", n)
	}
}

func TestDefaultPipelineMetricsShared(t *testing.T) {
	if DefaultPipelineMetrics() != DefaultPipelineMetrics() {
		t.Error("DefaultPipelineMetrics not a singleton")
	}
}
