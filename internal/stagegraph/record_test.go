package stagegraph

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRecordingRoundtrip records a collision decode, parses the recording
// back, and checks the structure and the bec outcomes agree with what the
// receiver returned.
func TestRecordingRoundtrip(t *testing.T) {
	tr, recs := collisionTrace(t, 4242)
	cfg := Config{Params: collisionParams(), UseBEC: true, Workers: 1, Seed: 7}
	decoded, data := recordDecode(t, tr, cfg)
	if n := countDecoded(decoded, recs); n != 2 {
		t.Fatalf("decoded %d/2 packets", n)
	}

	rec, err := ParseRecording(data)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Header.SF != 8 || rec.Header.OSF != 2 || !rec.Header.UseBEC || rec.Header.Seed != 7 {
		t.Fatalf("header = %+v", rec.Header)
	}
	if len(rec.Windows) != 1 {
		t.Fatalf("windows = %d, want 1", len(rec.Windows))
	}
	rw := rec.Windows[0]
	if len(rw.Antennas) != 1 || len(rw.Antennas[0]) != tr.Len() {
		t.Fatalf("samples = %dx%d, want 1x%d", len(rw.Antennas), len(rw.Antennas[0]), tr.Len())
	}
	p1 := rw.Passes[0]
	if got := p1.Stages(); len(got) != 4 {
		t.Fatalf("pass-1 stages = %v", got)
	}
	dets, err := p1.Detections()
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) != 2 {
		t.Fatalf("detections = %d, want 2", len(dets))
	}
	outs, err := p1.Outcomes()
	if err != nil {
		t.Fatal(err)
	}
	nOK := 0
	for _, o := range outs {
		if o.OK {
			nOK++
			found := false
			for _, d := range decoded {
				if string(d.Payload) == string(o.Dec.Payload) && d.Start == o.Dec.Start {
					found = true
				}
			}
			if !found {
				t.Errorf("recorded outcome for det %d not among receiver results", o.DetIdx)
			}
		}
	}
	if nOK != len(decoded) {
		t.Fatalf("recorded %d decoded outcomes, receiver returned %d", nOK, len(decoded))
	}
}

// TestRecordingRejectsCorruption flips single bits and truncates the
// recording at sampled offsets: every such mutation must produce a parse
// error (the per-record CRC catches all single-bit flips), never a panic.
func TestRecordingRejectsCorruption(t *testing.T) {
	tr, _ := collisionTrace(t, 4242)
	_, data := recordDecode(t, tr, Config{Params: collisionParams(), UseBEC: true, Workers: 1})
	if _, err := ParseRecording(data); err != nil {
		t.Fatalf("clean recording failed to parse: %v", err)
	}

	stride := len(data)/512 + 1
	for off := 0; off < len(data); off += stride {
		mut := append([]byte(nil), data...)
		mut[off] ^= 1 << (off % 8)
		if _, err := ParseRecording(mut); err == nil {
			t.Fatalf("bit flip at offset %d parsed cleanly", off)
		}
	}
	for off := 0; off < len(data); off += stride {
		if _, err := ParseRecording(data[:off]); err == nil {
			t.Fatalf("truncation to %d bytes parsed cleanly", off)
		}
	}
	if _, err := ParseRecording(nil); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("empty input: err = %v, want ErrBadMagic", err)
	}
}

// TestReplayConcurrentUse pins the CAS guard: a Replay while the handle is
// held fails with ErrConcurrentUse, and hammering one handle from many
// goroutines yields only clean results or ErrConcurrentUse (no races; the
// -race CI run covers the data-race half of the claim).
func TestReplayConcurrentUse(t *testing.T) {
	tr, _ := collisionTrace(t, 4242)
	_, data := recordDecode(t, tr, Config{Params: collisionParams(), UseBEC: true, Workers: 1})
	rec, err := ParseRecording(data)
	if err != nil {
		t.Fatal(err)
	}
	opt := ReplayOptions{Stage: StageThrive, Workers: 1}

	// Deterministic half: a held handle refuses both entry points.
	rec.inUse.Store(true)
	if _, err := rec.Replay(opt); !errors.Is(err, ErrConcurrentUse) {
		t.Fatalf("Replay on held handle: err = %v, want ErrConcurrentUse", err)
	}
	if _, err := rec.ReplayChain(1); !errors.Is(err, ErrConcurrentUse) {
		t.Fatalf("ReplayChain on held handle: err = %v, want ErrConcurrentUse", err)
	}
	rec.inUse.Store(false)
	if _, err := rec.Replay(opt); err != nil {
		t.Fatalf("Replay after release: %v", err)
	}

	// Concurrent half: every call either succeeds or reports the guard.
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = rec.Replay(opt)
		}(i)
	}
	wg.Wait()
	okCalls := 0
	for i, err := range errs {
		switch {
		case err == nil:
			okCalls++
		case errors.Is(err, ErrConcurrentUse):
		default:
			t.Errorf("call %d: unexpected error %v", i, err)
		}
	}
	if okCalls == 0 {
		t.Error("no concurrent Replay call succeeded")
	}
}

// TestReplayUnknownStage checks option validation errors name the problem.
func TestReplayUnknownStage(t *testing.T) {
	tr, _ := collisionTrace(t, 4242)
	_, data := recordDecode(t, tr, Config{Params: collisionParams(), UseBEC: true, Workers: 1})
	rec, err := ParseRecording(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Replay(ReplayOptions{Stage: "nonsense"}); err == nil || !strings.Contains(err.Error(), "no nonsense boundary") {
		t.Fatalf("unknown stage: err = %v", err)
	}
	if _, err := rec.Replay(ReplayOptions{Window: 3, Stage: StageDetect}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("bad window: err = %v", err)
	}
	if _, err := rec.Replay(ReplayOptions{Pass: 2, Stage: StageDetect}); err == nil {
		t.Fatal("pass-2 detect replay should fail")
	}
}

// TestNilPipelineMetricsHooks pins the nil-receiver safety of every stage
// hook (moved here from internal/core with the pipeline).
func TestNilPipelineMetricsHooks(t *testing.T) {
	var m *PipelineMetrics
	m.observeDetect(m.now())
	m.observeDetectSplit(time.Millisecond, time.Millisecond)
	m.observeSigCalc(m.now())
	m.observeThrive(m.now())
	m.observeDecode(m.now())
	m.onDetected(1)
	m.onDecoded(Decoded{Pass: 2, Rescued: 3})
	m.onDecodeFailed()
	m.onPoolWorkers(4)
}
