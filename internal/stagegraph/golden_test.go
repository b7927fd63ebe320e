package stagegraph

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden stage recording")

const goldenRecording = "testdata/golden_2pkt.tnbsgr"

// goldenConfig is the exact pipeline configuration behind the committed
// golden: a seeded 2-packet collision recorded at worker width 1.
func goldenConfig() Config {
	// MaxPayloadLen 12 keeps the provisional calculators (and with them the
	// committed sigcalc boundary) small; the golden payloads are 8 bytes.
	return Config{Params: collisionParams(), UseBEC: true, Workers: 1, Seed: 7, MaxPayloadLen: 12}
}

func goldenBytes(t *testing.T) []byte {
	t.Helper()
	tr, recs := collisionTrace(t, 4242)
	decoded, data := recordDecode(t, tr, goldenConfig())
	if n := countDecoded(decoded, recs); n != 2 {
		t.Fatalf("golden trace decoded %d/2 packets", n)
	}
	return data
}

// TestGoldenRecordingUpToDate regenerates the recording from its seed and
// compares it byte-for-byte with the committed file, so any recorder or
// pipeline drift shows up as a golden diff. Run with -update to accept an
// intentional change.
func TestGoldenRecordingUpToDate(t *testing.T) {
	data := goldenBytes(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenRecording), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenRecording, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenRecording, len(data))
		return
	}
	want, err := os.ReadFile(goldenRecording)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("recording differs from %s: regenerated %d bytes, committed %d bytes (run with -update to accept)",
			goldenRecording, len(data), len(want))
	}
}

// TestGoldenRecordingWorkerInvariant records the same trace at widths 1, 2
// and 4: the stage boundaries are serialization points, so the recordings
// must be byte-identical.
func TestGoldenRecordingWorkerInvariant(t *testing.T) {
	tr, _ := collisionTrace(t, 4242)
	var ref []byte
	for _, workers := range []int{1, 2, 4} {
		cfg := goldenConfig()
		cfg.Workers = workers
		_, data := recordDecode(t, tr, cfg)
		if ref == nil {
			ref = data
			continue
		}
		if !bytes.Equal(ref, data) {
			t.Fatalf("recording at workers=%d differs from workers=1", workers)
		}
	}
}

// TestGoldenStageReplay replays every boundary of the committed golden at
// worker widths 1, 2 and 4; each stage must reproduce its recorded output
// byte-for-byte. This is the per-stage golden regression: a change that
// shifts any stage's numerics fails here, naming the stage.
func TestGoldenStageReplay(t *testing.T) {
	raw, err := os.ReadFile(goldenRecording)
	if err != nil {
		t.Fatalf("%v (run TestGoldenRecordingUpToDate with -update to create)", err)
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			rec, err := ParseRecording(raw)
			if err != nil {
				t.Fatal(err)
			}
			for wi, rw := range rec.Windows {
				for _, rp := range rw.Passes {
					for _, stage := range rp.Stages() {
						t.Run(fmt.Sprintf("pass%d_%s", rp.Pass, stage), func(t *testing.T) {
							d, err := rec.Replay(ReplayOptions{Window: wi, Pass: rp.Pass, Stage: stage, Workers: workers})
							if err != nil {
								t.Fatal(err)
							}
							if !d.Match {
								t.Error(d)
							}
						})
					}
				}
			}
		})
	}
}

// TestLegacyHeaderFieldsReplay rewrites the golden's header record to the
// form earlier writers emitted, which still carried the list-decoding
// fields ("ListDecode":false,"ListDecodeBudget":0). ParseRecording must
// accept such a recording, and every stage must still replay byte-for-byte.
func TestLegacyHeaderFieldsReplay(t *testing.T) {
	raw, err := os.ReadFile(goldenRecording)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := newRecordReader(raw)
	if err != nil {
		t.Fatal(err)
	}
	name, hdr, err := rr.next()
	if err != nil || name != recNameHeader {
		t.Fatalf("first record %q: %v", name, err)
	}
	legacyHdr := bytes.Replace(hdr, []byte(`,"Seed":`),
		[]byte(`,"ListDecode":false,"ListDecodeBudget":0,"Seed":`), 1)
	if bytes.Equal(legacyHdr, hdr) {
		t.Fatalf("header %s has no Seed field to anchor the legacy fields", hdr)
	}
	legacy := appendRecord([]byte(recMagic), recNameHeader, legacyHdr)
	legacy = append(legacy, raw[rr.off:]...)

	rec, err := ParseRecording(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Header.Config().MaxPayloadLen != goldenConfig().MaxPayloadLen {
		t.Errorf("legacy header parsed as %+v", rec.Header)
	}
	diffs, err := rec.ReplayChain(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) == 0 {
		t.Fatal("legacy recording replayed no stages")
	}
	for _, d := range diffs {
		if !d.Match {
			t.Error(d)
		}
	}
}
