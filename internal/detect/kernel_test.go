package detect

import (
	"fmt"
	"math/rand"
	"testing"

	"tnb/internal/lora"
	"tnb/internal/trace"
)

// buildScanTrace synthesizes the colliding multi-packet trace the scan and
// sync kernels are tested and benchmarked on.
func buildScanTrace(tb testing.TB, p lora.Params, seed int64) *trace.Trace {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := trace.NewBuilder(p, 1.2, 1, rng)
	starts := b.ScheduleUniform(4, 14)
	for i, s := range starts {
		payload := make([]uint8, 14)
		rng.Read(payload)
		if err := b.AddPacket(i, 0, payload, s, 12, -2500+float64(i)*1500, nil); err != nil {
			tb.Fatal(err)
		}
	}
	tr, _ := b.Build()
	return tr
}

// TestScanPreamblesDeterministicAcrossWorkerCounts pins the contract of the
// parallel per-window scan: the candidate list (windows, bins, run heights,
// order) is identical at every pool width, because the window transforms
// land in indexed slots and the run tracking walks them serially.
func TestScanPreamblesDeterministicAcrossWorkerCounts(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	for _, seed := range []int64{7, 19} {
		tr := buildScanTrace(t, p, seed)
		ref := func(workers int) []candidate {
			d := NewDetector(p)
			d.Workers = workers
			return d.scanPreambles(tr.Antennas)
		}
		serial := ref(1)
		if len(serial) == 0 {
			t.Fatalf("seed %d: serial scan found no candidates", seed)
		}
		for _, workers := range []int{2, 3, 8, 0} {
			got := ref(workers)
			if len(got) != len(serial) {
				t.Fatalf("seed %d workers=%d: %d candidates, serial found %d",
					seed, workers, len(got), len(serial))
			}
			for i := range got {
				if got[i] != serial[i] {
					t.Errorf("seed %d workers=%d: candidate %d = %+v, serial %+v",
						seed, workers, i, got[i], serial[i])
				}
			}
		}
	}
}

// TestScanPreamblesScratchReuse runs the same detector over traces of
// different lengths to exercise the reused per-window peak slots.
func TestScanPreamblesScratchReuse(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	tr := buildScanTrace(t, p, 7)
	d := NewDetector(p)
	full := d.scanPreambles(tr.Antennas)
	// A shorter view of the same trace must agree with a fresh detector.
	short := [][]complex128{tr.Antennas[0][:len(tr.Antennas[0])/2]}
	got := d.scanPreambles(short)
	want := NewDetector(p).scanPreambles(short)
	if len(got) != len(want) {
		t.Fatalf("reused detector found %d candidates, fresh %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("candidate %d: reused %+v vs fresh %+v", i, got[i], want[i])
		}
	}
	// And re-scanning the full trace still reproduces the first result.
	again := d.scanPreambles(tr.Antennas)
	if len(again) != len(full) {
		t.Fatalf("rescan found %d candidates, first scan %d", len(again), len(full))
	}
}

// BenchmarkScanPreambles measures detection step 1 — the last serial stage
// before this PR — across pool widths.
func BenchmarkScanPreambles(b *testing.B) {
	p := lora.MustParams(8, 4, 125e3, 8)
	tr := buildScanTrace(b, p, 7)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			d := NewDetector(p)
			d.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cands := d.scanPreambles(tr.Antennas); len(cands) == 0 {
					b.Fatal("no candidates")
				}
			}
		})
	}
}

// BenchmarkFractionalSearch measures one whole §7 3-phase Q-search — the
// unit of refine work, since dechirp sets and weighted sums are shared
// across its hypotheses — from a coarse estimate 2.37 samples and 0.3
// cycles off a packet of a collided SF8 trace.
func BenchmarkFractionalSearch(b *testing.B) {
	c := qOracleCase{"sf8", lora.MustParams(8, 4, 125e3, 8), 1, 31}
	tr, recs := buildCollidedTrace(b, c)
	start, cfo := recs[1].StartSample+2.37, recs[1].CFOHz*c.p.SymbolDuration()+0.3
	d := NewDetector(c.p)
	rs := d.newRefineScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, q := d.fractionalSearch(tr.Antennas, start, cfo, rs); q <= 0 {
			b.Fatal("search found nothing")
		}
	}
}
