package obs

import (
	"fmt"
	"io"
)

// Explain renders one packet trace as a human-readable report: the
// detection line, the verdict, the BEC block table, and the per-symbol cost
// table with ambiguous decisions flagged. It is the `tnbdecode -explain`
// backend.
func Explain(w io.Writer, pt *PacketTrace) {
	if pt == nil {
		fmt.Fprintln(w, "no trace")
		return
	}
	fmt.Fprintf(w, "packet window=%d id=%d pass=%d\n", pt.Window, pt.ID, pt.Pass)
	d := pt.Detection
	fmt.Fprintf(w, "  detect: start=%d+%.3f  cfo=%.3f cyc (%.1f Hz)  q=%.3g  snr=%.1f dB  sync_score=%.2f\n",
		d.StartSample, d.FracTiming, d.CFOCycles, d.CFOHz, d.Quality, d.SNRdB, pt.SyncScore)
	if pt.OK {
		fmt.Fprintf(w, "  verdict: decoded  symbols=%d airtime=%.1f ms rescued=%d crc_tests=%d\n",
			pt.DataSymbols, pt.AirtimeSec*1e3, pt.Rescued, pt.CRCTests)
	} else {
		fmt.Fprintf(w, "  verdict: FAILED (%s)  crc_tests=%d\n", pt.FailureReason, pt.CRCTests)
	}
	if pt.MaskedPeaks > 0 {
		fmt.Fprintf(w, "  masking: %d known peaks masked from this packet's symbols\n", pt.MaskedPeaks)
	}

	if len(pt.Blocks) > 0 {
		fmt.Fprintf(w, "  bec blocks:\n")
		fmt.Fprintf(w, "    %-6s %-3s %-5s %-5s %s\n", "block", "cr", "errs", "cands", "outcome")
		for _, b := range pt.Blocks {
			name := fmt.Sprintf("%d", b.Index)
			if b.Index < 0 {
				name = "hdr"
			}
			outcome := "repaired"
			switch {
			case b.Failed:
				outcome = "FAILED"
			case b.NoError:
				outcome = "clean"
			}
			if b.Companion {
				outcome += "+companion"
			}
			fmt.Fprintf(w, "    %-6s %-3d %-5d %-5d %s\n", name, b.CR, b.ErrorCols, b.Candidates, outcome)
		}
	}

	if len(pt.Symbols) == 0 {
		return
	}
	fmt.Fprintf(w, "  symbols (margin < %.2g flagged '?'):\n", AmbiguityMargin)
	fmt.Fprintf(w, "    %-4s %-5s %-5s %-8s %-9s %-9s %-9s %-9s\n",
		"idx", "bin", "alt", "height", "sib", "hist", "cost", "margin")
	for _, s := range pt.Symbols {
		if s.Bin < 0 {
			fmt.Fprintf(w, "    %-4d (unassigned)\n", s.Idx)
			continue
		}
		flag := ""
		if s.Fallback {
			flag = " fallback"
		} else if s.Ambiguous(AmbiguityMargin) {
			flag = " ?"
		}
		margin := "-"
		if s.Margin >= 0 {
			margin = fmt.Sprintf("%.4f", s.Margin)
		}
		alt := "-"
		if s.Alt >= 0 {
			alt = fmt.Sprintf("%d", s.Alt)
		}
		fmt.Fprintf(w, "    %-4d %-5d %-5s %-8.3g %-9.4f %-9.4f %-9.4f %-9s%s\n",
			s.Idx, s.Bin, alt, s.Height, s.SiblingCost, s.HistoryCost, s.Cost, margin, flag)
	}
}
