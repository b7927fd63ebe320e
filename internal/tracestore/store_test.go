package tracestore

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tnb/internal/metrics"
	"tnb/internal/obs"
)

// appendVia feeds records through a real obs.Tracer so the stored bytes
// are exactly what production emits.
func appendVia(t *testing.T, st *Store, gw string, channel, sf, n int, reason obs.FailureReason) {
	t.Helper()
	tr := obs.New(obs.Options{Spill: st}).WithOrigin(obs.Origin{Gateway: gw, Channel: channel, SF: sf})
	for i := 0; i < n; i++ {
		pt := tr.NewPacket(tr.NextWindow(), i, 1, obs.Detection{SNRdB: float64(i)})
		pt.Final = true
		if reason == "" {
			pt.OK = true
			pt.DataSymbols = 8
			pt.AirtimeSec = 0.05
		} else {
			pt.FailureReason = reason
		}
		tr.Finish(pt)
	}
}

func intp(v int) *int { return &v }

func TestAppendQueryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	st, err := Open(Options{Dir: dir, Metrics: NewMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	appendVia(t, st, "gw-a", 3, 8, 5, obs.FailBECBudget)
	appendVia(t, st, "gw-b", 1, 9, 4, "")
	tr := obs.New(obs.Options{Spill: st})
	tr.OnNet(obs.NetEvent{Event: obs.NetDrop, Reason: "bad_mic", TimeSec: 7,
		Origin: &obs.Origin{Gateway: "gw-a", Channel: 3, SF: 8}})
	st.Flush()

	// Reason+channel filter: the 5 failures, newest-first.
	res, err := st.Query(Query{Reason: string(obs.FailBECBudget), Channel: intp(3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("reason+channel query: %d results, want 5", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Seq >= res[i-1].Seq {
			t.Fatalf("results not newest-first: seq %d then %d", res[i-1].Seq, res[i].Seq)
		}
	}

	// Type filter spans record kinds; gateway filter narrows.
	res, err = st.Query(Query{Types: []string{obs.TypeNet}})
	if err != nil || len(res) != 1 {
		t.Fatalf("net query: %d results (%v), want 1", len(res), err)
	}
	if !strings.Contains(string(res[0].Record), `"reason":"bad_mic"`) {
		t.Errorf("net record lost its bytes: %s", res[0].Record)
	}
	res, _ = st.Query(Query{Gateway: "gw-b", Limit: -1})
	if len(res) != 4 {
		t.Fatalf("gateway query: %d results, want 4", len(res))
	}

	// Limit truncates from the newest end.
	res, _ = st.Query(Query{Limit: 3})
	if len(res) != 3 {
		t.Fatalf("limit query: %d results, want 3", len(res))
	}
	if got := res[0].Seq; got != 10 {
		t.Errorf("newest seq = %d, want 10", got)
	}

	if got := reg.Counter("tnb_tracestore_records_total").Value(); got != 10 {
		t.Errorf("records_total = %d, want 10", got)
	}
	if got := st.Dropped(); got != 0 {
		t.Errorf("dropped = %d, want 0", got)
	}
}

func TestKillMidWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendVia(t, st, "gw-a", 3, 8, 7, obs.FailBECBudget)
	st.Flush()
	st.crash()

	// Simulate the torn final write of a killed process.
	segs, _ := listSegments(dir)
	if len(segs) != 1 {
		t.Fatalf("want 1 segment after crash, got %d", len(segs))
	}
	path := filepath.Join(dir, segName(segs[0]))
	if _, err := os.Stat(filepath.Join(dir, idxName(segs[0]))); err == nil {
		t.Fatal("crashed segment must not have a sidecar")
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"packet","window":9,"fail`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if res, err := Check(dir); err != nil {
		t.Fatalf("Check on torn store: %v", err)
	} else if !res.TornTail {
		t.Error("Check did not flag the torn tail")
	}

	// Reopen: the torn line is truncated away, sealed records survive.
	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res, err := st2.Query(Query{Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 7 {
		t.Fatalf("recovered %d records, want 7", len(res))
	}
	if res[0].Seq != 7 || res[6].Seq != 1 {
		t.Errorf("recovered seq range [%d..%d], want [7..1]", res[0].Seq, res[6].Seq)
	}

	// New appends resume the sequence after the recovered records.
	appendVia(t, st2, "gw-a", 3, 8, 1, obs.FailCRC)
	st2.Flush()
	res, _ = st2.Query(Query{Reason: string(obs.FailCRC)})
	if len(res) != 1 || res[0].Seq != 8 {
		t.Fatalf("post-recovery append got seq %v, want 8", res)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if chk, err := Check(dir); err != nil || chk.TornTail {
		t.Fatalf("Check after clean close: %v (torn=%v)", err, chk.TornTail)
	}
}

func TestRecoveryAcrossSealedSegments(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	appendVia(t, st, "gw-a", 0, 7, 40, obs.FailNoSync)
	st.Flush()
	st.crash()

	segs, _ := listSegments(dir)
	if len(segs) < 2 {
		t.Fatalf("want multiple segments, got %d", len(segs))
	}
	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	res, err := st2.Query(Query{Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 40 {
		t.Fatalf("recovered %d records across segments, want 40", len(res))
	}
}

// TestOpenDefaultsToFiniteCap pins the disk bound of the long-lived
// writers, which open the store without a MaxBytes: the zero value (and a
// negative one) must select a finite cap, never unlimited.
func TestOpenDefaultsToFiniteCap(t *testing.T) {
	for _, maxBytes := range []int64{0, -1} {
		st, err := Open(Options{Dir: t.TempDir(), MaxBytes: maxBytes})
		if err != nil {
			t.Fatal(err)
		}
		if st.opt.MaxBytes != 1<<30 {
			t.Errorf("MaxBytes %d opened with cap %d, want 1 GiB", maxBytes, st.opt.MaxBytes)
		}
		st.Close()
	}
}

func TestRetentionDropsWholeSegments(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	st, err := Open(Options{Dir: dir, SegmentBytes: 1024, MaxBytes: 4096, Metrics: NewMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 30; i++ {
		appendVia(t, st, fmt.Sprintf("gw-%02d", i), 0, 7, 1, obs.FailCRC)
		st.Flush() // one batch per record so rolls happen on record edges
	}
	segs, _ := listSegments(dir)
	var total int64
	for _, base := range segs {
		fi, err := os.Stat(filepath.Join(dir, segName(base)))
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	if total > 4096+1024 {
		t.Fatalf("disk usage %d exceeds MaxBytes+SegmentBytes", total)
	}

	// The oldest records are gone; the newest survive.
	res, err := st.Query(Query{Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || len(res) >= 30 {
		t.Fatalf("retention kept %d of 30 records", len(res))
	}
	if res[0].Seq != 30 {
		t.Errorf("newest record seq %d, want 30", res[0].Seq)
	}
	if _, err := st.Query(Query{Gateway: "gw-00"}); err != nil {
		t.Fatal(err)
	}
	if got, _ := st.Query(Query{Gateway: "gw-00"}); len(got) != 0 {
		t.Errorf("oldest gateway's records still present after retention")
	}
	if g := reg.Gauge("tnb_tracestore_bytes_on_disk").Value(); g <= 0 || g > 4096+1024 {
		t.Errorf("bytes_on_disk gauge = %d", g)
	}
}

func TestQueueOverflowDropsAndCounts(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	line := []byte(`{"type":"net","event":"drop","reason":"bad_mic"}`)
	m, _ := obs.MetaOf(line)
	for i := 0; i < 10000; i++ {
		st.Append(line, m)
	}
	st.Flush()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := st.Query(Query{Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(res))+st.Dropped() != 10000 {
		t.Fatalf("stored %d + dropped %d != 10000", len(res), st.Dropped())
	}
	if len(res) == 0 {
		t.Error("everything dropped; writer never drained")
	}
}

func TestAppendAfterCloseDrops(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	line := []byte(`{"type":"net","event":"drop","reason":"bad_mic"}`)
	m, _ := obs.MetaOf(line)
	st.Append(line, m)
	if st.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", st.Dropped())
	}
	st.Flush() // must not hang or panic on a closed store
}

func TestReadOnlyOpenDoesNotMutate(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendVia(t, st, "gw-a", 2, 8, 3, obs.FailCRC)
	st.Flush()
	st.crash()
	path := filepath.Join(dir, segName(1))
	before, _ := os.ReadFile(path)

	ro, err := Open(Options{Dir: dir, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ro.Query(Query{Limit: -1})
	if err != nil || len(res) != 3 {
		t.Fatalf("read-only query: %d results (%v), want 3", len(res), err)
	}
	ro.Append([]byte(`{"type":"net","event":"drop","reason":"x"}`), obs.RecordMeta{Type: "net"})
	if ro.Dropped() != 1 {
		t.Error("read-only append not counted as dropped")
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.ReadFile(path)
	if string(before) != string(after) {
		t.Error("read-only open modified the segment file")
	}
	if _, err := os.Stat(filepath.Join(dir, idxName(1))); err == nil {
		t.Error("read-only open wrote a sidecar")
	}
}

func TestHandlerQueryParams(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	appendVia(t, st, "gw-a", 3, 8, 4, obs.FailBECBudget)
	appendVia(t, st, "gw-a", 5, 8, 2, obs.FailCRC)
	st.Flush()

	srv := httptest.NewServer(st.Handler())
	defer srv.Close()
	body := httpGet(t, srv.URL+"/?reason=bec_budget_exhausted&channel=3&limit=100")
	lines := nonEmptyLines(body)
	if len(lines) != 4 {
		t.Fatalf("HTTP query returned %d rows, want 4:\n%s", len(lines), body)
	}
	for _, l := range lines {
		if !strings.Contains(l, `"failure_reason":"bec_budget_exhausted"`) {
			t.Errorf("row without the queried reason: %s", l)
		}
	}
	if body := httpGet(t, srv.URL+"/?type=packet&channel=5"); len(nonEmptyLines(body)) != 2 {
		t.Errorf("channel=5 query wrong:\n%s", body)
	}
	if resp, err := httpGetResp(srv.URL + "/?channel=zebra"); err != nil || resp != 400 {
		t.Errorf("bad channel param: status %d (%v), want 400", resp, err)
	}
}

func TestFlushLatencyObserved(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	st, err := Open(Options{Dir: dir, Metrics: NewMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	appendVia(t, st, "gw", 0, 7, 3, obs.FailCRC)
	st.Flush()
	h := reg.Histogram("tnb_tracestore_flush_seconds", metrics.DurationBuckets)
	deadline := time.Now().Add(2 * time.Second)
	for h.Count() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if h.Count() == 0 {
		t.Error("flush histogram never observed a batch")
	}
}
