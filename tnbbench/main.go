// Command tnbbench is the repository benchmark. It runs one workload for a
// fixed wall-clock budget, checks that the program's outputs are correct,
// and prints one JSON result line as the last line of standard output.
//
// Usage, from the repository root:
//
//	bash tnbbench/run.sh --workload rx-collide-sf8 --seed 1 --seconds 20 --trace 0
//
// Workloads (see NOTES.md for why each was chosen and which layer it loads):
//
//	rx-collide-sf8  collided SF8 captures decoded by stagegraph.Pipeline
//	phy-fleet       fleet IQ over loopback gateway.Server into netserver
//	ns-fleet        fleet frames through netserver.Server.Ingest
//	all             the three above, one after another in this process
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no tracing. With --trace 1 the run first repeats the untraced
// measurement for half the budget, then a traced pass records spans around
// every public call it makes into the program, and bench-owned replays
// collect the per-layer counts; the result carries the per-layer metrics
// and the spans are written to .bench_build/spans/.
//
// Inputs are a pure function of --seed. Every workload is a closed loop
// with at most GOMAXPROCS busy goroutines.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times each workload builds its inputs; setup_s is
// the median, so one slow set-up does not move the figure.
const setupReps = 3

// benchFile is the part of BENCHMARK.json (at the repository root, the
// working directory) this program reads: the metrics a run must report.
// Per-layer times are seconds per work unit (one capture, one fleet round
// or one fleet pass); counts are totals over one pass of the input set.
type benchFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// metricDef is one reported metric and its unit.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchFile() (*benchFile, error) {
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// options are the command-line settings every workload receives.
type options struct {
	seed   int64
	budget time.Duration
	trace  bool
	nproc  int
}

// outcome is what a workload hands back for printing.
type outcome struct {
	attempted, failed int
	// problems lists failed output checks; empty means correct.
	problems []string
	// metrics holds the end-to-end (untraced) or per-layer (traced) values.
	metrics map[string]float64
	// extra holds workload-specific figures printed for humans only.
	extra []string
	// spans is the traced pass's span log (traced runs only).
	spans *spanLog
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.extra = append(o.extra, fmt.Sprintf(format, args...))
}

var workloads = []struct {
	name string
	run  func(options) (*outcome, error)
}{
	{"rx-collide-sf8", runRx},
	{"phy-fleet", runPhy},
	{"ns-fleet", runNs},
}

func main() {
	workload := flag.String("workload", "", "workload name: rx-collide-sf8, phy-fleet, ns-fleet, or all")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measured wall-clock budget in seconds, per workload")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()

	picked := workloads[:0:0]
	for _, w := range workloads {
		if *workload == w.name || *workload == "all" {
			picked = append(picked, w)
		}
	}
	if len(picked) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "tnbbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	bf, err := loadBenchFile()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tnbbench: %v\n", err)
		os.Exit(1)
	}
	opt := options{
		seed:   *seed,
		budget: time.Duration(*seconds) * time.Second,
		trace:  *trace == 1,
		nproc:  runtime.GOMAXPROCS(0),
	}
	correct := true
	for _, w := range picked {
		ok, err := runWorkload(w.name, w.run, opt, bf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tnbbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		correct = correct && ok
	}
	if !correct {
		os.Exit(1)
	}
}

// runWorkload runs one workload and prints its result; ok is false when an
// output check failed.
func runWorkload(name string, run func(options) (*outcome, error), opt options, bf *benchFile) (ok bool, err error) {
	fmt.Printf("# tnbbench %s seed=%d seconds=%.0f trace=%t nproc=%d go=%s\n",
		name, opt.seed, opt.budget.Seconds(), opt.trace, opt.nproc, runtime.Version())
	out, err := run(opt)
	if err != nil {
		return false, err
	}
	if out.spans != nil {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", name, opt.seed))
		if err := out.spans.writeFile(path); err != nil {
			return false, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("# spans: %s\n", path)
		out.spans.printSelfTimes(os.Stdout)
	}
	defs := bf.EndToEnd
	if opt.trace {
		defs = bf.PerLayer
	}
	if err := printResult(os.Stdout, out, defs, opt.trace); err != nil {
		return false, err
	}
	return len(out.problems) == 0, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResult writes the human-readable table, then the JSON result with
// every metric in defs as the final line. An end-to-end metric the workload
// did not measure, or a metric defs does not name, is an error; a
// per-layer metric of a layer the workload never reaches reads 0.
func printResult(w io.Writer, out *outcome, defs []metricDef, traced bool) error {
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, p := range out.problems {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", p)
	}
	for _, e := range out.extra {
		fmt.Fprintf(w, "# %s\n", e)
	}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok && !traced {
			return fmt.Errorf("workload did not report end-to-end metric %s", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "# %-38s %14.6g %s\n", d.Name, v, d.Unit)
	}
	for name := range out.metrics {
		if _, ok := res.Metrics[name]; !ok {
			return fmt.Errorf("metric %s is not listed in BENCHMARK.json", name)
		}
	}
	if res.Attempted < 1 {
		return errors.New("workload attempted no operations")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// timeSetup runs build setupReps times and returns the last product and the
// median build time. Each earlier product is released with drop (when
// non-nil) and collected before the next build, so only one is ever live.
func timeSetup[T any](build func() (T, error), drop func(T)) (T, float64, error) {
	var cur T
	var times []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			if drop != nil {
				drop(cur)
			}
			var zero T
			cur = zero
			runtime.GC()
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return cur, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		cur = v
	}
	return cur, median(times), nil
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// cpuTime returns the CPU time the process has used so far, user plus
// system over all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stolenTime returns the CPU time the hypervisor has so far taken from
// this VM, summed over its CPUs: the steal column of /proc/stat, in
// USER_HZ (100 per second) ticks. ok is false where the file has no such
// column.
func stolenTime() (d time.Duration, ok bool) {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, false
	}
	return time.Duration(ticks) * time.Second / 100, true
}

// stealClock measures the share of a wall interval in which the VM's CPUs
// were running rather than stolen by the hypervisor. Multi-threaded
// workloads scale their wall-clock figures by it, so a neighbour's burst
// on the host does not read as a slower program.
type stealClock struct {
	t0 time.Time
	s0 time.Duration
	ok bool
}

func startStealClock() stealClock {
	s, ok := stolenTime()
	return stealClock{t0: time.Now(), s0: s, ok: ok}
}

// runShare returns 1 − stolen ÷ (CPUs × wall) since the clock started; 1
// where steal is not reported.
func (c stealClock) runShare() float64 {
	s, ok := stolenTime()
	wall := time.Since(c.t0)
	if !ok || !c.ok || wall <= 0 {
		return 1
	}
	share := 1 - float64(s-c.s0)/(float64(runtime.NumCPU())*float64(wall))
	// The counter ticks at 10 ms, so a short interval can read a little
	// over or under; the clamp keeps a misread from inflating a figure.
	return min(1, max(share, 0.05))
}

// heapAllocated returns the bytes allocated on the heap so far and the
// number of completed GC cycles.
func heapAllocated() (uint64, uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.NumGC
}

// FNV-1a, folded by hand so digesting outputs allocates nothing inside the
// measured regions.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return fnvUint(h, uint64(len(s)))
}

func fnvBytes(h uint64, p []byte) uint64 {
	for _, c := range p {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return fnvUint(h, uint64(len(p)))
}

func fnvUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}
