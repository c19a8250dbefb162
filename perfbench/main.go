// Command perfbench is the repository's end-to-end benchmark. It drives
// the three jobs the repository exists for — the paper's figure sweep,
// the litmus checker (enumeration and solver) and the checking service —
// through their public entry points, checks every output against a
// reference the timed path did not produce, and prints one JSON result
// line.
//
// Usage (from the repository root; run.sh builds and launches it):
//
//	perfbench -workload figures-paper -seed 1 -seconds 25 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics (setup_s,
// ops_per_s, op_p50_ms, op_p90_ms, peak_rss_mb). With -trace 1 every op
// is recorded as an rtrace span tree, spans are written as a Chrome
// trace, and the result carries the per-layer metrics: mean self time
// per op for each layer, plus the layers' exact counters. See README.md
// for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// processStart approximates the process start for setup_s: package
// variables initialize before main runs.
var processStart = time.Now()

// config is what a workload's set-up receives.
type config struct {
	seed     int64
	traced   bool
	serveBin string // ratsserve binary (serve-mix only)
	outDir   string // where traced runs write their artifacts
}

// measurement is one timed window: every attempted op and its outcome.
type measurement struct {
	// latMs holds one latency per successful op, in milliseconds.
	latMs     []float64
	attempted int
	failed    int
	// blockRates holds ops/s per block of the window (whole sweeps for
	// figures-paper, equal time slices elsewhere); ops_per_s is their
	// median, so one slow stretch of the box moves it less than a mean.
	blockRates []float64
}

// bench is one set-up instance of a workload.
type bench interface {
	// measure runs timed ops for at least d and until at least minOps
	// ops succeeded, and returns what it saw.
	measure(d time.Duration, minOps int) (*measurement, error)
	// layers returns the per-layer metrics of a traced measurement and
	// writes the traced artifacts.
	layers(m *measurement) (map[string]float64, error)
	// peakRSSMB is the peak resident set of the process doing the work.
	peakRSSMB() (float64, error)
	// close stops every process and goroutine the instance started.
	close() error
}

type workload struct {
	name  string
	setup func(cfg config) (bench, error)
}

var benchWorkloads = []workload{
	{"figures-paper", setupFigures},
	{"litmus-catalog", setupCatalog},
	{"litmus-solve", setupSolve},
	{"serve-mix", setupServe},
}

// A run sets up at least setupReps times and until the set-ups together
// took setupFloor; setup_s is their median. A set-up is mostly its
// warm-up op, whose time spreads like the op's, so a median of a few
// set-ups would wander between runs: nine catalog set-ups, or about two
// hundred litmus-solve ones, make the median steady.
const (
	setupReps  = 9
	setupFloor = 3 * time.Second
)

// minOps makes the 90th percentile rest on at least ten samples beyond
// it: at nearest rank, 100 distinct latencies leave exactly ten.
const minOps = 100

// giveUp is how many windows a run may take to reach minOps. Past that it
// stops, and run reports the shortfall instead of a result, well before
// the three minutes a run may take.
const giveUp = 6

func main() {
	var (
		name     = flag.String("workload", "", "workload: figures-paper, litmus-catalog, litmus-solve, serve-mix")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 25, "length of the timed window")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
		serveBin = flag.String("serve-bin", "", "ratsserve binary for serve-mix")
		outDir   = flag.String("out", ".bench_build", "directory for traced-run artifacts")
		pin      = flag.String("pin", "", "regenerate the pinned references into this directory and exit")
	)
	flag.Parse()
	if *pin != "" {
		if err := pinReferences(*pin); err != nil {
			fatal(err)
		}
		return
	}
	var wl *workload
	for i := range benchWorkloads {
		if benchWorkloads[i].name == *name {
			wl = &benchWorkloads[i]
		}
	}
	if wl == nil {
		fatal(fmt.Errorf("unknown -workload %q", *name))
	}
	cfg := config{seed: *seed, traced: *trace == 1, serveBin: *serveBin, outDir: *outDir}
	res, err := run(wl, cfg, time.Duration(*seconds*float64(time.Second)))
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run sets the workload up (as often as setupReps and setupFloor ask
// untraced, once traced), measures, and assembles the result.
func run(wl *workload, cfg config, d time.Duration) (*result, error) {
	var setups []float64
	var spent time.Duration
	var b bench
	for {
		start := time.Now()
		if len(setups) == 0 {
			start = processStart
		}
		inst, err := wl.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		took := time.Since(start)
		setups = append(setups, took.Seconds())
		spent += took
		if cfg.traced || (len(setups) >= setupReps && spent >= setupFloor) {
			b = inst
			break
		}
		if err := inst.close(); err != nil {
			return nil, err
		}
	}
	m, err := b.measure(d, minOps)
	if err != nil {
		b.close()
		return nil, err
	}
	rss, rssErr := b.peakRSSMB()
	var lay map[string]float64
	var layErr error
	if cfg.traced {
		lay, layErr = b.layers(m)
	}
	if err := b.close(); err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}
	if layErr != nil {
		return nil, layErr
	}

	p50, n, beyond50 := percentile(m.latMs, 0.50)
	p90, _, beyond90 := percentile(m.latMs, 0.90)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d traced=%v: %d ops attempted, %d failed\n",
		wl.name, cfg.seed, cfg.traced, m.attempted, m.failed)
	fmt.Fprintf(os.Stderr, "perfbench:   op_p50_ms=%.4f (n=%d, %d beyond)  op_p90_ms=%.4f (n=%d, %d beyond)\n",
		p50, n, beyond50, p90, n, beyond90)
	fmt.Fprintf(os.Stderr, "perfbench:   setup_s: %d set-ups, first (from process start) %.4f s, median %.4f s\n",
		len(setups), setups[0], median(setups))
	fmt.Fprintf(os.Stderr, "perfbench:   ops/s per block: %v\n", m.blockRates)
	if beyond90 < 10 {
		return nil, fmt.Errorf("op_p90_ms has %d samples beyond it (want at least 10); lengthen the run", beyond90)
	}
	ops := median(m.blockRates)
	res := &result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metric{},
	}
	if !cfg.traced {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["ops_per_s"] = metric{ops, "1/s"}
		res.Metrics["op_p50_ms"] = metric{p50, "ms"}
		res.Metrics["op_p90_ms"] = metric{p90, "ms"}
		res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
		return res, nil
	}
	// The traced run reports its own end-to-end figures beside the layers,
	// so its overhead against the untraced run shows.
	lay["traced.ops_per_s"] = ops
	lay["traced.op_p50_ms"] = p50
	lay["traced.op_p90_ms"] = p90
	for _, lm := range layerMetrics {
		res.Metrics[lm.name] = metric{lay[lm.name], lm.unit}
	}
	return res, nil
}

// percentile returns the nearest-rank q-quantile of xs, the sample count,
// and how many samples lie strictly beyond it.
func percentile(xs []float64, q float64) (v float64, n, beyond int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(float64(n)*q+0.999999999) - 1
	if k < 0 {
		k = 0
	}
	v = s[k]
	for _, x := range s[k+1:] {
		if x > v {
			beyond++
		}
	}
	return v, n, beyond
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// opSpan is one successful op's start and end, as offsets into the
// timed window.
type opSpan struct{ start, end time.Duration }

// rateBlocks is how many equal slices of the timed window ops_per_s is
// the median over.
const rateBlocks = 10

// blockRates splits [0, total) into k equal slices and returns the ops
// completed per second in each, counting an op that straddles a slice
// boundary fractionally by the share of its duration inside the slice,
// so a slice's rate does not jump by whole ops.
func blockRates(ops []opSpan, total time.Duration, k int) []float64 {
	work := make([]float64, k)
	w := float64(total) / float64(k)
	for _, o := range ops {
		d := float64(o.end - o.start)
		if d <= 0 {
			work[min(int(float64(o.end)/w), k-1)]++
			continue
		}
		for i := int(float64(o.start) / w); i < k && float64(i)*w < float64(o.end); i++ {
			lo, hi := max(float64(o.start), float64(i)*w), min(float64(o.end), float64(i+1)*w)
			work[i] += (hi - lo) / d
		}
	}
	out := make([]float64, k)
	for i := range work {
		out[i] = work[i] / (w / float64(time.Second))
	}
	return out
}

// selfRSSMB reads this process's peak resident set.
func selfRSSMB() (float64, error) { return peakRSS("/proc/self/status") }

func peakRSS(statusPath string) (float64, error) {
	raw, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	var kb float64
	for _, line := range strings.Split(string(raw), "\n") {
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in %s", statusPath)
}

// artifact returns a path for a traced-run artifact, creating its
// directory.
func artifact(cfg config, name string) (string, error) {
	dir := filepath.Join(cfg.outDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, name), nil
}
