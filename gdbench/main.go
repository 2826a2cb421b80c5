// Command gdbench is the repository's end-to-end benchmark. One
// invocation runs one named workload over a fixed list of operations
// generated from a seed, checks every output, and prints the result as
// one JSON line (the last line of standard output):
//
//	bash gdbench/run.sh --workload vmday-ksm --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics; with --trace 1
// the same workload runs under a CPU profile and spans around every call
// into the program, and the line carries the per-layer metrics instead.
// --steady N runs the workload N times in fresh processes and prints
// each end-to-end metric's median, quartiles and spread against its
// bound in BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up instance serves the timed phase.
const setupReps = 5

// config is one run's parameters, shared by every workload.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	nproc    int
	workdir  string // scratch space inside the checkout, removed at exit
}

// opKind separates first-time operations from repeats of earlier ones.
type opKind int

const (
	cold opKind = iota // fresh input
	hit                // a repeat of an input the run has already completed
)

// sample is one timed operation.
type sample struct {
	kind   opKind
	dur    time.Duration
	failed bool
	why    string // first failure reason, for the report on stderr
}

func (s *sample) fail(format string, args ...any) {
	if !s.failed {
		s.why = fmt.Sprintf(format, args...)
	}
	s.failed = true
}

// instance is one set-up copy of a workload.
type instance interface {
	// run performs the fixed operation list and returns one sample per
	// operation, in list order.
	run() []sample
	// check verifies the outputs against properties and independent
	// paths (untimed), failing the samples whose outputs are wrong.
	check(samples []sample)
	// layers reports the workload's own per-layer metrics (traced runs).
	layers(m metrics, samples []sample)
	// close releases everything setup made.
	close()
}

// workload builds an instance: generating its inputs, opening what it
// drives, and running one untimed warm-up operation; rep numbers the
// set-up (0 to setupReps-1).
type workload struct {
	name  string
	setup func(cfg config, tr *tracer, rep int) (instance, error)
}

var workloads = []workload{
	{"vmday-ksm", setupVMDay},
	{"dram-timing", setupDRAM},
	{"cluster-sweep", setupCluster},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line a run prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	var cfg config
	var steady int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 20, "sizes the fixed operation list to about this many seconds on the reference host")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.IntVar(&steady, "steady", 0, "run the workload this many times in fresh processes and print the spread of each end-to-end metric")
	flag.Parse()
	cfg.trace = *trace == 1
	cfg.nproc = runtime.NumCPU()

	if steady > 0 {
		if err := runSteady(cfg, steady); err != nil {
			fmt.Fprintln(os.Stderr, "gdbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(cfg.workload)
	if !ok || cfg.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "gdbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	res, err := runOnce(w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gdbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gdbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runOnce sets the workload up setupReps times (timing each), runs the
// timed phase on the last instance, checks it, and assembles the result.
func runOnce(w workload, cfg config) (result, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return result{}, err
	}
	base := filepath.Join(cwd, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return result{}, fmt.Errorf("work dir: %w", err)
	}
	if cfg.workdir, err = os.MkdirTemp(base, "run-"); err != nil {
		return result{}, fmt.Errorf("work dir: %w", err)
	}
	defer os.RemoveAll(cfg.workdir)
	printHost(cfg)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var inst instance
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		inst, err = w.setup(cfg, tr, i)
		if err != nil {
			return result{}, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()
	fmt.Fprintf(os.Stderr, "set-ups (s): %.4f\n", setups)

	var prof *profiler
	var ms0 runtime.MemStats
	if cfg.trace {
		runtime.ReadMemStats(&ms0)
		if prof, err = startProfile(); err != nil {
			return result{}, err
		}
	}
	start := time.Now()
	samples := inst.run()
	wall := time.Since(start)
	rss := peakRSSMB()
	var self map[string]float64
	var ms1 runtime.MemStats
	if cfg.trace {
		if self, err = prof.stop(); err != nil {
			return result{}, err
		}
		runtime.ReadMemStats(&ms1)
	}
	inst.check(samples)

	res := result{Correct: true, Attempted: len(samples), Metrics: metrics{}}
	for _, s := range samples {
		if s.failed {
			res.Failed++
			fmt.Fprintf(os.Stderr, "gdbench: failed operation: %s\n", s.why)
		}
	}
	e2e := endToEnd(samples, wall, setups, rss)
	if !cfg.trace {
		res.Metrics = e2e
		return res, nil
	}
	fmt.Fprintf(os.Stderr, "traced end-to-end: %s\n", mustJSON(e2e))
	ops := float64(len(samples))
	m := res.Metrics
	for _, l := range layerMetrics {
		m.set(l.name, 0, l.unit)
	}
	for name, secs := range self {
		m.set(name, secs/ops, "s")
	}
	m.set("runtime.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20)/ops, "MB")
	m.set("runtime.mallocs", float64(ms1.Mallocs-ms0.Mallocs)/ops, "count")
	m.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC)/ops, "count")
	inst.layers(m, samples)
	tr.report(os.Stderr)
	return res, nil
}

// endToEnd derives the user-facing figures from the timed samples: the
// throughput over the whole timed phase, the median cold and hit
// latencies, the percentile-rule tail, set-up time, and the process's
// peak resident memory as read when the timed phase ended (before the
// checks run). A workload without hits (the library has no cache)
// reports its cold median as hit_p50_ms.
func endToEnd(samples []sample, wall time.Duration, setups []float64, rss float64) metrics {
	var colds, hits []float64
	for _, s := range samples {
		ms := float64(s.dur) / float64(time.Millisecond)
		if s.kind == cold {
			colds = append(colds, ms)
		} else {
			hits = append(hits, ms)
		}
	}
	m := metrics{}
	m.set("ops_per_s", float64(len(samples))/wall.Seconds(), "1/s")
	m.set("op_p50_ms", median(colds), "ms")
	tail, pct := tailPercentile(colds)
	fmt.Fprintf(os.Stderr, "op_tail_ms is p%.1f of %d cold operations\n", pct, len(colds))
	m.set("op_tail_ms", tail, "ms")
	if len(hits) == 0 {
		hits = colds
	}
	m.set("hit_p50_ms", median(hits), "ms")
	m.set("setup_s", median(setups), "s")
	m.set("rss_peak_mb", rss, "MB")
	return m
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// printHost records the host shape and the build's commit on a line of
// its own, ahead of the result line.
func printHost(cfg config) {
	commit, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	host := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"nproc": cfg.nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": commit, "dirty": dirty,
	}
	fmt.Println("host " + mustJSON(host))
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprint(v)
	}
	return string(b)
}

// opsFor sizes a fixed operation list: the number of operations (or
// rounds) that take about cfg.seconds on the reference host at nominal
// cost each, at least min. The list depends only on the flags, never on
// how fast this host runs it.
func opsFor(cfg config, nominal time.Duration, min int) int {
	n := int(float64(cfg.seconds)*float64(time.Second)/float64(nominal) + 0.5)
	if n < min {
		n = min
	}
	return n
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// closedLoop runs clients concurrently, one goroutine each; client c
// performs ops[c] cold operations in order, each only after the previous
// one returned. do(c, i) runs client c's i-th operation. It returns one
// sample per operation, client by client in list order.
func closedLoop(ops []int, do func(c, i int)) []sample {
	per := make([][]sample, len(ops))
	var wg sync.WaitGroup
	for c := range ops {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < ops[c]; i++ {
				start := time.Now()
				do(c, i)
				per[c] = append(per[c], sample{kind: cold, dur: time.Since(start)})
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}

// forEach runs f(0) .. f(n-1) on the given number of goroutines and
// returns when all have returned.
func forEach(workers, n int, f func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
