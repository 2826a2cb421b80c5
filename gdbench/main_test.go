package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"greendimm/internal/exp"
	"greendimm/internal/server"
	"greendimm/internal/sim"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the rule must sort
	}
	return xs
}

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n     int
		value float64
		pct   float64
	}{
		{n: 1, value: 1, pct: 50},
		{n: 10, value: 5.5, pct: 50},
		{n: 39, value: 20, pct: 50},
		{n: 40, value: 30, pct: 75},  // ten samples (31..40) beyond it
		{n: 100, value: 90, pct: 90}, // ten samples (91..100) beyond it
		{n: 600, value: 590, pct: 100 * 590.0 / 600},
	} {
		v, p := tailPercentile(seq(tc.n))
		if v != tc.value || p != tc.pct {
			t.Errorf("n=%d: tail = %v at p%v, want %v at p%v", tc.n, v, p, tc.value, tc.pct)
		}
		if tc.n >= 40 {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond != 10 {
				t.Errorf("n=%d: %d samples beyond the tail, want 10", tc.n, beyond)
			}
		}
	}
	if v, _ := tailPercentile(nil); v != 0 {
		t.Errorf("empty tail = %v, want 0", v)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3, ok := quartiles(seq(10))
	if !ok || q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3, _ = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Fatalf("quartiles(1,2,3) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Fatal("quartiles of one value reported ok")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"greendimm/internal/ksm.(*tree).Find":       "ksm.cpu_s",
		"greendimm/internal/sim.(*Engine).RunUntil": "sim.cpu_s",
		"greendimm/internal/sweep.Run[...]":         "sweep.cpu_s",
		"greendimm/internal/ramzzz.Run":             "other.cpu_s",
		"main.(*vmdayInst).day":                     "other.cpu_s",
		"container/heap.up":                         "stdlib.cpu_s",
		"encoding/json.(*decodeState).object":       "stdlib.cpu_s",
		"syscall.Syscall6":                          "stdlib.cpu_s",
		"runtime.mallocgc":                          "runtime.other_cpu_s",
		"internal/runtime/maps.ctrlGroup.matchH2":   "runtime.other_cpu_s",
		"runtime/internal/atomic.(*Uint32).Load":    "runtime.other_cpu_s",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf writer for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, b []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestProfileAttribution(t *testing.T) {
	// Functions: 1 ksm Find, 2 heap.up, 3 mallocgc, 4 gcBgMarkWorker,
	// 5 a ksm caller inlined into location 3's frame.
	names := []string{"", "greendimm/internal/ksm.(*tree).Find", "container/heap.up",
		"runtime.mallocgc", "runtime.gcBgMarkWorker", "greendimm/internal/ksm.(*Daemon).visit"}
	prof := &pb{}
	for id := uint64(1); id <= 5; id++ {
		prof.bytes(5, (&pb{}).varint(1, id).varint(2, id).b)
	}
	for id, fns := range map[uint64][]uint64{1: {1}, 2: {2}, 3: {3, 5}, 4: {4}} {
		loc := (&pb{}).varint(1, id)
		for _, f := range fns {
			loc.bytes(4, (&pb{}).varint(1, f).b)
		}
		prof.bytes(4, loc.b)
	}
	ns := uint64(10 * time.Millisecond)
	// Leaf ksm; leaf heap under ksm; leaf malloc (inlined under ksm);
	// malloc under the GC worker; one sample with unpacked fields.
	for _, s := range [][]uint64{{1}, {2, 1}, {3}, {3, 4}} {
		prof.bytes(2, (&pb{}).bytes(1, packed(s...)).bytes(2, packed(1, ns)).b)
	}
	prof.bytes(2, (&pb{}).varint(1, 1).varint(2, 1).varint(2, ns).b)
	for _, n := range names {
		prof.bytes(6, []byte(n))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	zw.Close()

	p, err := decodeProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got := p.selfByLayer()
	want := map[string]float64{"ksm.cpu_s": 0.02, "stdlib.cpu_s": 0.01,
		"runtime.other_cpu_s": 0.01, "runtime.gc_cpu_s": 0.01}
	if len(got) != len(want) {
		t.Fatalf("attribution = %v, want %v", got, want)
	}
	for k, v := range want {
		if d := got[k] - v; d > 1e-12 || d < -1e-12 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Error("decodeProfile accepted garbage")
	}
	if err := eachField([]byte{0x0a, 0x05, 0x01}, func(int, int, uint64, []byte) error { return nil }); err == nil {
		t.Error("eachField accepted a truncated field")
	}
}

// fakeInst fails every third operation in check.
type fakeInst struct{ closed *int }

func (f fakeInst) run() []sample {
	var out []sample
	for i := 0; i < 9; i++ {
		k := cold
		if i%2 == 1 {
			k = hit
		}
		out = append(out, sample{kind: k, dur: time.Duration(i+1) * time.Millisecond})
	}
	return out
}

func (f fakeInst) check(s []sample) {
	for i := range s {
		if i%3 == 0 {
			s[i].fail("corrupt %d", i)
		}
	}
}

func (f fakeInst) layers(metrics, []sample) {}
func (f fakeInst) close()                   { *f.closed++ }

func TestFailureAccounting(t *testing.T) {
	wd, _ := os.Getwd()
	defer os.Chdir(wd)
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	closed, setups := 0, 0
	w := workload{name: "fake", setup: func(config, *tracer, int) (instance, error) {
		setups++
		return fakeInst{&closed}, nil
	}}
	res, err := runOnce(w, config{workload: "fake", seed: 1, seconds: 1, nproc: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 9 || res.Failed != 3 {
		t.Fatalf("result = %+v, want correct with 3 of 9 failed", res)
	}
	if setups != setupReps || closed != setupReps {
		t.Fatalf("%d set-ups and %d closes, want %d of each", setups, closed, setupReps)
	}
	for _, name := range []string{"ops_per_s", "op_p50_ms", "op_tail_ms", "hit_p50_ms", "setup_s", "rss_peak_mb"} {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("end-to-end metric %s missing", name)
		}
	}
	// Cold durations are 1,3,5,7,9 ms and hits 2,4,6,8 ms.
	if got := res.Metrics["op_p50_ms"].Value; got != 5 {
		t.Errorf("op_p50_ms = %v, want 5", got)
	}
	if got := res.Metrics["hit_p50_ms"].Value; got != 5 {
		t.Errorf("hit_p50_ms = %v, want 5", got)
	}

	failing := workload{name: "broken", setup: func(config, *tracer, int) (instance, error) {
		return nil, errors.New("no")
	}}
	if _, err := runOnce(failing, config{seconds: 1, nproc: 1}); err == nil || !strings.Contains(err.Error(), "no") {
		t.Fatalf("failed set-up returned %v", err)
	}
}

func validDay() (exp.VMScenario, exp.VMDayResult, exp.VMDayResult) {
	spec := vmSpec(1, true)
	on := exp.VMDayResult{AvgUsedFrac: 0.2, KSMSavedAvg: 1 << 30, Samples: []exp.VMDaySample{
		{UsedFrac: 0.2, OfflinedBlocks: 100, DPDFrac: 0.3},
	}}
	off := exp.VMDayResult{AvgUsedFrac: 0.25}
	return spec, on, off
}

func TestCheckVMDayRejectsCorruption(t *testing.T) {
	spec, on, off := validDay()
	if why := checkVMDay(spec, on, off, nil); why != "" {
		t.Fatalf("valid day rejected: %s", why)
	}
	if why := checkVMDay(spec, on, off, &on); why != "" {
		t.Fatalf("valid day with an equal repeat rejected: %s", why)
	}
	for name, corrupt := range map[string]func(on, off *exp.VMDayResult){
		"KSM not below": func(on, off *exp.VMDayResult) { on.AvgUsedFrac = off.AvgUsedFrac },
		"nothing saved": func(on, off *exp.VMDayResult) { on.KSMSavedAvg = 0 },
		"over capacity": func(on, off *exp.VMDayResult) { on.Samples[0].OfflinedBlocks = 220 },
		"DPD above off": func(on, off *exp.VMDayResult) { on.Samples[0].DPDFrac = 0.5 },
		"no samples":    func(on, off *exp.VMDayResult) { on.Samples = nil },
	} {
		_, on, off := validDay()
		corrupt(&on, &off)
		if checkVMDay(spec, on, off, nil) == "" {
			t.Errorf("%s: corrupted day accepted", name)
		}
	}
	// A same-seed repeat that differs fails the day.
	_, again, _ := validDay()
	again.Samples[0].DPDFrac = 0.25
	if checkVMDay(spec, on, off, &again) == "" {
		t.Error("differing repeat accepted")
	}
}

func validTail() exp.TailResult {
	var r exp.TailResult
	for _, app := range []string{"a", "b", "c"} {
		r.Rows = append(r.Rows, exp.TailRow{App: app, BaseP95us: 20, BaseP99us: 30, GDP95us: 21, GDP99us: 31})
	}
	return r
}

func TestCheckTailRejectsCorruption(t *testing.T) {
	if why := checkTail(validTail(), tailSimTime); why != "" {
		t.Fatalf("valid experiment rejected: %s", why)
	}
	if checkTail(validTail(), tailSimTime-sim.Nanosecond) == "" {
		t.Error("short simulated time accepted")
	}
	for name, corrupt := range map[string]func(r *exp.TailResult){
		"p95 above p99":  func(r *exp.TailResult) { r.Rows[1].GDP95us = 40 },
		"p95 below 12µs": func(r *exp.TailResult) { r.Rows[0].BaseP95us = 11 },
		"steady events":  func(r *exp.TailResult) { r.Rows[2].DaemonEvents = 1 },
		"missing row":    func(r *exp.TailResult) { r.Rows = r.Rows[:2] },
	} {
		r := validTail()
		corrupt(&r)
		if checkTail(r, tailSimTime) == "" {
			t.Errorf("%s: corrupted experiment accepted", name)
		}
	}
	// A same-seed repeat that differs fails the first experiment.
	bad := validTail()
	bad.Rows[0].GDP99us = 32
	for _, tc := range []struct {
		again exp.TailResult
		fail  bool
	}{{validTail(), false}, {bad, true}} {
		in := &dramInst{
			lists: [][]dramOp{{{res: validTail(), simT: tailSimTime}, {res: validTail(), simT: tailSimTime}}},
			rerun: func(int64) (exp.TailResult, error) { return tc.again, nil },
		}
		s := make([]sample, 2)
		in.check(s)
		if s[0].failed != tc.fail || s[1].failed {
			t.Errorf("repeat check: failed = %v, %v; want %v, false", s[0].failed, s[1].failed, tc.fail)
		}
	}
}

func TestCheckClusterRejectsCorruption(t *testing.T) {
	good := &server.Result{Text: "merged", SimSeconds: 0}
	want := []string{fingerprint(&server.Result{Text: "merged", SimSeconds: 9}, true), ""}
	ops := []clusterOp{{kind: cold, seed: 1}, {kind: hit, seed: 1, ref: 0}}
	storeErrs := 0.0
	check := func(outs []clusterOut, divergences int64) []bool {
		s := make([]sample, len(ops))
		checkClusterOps(ops, outs, want, divergences, storeErrs, s)
		return []bool{s[0].failed, s[1].failed}
	}
	if got := check([]clusterOut{{res: good}, {res: good}}, 0); got[0] || got[1] {
		t.Fatalf("valid sweeps rejected: %v", got)
	}
	if got := check([]clusterOut{{res: &server.Result{Text: "x"}}, {res: good}}, 0); !got[0] || got[1] {
		t.Errorf("differing cold result: %v", got)
	}
	if got := check([]clusterOut{{res: good}, {res: good, computes: 2}}, 0); got[0] || !got[1] {
		t.Errorf("warm repeat that computed: %v", got)
	}
	if got := check([]clusterOut{{res: good}, {res: good}}, 1); !got[0] || !got[1] {
		t.Errorf("divergence: %v", got)
	}
	if got := check([]clusterOut{{err: errors.New("down")}, {res: &server.Result{Text: "y"}}}, 0); !got[0] || !got[1] {
		t.Errorf("error and differing repeat: %v", got)
	}
	storeErrs = 1
	if got := check([]clusterOut{{res: good}, {res: good}}, 0); !got[0] || got[1] {
		t.Errorf("store errors: %v", got)
	}
}

// TestMetricsMatchBenchmarkJSON pins the printed metric names to the
// ones BENCHMARK.json declares, with their units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var bf struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	e2e := endToEnd([]sample{{kind: cold, dur: time.Millisecond}, {kind: hit, dur: time.Millisecond}}, time.Second, []float64{1}, 1)
	if len(e2e) != len(bf.EndToEnd) {
		t.Errorf("%d end-to-end metrics printed, %d declared", len(e2e), len(bf.EndToEnd))
	}
	for _, m := range bf.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): printed %+v", m.Name, m.Unit, got)
		}
	}
	if len(layerMetrics) != len(bf.PerLayer) {
		t.Fatalf("%d per-layer metrics printed, %d declared", len(layerMetrics), len(bf.PerLayer))
	}
	for i, m := range bf.PerLayer {
		if layerMetrics[i].name != m.Name || layerMetrics[i].unit != m.Unit {
			t.Errorf("per-layer %d: printed %v, declared %s (%s)", i, layerMetrics[i], m.Name, m.Unit)
		}
	}
}
