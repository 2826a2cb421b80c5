package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// layerMetrics is every per-layer metric a traced run prints, in
// BENCHMARK.json order. A metric that a workload's layers do not reach
// reads 0 on that workload (cluster.shards on vmday-ksm, say).
var layerMetrics = func() []layerMetric {
	l := []layerMetric{{"sim.events", "count"}, {"sim.sim_s", "s"}, {"sim.ns_per_event", "ns"}}
	for _, p := range pkgLayers {
		l = append(l, layerMetric{p + ".cpu_s", "s"})
	}
	for _, n := range []string{"stdlib.cpu_s", "other.cpu_s", "runtime.gc_cpu_s", "runtime.other_cpu_s"} {
		l = append(l, layerMetric{n, "s"})
	}
	return append(l, []layerMetric{
		{"runtime.alloc_mb", "MB"}, {"runtime.mallocs", "count"}, {"runtime.gc_cycles", "count"},
		{"exp.cells", "count"}, {"exp.cell_ms", "ms"},
		{"server.queue_wait_ms", "ms"}, {"server.execute_ms", "ms"}, {"server.overhead_ms", "ms"},
		{"server.cache_hits", "count"},
		{"sweep.memo_hits", "count"}, {"sweep.memo_computes", "count"},
		{"store.wal_records", "count"}, {"store.memo_wal_records", "count"},
		{"store.snapshots", "count"}, {"store.dir_mb", "MB"}, {"store.open_ms", "ms"},
		{"cluster.shards", "count"}, {"cluster.attempts", "count"}, {"cluster.attempt_p50_ms", "ms"},
		{"cluster.retries", "count"}, {"cluster.warm_picks", "count"},
		{"cluster.peer_memo_entries", "count"}, {"cluster.shard_ms", "ms"}, {"cluster.merge_ms", "ms"},
	}...)
}()

// tracer records spans around the benchmark's calls into the program:
// name, start, end and the span that caused it. Spans stay in memory and
// are summarized when the run ends. A nil tracer records nothing, which
// is how untraced runs measure with tracing off.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

type span struct {
	name       string
	parent     int // index+1 of the causing span, 0 for none
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span under parent (0 for a root) and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.epoch)})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// durations returns the closed spans named name, in milliseconds.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.end > 0 {
			out = append(out, float64(s.end-s.start)/float64(time.Millisecond))
		}
	}
	return out
}

// report prints, per span name, the count, total time and self time (a
// span's duration minus the part its child spans cover).
func (t *tracer) report(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	type agg struct {
		n           int
		total, self time.Duration
	}
	byName := map[string]*agg{}
	children := make([][]span, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.parent] = append(children[s.parent], s)
	}
	for i, s := range t.spans {
		a := byName[s.name]
		if a == nil {
			a = &agg{}
			byName[s.name] = a
		}
		a.n++
		a.total += s.end - s.start
		a.self += s.end - s.start - covered(children[i+1], s.start, s.end)
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "spans: name count total_ms self_ms")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(w, "  %-28s %6d %10.1f %10.1f\n", n, a.n,
			float64(a.total)/float64(time.Millisecond), float64(a.self)/float64(time.Millisecond))
	}
}

// covered is the length of [lo, hi) that the union of the spans covers.
func covered(spans []span, lo, hi time.Duration) time.Duration {
	iv := make([][2]time.Duration, 0, len(spans))
	for _, s := range spans {
		a, b := s.start, s.end
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, x := range iv {
		if open && x[0] <= curB {
			if x[1] > curB {
				curB = x[1]
			}
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}
