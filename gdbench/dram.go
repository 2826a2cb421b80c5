package main

import (
	"fmt"
	"reflect"
	"time"

	"greendimm/internal/exp"
	"greendimm/internal/sim"
)

// dramWarmupEvents cuts the warm-up tail experiment short through
// exp.Hooks.Stop: enough dispatches to fault in the memory controller's
// and engine's working set, a small share of one operation's cost.
const dramWarmupEvents = 8 << 20

// tailSimTime is what one tail-latency experiment must advance: three
// services, each with and without the daemon, two seconds per cell.
const tailSimTime = 6 * 2 * sim.Second

// dramInst runs whole §6.2 tail-latency experiments through
// exp.RunTailLatency at parallelism 1 — the detailed memory-controller
// path — from a closed loop of nproc clients, each running experiments
// at fresh seeds. The library has no result cache, so there are no hits.
type dramInst struct {
	tr     *tracer
	rerun  func(seed int64) (exp.TailResult, error) // the check's repeat
	lists  [][]dramOp
	meters []engineMeter // one per client
	events int64
}

type dramOp struct {
	seed  int64
	res   exp.TailResult
	err   error
	simT  sim.Time
	cells []float64
}

func tailOptions(seed int64, h exp.Hooks) exp.Options {
	return exp.Options{Quick: true, Seed: seed, Parallelism: 1, Hooks: h}
}

func setupDRAM(cfg config, tr *tracer, _ int) (instance, error) {
	in := &dramInst{tr: tr, meters: make([]engineMeter, cfg.nproc), rerun: func(seed int64) (exp.TailResult, error) {
		return exp.RunTailLatency(tailOptions(seed, exp.Hooks{}))
	}}
	// At least three experiments per client: with fewer, whether the
	// clients' heap peaks coincide decides rss_peak_mb, which then
	// splits between two values a quarter apart from run to run.
	n := opsFor(cfg, 6500*time.Millisecond, 3)
	for c := 0; c < cfg.nproc; c++ {
		in.meters[c].count = cfg.trace
		var list []dramOp
		for k := 0; k < n; k++ {
			list = append(list, dramOp{seed: opSeed(cfg.seed, c<<20|k)})
		}
		in.lists = append(in.lists, list)
	}
	var polls int
	stop := func() bool {
		polls++
		return polls*sim.DefaultStopCheckEvery >= dramWarmupEvents
	}
	sp := tr.start("exp.RunTailLatency", 0)
	_, err := exp.RunTailLatency(tailOptions(warmupSeed, exp.Hooks{Stop: stop}))
	tr.end(sp)
	if err == nil {
		return nil, fmt.Errorf("warm-up experiment ran to its end despite its stop hook")
	}
	return in, nil
}

func (in *dramInst) run() []sample {
	var ops []int
	for _, l := range in.lists {
		ops = append(ops, len(l))
	}
	samples := closedLoop(ops,
		func(c, i int) {
			op, m := &in.lists[c][i], &in.meters[c]
			sp := in.tr.start("exp.RunTailLatency", 0)
			op.res, op.err = exp.RunTailLatency(tailOptions(op.seed, m.hooks()))
			in.tr.end(sp)
			op.simT = m.simTime()
			op.cells = m.cellSpans()
		})
	for c := range in.meters {
		in.events += in.meters[c].events()
	}
	return samples
}

func (in *dramInst) check(samples []sample) {
	i := 0
	for _, list := range in.lists {
		for _, op := range list {
			s := &samples[i]
			i++
			if op.err != nil {
				s.fail("tail seed %d: %v", op.seed, op.err)
			} else if why := checkTail(op.res, op.simT); why != "" {
				s.fail("tail seed %d: %s", op.seed, why)
			}
		}
	}
	// The determinism contract: the first experiment again, at its seed.
	first := in.lists[0][0]
	again, err := in.rerun(first.seed)
	if err == nil && !reflect.DeepEqual(again, first.res) {
		err = fmt.Errorf("same-seed repeat differs")
	}
	if err != nil && !samples[0].failed {
		samples[0].fail("tail seed %d repeat: %v", first.seed, err)
	}
}

// checkTail holds one experiment to what §6.2 and its set-up fix: the
// whole matrix advanced exactly 6 x 2 simulated seconds, every service's
// percentiles are ordered and no lower than its 12 µs of compute per
// request, and the daemon did nothing in steady state (constant
// footprints leave it nothing to off-line or on-line).
func checkTail(r exp.TailResult, simT sim.Time) string {
	if simT != tailSimTime {
		return fmt.Sprintf("advanced %v simulated, want %v", simT, tailSimTime)
	}
	if len(r.Rows) != 3 {
		return fmt.Sprintf("%d service rows, want 3", len(r.Rows))
	}
	for _, row := range r.Rows {
		for _, p := range [][2]float64{{row.BaseP95us, row.BaseP99us}, {row.GDP95us, row.GDP99us}} {
			if !(12 <= p[0] && p[0] <= p[1]) {
				return fmt.Sprintf("%s: p95 %.2f / p99 %.2f µs not ordered above 12 µs", row.App, p[0], p[1])
			}
		}
		if row.DaemonEvents != 0 {
			return fmt.Sprintf("%s: %d steady-state on/off-linings", row.App, row.DaemonEvents)
		}
	}
	return ""
}

func (in *dramInst) layers(m metrics, samples []sample) {
	var simTime float64
	var cells []float64
	for _, list := range in.lists {
		for _, op := range list {
			simTime += op.simT.Seconds()
			cells = append(cells, op.cells...)
		}
	}
	simLayers(m, samples, in.events, simTime, cells)
}

func (in *dramInst) close() {}
