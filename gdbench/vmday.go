package main

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"time"

	"greendimm/internal/exp"
	"greendimm/internal/sim"
)

// vmdayHours is the simulated length of one vmday-ksm operation: long
// enough that KSM has merged on every host the trace fills (shorter days
// leave sparse hosts with nothing merged yet; see README.md).
const vmdayHours = 2

// vmdayRepeatEvery picks the cold days the check runs again at the same
// seed to hold them to the determinism contract: every
// vmdayRepeatEvery-th day of each client, the first included.
const vmdayRepeatEvery = 8

// vmdayInst runs §6.3 VM-consolidation days through exp.RunVMScenario
// with KSM and GreenDIMM on at the paper's defaults, from a closed loop
// of nproc clients. Every operation is a day at a fresh seed drawn from
// the run seed; the library has no result cache, so there are no hits.
type vmdayInst struct {
	tr     *tracer
	nproc  int
	lists  [][]vmdayOp
	meters []engineMeter // one per client
	events atomic.Int64
}

type vmdayOp struct {
	seed    int64
	res     exp.VMDayResult
	err     error
	simTime sim.Time
	cells   []float64
}

func vmSpec(seed int64, ksm bool) exp.VMScenario {
	return exp.VMScenario{Hours: vmdayHours, KSM: ksm, GreenDIMM: true, Seed: seed}
}

func setupVMDay(cfg config, tr *tracer, _ int) (instance, error) {
	in := &vmdayInst{tr: tr, nproc: cfg.nproc, meters: make([]engineMeter, cfg.nproc)}
	n := opsFor(cfg, 1200*time.Millisecond, 2)
	for c := 0; c < cfg.nproc; c++ {
		in.meters[c].count = cfg.trace
		var list []vmdayOp
		for k := 0; k < n; k++ {
			list = append(list, vmdayOp{seed: opSeed(cfg.seed, c<<20|k)})
		}
		in.lists = append(in.lists, list)
	}
	// The warm-up is one whole day at a fixed seed.
	op := vmdayOp{seed: warmupSeed}
	in.day(&in.meters[0], &op)
	if op.err != nil {
		return nil, fmt.Errorf("warm-up day: %w", op.err)
	}
	in.meters[0].polls.Store(0)
	return in, nil
}

// day runs op's day: one traced call into the program.
func (in *vmdayInst) day(m *engineMeter, op *vmdayOp) {
	sp := in.tr.start("exp.RunVMScenario", 0)
	op.res, op.err = exp.RunVMScenario(vmSpec(op.seed, true), m.hooks())
	in.tr.end(sp)
	op.simTime = m.simTime()
	op.cells = m.cellSpans()
}

func (in *vmdayInst) run() []sample {
	var ops []int
	for _, l := range in.lists {
		ops = append(ops, len(l))
	}
	samples := closedLoop(ops,
		func(c, i int) { in.day(&in.meters[c], &in.lists[c][i]) })
	for c := range in.meters {
		in.events.Add(in.meters[c].events())
	}
	return samples
}

func (in *vmdayInst) check(samples []sample) {
	type job struct {
		op  *vmdayOp
		s   *sample
		rep bool
	}
	var jobs []job
	i := 0
	for _, list := range in.lists {
		for k := range list {
			jobs = append(jobs, job{&list[k], &samples[i], k%vmdayRepeatEvery == 0})
			i++
		}
	}
	forEach(in.nproc, len(jobs), func(j int) {
		op, s := jobs[j].op, jobs[j].s
		if op.err != nil {
			s.fail("vmday seed %d: %v", op.seed, op.err)
			return
		}
		off, err := exp.RunVMScenario(vmSpec(op.seed, false), exp.Hooks{})
		if err != nil {
			s.fail("vmday seed %d without KSM: %v", op.seed, err)
			return
		}
		var again *exp.VMDayResult
		if jobs[j].rep {
			r, err := exp.RunVMScenario(vmSpec(op.seed, true), exp.Hooks{})
			if err != nil {
				s.fail("vmday seed %d repeat: %v", op.seed, err)
				return
			}
			again = &r
		}
		if why := checkVMDay(vmSpec(op.seed, true), op.res, off, again); why != "" {
			s.fail("vmday seed %d: %s", op.seed, why)
		}
	})
}

// checkVMDay holds one KSM-on day against its KSM-off twin, the host's
// capacity and, when given, a same-seed repeat: KSM must lower average
// used memory and save bytes, in every sample off-lined capacity plus
// used memory fits the host while the deep-power-down fraction stays
// within the off-lined fraction, and the repeat equals the day in every
// field.
func checkVMDay(spec exp.VMScenario, on, off exp.VMDayResult, again *exp.VMDayResult) string {
	s := spec.Normalized()
	if len(on.Samples) == 0 {
		return "no samples"
	}
	if again != nil && !reflect.DeepEqual(on, *again) {
		return "same-seed repeat differs"
	}
	if !(on.AvgUsedFrac < off.AvgUsedFrac) {
		return fmt.Sprintf("KSM-on used %.4f not below KSM-off %.4f", on.AvgUsedFrac, off.AvgUsedFrac)
	}
	if on.KSMSavedAvg <= 0 {
		return "KSM saved no bytes"
	}
	blocks := float64(int64(s.CapacityGB)<<10) / float64(s.BlockMB)
	const eps = 1e-9
	for _, smp := range on.Samples {
		offFrac := float64(smp.OfflinedBlocks) / blocks
		if smp.UsedFrac+offFrac > 1+eps {
			return fmt.Sprintf("at %v used %.4f + off-lined %.4f exceeds capacity", smp.At, smp.UsedFrac, offFrac)
		}
		if smp.DPDFrac > offFrac+eps {
			return fmt.Sprintf("at %v DPD fraction %.4f exceeds off-lined %.4f", smp.At, smp.DPDFrac, offFrac)
		}
	}
	return ""
}

func (in *vmdayInst) layers(m metrics, samples []sample) {
	var simTime float64
	var cells []float64
	for _, list := range in.lists {
		for _, op := range list {
			simTime += op.simTime.Seconds()
			cells = append(cells, op.cells...)
		}
	}
	simLayers(m, samples, in.events.Load(), simTime, cells)
}

// simLayers reports the event-loop figures of workloads that call the
// experiment layer directly.
func simLayers(m metrics, samples []sample, events int64, simTime float64, cells []float64) {
	ops := float64(len(samples))
	var busy time.Duration
	for _, s := range samples {
		busy += s.dur
	}
	m.set("sim.events", float64(events)/ops, "count")
	m.set("sim.sim_s", simTime/ops, "s")
	if events > 0 {
		m.set("sim.ns_per_event", float64(busy)/float64(events), "ns")
	}
	m.set("exp.cells", float64(len(cells))/ops, "count")
	m.set("exp.cell_ms", median(cells), "ms")
}

func (in *vmdayInst) close() {}
