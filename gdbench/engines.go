package main

import (
	"sync"
	"sync/atomic"

	"greendimm/internal/exp"
	"greendimm/internal/obs"
	"greendimm/internal/sim"
)

// engineMeter watches the engines one operation creates, through the
// program's exp.Hooks: Observe collects them (to read their simulated
// clocks once the operation ends) and, when counting, Stop counts its
// own polls, which the engine makes once per sim.DefaultStopCheckEvery
// dispatched events. Engines are dropped after each operation so the
// meter never keeps a finished simulation alive.
type engineMeter struct {
	count bool // count events through Stop (traced runs)
	polls atomic.Int64

	mu      sync.Mutex
	engines []*sim.Engine

	trace *obs.Trace // the operation's "cell" spans (traced runs)
}

func (m *engineMeter) hooks() exp.Hooks {
	h := exp.Hooks{Observe: func(e *sim.Engine) {
		m.mu.Lock()
		m.engines = append(m.engines, e)
		m.mu.Unlock()
	}}
	if m.count {
		h.Stop = func() bool {
			m.polls.Add(1)
			return false
		}
		m.trace = obs.NewTrace(0)
		h.Trace = m.trace
	}
	return h
}

// simTime sums the simulated clocks of the engines the operation created
// and forgets them.
func (m *engineMeter) simTime() sim.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	var t sim.Time
	for _, e := range m.engines {
		t += e.Now()
	}
	m.engines = nil
	return t
}

// events is the dispatched-event count so far, exact to the poll stride.
func (m *engineMeter) events() int64 { return m.polls.Load() * sim.DefaultStopCheckEvery }

// cellSpans returns the durations (ms) of the program's "cell" spans
// that the latest hooks() operation recorded.
func (m *engineMeter) cellSpans() []float64 {
	if m.trace == nil {
		return nil
	}
	var out []float64
	for _, s := range m.trace.View().Spans {
		if s.Name == "cell" {
			out = append(out, float64(s.DurNs)/1e6)
		}
	}
	return out
}

// opSeed derives operation i's input seed from the run seed: a
// splitmix64 mix, so neighbouring runs share no inputs, kept positive
// and non-zero (a zero seed means "default" in the program's specs).
func opSeed(runSeed int64, i int) int64 {
	z := uint64(runSeed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>12) + 1
}

// warmupSeed is the input of every warm-up operation. It is the same
// for every run seed, so set-up time does not vary with the inputs.
const warmupSeed = 7
