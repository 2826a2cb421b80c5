package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"greendimm/internal/cluster"
	"greendimm/internal/obs"
	"greendimm/internal/server"
	"greendimm/internal/sweep"
)

// clusterBackends is the size of the cluster: each backend runs one
// worker, and the dispatcher keeps one shard in flight per backend, so
// the load never exceeds nproc on the reference host.
const clusterBackends = 2

// clusterWarmPerCold is how many warm repeats follow each cold sweep:
// one each of the clusterWarmPerCold cold sweeps before it. With one,
// every warm repeat reads fresh memo digests (see the Warm TTL below);
// a second repeat would reuse the first one's and run a cheaper path,
// splitting warm latency into two modes whose median would jump
// between them.
const clusterWarmPerCold = 1

// clusterSpec is one sharded sweep: the energy matrix of Figs. 9-11
// (fig9) at quick scale, 15 memoized cells, one per workload, each a run
// of the detailed memory simulator and the GreenDIMM dynamics pass;
// about 1.5 CPU seconds whatever the seed. Its simulation outweighs the HTTP, JSON and
// fsync work of dispatching it, which is what keeps the workload steady.
func clusterSpec(seed int64) server.JobSpec {
	return server.JobSpec{Kind: server.KindExperiment,
		Experiment: &server.ExperimentSpec{ID: "fig9", Quick: true, Seed: seed}}
}

// clusterOp is one entry of the fixed list.
type clusterOp struct {
	kind opKind
	seed int64
	ref  int // for a warm repeat, the index of the cold op it repeats
}

type clusterOut struct {
	res      *server.Result
	err      error
	computes int64         // backend memo computes during the operation
	trace    obs.TraceView // the shard runner's spans (traced runs)
}

// clusterInst runs sharded sweeps through cluster.ShardRunner over two
// in-process greendimmd backends, each with its own store directory,
// memo and one worker: cold sweeps at fresh seeds, each followed by warm
// repeats of the cold sweeps before it, which memo-overlap placement
// routes to the backends holding their cells and whose result caches
// serve their shards.
type clusterInst struct {
	cfg      config
	tr       *tracer
	backends []*daemon
	hc       *http.Client
	ctr      *cluster.Counters
	local    *sweep.Memo
	sr       *cluster.ShardRunner
	ops      []clusterOp
	outs     []clusterOut
	before   []map[string]float64 // each backend's /metrics after the warm-up
	jobs0    []int                // each backend's job count after the warm-up
	ctr0     cluster.CounterSnapshot
	local0   [2]int64  // local memo hits, computes after the warm-up
	simS     []float64 // simulated seconds of each cold sweep's one-process run
}

func setupCluster(cfg config, tr *tracer, rep int) (instance, error) {
	in := &clusterInst{cfg: cfg, tr: tr, hc: newHTTPClient(clusterBackends), ctr: &cluster.Counters{}}
	colds := opsFor(cfg, 900*time.Millisecond, 4)
	var coldIdx []int // list index of each cold sweep
	for k := 0; k < colds; k++ {
		coldIdx = append(coldIdx, len(in.ops))
		in.ops = append(in.ops, clusterOp{kind: cold, seed: opSeed(cfg.seed, k)})
		for j := 1; j <= clusterWarmPerCold && j <= k; j++ {
			ref := coldIdx[k-j]
			in.ops = append(in.ops, clusterOp{kind: hit, seed: in.ops[ref].seed, ref: ref})
		}
	}
	var urls []string
	for b := 0; b < clusterBackends; b++ {
		dir := filepath.Join(cfg.workdir, fmt.Sprintf("backend-%d-%d", rep, b))
		d, err := openDaemon(server.Config{Workers: 1, StoreDir: dir}, tr)
		if err != nil {
			in.close()
			return nil, err
		}
		in.backends = append(in.backends, d)
		urls = append(urls, d.url)
	}
	pool := cluster.NewPool(urls, cluster.PoolConfig{Client: cluster.ClientConfig{HTTP: in.hc, Counters: in.ctr}})
	d := cluster.NewDispatcher(pool, cluster.Options{Counters: in.ctr, Concurrency: clusterBackends})
	local := server.Config{Workers: 1}
	local.Memo = local.NewMemo()
	in.local = local.Memo
	total, err := server.CellCount(clusterSpec(warmupSeed))
	if err != nil {
		in.close()
		return nil, err
	}
	in.sr, err = cluster.NewShardRunner(d, cluster.ShardOptions{
		CellsPerShard: (total + clusterBackends - 1) / clusterBackends,
		Exec:          local.BaseRunner(),
		Counters:      in.ctr,
		// A digest of each backend's memo is read once per sweep: a cold
		// sweep takes far longer than the TTL, so a warm repeat always
		// scores against a digest read after the sweep it repeats ended.
		Warm: cluster.NewWarm(pool, in.local, cluster.WarmOptions{Counters: in.ctr, TTL: 100 * time.Millisecond}),
	})
	if err != nil {
		in.close()
		return nil, err
	}
	if out := in.do(clusterOp{kind: cold, seed: warmupSeed}); out.err != nil {
		in.close()
		return nil, fmt.Errorf("warm-up sweep: %w", out.err)
	}
	for _, b := range in.backends {
		m, err := scrape(in.hc, b.url, tr)
		if err != nil {
			in.close()
			return nil, err
		}
		in.before = append(in.before, m)
		in.jobs0 = append(in.jobs0, len(listJobs(in.hc, b.url)))
	}
	in.ctr0 = in.ctr.Snapshot()
	in.local0 = [2]int64{in.local.Hits(), in.local.Computes()}
	return in, nil
}

func (in *clusterInst) backendComputes() int64 {
	var n int64
	for _, b := range in.backends {
		n += b.srv.Memo().Computes()
	}
	return n
}

// do runs one sharded sweep.
func (in *clusterInst) do(op clusterOp) clusterOut {
	var h server.RunHooks
	if in.tr != nil {
		h.Trace = obs.NewTrace(0)
	}
	c0 := in.backendComputes()
	sp := in.tr.start("cluster.ShardRunner.Run", 0)
	res, err := in.sr.Run(clusterSpec(op.seed), h)
	in.tr.end(sp)
	return clusterOut{res: res, err: err, computes: in.backendComputes() - c0, trace: h.Trace.View()}
}

func (in *clusterInst) run() []sample {
	var out []sample
	for _, op := range in.ops {
		start := time.Now()
		o := in.do(op)
		out = append(out, sample{kind: op.kind, dur: time.Since(start)})
		in.outs = append(in.outs, o)
	}
	return out
}

func (in *clusterInst) check(samples []sample) {
	// Every distinct spec is also run whole in one process; nproc
	// checkers share the work.
	want := make([]string, len(in.ops))
	in.simS = make([]float64, len(in.ops))
	var colds []int
	for i, op := range in.ops {
		if op.kind == cold {
			colds = append(colds, i)
		}
	}
	forEach(in.cfg.nproc, len(colds), func(j int) {
		i := colds[j]
		r, err := server.Execute(clusterSpec(in.ops[i].seed), server.RunHooks{})
		if err != nil {
			want[i] = "error: " + err.Error()
			return
		}
		want[i] = fingerprint(r, true)
		in.simS[i] = r.SimSeconds
	})

	var storeErrs float64
	for _, b := range in.backends {
		m, err := scrape(in.hc, b.url, nil)
		if err != nil {
			storeErrs++
			continue
		}
		storeErrs += m["greendimm_store_errors_total"]
	}
	checkClusterOps(in.ops, in.outs, want, in.ctr.Snapshot().Divergences, storeErrs, samples)
}

// checkClusterOps holds every sweep to the cluster's contract: no error
// and no divergence, every result (cold or warm) equal to the one-process
// run of its spec (want, by cold op index), no memo computes on the
// backends during a warm repeat, and no store errors on any backend
// (storeErrs, which fails every cold sweep, since those journal).
func checkClusterOps(ops []clusterOp, outs []clusterOut, want []string, divergences int64, storeErrs float64, samples []sample) {
	for i, op := range ops {
		s, out := &samples[i], outs[i]
		ref := i
		if op.kind == hit {
			ref = op.ref
		}
		switch {
		case out.err != nil:
			s.fail("sweep seed %d: %v", op.seed, out.err)
		case divergences != 0:
			s.fail("sweep seed %d: dispatcher saw %d divergences", op.seed, divergences)
		case fingerprint(out.res, true) != want[ref]:
			s.fail("sweep seed %d: sharded result differs from the one-process run", op.seed)
		case op.kind == hit && out.computes != 0:
			s.fail("sweep seed %d: warm repeat computed %d memo cells on the backends", op.seed, out.computes)
		case op.kind == cold && storeErrs != 0:
			s.fail("sweep seed %d: backends report %v store errors", op.seed, storeErrs)
		}
	}
}

func (in *clusterInst) layers(m metrics, samples []sample) {
	ops := float64(len(samples))
	var colds float64
	var attempts, hitAttempts, shards, merges, cells []float64
	var simS float64
	for _, x := range in.simS {
		simS += x
	}
	for i, out := range in.outs {
		a := spanMS(out.trace, "attempt")
		if in.ops[i].kind == cold {
			colds++
		} else {
			hitAttempts = append(hitAttempts, a...)
		}
		attempts = append(attempts, a...)
		shards = append(shards, spanMS(out.trace, "shard")...)
		merges = append(merges, spanMS(out.trace, "merge")...)
	}
	ctr := in.ctr.Snapshot()
	m.set("cluster.shards", float64(ctr.Shards-in.ctr0.Shards)/ops, "count")
	m.set("cluster.attempts", float64(len(attempts))/ops, "count")
	m.set("cluster.attempt_p50_ms", median(attempts), "ms")
	m.set("cluster.retries", float64(ctr.Retries-in.ctr0.Retries)/ops, "count")
	m.set("cluster.warm_picks", float64(ctr.WarmPicks-in.ctr0.WarmPicks)/ops, "count")
	m.set("cluster.peer_memo_entries", float64(ctr.PeerMemoEntries-in.ctr0.PeerMemoEntries)/ops, "count")
	m.set("cluster.shard_ms", median(shards), "ms")
	m.set("cluster.merge_ms", median(merges), "ms")

	// The backends' executed shard jobs, each with its own trace.
	var queue, exec []float64
	sums := map[string]float64{}
	var dir float64
	for b, d := range in.backends {
		after, err := scrape(in.hc, d.url, in.tr)
		if err != nil {
			continue
		}
		for _, name := range []string{"greendimm_cache_hits_total", "greendimm_memo_hits_total",
			"greendimm_memo_computes_total", "greendimm_store_wal_records_total",
			"greendimm_memo_store_wal_records_total", "greendimm_store_snapshots_total",
			"greendimm_memo_store_snapshots_total"} {
			sums[name] += after[name] - in.before[b][name]
		}
		dir += dirMB(d.dir)
		jobs := listJobs(in.hc, d.url)
		if len(jobs) < in.jobs0[b] {
			continue
		}
		for _, j := range jobs[in.jobs0[b]:] {
			if j.Cached || j.StartedAt == nil {
				continue
			}
			tv, err := jobTrace(in.hc, d.url, j.ID, in.tr, 0)
			if err != nil {
				continue
			}
			queue = append(queue, sum(spanMS(tv, "queue_wait")))
			exec = append(exec, sum(spanMS(tv, "execute")))
			cells = append(cells, spanMS(tv, "cell")...)
		}
	}
	m.set("sim.sim_s", simS/ops, "s")
	m.set("exp.cells", float64(len(cells))/ops, "count")
	m.set("exp.cell_ms", median(cells), "ms")
	m.set("server.queue_wait_ms", median(queue), "ms")
	m.set("server.execute_ms", median(exec), "ms")
	// A warm repeat's shard attempt is answered from the backend's result
	// cache: its whole duration is HTTP, JSON and lookup.
	m.set("server.overhead_ms", median(hitAttempts), "ms")
	m.set("server.cache_hits", sums["greendimm_cache_hits_total"]/ops, "count")
	m.set("sweep.memo_hits", (sums["greendimm_memo_hits_total"]+float64(in.local.Hits()-in.local0[0]))/ops, "count")
	m.set("sweep.memo_computes", (sums["greendimm_memo_computes_total"]+float64(in.local.Computes()-in.local0[1]))/ops, "count")
	m.set("store.wal_records", sums["greendimm_store_wal_records_total"]/colds, "count")
	m.set("store.memo_wal_records", sums["greendimm_memo_store_wal_records_total"]/colds, "count")
	m.set("store.snapshots", (sums["greendimm_store_snapshots_total"]+sums["greendimm_memo_store_snapshots_total"])/ops, "count")
	m.set("store.dir_mb", dir, "MB")
	m.set("store.open_ms", median(in.tr.durations("server.Open")), "ms")
}

// listJobs returns a backend's retained jobs in submission order.
func listJobs(hc *http.Client, url string) []server.JobView {
	resp, err := hc.Get(url + "/v1/jobs?limit=100000")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var page struct {
		Jobs []server.JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return nil
	}
	return page.Jobs
}

func (in *clusterInst) close() {
	for _, d := range in.backends {
		d.close()
	}
	in.hc.CloseIdleConnections()
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
