package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"steppingnet/internal/cluster"
	"steppingnet/internal/core"
	"steppingnet/internal/data"
	"steppingnet/internal/experiments"
	"steppingnet/internal/infer"
	"steppingnet/internal/models"
	"steppingnet/internal/nn"
	"steppingnet/internal/serve"
	"steppingnet/internal/serve/cache"
	"steppingnet/internal/tensor"
)

// The per-layer metrics of a traced run. Every call into a layer is
// timed from outside the program, in this file; nothing inside the
// program is instrumented.

// probeReps is how many walks each engine and layer probe times; the
// median is reported.
const probeReps = 400

// tierSnap is the tier's cumulative counters at one instant.
type tierSnap struct {
	srv    []serve.Snapshot
	router cluster.RouterStats
}

func (st *stack) snapshot() tierSnap {
	var ts tierSnap
	for _, s := range st.srvs {
		ts.srv = append(ts.srv, s.Stats())
	}
	if st.router != nil {
		ts.router = st.router.Stats()
	}
	return ts
}

// cacheMetrics reports the semantic cache's work over a window, from
// the answers and from the replicas' counters before and after it.
func cacheMetrics(w window, before, after tierSnap, out *report) {
	var hits, resumes, answered int
	for _, r := range w.recs {
		if r.err == nil {
			answered++
			if r.res.CacheHit {
				hits++
			}
			if r.res.Resumed {
				resumes++
			}
		}
	}
	var evictions, speculated, bytes int64
	for i := range after.srv {
		evictions += after.srv[i].CacheEvictions - before.srv[i].CacheEvictions
		speculated += after.srv[i].Speculated - before.srv[i].Speculated
		bytes += after.srv[i].CacheBytes
	}
	out.add("cache.hit_rate", ratio(hits, answered), "ratio")
	out.add("cache.resume_rate", ratio(resumes, answered), "ratio")
	out.add("cache.evictions_per_req", ratio(int(evictions), len(w.recs)), "ratio")
	out.add("cache.bytes_mb", float64(bytes)/(1<<20), "MB")
	out.add("cache.speculated", float64(speculated), "count")
}

// clusterMetrics reports the router's work over a window.
func clusterMetrics(w window, before, after tierSnap, out *report) {
	b, a := before.router, after.router
	sub := int(a.Submitted - b.Submitted)
	var hop []time.Duration
	for _, r := range w.recs {
		if r.err == nil {
			hop = append(hop, r.wall-r.res.Latency)
		}
	}
	var total, most int64
	for i := range a.Replicas {
		n := a.Replicas[i].Success - b.Replicas[i].Success
		total += n
		most = max(most, n)
	}
	out.add("cluster.affinity_rate", ratio(int(a.AffinityRouted-b.AffinityRouted), sub), "ratio")
	out.add("cluster.spill_rate", ratio(int(a.AffinitySpilled-b.AffinitySpilled), sub), "ratio")
	out.add("cluster.warm_transfers", float64(a.WarmTransfers-b.WarmTransfers), "count")
	out.add("cluster.retries", float64(a.Retries-b.Retries), "count")
	out.add("cluster.hop_overhead.p50_us", 1000*quantile(durationsMs(hop), 0.5), "us")
	out.add("cluster.replica_share_max", ratio(int(most), int(total)), "ratio")
}

// tierMetrics reports the cache and router metrics. A workload that
// bypasses the router gets them from a short closed-loop probe of
// repeat's tier on the same model and inputs, so every traced run
// times every layer; its cache metrics stay those of its own tier.
func tierMetrics(st *stack, w window, before, after tierSnap, m *models.Model, inputs [][]float64, seed uint64, out *report) error {
	cacheMetrics(w, before, after, out)
	if st.router != nil {
		clusterMetrics(w, before, after, out)
		return nil
	}
	sp := servingSpecs["repeat"]
	probe, err := newStack(m, sp)
	if err != nil {
		return err
	}
	defer probe.close()
	sched := schedule(seed^0x9806e, sp.rps, time.Second, sp.mix, sp.repeat)
	pw := window{sched: sched, recs: make([]sent, len(sched))}
	b := probe.snapshot()
	for i, a := range sched {
		c := sp.mix[a.class]
		t0 := time.Now()
		rp := probe.submit(serve.Request{Input: inputs[a.input], Deadline: c.deadline})
		pw.recs[i] = sent{wall: time.Since(t0), res: rp.res, err: rp.err}
	}
	clusterMetrics(pw, b, probe.snapshot(), out)
	out.note("cluster metrics: closed-loop probe of %d requests (this workload bypasses the router)", len(sched))
	return nil
}

// governorMetrics compares the top-rung walk time the server plans
// with against a measured cold single-worker walk of the same model.
func governorMetrics(srv *serve.Server, m *models.Model, out *report) error {
	lat := srv.Latency()
	_, walks, err := walkTimes(m, 1, 1, probeReps)
	if err != nil {
		return err
	}
	meas := median(walks)
	pred := float64(lat.WalkTime(lat.Subnets())) / float64(time.Microsecond)
	out.add("governor.calib_error", math.Abs(pred-meas)/meas, "ratio")
	out.add("governor.mac_rate_mmacs", lat.MACRate()/1e6, "MMAC/s")
	return nil
}

// walkTimes times reps cold walks up the whole ladder on an engine
// with the given worker count and batch, returning each step's and
// each walk's wall time in microseconds.
func walkTimes(m *models.Model, workers, batch, reps int) ([][]float64, []float64, error) {
	e := infer.NewEngine(m.Net)
	e.Workers = workers
	defer e.Close()
	x := tensor.New(batch, m.InC, m.InH, m.InW)
	x.FillNormal(tensor.NewRNG(0x9a1c), 0, 1)
	steps := make([][]float64, ladderRungs)
	var walks []float64
	for rep := -reps / 10; rep < reps; rep++ { // the first tenth warms up
		e.Reset(x)
		total := 0.0
		for s := 1; s <= ladderRungs; s++ {
			t0 := time.Now()
			if _, _, err := e.Step(s); err != nil {
				return nil, nil, err
			}
			us := float64(time.Since(t0)) / float64(time.Microsecond)
			total += us
			if rep >= 0 {
				steps[s-1] = append(steps[s-1], us)
			}
		}
		if rep >= 0 {
			walks = append(walks, total)
		}
	}
	return steps, walks, nil
}

// inferMetrics times the anytime engine on the serving ladder. The
// single-worker walk is timed by nnMetrics, next to the layer mirror
// it is checked against.
func inferMetrics(m *models.Model, out *report) error {
	steps, walks, err := walkTimes(m, 0, 1, probeReps)
	if err != nil {
		return err
	}
	for s := range steps {
		out.add(fmt.Sprintf("infer.step.r%d.us", s+1), median(steps[s]), "us")
	}
	out.add("infer.walk.us", median(walks), "us")
	if _, walks, err = walkTimes(m, 0, 4, probeReps); err != nil {
		return err
	}
	out.add("infer.walk_b4.us", median(walks), "us")
	return nil
}

// mirrorStep advances one layer the way the engine's serial walk
// does: recompute-per-subnet layers run Forward at s, incremental
// layers reuse their cached output, parameter-free layers just run.
func mirrorStep(l nn.Layer, x, cached *tensor.Tensor, sPrev, s int, pool *tensor.Pool, ctx *nn.Context) (*tensor.Tensor, int64) {
	if ml, ok := l.(nn.Masked); ok && ml.Rule() == nn.RuleShared {
		ctx.Subnet, ctx.Scratch = s, pool
		return l.Forward(x, ctx), ml.MACs(s)
	}
	if inc, ok := l.(nn.Incremental); ok {
		return inc.ForwardIncremental(x, cached, sPrev, s, pool)
	}
	ctx.Subnet, ctx.Scratch = s, pool
	return l.Forward(x, ctx), 0
}

// layerName shortens a layer name by the model prefix.
func layerName(m *models.Model, l nn.Layer) string {
	return strings.TrimPrefix(l.Name(), m.Name+".")
}

// mirrorTolerance is how far the layer self times may sum from the
// single-worker engine walk, as a share of the walk. Further off, the
// mirror no longer reflects the engine's cost.
const mirrorTolerance = 0.1

// nnMetrics walks the serving ladder layer by layer outside the
// engine, timing each layer call (its self time: a layer has no child
// calls) and recording each masked layer's MACs per rung. Each mirror
// walk follows a timed single-worker engine walk of the same input, so
// both see the machine in the same state. The mirror's output at every
// rung must be bitwise equal to Engine.Step's, and its self times must
// sum to within mirrorTolerance of the engine walk.
func nnMetrics(m *models.Model, out *report) error {
	layers := m.Net.Layers()
	x := tensor.New(1, m.InC, m.InH, m.InW)
	x.FillNormal(tensor.NewRNG(0x9a1c), 0, 1)

	ref := infer.NewEngine(m.Net)
	ref.Workers = 1
	defer ref.Close()
	ref.Reset(x)
	want := make([][]float64, ladderRungs)
	for s := 1; s <= ladderRungs; s++ {
		o, _, err := ref.Step(s)
		if err != nil {
			return err
		}
		want[s-1] = append([]float64(nil), o.Data()...)
	}

	self := make([][][]float64, len(layers)) // [layer][rung][rep] µs
	kmac := make([][]float64, len(layers))
	for i := range self {
		self[i] = make([][]float64, ladderRungs)
		kmac[i] = make([]float64, ladderRungs)
	}
	pool := tensor.NewPool()
	ctx := &nn.Context{}
	cache := make([]*tensor.Tensor, len(layers))
	var walks []float64
	for rep := -probeReps / 10; rep < probeReps; rep++ {
		ref.Reset(x)
		t0 := time.Now()
		for s := 1; s <= ladderRungs; s++ {
			if _, _, err := ref.Step(s); err != nil {
				return err
			}
		}
		if us := float64(time.Since(t0)) / float64(time.Microsecond); rep >= 0 {
			walks = append(walks, us)
		}
		for i := range cache {
			pool.Put(cache[i])
			cache[i] = nil
		}
		for s := 1; s <= ladderRungs; s++ {
			in := x
			for i, l := range layers {
				t0 := time.Now()
				o, macs := mirrorStep(l, in, cache[i], s-1, s, pool, ctx)
				us := float64(time.Since(t0)) / float64(time.Microsecond)
				pool.Put(cache[i])
				cache[i], in = o, o
				if rep >= 0 {
					self[i][s-1] = append(self[i][s-1], us)
				}
				kmac[i][s-1] = float64(macs) / 1000
			}
			if rep == 0 && !bitwiseEqual(in.Data(), want[s-1]) {
				out.failed++
				out.fail("nn mirror output at rung %d differs from Engine.Step", s)
			}
		}
	}

	sum := 0.0
	for i, l := range layers {
		name := layerName(m, l)
		_, masked := l.(nn.Masked)
		for s := 1; s <= ladderRungs; s++ {
			t := median(self[i][s-1])
			sum += t
			out.add(fmt.Sprintf("nn.%s.r%d.us", name, s), t, "us")
			if masked {
				out.add(fmt.Sprintf("nn.%s.r%d.kmac", name, s), kmac[i][s-1], "kMAC")
			}
		}
	}
	walkW1 := median(walks)
	out.add("infer.walk_w1.us", walkW1, "us")
	out.add("nn.self_sum.us", sum, "us")
	dev := (sum - walkW1) / walkW1
	out.note("nn mirror: layer self times sum to %.1fµs against a %.1fµs single-worker engine walk (%+.1f%%)", sum, walkW1, 100*dev)
	if math.Abs(dev) > mirrorTolerance {
		out.failed++
		out.fail("nn mirror: layer self times sum %+.1f%% off the single-worker engine walk, beyond ±%.0f%%", 100*dev, 100*mirrorTolerance)
	}
	return nil
}

// keyOfMetric times cache.KeyOf on ladder-sized inputs.
func keyOfMetric(inputs [][]float64, out *report) {
	const calls = 1000
	var per []float64
	for rep := 0; rep < 30; rep++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			_ = cache.KeyOf(inputs[i%len(inputs)])
		}
		per = append(per, float64(time.Since(t0))/float64(time.Microsecond)/calls)
	}
	out.add("cache.keyof.us", median(per), "us")
}

// replayPipeline re-runs core.Run's phases one by one through the
// public core functions, timing each. The replay must reproduce the
// accuracies core.Run reported exactly, or it is not timing the same
// pipeline.
func replayPipeline(opt core.PipelineOptions, res *core.Result, out *report) error {
	cfg := opt.Config.WithDefaults()
	train, test, err := data.Generate(opt.Data)
	if err != nil {
		return err
	}
	mo := models.Options{
		Classes: opt.Data.Classes, InC: opt.Data.C, InH: opt.Data.H, InW: opt.Data.W,
		Rule: nn.RuleIncremental, Seed: cfg.Seed, Expansion: 1, Subnets: 1,
	}
	t0 := time.Now()
	teacher := opt.Build(mo)
	refMACs := teacher.Net.MACs(1)
	// core.Run seeds the teacher's batch order with Seed^0x7EAC. If that
	// ever changes, the accuracy check below fails instead of timing a
	// different pipeline.
	core.TrainPlain(teacher.Net, train, cfg.TeacherEpochs, cfg.BatchSize, cfg.LR, cfg.Momentum, tensor.NewRNG(cfg.Seed^0x7EAC))
	origAcc := core.Evaluate(teacher.Net, test, 1, cfg.BatchSize)
	t1 := time.Now()
	mo.Expansion, mo.Subnets = opt.Expansion, cfg.Subnets
	student := opt.Build(mo)
	if _, err := core.Construct(student, train, cfg, refMACs); err != nil {
		return err
	}
	t2 := time.Now()
	core.Distill(student.Net, teacher.Net, train, cfg)
	t3 := time.Now()
	acc := make([]float64, cfg.Subnets)
	for s := 1; s <= cfg.Subnets; s++ {
		acc[s-1] = core.Evaluate(student.Net, test, s, cfg.BatchSize)
	}
	t4 := time.Now()

	out.add("core.teacher_s", t1.Sub(t0).Seconds(), "s")
	out.add("core.construct_s", t2.Sub(t1).Seconds(), "s")
	out.add("core.distill_s", t3.Sub(t2).Seconds(), "s")
	out.add("core.eval_s", t4.Sub(t3).Seconds(), "s")
	mismatch := origAcc != res.OrigAccuracy
	for i, s := range res.Stats {
		mismatch = mismatch || acc[i] != s.Accuracy
	}
	out.attempted++
	if mismatch {
		out.failed++
		out.fail("phase replay accuracies %v (teacher %v) differ from core.Run's", acc, origAcc)
	}
	out.note("pipeline replay: teacher %.2fs, construct %.2fs, distill %.2fs, eval %.2fs; accuracies match core.Run: %v",
		t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds(), t4.Sub(t3).Seconds(), !mismatch)
	return nil
}

// coreProbe gives the serving workloads, which bypass training, their
// core metrics: core.Run and its phase replay at experiments.Tiny()
// scale.
func coreProbe(out *report) error {
	opt := tableIRow(experiments.Tiny())
	res, err := core.Run(opt)
	if err != nil {
		return err
	}
	out.note("core metrics: Tiny-scale pipeline probe (this workload bypasses training)")
	return replayPipeline(opt, res, out)
}

// ladderProbes measures the workload-independent layers on the
// serving ladder: the engine, the layer mirror and the cache key.
func ladderProbes(seed uint64, out *report) error {
	m := servingLadder()
	inputs := makeInputs(seed, m.InC*m.InH*m.InW)
	if err := inferMetrics(m, out); err != nil {
		return err
	}
	if err := nnMetrics(m, out); err != nil {
		return err
	}
	keyOfMetric(inputs, out)
	return nil
}
