// Package infer provides the anytime-inference engine that realizes
// the paper's deployment story: run a small subnet for a fast
// preliminary decision, then — whenever resources become available —
// "enhance the inference accuracy by executing further MAC
// operations" without recomputing what smaller subnets already
// produced (§I, §II). Conversely, when resources shrink, switching
// down to a smaller subnet costs (almost) nothing because the small
// subnet's activations are a subset of the cached ones.
package infer

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"steppingnet/internal/nn"
	"steppingnet/internal/tensor"
)

// Engine executes one input batch through a masked network
// incrementally, caching per-layer activations between subnet
// switches. Activations and temporaries are drawn from internal
// buffer pools and every piece of per-step bookkeeping (shard slices,
// view headers, eval contexts) is hoisted into Engine-owned buffers
// sized once per (batch, workers) pair, so steady-state stepping
// allocates nothing at all — serial or sharded (enforced by
// TestStepSteadyStateAllocs).
//
// A single-image batch always walks serially on the calling
// goroutine: a batch-1 rung transition costs tens of microseconds per
// layer, less than a cross-core barrier would. Batches of two or more
// images may shard by IMAGE over a persistent worker set: each worker
// walks its contiguous row range through the whole layer stack —
// every layer treats the batch dimension independently, so this
// preserves the incremental-reuse semantics exactly and the output is
// BITWISE identical to the serial walk
// (TestBatchParallelMatchesSerial).
type Engine struct {
	net   *nn.Network
	input *tensor.Tensor
	cache []*tensor.Tensor // output of each layer at the current subnet
	cur   int              // current subnet (0 = nothing computed yet)

	// Audit, when true, cross-checks every Step against a
	// from-scratch forward pass and panics on divergence — the
	// runtime enforcement of the incremental property. Intended for
	// tests and demos, not hot paths.
	Audit bool

	// Workers caps the image fan-out of batches of two or more; 0
	// means GOMAXPROCS. Set 1 to force the serial path. A batch of
	// one always walks serially.
	Workers int

	// StepTimer, when non-nil, observes every successful Step with
	// the subnet stepped to, the batch rows walked, and the step's
	// wall-clock duration. It is the live-timing hook a calibration
	// refresh loop (internal/serve) feeds on: unlike the one-shot
	// CalibrateSteps, it sees real steps under real contention, so
	// thermal or load drift shows up in the observations. The callback
	// runs synchronously on the stepping goroutine and must be cheap
	// and allocation-free to preserve the walk's zero-alloc property;
	// when nil (the default) Step takes no timestamps at all.
	StepTimer func(subnet, rows int, d time.Duration)

	pool   *tensor.Pool   // owner-goroutine scratch; backs the cache tensors
	wpools []*tensor.Pool // per-worker scratch for the sharded path

	// Reusable per-step state for the sharded path, indexed by worker.
	// Grown on demand by ensureShardState, never shrunk; the shard
	// workers themselves are persistent goroutines fed over jobs (a
	// `go` statement per Step would allocate its closure).
	shardOuts  [][]*tensor.Tensor // per-layer shard outputs
	shardMACs  [][]int64          // per-layer shard MAC counts
	inViews    []*tensor.Tensor   // reusable view headers onto input
	cacheViews [][]*tensor.Tensor // reusable view headers onto cache
	ctxs       []*nn.Context      // reusable eval contexts
	sctx       nn.Context         // serial-path eval context
	shapeBuf   []int              // scratch for assembling output shapes

	jobs     chan shardJob
	wg       sync.WaitGroup // per-step fan-in barrier
	workerWG sync.WaitGroup // tracks worker goroutine lifetimes for Close
	started  int            // persistent shard workers spawned so far

	totalMACs int64
}

// shardJob tells a shard worker to walk batch rows [b0,b1) through
// the whole stack to subnet s. Jobs travel by value, so dispatch is
// allocation-free.
type shardJob struct {
	wi, b0, b1 int
	sPrev, s   int
}

// NewEngine wraps a network. The network's layers must implement
// nn.Incremental or be masked RuleShared layers (which are recomputed
// per step) or parameter-free layers.
func NewEngine(net *nn.Network) *Engine {
	return &Engine{
		net:   net,
		cache: make([]*tensor.Tensor, len(net.Layers())),
		pool:  tensor.NewPool(),
	}
}

// Reset installs a new input batch and clears all cached activations
// (recycling their buffers for the next walk).
func (e *Engine) Reset(x *tensor.Tensor) {
	e.input = x
	for i := range e.cache {
		e.pool.Put(e.cache[i])
		e.cache[i] = nil
	}
	e.cur = 0
	e.totalMACs = 0
}

// Current returns the subnet the cache currently represents (0
// before the first Step).
func (e *Engine) Current() int { return e.cur }

// Network returns the network the engine walks, for callers that
// hold only the engine and need model-level facts (layer geometry,
// MAC ladders) about what it serves.
func (e *Engine) Network() *nn.Network { return e.net }

// TotalMACs returns the MACs executed since the last Reset.
func (e *Engine) TotalMACs() int64 { return e.totalMACs }

// Step moves the engine to subnet s and returns the network output
// for subnet s plus the MACs this transition actually executed (per
// image, as everywhere in this reproduction). Stepping up computes
// only newly activated units; stepping down executes zero backbone
// MACs (the head, being recomputed per subnet, is charged on every
// step). The returned tensor is owned by the engine and valid until
// the next Step or Reset.
func (e *Engine) Step(s int) (*tensor.Tensor, int64, error) {
	if e.input == nil {
		return nil, 0, fmt.Errorf("infer: Step before Reset")
	}
	if s < 1 {
		return nil, 0, fmt.Errorf("infer: subnet %d out of range", s)
	}
	sPrev := e.cur
	if s < sPrev {
		sPrev = s // stepping down: reuse only units active in s
	}

	var start time.Time
	if e.StepTimer != nil {
		start = time.Now()
	}
	var stepMACs int64
	batch := e.input.Dim(0)
	if w := e.workers(batch); w > 1 {
		stepMACs = e.stepParallel(s, sPrev, w)
	} else {
		stepMACs = e.stepSerial(s, sPrev)
	}
	if e.StepTimer != nil {
		e.StepTimer(s, batch, time.Since(start))
	}
	e.cur = s
	e.totalMACs += stepMACs
	out := e.cache[len(e.cache)-1]

	if e.Audit {
		ctx := &nn.Context{Subnet: s, Scratch: e.pool}
		want := e.net.Forward(e.input, ctx)
		ok := tensor.Equal(out, want, 1e-9)
		e.pool.Put(want)
		if !ok {
			panic(fmt.Sprintf("infer: incremental output diverged from full forward at subnet %d", s))
		}
	}
	return out, stepMACs, nil
}

// workers decides the fan-out for this batch: image sharding is
// capped at one worker per image, so a batch of one walks serially.
func (e *Engine) workers(batch int) int {
	w := e.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > batch {
		w = batch
	}
	return w
}

// stepLayer advances one layer of one (sub-)batch, mirroring the
// paper's per-layer dispatch: RuleShared layers recompute from
// scratch, Incremental layers reuse the cache, parameter-free layers
// just run. ctx is a caller-owned reusable context (allocating one
// per layer step would defeat the walk's zero-alloc property); only
// its Subnet and Scratch fields are meaningful here.
func stepLayer(l nn.Layer, x, cached *tensor.Tensor, sPrev, s int, pool *tensor.Pool, ctx *nn.Context) (*tensor.Tensor, int64) {
	if m, ok := l.(nn.Masked); ok && m.Rule() == nn.RuleShared {
		// Recompute-per-subnet layer (classifier head or slimmable
		// backbone): no reuse is possible.
		ctx.Subnet, ctx.Scratch = s, pool
		return l.Forward(x, ctx), m.MACs(s)
	}
	if inc, ok := l.(nn.Incremental); ok {
		return inc.ForwardIncremental(x, cached, sPrev, s, pool)
	}
	ctx.Subnet, ctx.Scratch = s, pool
	return l.Forward(x, ctx), 0
}

// stepSerial walks the whole batch through the layer stack on the
// calling goroutine, recycling each superseded cache tensor.
func (e *Engine) stepSerial(s, sPrev int) int64 {
	var stepMACs int64
	x := e.input
	for i, l := range e.net.Layers() {
		out, macs := stepLayer(l, x, e.cache[i], sPrev, s, e.pool, &e.sctx)
		e.pool.Put(e.cache[i]) // superseded by out; safe to recycle now
		e.cache[i] = out
		x = out
		stepMACs += macs
	}
	return stepMACs
}

// stepParallel shards the batch into w contiguous row ranges, walks
// each shard through the full layer stack on its own worker (with its
// own pool — layers' incremental paths touch no shared state), then
// assembles full-batch cache tensors from the shard outputs. Workers
// 1..w-1 are persistent goroutines fed jobs over a channel; the
// calling goroutine always walks shard 0 itself. MAC accounting is
// per image and identical across shards, so the first shard's counts
// are authoritative.
func (e *Engine) stepParallel(s, sPrev, w int) int64 {
	layers := e.net.Layers()
	batch := e.input.Dim(0)
	e.ensureShardState(w, len(layers))

	// Mark the shard workers' cores busy in the global parallelism
	// budget (best-effort — w itself is never reduced, so explicit
	// Workers settings keep their meaning): kernel calls inside the
	// shards then find the allowance spent and stay serial instead of
	// fanning the arena out on top of an already-saturated worker set.
	claimed := tensor.ClaimParallelHelpers(w - 1)
	defer tensor.ReleaseParallelHelpers(claimed)

	e.wg.Add(w - 1)
	for wi := 1; wi < w; wi++ {
		e.jobs <- shardJob{wi: wi, b0: wi * batch / w, b1: (wi + 1) * batch / w, sPrev: sPrev, s: s}
	}
	e.runShard(shardJob{wi: 0, b0: 0, b1: batch / w, sPrev: sPrev, s: s})
	e.wg.Wait()

	var stepMACs int64
	for i := range layers {
		// Output shape = shard shape with the full batch dimension.
		e.shapeBuf = append(e.shapeBuf[:0], e.shardOuts[0][i].Shape()...)
		e.shapeBuf[0] = batch
		full := e.pool.GetUninit(e.shapeBuf...) // shard copies cover every row
		fd := full.Data()
		rowLen := full.Len() / batch
		for wi := 0; wi < w; wi++ {
			b0 := wi * batch / w
			shard := e.shardOuts[wi][i]
			copy(fd[b0*rowLen:b0*rowLen+shard.Len()], shard.Data())
			e.wpools[wi].Put(shard)
			e.shardOuts[wi][i] = nil
		}
		e.pool.Put(e.cache[i])
		e.cache[i] = full
		stepMACs += e.shardMACs[0][i]
	}
	return stepMACs
}

// runShard walks one shard of the batch through the layer stack,
// writing outputs and MAC counts into the worker's reusable slices.
func (e *Engine) runShard(j shardJob) {
	pool := e.wpools[j.wi]
	ctx := e.ctxs[j.wi]
	outs := e.shardOuts[j.wi]
	macs := e.shardMACs[j.wi]
	views := e.cacheViews[j.wi]
	x := e.inViews[j.wi].ViewRows(e.input, j.b0, j.b1)
	for i, l := range e.net.Layers() {
		var cached *tensor.Tensor
		if e.cache[i] != nil {
			cached = views[i].ViewRows(e.cache[i], j.b0, j.b1)
		}
		outs[i], macs[i] = stepLayer(l, x, cached, j.sPrev, j.s, pool, ctx)
		x = outs[i]
	}
}

// shardWorker is the body of one persistent worker goroutine: drain
// jobs until Close, walking each job's shard. The
// channel travels as a parameter, not via e.jobs: Close nils the
// field, and a worker that had not yet been scheduled when Close ran
// (possible whenever a step dispatches to fewer workers than were
// spawned) would otherwise block forever on a nil channel — with a
// synchronous Close, a deadlock.
func (e *Engine) shardWorker(jobs chan shardJob) {
	defer e.workerWG.Done()
	for job := range jobs {
		e.runShard(job)
		e.wg.Done()
	}
}

// ensureShardState grows the per-worker reusable state (pools,
// contexts, output/MAC slices, view headers) to w workers and nLayers
// layers, and spawns any missing persistent workers. Steady-state
// calls find everything sized and do nothing.
func (e *Engine) ensureShardState(w, nLayers int) {
	for len(e.wpools) < w {
		e.wpools = append(e.wpools, tensor.NewPool())
	}
	for len(e.ctxs) < w {
		e.ctxs = append(e.ctxs, &nn.Context{})
	}
	for len(e.shardOuts) < w {
		e.shardOuts = append(e.shardOuts, make([]*tensor.Tensor, nLayers))
		e.shardMACs = append(e.shardMACs, make([]int64, nLayers))
		e.inViews = append(e.inViews, &tensor.Tensor{})
		views := make([]*tensor.Tensor, nLayers)
		for i := range views {
			views[i] = &tensor.Tensor{}
		}
		e.cacheViews = append(e.cacheViews, views)
	}
	if e.jobs == nil {
		e.jobs = make(chan shardJob)
	}
	for e.started < w-1 { // worker 0 is the calling goroutine
		e.started++
		e.workerWG.Add(1)
		go e.shardWorker(e.jobs)
	}
}

// Close releases the engine's persistent shard workers and returns
// once they have all exited (so goroutine-leak checks observe a clean
// count deterministically). It is only needed for engines that used a
// batch-parallel path (serial-only engines spawn none) and the engine
// remains usable afterwards — the next batch-parallel Step respawns
// workers.
func (e *Engine) Close() {
	if e.jobs != nil {
		close(e.jobs)
		e.jobs = nil
		e.started = 0
		e.workerWG.Wait()
	}
}

// CalibrateSteps measures the wall-clock cost of each ladder step
// 1..n on input x: the engine is Reset and walked 1→2→…→n reps times,
// and the fastest observed duration of each step is returned (index
// s-1). Min-of-reps is the noise-robust statistic on a shared box —
// scheduling hiccups only ever add time. The measured numbers are the
// calibration a deadline-aware serving layer plans against
// (governor.LatencyModel, internal/serve); callers should calibrate
// with the batch shape they will serve, since step cost scales with
// rows. The engine is left Reset to x at subnet n; reps < 1 is
// treated as 1.
func (e *Engine) CalibrateSteps(x *tensor.Tensor, n, reps int) ([]time.Duration, error) {
	if n < 1 {
		return nil, fmt.Errorf("infer: calibrate needs ≥1 subnets, got %d", n)
	}
	if reps < 1 {
		reps = 1
	}
	best := make([]time.Duration, n)
	for rep := 0; rep < reps; rep++ {
		e.Reset(x)
		for s := 1; s <= n; s++ {
			start := time.Now()
			if _, _, err := e.Step(s); err != nil {
				return nil, err
			}
			if d := time.Since(start); rep == 0 || d < best[s-1] {
				best[s-1] = d
			}
		}
	}
	// A sub-resolution measurement would break feasibility planning
	// (a zero-cost step always "fits"); clamp to the clock's floor.
	for i, d := range best {
		if d <= 0 {
			best[i] = time.Nanosecond
		}
	}
	return best, nil
}

// MustStep is Step for code paths where the engine is known to be
// initialized (examples, benchmarks).
func (e *Engine) MustStep(s int) (*tensor.Tensor, int64) {
	out, macs, err := e.Step(s)
	if err != nil {
		panic(err)
	}
	return out, macs
}
