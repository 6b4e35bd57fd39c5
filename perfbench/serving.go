package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"time"

	"steppingnet/internal/cluster"
	"steppingnet/internal/infer"
	"steppingnet/internal/models"
	"steppingnet/internal/nn"
	"steppingnet/internal/serve"
	"steppingnet/internal/tensor"
)

// servingSpec is the traffic of one serving workload.
type servingSpec struct {
	rps     float64
	mix     []class
	repeat  float64 // share of requests re-sending a hot key
	cluster bool    // two cache-armed replicas behind an affinity router
}

// rampRPS are the rates of the warm-up ramp every serving phase
// starts with, each held for warmup.
var rampRPS = []float64{1000, 2000, 6000}

// Deadline mixes. steady's deadlines sit well above the slowest walk
// the shared reference box produced (about 1.6ms), so its hit rate
// does not swing with the neighbours' load; overload's are the tight
// ones that make admission and narrowing decide the outcome.
var (
	steadyMix = []class{{4 * time.Millisecond, 0.7, false}, {10 * time.Millisecond, 0.3, true}}
	tightMix  = []class{{2 * time.Millisecond, 0.7, false}, {6 * time.Millisecond, 0.3, true}}
	looseMix  = []class{{8 * time.Millisecond, 0.7, false}, {20 * time.Millisecond, 0.3, true}}
)

// The serving workloads; README.md records why each exists.
var servingSpecs = map[string]servingSpec{
	"steady":   {rps: 250, mix: steadyMix},
	"overload": {rps: 6000, mix: tightMix},
	"repeat":   {rps: 500, mix: looseMix, repeat: 0.6, cluster: true},
}

// The serving ladder is the one stepserve builds by default: an
// untrained LeNet-3C1L with its units spread over the rungs by a
// seeded draw. Its MAC ladder and data path are those of a constructed
// model; only the weights are random.
const (
	ladderRungs     = 4
	ladderExpansion = 1.6
	ladderHW        = 16
	ladderClasses   = 10
	ladderSeed      = 1
	warmup          = time.Second
	checkSample     = 1000
)

// servingLadder builds the default stepserve ladder.
func servingLadder() *models.Model {
	m := models.LeNet3C1L(models.Options{
		Classes: ladderClasses, InC: 3, InH: ladderHW, InW: ladderHW,
		Expansion: ladderExpansion, Subnets: ladderRungs, Rule: nn.RuleIncremental, Seed: ladderSeed,
	})
	r := tensor.NewRNG(ladderSeed ^ 0x5EED5)
	for _, mv := range m.Movable {
		a := mv.OutAssignment()
		for u := 1; u < a.Units(); u++ {
			a.SetID(u, 1+r.Intn(ladderRungs))
		}
	}
	return m
}

// stack is a running serving tier: one server, or replicas behind a
// router.
type stack struct {
	srvs   []*serve.Server
	router *cluster.Router
	submit submitFunc
}

// newStack stands up the serving tier of sp on model m with stepserve's
// default server settings.
func newStack(m *models.Model, sp servingSpec) (*stack, error) {
	base := serve.Config{
		Model: m, Subnets: ladderRungs, QueueDepth: 64, MaxBatch: 4, PriorityClasses: 2,
		DefaultDeadline: 20 * time.Millisecond, RefreshInterval: 2 * time.Second,
	}
	st := &stack{}
	if !sp.cluster {
		srv, err := serve.New(base)
		if err != nil {
			return nil, err
		}
		st.srvs, st.submit = []*serve.Server{srv}, func(req serve.Request) reply {
			t0 := time.Now()
			res, err := srv.Submit(req)
			return reply{res: res, err: err, at: t0.Add(res.Latency), over: time.Since(t0) - res.Latency}
		}
		return st, nil
	}
	calls := &replicaCalls{answered: map[*float64]reply{}}
	var backends []cluster.Backend
	for i := 0; i < 2; i++ {
		cfg := base
		cfg.Workers, cfg.CacheEntries, cfg.Speculate = 1, 6, true
		srv, err := serve.New(cfg)
		if err != nil {
			st.close()
			return nil, err
		}
		st.srvs = append(st.srvs, srv)
		backends = append(backends, &timedLocal{Local: &cluster.Local{Srv: srv, Name: fmt.Sprintf("replica%d", i)}, calls: calls})
	}
	ro, err := cluster.NewRouter(cluster.RouterConfig{
		Backends: backends, Affinity: true, Warm: true, DefaultDeadline: 20 * time.Millisecond,
	})
	if err != nil {
		st.close()
		return nil, err
	}
	st.router, st.submit = ro, func(req serve.Request) reply {
		// A copy of the input of its own lets the replica call that
		// answered this request be found by the input's address; hot
		// keys are sent by many requests at once. It costs about a
		// microsecond, inside the latency.
		req.Input = slices.Clone(req.Input)
		res, err := ro.Submit(req)
		rp := calls.take(&req.Input[0])
		rp.res, rp.err = res, err
		return rp
	}
	return st, nil
}

// replicaCalls records, for each request a replica answered under the
// router, when the answer was produced and the call's overhead, keyed
// by the address of the request's input.
type replicaCalls struct {
	mu       sync.Mutex
	answered map[*float64]reply
}

// take returns and forgets the record of the call that answered the
// request with this input; the zero reply if no replica answered it.
func (c *replicaCalls) take(in *float64) reply {
	c.mu.Lock()
	defer c.mu.Unlock()
	rp := c.answered[in]
	delete(c.answered, in)
	return rp
}

// timedLocal is a replica whose Submit is timed from outside.
// Embedding keeps the cache-transfer methods the router's warming
// uses.
type timedLocal struct {
	*cluster.Local
	calls *replicaCalls
}

func (t *timedLocal) Submit(ctx context.Context, req serve.Request) (serve.Result, error) {
	t0 := time.Now()
	res, err := t.Local.Submit(ctx, req)
	if err == nil {
		rp := reply{at: t0.Add(res.Latency), over: time.Since(t0) - res.Latency}
		t.calls.mu.Lock()
		t.calls.answered[&req.Input[0]] = rp
		t.calls.mu.Unlock()
	}
	return res, err
}

// close stops the tier and waits for it to drain.
func (st *stack) close() {
	if st.router != nil {
		st.router.Close() // closes every replica
		return
	}
	for _, s := range st.srvs {
		s.Close()
	}
}

// timeSetup stands up the tier of sp on a model from build (which
// makes the model, or returns a trained one) and times it. A GC first
// keeps any set-up from paying for collecting another's garbage.
func timeSetup(build func() *models.Model, sp servingSpec) (*models.Model, *stack, float64, error) {
	runtime.GC()
	t0 := time.Now()
	m := build()
	st, err := newStack(m, sp)
	return m, st, time.Since(t0).Seconds(), err
}

// window is one timed open-loop phase and what came of it.
type window struct {
	sched []arrival
	recs  []sent
}

// counts tallies a window's requests: answered, refused by overload
// protection, and failed for any other reason.
func (w window) counts() (ok, rejected, failed int) {
	for _, r := range w.recs {
		switch {
		case r.err == nil:
			ok++
		case refused(r.err):
			rejected++
		default:
			failed++
		}
	}
	return
}

// refused reports an overload refusal: a typed answer the tier gives
// by design under load, a miss but not a failure.
func refused(err error) bool {
	return errors.Is(err, serve.ErrOverloaded) || errors.Is(err, cluster.ErrNoReplicas)
}

// outcomes converts a window to the deadline-metric inputs.
func (w window) outcomes(mix []class) []outcome {
	outs := make([]outcome, len(w.recs))
	for i, r := range w.recs {
		c := mix[w.sched[i].class]
		outs[i] = outcome{answered: r.err == nil, late: r.latency, deadline: c.deadline, rung: r.res.Subnet, hi: c.hi}
	}
	return outs
}

// runWindow plays sp's traffic for dur against the tier.
func runWindow(st *stack, sp servingSpec, seed uint64, dur time.Duration, inputs [][]float64) window {
	sched := schedule(seed, sp.rps, dur, sp.mix, sp.repeat)
	return window{sched: sched, recs: drive(sched, inputs, sp.mix, st.submit)}
}

// makeInputs draws the hot keys and the cold ring for a seed.
func makeInputs(seed uint64, imgLen int) [][]float64 {
	r := tensor.NewRNG(seed ^ 0x1A9075)
	in := make([][]float64, hotKeys+coldRing)
	for i := range in {
		x := tensor.New(imgLen)
		x.FillNormal(r, 0, 1)
		in[i] = x.Data()
	}
	return in
}

// checkAnswers replays a seeded sample of the answered requests
// through a cold single-worker engine up to each answer's rung and
// counts the answers whose logits are not bitwise equal to the replay
// or whose Pred is not their argmax.
func checkAnswers(m *models.Model, w window, inputs [][]float64, seed uint64) (checked, bad int, err error) {
	var idx []int
	for i, r := range w.recs {
		if r.err == nil {
			idx = append(idx, i)
		}
	}
	rand.New(rand.NewPCG(seed, 0xc4ec)).Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	idx = idx[:min(len(idx), checkSample)]

	e := infer.NewEngine(m.Net)
	e.Workers = 1
	defer e.Close()
	for _, i := range idx {
		res := w.recs[i].res
		e.Reset(tensor.FromSlice(inputs[w.sched[i].input], 1, m.InC, m.InH, m.InW))
		var out *tensor.Tensor
		for s := 1; s <= res.Subnet; s++ {
			if out, _, err = e.Step(s); err != nil {
				return checked, bad, fmt.Errorf("replay step %d: %w", s, err)
			}
		}
		checked++
		if out == nil || !bitwiseEqual(out.Data(), res.Logits) || res.Pred != argmax(res.Logits) {
			bad++
		}
	}
	return checked, bad, nil
}

func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// argmax returns the first index of the largest value, the serving
// layer's tie rule.
func argmax(x []float64) int {
	best := 0
	for j, v := range x {
		if v > x[best] {
			best = j
		}
	}
	return best
}

// latencyMetrics reports the median of the answered requests'
// due-to-answer latencies, and for the traced run their p90 and p99.
// A run must answer at least 1000 requests, so that ten samples lie
// beyond the p99. README.md ("Noise on the reference box") records
// why the tail is not an end-to-end metric.
func latencyMetrics(w window, trace bool, out *report) error {
	var lats []time.Duration
	for _, r := range w.recs {
		if r.err == nil {
			lats = append(lats, r.latency)
		}
	}
	ms := durationsMs(lats)
	n := len(ms)
	if supportedTail(n) < 0.99 {
		return fmt.Errorf("only %d answers, too few for a p99 with %d samples beyond it: raise --seconds", n, minTail)
	}
	out.note("latency: %d answers; p50 %.3fms, p90 %.3fms (%d beyond it), p99 %.3fms (%d beyond it)",
		n, quantile(ms, 0.5), quantile(ms, 0.9), n-rank(n, 0.9), quantile(ms, 0.99), n-rank(n, 0.99))
	out.add("latency_p50_ms", quantile(ms, 0.5), "ms")
	if trace {
		out.add("trace.latency_p50_ms", quantile(ms, 0.5), "ms")
		out.add("trace.latency_p90_ms", quantile(ms, 0.9), "ms")
		out.add("trace.latency_p99_ms", quantile(ms, 0.99), "ms")
	}
	return nil
}

// serveLayerMetrics reports the serving layer's per-request split and
// its answer mix, all measured from outside on the window's results.
func serveLayerMetrics(w window, out *report) {
	var qw, svc, over []time.Duration
	var rej, late, narrowed, answered int
	shares := make([]int, ladderRungs+1)
	for _, r := range w.recs {
		if r.err != nil {
			if refused(r.err) {
				rej++
			}
			continue
		}
		answered++
		qw = append(qw, r.res.QueueWait)
		svc = append(svc, r.res.Latency-r.res.QueueWait)
		over = append(over, r.over)
		if !r.res.DeadlineMet {
			late++
		}
		if r.res.Subnet < ladderRungs {
			narrowed++
		}
		if r.res.Subnet >= 1 && r.res.Subnet <= ladderRungs {
			shares[r.res.Subnet]++
		}
	}
	n := float64(len(w.recs))
	qms, sms, oms := durationsMs(qw), durationsMs(svc), durationsMs(over)
	out.add("serve.queue_wait.p50_ms", quantile(qms, 0.5), "ms")
	out.add("serve.queue_wait.p99_ms", quantile(qms, supportedTail(len(qms))), "ms")
	out.add("serve.service.p50_ms", quantile(sms, 0.5), "ms")
	out.add("serve.service.p99_ms", quantile(sms, supportedTail(len(sms))), "ms")
	out.add("serve.submit_overhead.p50_us", 1000*quantile(oms, 0.5), "us")
	out.add("serve.reject_rate", float64(rej)/n, "ratio")
	out.add("serve.late_rate", float64(late)/n, "ratio")
	out.add("serve.narrowed_rate", ratio(narrowed, answered), "ratio")
	for s := 1; s <= ladderRungs; s++ {
		out.add(fmt.Sprintf("serve.rung_share.r%d", s), ratio(shares[s], answered), "ratio")
	}
}

// lagMisses counts the window's deadline misses and, of those, the
// ones sent only after their deadline had passed: misses the
// generator's lateness decided whatever the server did.
func lagMisses(w window, mix []class) (misses, lagged int) {
	for i, o := range w.outcomes(mix) {
		if !o.met() {
			misses++
			if w.recs[i].lag > o.deadline {
				lagged++
			}
		}
	}
	return misses, lagged
}

// loadgenMetrics reports how late the generator sent requests.
func loadgenMetrics(w window, mix []class, out *report) {
	lags := make([]time.Duration, len(w.recs))
	for i, r := range w.recs {
		lags[i] = r.lag
	}
	ms := durationsMs(lags)
	_, _, failed := w.counts()
	misses, lagged := lagMisses(w, mix)
	out.add("loadgen.lag.p50_ms", quantile(ms, 0.5), "ms")
	out.add("loadgen.lag.p99_ms", quantile(ms, supportedTail(len(ms))), "ms")
	out.add("loadgen.lag_miss_share", ratio(lagged, misses), "ratio")
	out.add("loadgen.sent", float64(len(w.recs)), "count")
	out.add("loadgen.failed", float64(failed), "count")
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// kmacPerAnswer is the MACs executed per answered request, in
// thousands.
func kmacPerAnswer(w window) float64 {
	var macs int64
	n := 0
	for _, r := range w.recs {
		if r.err == nil {
			macs += r.res.MACs
			n++
		}
	}
	return ratio(int(macs), n) / 1000
}
