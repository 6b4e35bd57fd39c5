package main

import (
	"fmt"
	"runtime"
	"time"

	"steppingnet/internal/core"
	"steppingnet/internal/data"
	"steppingnet/internal/experiments"
	"steppingnet/internal/macs"
	"steppingnet/internal/models"
)

// options are one run's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// evalSet is the fixed labelled set the serving workloads' offline
// pipeline evaluates the ladder on. It does not depend on the seed:
// the ladder is fixed too, so its accuracies are the same on every
// run and only change when the walk's arithmetic does.
var evalSet = data.Config{
	Name: "perfbench-eval", Classes: ladderClasses, C: 3, H: ladderHW, W: ladderHW,
	Train: 64, Test: 256, Seed: 11, LabelNoise: 0.04,
}

// Set-up and the offline evaluation are short, so several of each are
// timed and their medians reported. They are taken a few at a time at
// four points of the run, so the medians see the shared host at four
// moments instead of one: its speed drifts within a run. Spreading
// the same passes this way took the spread of steady's pipeline_s over
// ten seeds from 0.12 to 0.07.
const (
	setupsPerSample = 8
	passesPerSample = 3
	evalBatch       = 32
)

// runServing runs steady, overload or repeat on the serving ladder:
// see serveAndMeasure.
func runServing(o options, sp servingSpec, out *report) error {
	_, test, err := data.Generate(evalSet)
	if err != nil {
		return err
	}
	inputs := makeInputs(o.seed, evalSet.C*evalSet.H*evalSet.W)
	err = serveAndMeasure(o, sp, servingLadder, inputs, pipeline{pass: func(m *models.Model) (float64, []float64) {
		return evaluateLadder(m, test)
	}}, out)
	if err == nil && o.trace {
		err = coreProbe(out)
	}
	return err
}

// pipeline is a workload's offline pipeline. The serving workloads
// time pass, the paper pipeline's evaluation stage on the served
// ladder, several times; construct ran core.Run once before serving
// and gives its wall time and accuracies instead.
type pipeline struct {
	pass    func(m *models.Model) (float64, []float64)
	seconds float64
	acc     []float64
}

// evaluateLadder is one pass of the serving workloads' offline
// pipeline: core.Evaluate at every rung of the served ladder. It
// returns the wall time and the accuracy of each rung.
func evaluateLadder(m *models.Model, test *data.Dataset) (float64, []float64) {
	t0 := time.Now()
	var acc []float64
	for s := 1; s <= ladderRungs; s++ {
		acc = append(acc, core.Evaluate(m.Net, test, s, evalBatch))
	}
	return time.Since(t0).Seconds(), acc
}

// serveAndMeasure is the part every workload shares: set-up,
// warm-up, timed window, output check, offline pipeline, heap, and
// (traced) the per-layer metrics of the tier. build makes the served
// model, or returns a trained one.
func serveAndMeasure(o options, sp servingSpec, build func() *models.Model, inputs [][]float64, pipe pipeline, out *report) error {
	m, st, t, err := timeSetup(build, sp)
	if err != nil {
		return err
	}
	defer st.close()
	setups, passes := []float64{t}, []float64(nil)
	// sample times throwaway set-ups and offline passes while the
	// tier is idle.
	sample := func() error {
		for i := 0; i < setupsPerSample; i++ {
			_, tier, t, err := timeSetup(build, sp)
			if err != nil {
				return err
			}
			tier.close()
			setups = append(setups, t)
		}
		for i := 0; pipe.pass != nil && i < passesPerSample; i++ {
			t, acc := pipe.pass(m)
			passes, pipe.acc = append(passes, t), acc
		}
		return nil
	}
	if err := sample(); err != nil {
		return err
	}

	// Warm-up. The tier's buffer pools grow lazily with the batch
	// shapes and cut-short walks it meets, and at a low rate which of
	// those a run meets depends on how busy the shared machine is: the
	// end-of-run heap of steady and repeat moved in steps of 0.15 to
	// 0.5MB. A ramp through the knee to overload's rate, with
	// overload's tight deadlines, first grows them to the size they
	// always reach there, so the heap measures the program, not the
	// neighbours. The workload's own traffic follows.
	for i, rps := range rampRPS {
		ramp := runWindow(st, servingSpec{rps: rps, mix: tightMix, repeat: sp.repeat}, o.seed^uint64(0xb0b5+i), warmup, inputs)
		warmupNote(fmt.Sprintf("warm-up ramp at %g rps", rps), ramp, out)
	}
	if err := sample(); err != nil {
		return err
	}
	warmupNote("warm-up", runWindow(st, sp, o.seed^0x3a3a3a, warmup, inputs), out)
	if err := sample(); err != nil {
		return err
	}

	dur := time.Duration(o.seconds) * time.Second
	before := st.snapshot()
	w := runWindow(st, sp, o.seed, dur, inputs)
	after := st.snapshot()
	ok, rej, failed := w.counts()
	out.note("timed window: %gs at %g rps offered: sent %d, succeeded %d, rejected %d, failed %d",
		dur.Seconds(), sp.rps, len(w.recs), ok, rej, failed)
	out.attempted += len(w.recs)
	out.failed += failed
	if failed > 0 {
		out.fail("%d requests failed with errors other than overload refusals", failed)
	}

	if err := sample(); err != nil {
		return err
	}

	checked, bad, err := checkAnswers(m, w, inputs, o.seed)
	if err != nil {
		return err
	}
	out.note("output check: %d answers replayed on a cold engine, %d mismatched", checked, bad)
	out.failed += bad
	if bad > 0 {
		out.fail("%d of %d replayed answers differ from a cold walk", bad, checked)
	}

	if err := latencyMetrics(w, o.trace, out); err != nil {
		return err
	}
	q := summarise(w.outcomes(sp.mix))
	misses, lagged := lagMisses(w, sp.mix)
	out.note("deadline misses: %d of %d sent, %d of them sent after their deadline had passed", misses, len(w.recs), lagged)
	out.add("deadline_hit_rate", q.hitRate, "ratio")
	out.add("hi_deadline_hit_rate", q.hiHitRate, "ratio")
	out.add("rung_mean", q.rungMean, "rung")
	out.add("kmac_per_answer", kmacPerAnswer(w), "kMAC")
	out.add("setup_s", median(setups), "s")
	out.note("set-up: median of %d; offline pipeline: %s", len(setups), pipelineNote(len(passes)))

	if pipe.pass != nil {
		pipe.seconds = median(passes)
	}
	out.add("pipeline_s", pipe.seconds, "s")
	mean := 0.0
	for _, a := range pipe.acc {
		mean += a
	}
	out.add("acc_mean", mean/float64(len(pipe.acc)), "ratio")
	out.add("acc_top", pipe.acc[len(pipe.acc)-1], "ratio")
	out.note("accuracy by rung: %.4f", pipe.acc)

	if o.trace {
		serveLayerMetrics(w, out)
		loadgenMetrics(w, sp.mix, out)
		if err := tierMetrics(st, w, before, after, m, inputs, o.seed, out); err != nil {
			return err
		}
		if err := governorMetrics(st.srvs[0], m, out); err != nil {
			return err
		}
	}

	// The live heap is read with the tier still up and the client's
	// records no longer referenced, so it holds the program's state:
	// model, engines, queues and caches.
	out.add("live_heap_mb", liveHeapMB(), "MB")
	return nil
}

func pipelineNote(passes int) string {
	if passes == 0 {
		return "one core.Run"
	}
	return fmt.Sprintf("median of %d passes", passes)
}

func warmupNote(name string, w window, out *report) {
	ok, rej, failed := w.counts()
	out.note("%s: sent %d, succeeded %d, rejected %d, failed %d", name, len(w.recs), ok, rej, failed)
}

func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// tableIRow returns the pipeline options of the LeNet-3C1L row of
// Table I at scale sc, as experiments.TableI runs it.
func tableIRow(sc experiments.Scale) core.PipelineOptions {
	w := experiments.Workloads(sc)[0]
	return core.PipelineOptions{
		Build: w.Build, Data: w.Data, Expansion: w.Expansion,
		Config: core.Config{
			Subnets: len(w.Budgets), Budgets: w.Budgets,
			Iterations: sc.Iterations, BatchesPerIter: sc.BatchesPerIter, BatchSize: sc.BatchSize,
			TeacherEpochs: sc.TeacherEpochs, DistillEpochs: sc.DistillEpochs, Seed: sc.Seed,
		},
	}
}

// runConstruct runs the paper pipeline (core.Run), checks its MAC
// ladder and accuracies, then serves the trained ladder over its own
// test set with steady's traffic.
func runConstruct(o options, out *report) error {
	// The paper's own end-to-end run. Its inputs are fixed by the row
	// (seed 1); the workload seed drives only the serving phase.
	opt := tableIRow(experiments.Quick())
	t0 := time.Now()
	res, err := core.Run(opt)
	if err != nil {
		return err
	}
	pipeS := time.Since(t0).Seconds()
	out.attempted++

	if err := macs.New(res.StudentNet.Net, ladderRungs).CheckMonotone(); err != nil {
		out.failed++
		out.fail("%v", err)
	}
	_, test, err := data.Generate(opt.Data)
	if err != nil {
		return err
	}
	acc := make([]float64, len(res.Stats))
	for i, s := range res.Stats {
		acc[i] = s.Accuracy
		if got := core.Evaluate(res.StudentNet.Net, test, s.Subnet, opt.Config.BatchSize); got != s.Accuracy {
			out.failed++
			out.fail("rung %d: re-evaluated accuracy %v, core.Run reported %v", s.Subnet, got, s.Accuracy)
		}
	}
	if o.trace {
		if err := replayPipeline(opt, res, out); err != nil {
			return err
		}
	}

	inputs := make([][]float64, hotKeys+coldRing)
	for i := range inputs {
		inputs[i] = test.Image(i % test.Len()).Data()
	}
	return serveAndMeasure(o, servingSpecs["steady"], func() *models.Model { return res.StudentNet }, inputs,
		pipeline{seconds: pipeS, acc: acc}, out)
}
