package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"steppingnet/internal/infer"
	"steppingnet/internal/models"
	"steppingnet/internal/nn"
	"steppingnet/internal/serve"
	"steppingnet/internal/serve/cache"
	"steppingnet/internal/tensor"
)

// benchResult is one line of the perf baseline: enough to diff ns/op
// and allocation behaviour across PRs without the full testing output.
type benchResult struct {
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
	MFlops      float64 `json:"mflops,omitempty"`
}

type benchBaseline struct {
	GoVersion string                 `json:"go_version"`
	GOARCH    string                 `json:"goarch"`
	NumCPU    int                    `json:"num_cpu"`
	Backend   string                 `json:"backend"` // tensor.Backend(): "avx2" or "scalar"
	Results   map[string]benchResult `json:"results"`
}

// writeBenchBaseline runs the substrate benchmarks the repo's perf
// targets are stated against (the blocked matmul kernel and the
// zero-allocation forward/step paths) via testing.Benchmark and
// writes them as JSON, so ci.sh can record a BENCH_baseline.json that
// future PRs diff. Each benchmark runs three times and the fastest
// run is recorded: min ns/op is the noise-robust statistic on a
// shared box, and keeps the compare gate's ±15% threshold meaningful
// for the sub-100µs benchmarks whose single runs wobble more.
func writeBenchBaseline(path string) error {
	record := func(m map[string]benchResult, name string, flops int64, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		for i := 0; i < 2; i++ {
			if rr := testing.Benchmark(fn); rr.NsPerOp() < r.NsPerOp() {
				r = rr
			}
		}
		res := benchResult{
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		}
		if flops > 0 && r.NsPerOp() > 0 {
			res.MFlops = float64(flops) / float64(r.NsPerOp()) * 1e3
		}
		m[name] = res
		fmt.Printf("%-28s %10d ns/op %8d B/op %5d allocs/op\n",
			name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}

	newMats := func(n int) (a, b, c *tensor.Tensor) {
		r := tensor.NewRNG(1)
		a, b, c = tensor.New(n, n), tensor.New(n, n), tensor.New(n, n)
		a.FillNormal(r, 0, 1)
		b.FillNormal(r, 0, 1)
		return
	}
	newNet := func() (*nn.Network, *tensor.Tensor) {
		r := tensor.NewRNG(2)
		m := models.LeNet3C1L(models.Options{
			Classes: 10, InC: 3, InH: 16, InW: 16, Expansion: 1.8,
			Subnets: 4, Rule: nn.RuleIncremental, Seed: 3,
		})
		x := tensor.New(8, 3, 16, 16)
		x.FillNormal(r, 0, 1)
		return m.Net, x
	}

	results := make(map[string]benchResult)

	record(results, "matmul64", 2*64*64*64, func(b *testing.B) {
		x, y, _ := newMats(64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.MatMul(x, y)
		}
	})
	record(results, "matmul64_into", 2*64*64*64, func(b *testing.B) {
		x, y, c := newMats(64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.MatMulInto(c, x, y, false)
		}
	})
	record(results, "matmul128_into", 2*128*128*128, func(b *testing.B) {
		x, y, c := newMats(128)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.MatMulInto(c, x, y, false)
		}
	})
	record(results, "forward_lenet3c1l", 0, func(b *testing.B) {
		net, x := newNet()
		ctx := nn.Eval(4)
		ctx.Scratch = tensor.NewPool()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx.Scratch.Put(net.Forward(x, ctx))
		}
	})
	// Batch-1 latency: the single-image forward a latency-sensitive
	// deployment pays per decision. The batch-parallel engine cannot
	// shard it; only the arena's conv-kernel fan-out can engage.
	record(results, "forward_lenet3c1l_b1", 0, func(b *testing.B) {
		net, _ := newNet()
		r := tensor.NewRNG(4)
		x := tensor.New(1, 3, 16, 16)
		x.FillNormal(r, 0, 1)
		ctx := nn.Eval(4)
		ctx.Scratch = tensor.NewPool()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx.Scratch.Put(net.Forward(x, ctx))
		}
	})
	record(results, "anytime_walk_lenet3c1l", 0, func(b *testing.B) {
		net, x := newNet()
		e := infer.NewEngine(net)
		defer e.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Reset(x)
			for s := 1; s <= 4; s++ {
				e.MustStep(s)
			}
		}
	})
	// The batch-1 ladder walk — the engine-level twin of
	// forward_lenet3c1l_b1: a lone request climbing all four rungs,
	// which the engine always walks serially. It must stay at
	// 0 allocs/op.
	record(results, "anytime_walk_lenet3c1l_b1", 0, func(b *testing.B) {
		net, _ := newNet()
		r := tensor.NewRNG(4)
		x := tensor.New(1, 3, 16, 16)
		x.FillNormal(r, 0, 1)
		e := infer.NewEngine(net)
		defer e.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Reset(x)
			for s := 1; s <= 4; s++ {
				e.MustStep(s)
			}
		}
	})
	// Single-request serving latency through the full internal/serve
	// path — admission, scheduling, the 4-step ladder walk and the
	// answer channel — with a deadline generous enough to always reach
	// the widest subnet. The delta over anytime_walk_lenet3c1l (at
	// batch 8 there vs batch 1 here) is the serving layer's overhead
	// budget.
	record(results, "serve_b1_deadline", 0, func(b *testing.B) {
		m := models.LeNet3C1L(models.Options{
			Classes: 10, InC: 3, InH: 16, InW: 16, Expansion: 1.8,
			Subnets: 4, Rule: nn.RuleIncremental, Seed: 3,
		})
		r := tensor.NewRNG(9)
		for _, mv := range m.Movable {
			a := mv.OutAssignment()
			for u := 1; u < a.Units(); u++ {
				a.SetID(u, 1+r.Intn(4))
			}
		}
		srv, err := serve.New(serve.Config{
			Model: m, Subnets: 4, Workers: 1,
			DefaultDeadline: time.Second, CalibrationReps: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		in := tensor.New(3 * 16 * 16)
		in.FillNormal(tensor.NewRNG(4), 0, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := srv.Submit(serve.Request{Input: in.Data()})
			if err != nil {
				b.Fatal(err)
			}
			if res.Subnet != 4 {
				b.Fatalf("generous deadline answered from subnet %d", res.Subnet)
			}
		}
	})

	// Cached-resume serving latency: the same request repeated through
	// a cache-armed server. After the first walk populates the cache,
	// every iteration is a full hit — admission, hash, lookup and the
	// answer channel with zero engine work. The delta under
	// serve_b1_deadline is what the semantic cache saves per repeated
	// key; a regression here means the hit path grew real work.
	record(results, "serve_b1_cached_resume", 0, func(b *testing.B) {
		m := models.LeNet3C1L(models.Options{
			Classes: 10, InC: 3, InH: 16, InW: 16, Expansion: 1.8,
			Subnets: 4, Rule: nn.RuleIncremental, Seed: 3,
		})
		r := tensor.NewRNG(9)
		for _, mv := range m.Movable {
			a := mv.OutAssignment()
			for u := 1; u < a.Units(); u++ {
				a.SetID(u, 1+r.Intn(4))
			}
		}
		srv, err := serve.New(serve.Config{
			Model: m, Subnets: 4, Workers: 1, CacheEntries: 16,
			DefaultDeadline: time.Second, CalibrationReps: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		in := tensor.New(3 * 16 * 16)
		in.FillNormal(tensor.NewRNG(4), 0, 1)
		if _, err := srv.Submit(serve.Request{Input: in.Data()}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := srv.Submit(serve.Request{Input: in.Data()})
			if err != nil {
				b.Fatal(err)
			}
			if !res.CacheHit {
				b.Fatalf("repeat submit missed the cache (subnet %d)", res.Subnet)
			}
		}
	})

	// Speculated-hit serving latency: steady state after the
	// idle-window pre-climber finished a hot key's climb. Setup walks
	// the key to rung 1 under an expired deadline, lets a repeat feed
	// the speculation ring, then waits for the speculator to climb the
	// entry to the top rung. Every timed iteration is then a full
	// cache hit with speculation armed — this pins that the
	// speculative machinery (ring feed, idle-pop gating) adds nothing
	// to the hit path versus serve_b1_cached_resume.
	record(results, "serve_b1_speculated_hit", 0, func(b *testing.B) {
		m := models.LeNet3C1L(models.Options{
			Classes: 10, InC: 3, InH: 16, InW: 16, Expansion: 1.8,
			Subnets: 4, Rule: nn.RuleIncremental, Seed: 3,
		})
		r := tensor.NewRNG(9)
		for _, mv := range m.Movable {
			a := mv.OutAssignment()
			for u := 1; u < a.Units(); u++ {
				a.SetID(u, 1+r.Intn(4))
			}
		}
		srv, err := serve.New(serve.Config{
			Model: m, Subnets: 4, Workers: 1, CacheEntries: 16,
			Speculate:       true,
			DefaultDeadline: time.Second, CalibrationReps: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		in := tensor.New(3 * 16 * 16)
		in.FillNormal(tensor.NewRNG(4), 0, 1)
		// Two expired-deadline submits: the first walks to the narrow
		// floor and stores the rung-1 entry, the second hits it while
		// still sub-top, feeding the speculation candidate ring.
		for i := 0; i < 2; i++ {
			if _, err := srv.Submit(serve.Request{Input: in.Data(), Deadline: time.Nanosecond}); err != nil {
				b.Fatal(err)
			}
		}
		key := cache.KeyOf(in.Data())
		for deadline := time.Now().Add(5 * time.Second); ; {
			if ent, ok := srv.CachePeek(key); ok && ent.Subnet == 4 {
				break
			}
			if time.Now().After(deadline) {
				b.Fatal("speculator did not finish the climb within 5s")
			}
			time.Sleep(time.Millisecond)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := srv.Submit(serve.Request{Input: in.Data()})
			if err != nil {
				b.Fatal(err)
			}
			if !res.CacheHit || res.Subnet != 4 {
				b.Fatalf("repeat after speculation: hit=%v subnet=%d, want a top-rung hit", res.CacheHit, res.Subnet)
			}
		}
	})

	out := benchBaseline{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Backend:   tensor.Backend(),
		Results:   results,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
