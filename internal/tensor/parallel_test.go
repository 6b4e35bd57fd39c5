package tensor

import (
	"runtime"
	"testing"
)

// forceShardThresholds drops every fan-out threshold to zero and
// raises GOMAXPROCS so the worker arena engages on arbitrarily small
// shapes even on a single-CPU box, restoring everything afterwards.
func forceShardThresholds(t *testing.T, procs int) {
	t.Helper()
	oldRow, oldIm := gemmMinParFlops, im2colMinParCells
	oldProcs := runtime.GOMAXPROCS(procs)
	gemmMinParFlops, im2colMinParCells = 0, 0
	t.Cleanup(func() {
		gemmMinParFlops, im2colMinParCells = oldRow, oldIm
		runtime.GOMAXPROCS(oldProcs)
	})
}

// requireBitwise fails unless got and want are element-for-element
// IDENTICAL — the sharding contract is bitwise, not within-epsilon:
// a reused activation must not change when the worker count does.
func requireBitwise(t *testing.T, op string, m, k, n int, got, want *Tensor) {
	t.Helper()
	gd, wd := got.Data(), want.Data()
	for i := range gd {
		if gd[i] != wd[i] {
			t.Fatalf("%s %dx%dx%d: element %d rounds differently sharded: %v vs serial %v",
				op, m, k, n, i, gd[i], wd[i])
		}
	}
}

// TestRowShardBitwiseInvariance extends the width-invariance contract
// to the row-split axis: with the arena forced on, every public
// matmul entry point must produce output BITWISE identical to the
// serial row kernel — at several worker counts, over the property
// grid of odd shapes, on whichever GEMM backend is active (ci.sh runs
// the suite under both). Row blocks are even-aligned, so the kernels
// pair exactly the rows a serial run pairs; this test is what keeps
// that alignment from regressing.
func TestRowShardBitwiseInvariance(t *testing.T) {
	for _, procs := range []int{2, 4} {
		forceShardThresholds(t, procs)
		r := NewRNG(uint64(101 + procs))
		checkAllShapes(t, func(t *testing.T, m, k, n int) {
			a := randMat(r, m, k)
			b := randMat(r, k, n)
			at := randMat(r, k, m)
			bt := randMat(r, n, k)
			seed := randMat(r, m, n)
			for _, acc := range []bool{false, true} {
				want, got := seed.Clone(), seed.Clone()
				gemmRowsImpl(want.Data(), a.Data(), b.Data(), 0, m, k, n, acc)
				Gemm(got.Data(), a.Data(), b.Data(), m, k, n, acc)
				requireBitwise(t, "Gemm", m, k, n, got, want)

				want, got = seed.Clone(), seed.Clone()
				gemmTransARowsImpl(want.Data(), at.Data(), b.Data(), 0, m, m, k, n, acc)
				GemmTransA(got.Data(), at.Data(), b.Data(), k, m, n, acc)
				requireBitwise(t, "GemmTransA", m, k, n, got, want)

				want, got = seed.Clone(), seed.Clone()
				gemmTransBRowsImpl(want.Data(), a.Data(), bt.Data(), 0, m, k, n, acc)
				GemmTransB(got.Data(), a.Data(), bt.Data(), m, k, n, acc)
				requireBitwise(t, "GemmTransB", m, k, n, got, want)
			}
		})
	}
}

// TestParallelIm2ColMatchesSerial checks the sharded gather against
// the serial one over a geometry grid (padding rows, stride, row
// counts that do not divide the block grain). The gather is
// elementwise, so equality is exact by construction — this test
// guards the row-range bookkeeping.
func TestParallelIm2ColMatchesSerial(t *testing.T) {
	forceShardThresholds(t, 4)
	r := NewRNG(307)
	geoms := []ConvGeom{
		{InC: 1, InH: 5, InW: 5, OutC: 1, K: 3, Stride: 1, Pad: 1},
		{InC: 3, InH: 9, InW: 7, OutC: 1, K: 3, Stride: 1, Pad: 1},
		{InC: 2, InH: 8, InW: 8, OutC: 1, K: 5, Stride: 2, Pad: 2},
		{InC: 4, InH: 16, InW: 16, OutC: 1, K: 3, Stride: 1, Pad: 0},
	}
	for _, g := range geoms {
		img := make([]float64, g.InC*g.InH*g.InW)
		for i := range img {
			img[i] = r.NormFloat64()
		}
		want := make([]float64, g.ColRows()*g.ColCols())
		got := make([]float64, len(want))
		g.Im2ColRange(img, want, 0, g.ColRows())
		ParallelIm2Col(g, img, got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("geom %+v: col[%d] = %v sharded, %v serial", g, i, got[i], want[i])
			}
		}
	}
}

// TestClaimParallelHelpersBudget pins the cooperative budget: claims
// are capped at GOMAXPROCS-1 across all claimants, nested claims see
// what is left, and releases restore the full allowance.
func TestClaimParallelHelpersBudget(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	got := ClaimParallelHelpers(8)
	if got != 3 {
		t.Fatalf("first claim granted %d helpers, want GOMAXPROCS-1 = 3", got)
	}
	if n := ClaimParallelHelpers(2); n != 0 {
		ReleaseParallelHelpers(n)
		t.Fatalf("nested claim granted %d helpers from an exhausted budget", n)
	}
	ReleaseParallelHelpers(1)
	if n := ClaimParallelHelpers(5); n != 1 {
		t.Fatalf("post-release claim granted %d helpers, want 1", n)
	}
	ReleaseParallelHelpers(1)
	ReleaseParallelHelpers(got - 1)
	if n := ClaimParallelHelpers(99); n != 3 {
		t.Fatalf("full-budget claim granted %d helpers, want 3", n)
	}
	ReleaseParallelHelpers(3)
	if n := ClaimParallelHelpers(0); n != 0 {
		t.Fatalf("zero-max claim granted %d helpers", n)
	}
}

// TestArenaFanOutAllocationFree pins that a forced fan-out allocates
// nothing once the workers exist: the job is published through global
// state and jobs travel by value, so the kernels stay usable inside
// the repo's zero-allocation forward and step paths at any shape.
func TestArenaFanOutAllocationFree(t *testing.T) {
	forceShardThresholds(t, 4)
	r := NewRNG(401)
	a := randMat(r, 32, 17)
	b := randMat(r, 17, 9)
	c := New(32, 9)
	a4 := randMat(r, 4, 64)
	bt := randMat(r, 24, 64)
	c4 := New(4, 24)
	run := func() {
		Gemm(c.Data(), a.Data(), b.Data(), 32, 17, 9, false)
		GemmTransB(c4.Data(), a4.Data(), bt.Data(), 4, 64, 24, false)
	}
	for i := 0; i < 3; i++ {
		run() // spawn arena workers
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("forced arena fan-out allocates %v times per run, want 0", allocs)
	}
}
