package tensor

import "fmt"

// This file holds the matrix-multiply substrate: three raw-slice
// kernels (Gemm, GemmTransA, GemmTransB) and the Tensor-level
// wrappers built on them. The kernels are register-tiled — the inner
// loops carry four independent multiply-add chains so the compiler
// can keep partial products in registers and the CPU can overlap the
// FMA latency — and row-blocked: output rows are processed in small
// blocks that a work-stealing scheduler (parallel.go) distributes
// across GOMAXPROCS goroutines once the product is large enough to
// amortize the fan-out (see gemmMinParFlops). Fully-zero panels of A
// are skipped, which is the common case for the masked weight
// matrices this reproduction multiplies by.
//
// The row kernels defined here are the portable scalar backend; on
// amd64 hardware with AVX2+FMA a dispatch layer swaps in assembly
// variants at startup (gemm_dispatch.go, gemm_amd64.go) and this
// code doubles as their edge-case fallback and test reference.

// MatMul computes C = A·B for 2-D tensors A (m×k) and B (k×n),
// returning a fresh m×n tensor.
func MatMul(a, b *Tensor) *Tensor {
	m, k, n := matDims(a, b)
	c := New(m, n)
	Gemm(c.data, a.data, b.data, m, k, n, false)
	return c
}

// MatMulInto computes C = A·B (or C += A·B when accumulate is true)
// into a preallocated C, avoiding allocation in hot training loops.
func MatMulInto(c, a, b *Tensor, accumulate bool) {
	m, k, n := matDims(a, b)
	if c.Dim(0) != m || c.Dim(1) != n {
		panic(fmt.Sprintf("tensor: MatMulInto output shape %v, want [%d %d]", c.shape, m, n))
	}
	Gemm(c.data, a.data, b.data, m, k, n, accumulate)
}

func matDims(a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 operands, got %v × %v", a.shape, b.shape))
	}
	if a.Dim(1) != b.Dim(0) {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v × %v", a.shape, b.shape))
	}
	return a.Dim(0), a.Dim(1), b.Dim(1)
}

// MatMulTransA computes C = Aᵀ·B where A is k×m and B is k×n,
// producing m×n. Used for weight-gradient accumulation.
func MatMulTransA(a, b *Tensor) *Tensor {
	k, m, n := transADims(a, b)
	c := New(m, n)
	GemmTransA(c.data, a.data, b.data, k, m, n, false)
	return c
}

// MatMulTransAInto computes C = Aᵀ·B (or C += Aᵀ·B) into a
// preallocated C.
func MatMulTransAInto(c, a, b *Tensor, accumulate bool) {
	k, m, n := transADims(a, b)
	if c.Dim(0) != m || c.Dim(1) != n {
		panic(fmt.Sprintf("tensor: MatMulTransAInto output shape %v, want [%d %d]", c.shape, m, n))
	}
	GemmTransA(c.data, a.data, b.data, k, m, n, accumulate)
}

func transADims(a, b *Tensor) (k, m, n int) {
	if a.Rank() != 2 || b.Rank() != 2 || a.Dim(0) != b.Dim(0) {
		panic(fmt.Sprintf("tensor: MatMulTransA shape mismatch %v × %v", a.shape, b.shape))
	}
	return a.Dim(0), a.Dim(1), b.Dim(1)
}

// MatMulTransB computes C = A·Bᵀ where A is m×k and B is n×k,
// producing m×n. Used for input-gradient propagation and the im2col
// convolution forward.
func MatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := transBDims(a, b)
	c := New(m, n)
	GemmTransB(c.data, a.data, b.data, m, k, n, false)
	return c
}

// MatMulTransBInto computes C = A·Bᵀ (or C += A·Bᵀ) into a
// preallocated C.
func MatMulTransBInto(c, a, b *Tensor, accumulate bool) {
	m, k, n := transBDims(a, b)
	if c.Dim(0) != m || c.Dim(1) != n {
		panic(fmt.Sprintf("tensor: MatMulTransBInto output shape %v, want [%d %d]", c.shape, m, n))
	}
	GemmTransB(c.data, a.data, b.data, m, k, n, accumulate)
}

func transBDims(a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 || a.Dim(1) != b.Dim(1) {
		panic(fmt.Sprintf("tensor: MatMulTransB shape mismatch %v × %v", a.shape, b.shape))
	}
	return a.Dim(0), a.Dim(1), b.Dim(0)
}

// Gemm computes C (+)= A·B on raw row-major slices: A is m×k, B is
// k×n, C is m×n. When accumulate is false C is overwritten. Layers
// call this directly on sub-slices (e.g. one image of a batch) to
// stay allocation-free; the Tensor wrappers above add shape checks.
// Products past gemmMinParFlops fan their rows out over the worker
// arena (parallel.go); the split preserves bitwise equality with the
// serial kernel at every worker count.
func Gemm(c, a, b []float64, m, k, n int, accumulate bool) {
	if m == 0 || n == 0 {
		return // empty product; nothing to write
	}
	if m*k*n >= gemmMinParFlops && gemmRowsParallel(arenaGemmRows, c, a, b, m, k, n, accumulate) {
		return
	}
	gemmRowsImpl(c, a, b, 0, m, k, n, accumulate)
}

// GemmTransA computes C (+)= Aᵀ·B on raw slices: A is k×m, B is k×n,
// C is m×n.
func GemmTransA(c, a, b []float64, k, m, n int, accumulate bool) {
	if m == 0 || n == 0 {
		return // empty product; nothing to write
	}
	if m*k*n >= gemmMinParFlops && gemmRowsParallel(arenaGemmTransARows, c, a, b, m, k, n, accumulate) {
		return
	}
	gemmTransARowsImpl(c, a, b, 0, m, m, k, n, accumulate)
}

// GemmTransB computes C (+)= A·Bᵀ on raw slices: A is m×k, B is n×k,
// C is m×n. Multi-row products past gemmMinParFlops split by output
// rows; a single-row product (a batch-1 dense layer) runs serially.
func GemmTransB(c, a, b []float64, m, k, n int, accumulate bool) {
	if m == 0 || n == 0 {
		return // empty product; nothing to write
	}
	if m > 1 && m*k*n >= gemmMinParFlops && gemmRowsParallel(arenaGemmTransBRows, c, a, b, m, k, n, accumulate) {
		return
	}
	gemmTransBRowsImpl(c, a, b, 0, m, k, n, accumulate)
}

// gemmRows is the serial ikj kernel over output rows [i0,i1). Rows
// are processed two at a time (each loaded panel of B feeds two C
// rows, halving B traffic) and the k loop is unrolled 4-wide so each
// pass over a C row performs four fused chains per element,
// quartering C-row traffic; all-zero 4-groups of A (pruned/masked
// weights) are skipped.
func gemmRows(c, a, b []float64, i0, i1, k, n int, accumulate bool) {
	i := i0
	for ; i+2 <= i1; i += 2 {
		arow0 := a[i*k : (i+1)*k]
		arow1 := a[(i+1)*k : (i+2)*k]
		crow0 := c[i*n : (i+1)*n : (i+1)*n]
		crow1 := c[(i+1)*n : (i+2)*n : (i+2)*n]
		if !accumulate {
			clear(crow0)
			clear(crow1)
		}
		p := 0
		for ; p+4 <= k; p += 4 {
			a00, a01, a02, a03 := arow0[p], arow0[p+1], arow0[p+2], arow0[p+3]
			a10, a11, a12, a13 := arow1[p], arow1[p+1], arow1[p+2], arow1[p+3]
			z0 := a00 == 0 && a01 == 0 && a02 == 0 && a03 == 0
			z1 := a10 == 0 && a11 == 0 && a12 == 0 && a13 == 0
			if z0 && z1 {
				continue
			}
			b0 := b[p*n : p*n+n : p*n+n]
			b1 := b[(p+1)*n : (p+1)*n+n : (p+1)*n+n]
			b2 := b[(p+2)*n : (p+2)*n+n : (p+2)*n+n]
			b3 := b[(p+3)*n : (p+3)*n+n : (p+3)*n+n]
			_ = b0[len(crow0)-1]
			_ = b1[len(crow0)-1]
			_ = b2[len(crow0)-1]
			_ = b3[len(crow0)-1]
			switch {
			case z1:
				for j := range crow0 {
					crow0[j] += a00*b0[j] + a01*b1[j] + a02*b2[j] + a03*b3[j]
				}
			case z0:
				for j := range crow1 {
					crow1[j] += a10*b0[j] + a11*b1[j] + a12*b2[j] + a13*b3[j]
				}
			default:
				_ = crow1[len(crow0)-1]
				for j := range crow0 {
					v0, v1, v2, v3 := b0[j], b1[j], b2[j], b3[j]
					crow0[j] += a00*v0 + a01*v1 + a02*v2 + a03*v3
					crow1[j] += a10*v0 + a11*v1 + a12*v2 + a13*v3
				}
			}
		}
		for ; p < k; p++ {
			a0, a1 := arow0[p], arow1[p]
			if a0 == 0 && a1 == 0 {
				continue
			}
			brow := b[p*n : p*n+n : p*n+n]
			_ = brow[len(crow0)-1]
			_ = crow1[len(crow0)-1]
			for j := range crow0 {
				v := brow[j]
				crow0[j] += a0 * v
				crow1[j] += a1 * v
			}
		}
	}
	for ; i < i1; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n : (i+1)*n]
		if !accumulate {
			clear(crow)
		}
		p := 0
		for ; p+4 <= k; p += 4 {
			a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			b0 := b[p*n : p*n+n : p*n+n]
			b1 := b[(p+1)*n : (p+1)*n+n : (p+1)*n+n]
			b2 := b[(p+2)*n : (p+2)*n+n : (p+2)*n+n]
			b3 := b[(p+3)*n : (p+3)*n+n : (p+3)*n+n]
			_ = b0[len(crow)-1]
			_ = b1[len(crow)-1]
			_ = b2[len(crow)-1]
			_ = b3[len(crow)-1]
			for j := range crow {
				crow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b[p*n : p*n+n : p*n+n]
			_ = brow[len(crow)-1]
			for j := range crow {
				crow[j] += av * brow[j]
			}
		}
	}
}

// gemmTransARows computes rows [i0,i1) of C = Aᵀ·B. Row i of C reads
// column i of A (stride m, A's declared column count); the k loop is
// unrolled 4-wide like gemmRows.
func gemmTransARows(c, a, b []float64, i0, i1, m, k, n int, accumulate bool) {
	for i := i0; i < i1; i++ {
		crow := c[i*n : (i+1)*n : (i+1)*n]
		if !accumulate {
			clear(crow)
		}
		p := 0
		for ; p+4 <= k; p += 4 {
			a0, a1, a2, a3 := a[p*m+i], a[(p+1)*m+i], a[(p+2)*m+i], a[(p+3)*m+i]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			b0 := b[p*n : p*n+n : p*n+n]
			b1 := b[(p+1)*n : (p+1)*n+n : (p+1)*n+n]
			b2 := b[(p+2)*n : (p+2)*n+n : (p+2)*n+n]
			b3 := b[(p+3)*n : (p+3)*n+n : (p+3)*n+n]
			_ = b0[len(crow)-1]
			_ = b1[len(crow)-1]
			_ = b2[len(crow)-1]
			_ = b3[len(crow)-1]
			for j := range crow {
				crow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; p < k; p++ {
			av := a[p*m+i]
			if av == 0 {
				continue
			}
			brow := b[p*n : p*n+n : p*n+n]
			_ = brow[len(crow)-1]
			for j := range crow {
				crow[j] += av * brow[j]
			}
		}
	}
}

// gemmTransBRows computes rows [i0,i1) of C = A·Bᵀ as dot products of
// contiguous rows. Rows are processed two at a time and columns four
// at a time, so each loaded panel of B feeds eight accumulator
// chains; rows of A that are entirely zero (inactive filters in a
// masked weight matrix) short-circuit to a zero C row.
func gemmTransBRows(c, a, b []float64, i0, i1, k, n int, accumulate bool) {
	i := i0
	for ; i+2 <= i1; i += 2 {
		arow0 := a[i*k : (i+1)*k : (i+1)*k]
		arow1 := a[(i+1)*k : (i+2)*k : (i+2)*k]
		crow0 := c[i*n : (i+1)*n : (i+1)*n]
		crow1 := c[(i+1)*n : (i+2)*n : (i+2)*n]
		z0, z1 := allZero(arow0), allZero(arow1)
		if z0 || z1 {
			// At most one live row in this pair: fall back to the
			// single-row kernel for it, zero the dead one(s).
			if !accumulate {
				if z0 {
					clear(crow0)
				}
				if z1 {
					clear(crow1)
				}
			}
			if !z0 {
				transBRow(crow0, arow0, b, k, n, accumulate)
			}
			if !z1 {
				transBRow(crow1, arow1, b, k, n, accumulate)
			}
			continue
		}
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : j*k+k : j*k+k]
			b1 := b[(j+1)*k : (j+1)*k+k : (j+1)*k+k]
			b2 := b[(j+2)*k : (j+2)*k+k : (j+2)*k+k]
			b3 := b[(j+3)*k : (j+3)*k+k : (j+3)*k+k]
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for p, a0 := range arow0 {
				a1 := arow1[p]
				v0, v1, v2, v3 := b0[p], b1[p], b2[p], b3[p]
				s00 += a0 * v0
				s01 += a0 * v1
				s02 += a0 * v2
				s03 += a0 * v3
				s10 += a1 * v0
				s11 += a1 * v1
				s12 += a1 * v2
				s13 += a1 * v3
			}
			if accumulate {
				crow0[j] += s00
				crow0[j+1] += s01
				crow0[j+2] += s02
				crow0[j+3] += s03
				crow1[j] += s10
				crow1[j+1] += s11
				crow1[j+2] += s12
				crow1[j+3] += s13
			} else {
				crow0[j], crow0[j+1], crow0[j+2], crow0[j+3] = s00, s01, s02, s03
				crow1[j], crow1[j+1], crow1[j+2], crow1[j+3] = s10, s11, s12, s13
			}
		}
		for ; j < n; j++ {
			brow := b[j*k : j*k+k : j*k+k]
			var s0, s1 float64
			for p, a0 := range arow0 {
				s0 += a0 * brow[p]
				s1 += arow1[p] * brow[p]
			}
			if accumulate {
				crow0[j] += s0
				crow1[j] += s1
			} else {
				crow0[j] = s0
				crow1[j] = s1
			}
		}
	}
	for ; i < i1; i++ {
		arow := a[i*k : (i+1)*k : (i+1)*k]
		crow := c[i*n : (i+1)*n : (i+1)*n]
		if allZero(arow) {
			if !accumulate {
				clear(crow)
			}
			continue
		}
		transBRow(crow, arow, b, k, n, accumulate)
	}
}

// transBRow computes one C row of A·Bᵀ, four dot products at a time.
func transBRow(crow, arow, b []float64, k, n int, accumulate bool) {
	j := 0
	for ; j+4 <= n; j += 4 {
		b0 := b[j*k : j*k+k : j*k+k]
		b1 := b[(j+1)*k : (j+1)*k+k : (j+1)*k+k]
		b2 := b[(j+2)*k : (j+2)*k+k : (j+2)*k+k]
		b3 := b[(j+3)*k : (j+3)*k+k : (j+3)*k+k]
		var s0, s1, s2, s3 float64
		for p, av := range arow {
			s0 += av * b0[p]
			s1 += av * b1[p]
			s2 += av * b2[p]
			s3 += av * b3[p]
		}
		if accumulate {
			crow[j] += s0
			crow[j+1] += s1
			crow[j+2] += s2
			crow[j+3] += s3
		} else {
			crow[j] = s0
			crow[j+1] = s1
			crow[j+2] = s2
			crow[j+3] = s3
		}
	}
	for ; j < n; j++ {
		brow := b[j*k : j*k+k : j*k+k]
		var s float64
		for p, av := range arow {
			s += av * brow[p]
		}
		if accumulate {
			crow[j] += s
		} else {
			crow[j] = s
		}
	}
}

// allZero reports whether every element of s is zero.
func allZero(s []float64) bool {
	for _, v := range s {
		if v != 0 {
			return false
		}
	}
	return true
}
