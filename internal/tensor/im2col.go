package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution. All layers in
// this library use square kernels and symmetric padding, matching the
// LeNet/VGG topologies in the paper.
type ConvGeom struct {
	InC, InH, InW int // input channels, height, width
	OutC          int // output channels (filters)
	K             int // kernel size (K×K)
	Stride        int
	Pad           int
}

// OutH returns the output height.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.K)/g.Stride + 1 }

// OutW returns the output width.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.K)/g.Stride + 1 }

// ColRows returns the number of rows of the im2col matrix for one
// image: OutH*OutW.
func (g ConvGeom) ColRows() int { return g.OutH() * g.OutW() }

// ColCols returns the number of columns: InC*K*K.
func (g ConvGeom) ColCols() int { return g.InC * g.K * g.K }

// Validate reports a descriptive error for ill-formed geometry.
func (g ConvGeom) Validate() error {
	switch {
	case g.InC <= 0 || g.InH <= 0 || g.InW <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive input dims %+v", g)
	case g.OutC <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive output channels %+v", g)
	case g.K <= 0 || g.Stride <= 0 || g.Pad < 0:
		return fmt.Errorf("tensor: conv geometry has invalid kernel/stride/pad %+v", g)
	case g.OutH() <= 0 || g.OutW() <= 0:
		return fmt.Errorf("tensor: conv geometry yields empty output %+v", g)
	}
	return nil
}

// Im2Col expands one image (InC×InH×InW, flattened) into a
// (OutH*OutW)×(InC*K*K) matrix written into col, so convolution
// becomes a matmul against the (OutC)×(InC*K*K) filter matrix.
// col must have length ColRows()*ColCols().
func (g ConvGeom) Im2Col(img, col []float64) {
	g.checkIm2Col(img, col, 0, g.ColRows())
	g.Im2ColRange(img, col, 0, g.ColRows())
}

// checkIm2Col validates an im2col gather of rows [r0,r1) into col.
func (g ConvGeom) checkIm2Col(img, col []float64, r0, r1 int) {
	if len(img) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col image length %d, want %d", len(img), g.InC*g.InH*g.InW))
	}
	if len(col) != (r1-r0)*g.ColCols() {
		panic(fmt.Sprintf("tensor: Im2Col buffer length %d, want %d", len(col), (r1-r0)*g.ColCols()))
	}
}

// Im2ColRange gathers output positions [r0,r1) — row p of the full
// im2col matrix is output pixel (p/OutW, p%OutW) — into col, whose
// first row corresponds to position r0 (len (r1-r0)·ColCols()). It is
// the shardable core of Im2Col: disjoint ranges touch disjoint parts
// of col, so the arena's ParallelIm2Col workers gather one image
// concurrently. No bounds validation; exported callers go through
// Im2Col or ParallelIm2Col, which validate once per call.
func (g ConvGeom) Im2ColRange(img, col []float64, r0, r1 int) {
	outW, k := g.OutW(), g.K
	cols := g.ColCols()
	oy, ox := r0/outW, r0%outW
	for p := r0; p < r1; p++ {
		row := col[(p-r0)*cols : (p-r0+1)*cols]
		idx := 0
		for c := 0; c < g.InC; c++ {
			base := c * g.InH * g.InW
			for ky := 0; ky < k; ky++ {
				iy := oy*g.Stride + ky - g.Pad
				if iy < 0 || iy >= g.InH {
					for kx := 0; kx < k; kx++ {
						row[idx] = 0
						idx++
					}
					continue
				}
				rowBase := base + iy*g.InW
				for kx := 0; kx < k; kx++ {
					ix := ox*g.Stride + kx - g.Pad
					if ix < 0 || ix >= g.InW {
						row[idx] = 0
					} else {
						row[idx] = img[rowBase+ix]
					}
					idx++
				}
			}
		}
		if ox++; ox == outW {
			ox, oy = 0, oy+1
		}
	}
}

// Col2Im scatters a column matrix produced by Im2Col back into an
// image, accumulating where patches overlap. It is the adjoint of
// Im2Col and implements the input-gradient path of convolution.
// img must be zeroed by the caller if a fresh gradient is wanted.
func (g ConvGeom) Col2Im(col, img []float64) {
	outH, outW, k := g.OutH(), g.OutW(), g.K
	cols := g.ColCols()
	if len(img) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Col2Im image length %d, want %d", len(img), g.InC*g.InH*g.InW))
	}
	if len(col) != g.ColRows()*cols {
		panic(fmt.Sprintf("tensor: Col2Im buffer length %d, want %d", len(col), g.ColRows()*cols))
	}
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			row := col[(oy*outW+ox)*cols : (oy*outW+ox+1)*cols]
			idx := 0
			for c := 0; c < g.InC; c++ {
				base := c * g.InH * g.InW
				for ky := 0; ky < k; ky++ {
					iy := oy*g.Stride + ky - g.Pad
					if iy < 0 || iy >= g.InH {
						idx += k
						continue
					}
					rowBase := base + iy*g.InW
					for kx := 0; kx < k; kx++ {
						ix := ox*g.Stride + kx - g.Pad
						if ix >= 0 && ix < g.InW {
							img[rowBase+ix] += row[idx]
						}
						idx++
					}
				}
			}
		}
	}
}
