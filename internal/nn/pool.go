package nn

import (
	"fmt"
	"math"

	"steppingnet/internal/tensor"
)

// MaxPool2D performs non-overlapping K×K max pooling per channel.
// Pooling is per-channel, so it preserves the incremental property:
// a channel's pooled output depends only on that channel.
type MaxPool2D struct {
	name       string
	c, h, w, k int
	argmax     []int          // flat input index chosen per output element
	out        *tensor.Tensor // previous train-mode output, self-recycled
}

// NewMaxPool2D constructs the layer for inputs of shape [B, c, h, w].
// h and w must be divisible by k.
func NewMaxPool2D(name string, c, h, w, k int) *MaxPool2D {
	if c <= 0 || h <= 0 || w <= 0 || k <= 0 {
		panic(fmt.Sprintf("nn: MaxPool2D %q invalid dims c=%d h=%d w=%d k=%d", name, c, h, w, k))
	}
	if h%k != 0 || w%k != 0 {
		panic(fmt.Sprintf("nn: MaxPool2D %q: %dx%d not divisible by %d", name, h, w, k))
	}
	return &MaxPool2D{name: name, c: c, h: h, w: w, k: k}
}

func (m *MaxPool2D) Name() string     { return m.name }
func (m *MaxPool2D) Params() []*Param { return nil }

// OutH returns the pooled height.
func (m *MaxPool2D) OutH() int { return m.h / m.k }

// OutW returns the pooled width.
func (m *MaxPool2D) OutW() int { return m.w / m.k }

func (m *MaxPool2D) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != m.c || x.Dim(2) != m.h || x.Dim(3) != m.w {
		panic(fmt.Sprintf("nn: MaxPool2D %q input %v, want [B %d %d %d]", m.name, x.Shape(), m.c, m.h, m.w))
	}
	batch := x.Dim(0)
	oh, ow := m.OutH(), m.OutW()
	if ctx.Train {
		ctx.Scratch.Put(m.out) // previous step's output is dead
		m.out = nil
	}
	out := ctx.Scratch.GetUninit(batch, m.c, oh, ow)
	if ctx.Train {
		m.out = out
		if cap(m.argmax) < out.Len() {
			m.argmax = make([]int, out.Len())
		}
		m.argmax = m.argmax[:out.Len()]
	}
	m.poolInto(x, out, ctx.Train)
	return out
}

// poolInto runs the pooling loop from x into out, recording argmax
// indices when recordArgmax is set (training backward needs them).
func (m *MaxPool2D) poolInto(x, out *tensor.Tensor, recordArgmax bool) {
	oh, ow := m.OutH(), m.OutW()
	xd, od := x.Data(), out.Data()
	for bc, planes := 0, x.Dim(0)*m.c; bc < planes; bc++ {
		inBase := bc * m.h * m.w
		outBase := bc * oh * ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := math.Inf(-1)
				bestIdx := -1
				for ky := 0; ky < m.k; ky++ {
					for kx := 0; kx < m.k; kx++ {
						idx := inBase + (oy*m.k+ky)*m.w + ox*m.k + kx
						if xd[idx] > best {
							best, bestIdx = xd[idx], idx
						}
					}
				}
				oidx := outBase + oy*ow + ox
				od[oidx] = best
				if recordArgmax {
					m.argmax[oidx] = bestIdx
				}
			}
		}
	}
}

func (m *MaxPool2D) Backward(grad *tensor.Tensor, ctx *Context) *tensor.Tensor {
	batch := grad.Dim(0)
	out := ctx.Scratch.Get(batch, m.c, m.h, m.w)
	od, gd := out.Data(), grad.Data()
	for i, g := range gd {
		od[m.argmax[i]] += g
	}
	return out
}

// ForwardIncremental recomputes pooling (zero MACs; per-channel, so
// reuse-safe). It bypasses Forward's Context plumbing so the anytime
// walk allocates nothing in steady state.
func (m *MaxPool2D) ForwardIncremental(x, _ *tensor.Tensor, _, _ int, pool *tensor.Pool) (*tensor.Tensor, int64) {
	out := pool.GetUninit(x.Dim(0), m.c, m.OutH(), m.OutW())
	m.poolInto(x, out, false)
	return out, 0
}

var _ Incremental = (*MaxPool2D)(nil)

// Flatten reshapes [B, C, H, W] to [B, C·H·W]. It exists as a layer
// so the network container can run conv stacks and dense heads in one
// sequence; the per-channel assignment is expanded by the dense layer
// that follows (see DenseConfig.InRepeat).
type Flatten struct {
	name    string
	inShape []int // cached feature shape (without batch) for backward
}

// NewFlatten constructs the layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

func (f *Flatten) Name() string     { return f.name }
func (f *Flatten) Params() []*Param { return nil }

func (f *Flatten) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	if x.Rank() < 2 {
		panic(fmt.Sprintf("nn: Flatten %q input %v needs rank ≥ 2", f.name, x.Shape()))
	}
	batch := x.Dim(0)
	features := x.Len() / batch
	if ctx.Train {
		f.inShape = append(f.inShape[:0], x.Shape()[1:]...)
	}
	// In pooled eval mode the output must not alias the input — the
	// recycling loop in Network.Forward would otherwise hand one
	// backing array out twice — so copy instead of returning a view;
	// the copy is trivial next to any matmul. Training forwards are
	// never recycled, so they keep the zero-cost view.
	if ctx.Scratch != nil && !ctx.Train {
		out := ctx.Scratch.GetUninit(batch, features)
		out.CopyFrom(x)
		return out
	}
	return x.Reshape(batch, features)
}

func (f *Flatten) Backward(grad *tensor.Tensor, ctx *Context) *tensor.Tensor {
	shape := append([]int{grad.Dim(0)}, f.inShape...)
	if ctx.Scratch != nil {
		out := ctx.Scratch.GetUninit(shape...)
		out.CopyFrom(grad)
		return out
	}
	return grad.Reshape(shape...)
}

// ForwardIncremental reshapes (copying under a pool, where views are
// forbidden); zero MACs.
func (f *Flatten) ForwardIncremental(x, _ *tensor.Tensor, _, _ int, pool *tensor.Pool) (*tensor.Tensor, int64) {
	batch := x.Dim(0)
	if pool != nil {
		out := pool.GetUninit(batch, x.Len()/batch)
		out.CopyFrom(x)
		return out, 0
	}
	return x.Reshape(batch, x.Len()/batch), 0
}

var _ Incremental = (*Flatten)(nil)
