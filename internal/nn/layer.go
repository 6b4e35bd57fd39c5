package nn

import (
	"steppingnet/internal/subnet"
	"steppingnet/internal/tensor"
)

// Layer is the building block of a Network. Forward consumes a batch
// (first dimension is the batch) and returns the layer output;
// Backward consumes the gradient of the loss with respect to the
// layer output and returns the gradient with respect to the layer
// input, accumulating parameter gradients along the way. Backward may
// rely on caches written by the immediately preceding Forward with
// Train=true.
type Layer interface {
	Name() string
	Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor
	Backward(grad *tensor.Tensor, ctx *Context) *tensor.Tensor
	Params() []*Param
}

// Masked is implemented by width-bearing layers (dense, conv) whose
// units participate in subnet construction.
type Masked interface {
	Layer

	// Rule reports the layer's masking rule.
	Rule() MaskRule
	// OutAssignment returns the unit→subnet assignment of this
	// layer's output units (neurons / filters).
	OutAssignment() *subnet.Assignment
	// InAssignment returns the assignment governing the layer's
	// input elements together with the repeat factor: input element
	// i belongs to group unit i/repeat (repeat > 1 after a Flatten).
	InAssignment() (a *subnet.Assignment, repeat int)

	// MACs returns the multiply-accumulate count of the layer when
	// running subnet s (active, unpruned synapses only).
	MACs(s int) int64
	// UnitMACs returns the incoming MACs of output unit o in subnet
	// s — the cost freed from subnet s if o were moved out of it.
	UnitMACs(o, s int) int64

	// PruneBelow marks every active weight with |w| < threshold as
	// pruned. Pruned weights stay in the parameter tensor and keep
	// training (the paper keeps them updatable so importance stays
	// meaningful); they contribute neither MACs nor forward signal.
	PruneBelow(threshold float64) int
	// ReviveUnit clears the prune mask on the incoming synapses of
	// output unit o. Called when o moves to another subnet, because
	// "these synapses may be essential to the new subnet" (§III-A1).
	ReviveUnit(o int)
	// PrunedCount reports how many weights are currently pruned.
	PrunedCount() int
	// PruneMask returns a copy of the per-weight prune mask
	// (row-major, out×in for dense, outC×(inC·K·K) for conv).
	PruneMask() []bool
	// SetPruneMask replaces the prune mask; the length must match.
	SetPruneMask(mask []bool) error

	// EnableImportance allocates accumulators for |∂L_s/∂r_o| for
	// subnets 1..n; ResetImportance zeroes them; Importance returns
	// the accumulated values indexed [subnet-1][unit].
	EnableImportance(n int)
	ResetImportance()
	Importance() [][]float64

	// Edge exposes the layer's connectivity for structural
	// validation via subnet.Validate.
	Edge() *subnet.Edge
}

// Incremental is implemented by layers that support anytime
// inference: ForwardIncremental reuses previously computed outputs of
// units with assignment ≤ sPrev (cached) and computes only units with
// sPrev < assignment ≤ s, returning the complete subnet-s output and
// the number of MACs actually executed. For sPrev = 0 it computes
// everything active in s. The incremental property guarantees the
// result equals a from-scratch Forward at subnet s; infer.Engine
// checks this invariant when auditing is enabled.
//
// pool supplies the output and temporary buffers (nil falls back to
// plain allocation); the caller owns the returned tensor and may Put
// it back once done. Implementations must not touch layer state, so
// the engine can fan a batch out across goroutines — each worker
// passing its own pool.
type Incremental interface {
	ForwardIncremental(x, cached *tensor.Tensor, sPrev, s int, pool *tensor.Pool) (out *tensor.Tensor, macs int64)
}

// maskedEffectiveID returns the effective group id of flattened input
// element i under a repeat factor.
func maskedEffectiveID(a *subnet.Assignment, repeat, i int) int {
	return a.ID(i / repeat)
}
