package infer

import (
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"steppingnet/internal/models"
	"steppingnet/internal/nn"
	"steppingnet/internal/tensor"
)

// intraGridModel builds one model of the odd-shape property grid:
// input sizes that do and do not survive the pooling stages, channel
// counts and expansions that produce odd filter counts (unroll
// remainders in every kernel), and per-seed random assignments.
func intraGridModel(seed uint64, inC, inH int, expansion float64) *models.Model {
	m := models.LeNet3C1L(models.Options{
		Classes: 5, InC: inC, InH: inH, InW: inH, Expansion: expansion,
		Subnets: 3, Rule: nn.RuleIncremental, Seed: seed,
	})
	r := tensor.NewRNG(seed ^ 0x17A7)
	for _, mv := range m.Movable {
		a := mv.OutAssignment()
		for i := 0; i < a.Units(); i++ {
			a.SetID(i, 1+r.Intn(3))
		}
		a.SetID(0, 1)
	}
	return m
}

// TestResumeMatchesColdWalk is the cross-request resume-equivalence
// gate: over a property grid of odd model shapes, exporting the ladder state
// at rung k, importing it into a FRESH engine and climbing k+1..n must
// produce logits BITWISE identical to a cold walk to each rung — at
// every worker count in {1, 2, 4, GOMAXPROCS}, on whichever GEMM
// backend is active (ci.sh runs it under both). It also pins the exact
// MAC accounting of resumed walks: the resumed rungs themselves cost 0
// new MACs (TotalMACs restarts at the import), and each climbed step
// executes exactly the MACs the cold walk's same step executed.
func TestResumeMatchesColdWalk(t *testing.T) {
	grid := []struct {
		inC, inH  int
		expansion float64
	}{
		{1, 8, 1.0},
		{3, 9, 1.3},  // odd input: pooling stages skip, odd conv rows
		{2, 12, 1.7}, // odd filter counts from the expansion
	}
	const n = 3 // subnets in the grid models
	workerCounts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	for gi, gcase := range grid {
		m := intraGridModel(uint64(131+gi), gcase.inC, gcase.inH, gcase.expansion)
		x := tensor.New(1, gcase.inC, gcase.inH, gcase.inH)
		x.FillNormal(tensor.NewRNG(uint64(197+gi)), 0, 1)

		// Cold reference: serial walk 1..n, recording each rung's
		// logits and per-step MACs.
		cold := NewEngine(m.Net)
		cold.Workers = 1
		cold.Reset(x)
		coldOut := make([][]float64, n+1)
		coldMACs := make([]int64, n+1)
		states := make([]*LadderState, n+1)
		for s := 1; s <= n; s++ {
			out, macs, err := cold.Step(s)
			if err != nil {
				t.Fatal(err)
			}
			coldOut[s] = append([]float64(nil), out.Data()...)
			coldMACs[s] = macs

			// Export at every rung along the way: states snapshot the
			// walk without perturbing it (the cold walk keeps producing
			// the same logits after each export).
			states[s], err = cold.ExportState(0)
			if err != nil {
				t.Fatal(err)
			}
			if states[s].Subnet != s {
				t.Fatalf("grid %d: exported subnet %d at rung %d", gi, states[s].Subnet, s)
			}
		}
		cold.Close()

		// checkResume imports st at every worker count and climbs to
		// the top: bitwise logits and exact MACs per climbed step,
		// regardless of how st was produced.
		checkResume := func(label string, st *LadderState) {
			t.Helper()
			s := st.Subnet
			for _, w := range workerCounts {
				r := NewEngine(m.Net)
				r.Workers = w
				if err := r.ImportState(x, st); err != nil {
					t.Fatal(err)
				}
				if r.Current() != s {
					t.Fatalf("grid %d %s rung %d workers=%d: Current()=%d after import", gi, label, s, w, r.Current())
				}
				if got := r.Output().Data(); len(got) != len(coldOut[s]) {
					t.Fatalf("grid %d %s rung %d: imported output length %d, cold %d", gi, label, s, len(got), len(coldOut[s]))
				}
				for e, v := range r.Output().Data() {
					if v != coldOut[s][e] {
						t.Fatalf("grid %d %s rung %d workers=%d: imported logit[%d]=%v, cold %v", gi, label, s, w, e, v, coldOut[s][e])
					}
				}
				var climbed int64
				for up := s + 1; up <= n; up++ {
					out, macs, err := r.Step(up)
					if err != nil {
						t.Fatal(err)
					}
					if macs != coldMACs[up] {
						t.Fatalf("grid %d %s resume@%d→%d workers=%d: %d MACs, cold step %d",
							gi, label, s, up, w, macs, coldMACs[up])
					}
					climbed += macs
					for e, v := range out.Data() {
						if v != coldOut[up][e] {
							t.Fatalf("grid %d %s resume@%d→%d workers=%d: logit[%d] rounds differently: %v vs cold %v",
								gi, label, s, up, w, e, v, coldOut[up][e])
						}
					}
				}
				// Resumed rungs cost 0 new MACs: the engine's meter
				// holds exactly the climbed steps' work.
				if r.TotalMACs() != climbed {
					t.Fatalf("grid %d %s resume@%d workers=%d: TotalMACs %d, climbed steps sum %d",
						gi, label, s, w, r.TotalMACs(), climbed)
				}
				r.Close()
			}
		}

		// Resume from every rung: the directly exported state, the
		// same state round-tripped through its JSON wire form (the
		// cluster warming path), and — below the top rung — a
		// SPECULATED state: imported, climbed one rung by a scratch
		// engine (the idle-window pre-climb op), and re-exported. All
		// three must be indistinguishable to the resumer.
		for s := 1; s <= n; s++ {
			checkResume("direct", states[s])
			checkResume("wire", wireRoundTrip(t, states[s]))
			if s < n {
				spec := NewEngine(m.Net)
				spec.Workers = 1
				if err := spec.ImportState(x, states[s]); err != nil {
					t.Fatal(err)
				}
				spec.MustStep(s + 1)
				specSt, err := spec.ExportState(0)
				if err != nil {
					t.Fatal(err)
				}
				spec.Close()
				checkResume("speculated", specSt)
				checkResume("speculated-wire", wireRoundTrip(t, specSt))
			}
		}
	}
}

// wireRoundTrip pushes a state through its portable wire form and a
// real JSON encode/decode — the exact path a warmed cache entry
// travels between replicas — and returns the rebuilt state. Bitwise
// fidelity is asserted by the caller's resume check.
func wireRoundTrip(t *testing.T, st *LadderState) *LadderState {
	t.Helper()
	w, err := st.Wire()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var back WireState
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := back.State()
	if err != nil {
		t.Fatal(err)
	}
	return rebuilt
}

// TestWireStateRejectsMalformed pins the wire-form validation: a
// payload whose shape disagrees with its data, claims a multi-image
// batch, or carries a non-positive subnet must be rejected by State
// before it can reach an engine; Wire refuses non-finite values
// (JSON cannot carry them).
func TestWireStateRejectsMalformed(t *testing.T) {
	m := intraGridModel(171, 1, 8, 1.0)
	x := tensor.New(1, 1, 8, 8)
	x.FillNormal(tensor.NewRNG(271), 0, 1)
	e := NewEngine(m.Net)
	e.Workers = 1
	defer e.Close()
	e.Reset(x)
	e.MustStep(2)
	st, err := e.ExportState(0)
	if err != nil {
		t.Fatal(err)
	}
	good, err := st.Wire()
	if err != nil {
		t.Fatal(err)
	}

	bad := *good
	bad.Subnet = 0
	if _, err := bad.State(); err == nil {
		t.Fatal("subnet 0 wire state should be rejected")
	}
	bad = *good
	bad.In = []int{2, 1, 8, 8}
	if _, err := bad.State(); err == nil {
		t.Fatal("multi-image wire state should be rejected")
	}
	bad = *good
	bad.Layers = append([]WireTensor(nil), good.Layers...)
	bad.Layers[0] = WireTensor{Shape: []int{1, 4}, Data: []float64{1, 2, 3}}
	if _, err := bad.State(); err == nil {
		t.Fatal("shape/data mismatch should be rejected")
	}
	bad = *good
	bad.Layers = append([]WireTensor(nil), good.Layers...)
	bad.Layers[0] = WireTensor{Shape: []int{2, 2}, Data: []float64{1, 2, 3, 4}}
	if _, err := bad.State(); err == nil {
		t.Fatal("non-batch-1 wire layer should be rejected")
	}
	bad = *good
	bad.Layers = nil
	if _, err := bad.State(); err == nil {
		t.Fatal("layerless wire state should be rejected")
	}

	// Wire refuses non-finite values.
	poisoned := *st
	poisoned.Layers = append([]*tensor.Tensor(nil), st.Layers...)
	pt := tensor.New(poisoned.Layers[0].Shape()...)
	copy(pt.Data(), poisoned.Layers[0].Data())
	pt.Data()[0] = math.NaN()
	poisoned.Layers[0] = pt
	if _, err := poisoned.Wire(); err == nil {
		t.Fatal("Wire should reject NaN state")
	}
}

// TestExportRowFromBatchedWalk pins the serving-tier export path: a
// multi-image batch walks to rung k together, each row's state is
// exported individually, and resuming any row in a fresh batch-1
// engine matches that row's own cold batch-1 walk bitwise — so a
// batched server can cache every request of a batch after one walk.
func TestExportRowFromBatchedWalk(t *testing.T) {
	const batch, n = 3, 3
	m := intraGridModel(151, 2, 8, 1.4)
	xb := tensor.New(batch, 2, 8, 8)
	xb.FillNormal(tensor.NewRNG(251), 0, 1)

	be := NewEngine(m.Net)
	be.Workers = 2
	defer be.Close()
	be.Reset(xb)
	const k = 2
	for s := 1; s <= k; s++ {
		be.MustStep(s)
	}

	rowLen := xb.Len() / batch
	for row := 0; row < batch; row++ {
		st, err := be.ExportState(row)
		if err != nil {
			t.Fatal(err)
		}
		x1 := tensor.New(1, 2, 8, 8)
		copy(x1.Data(), xb.Data()[row*rowLen:(row+1)*rowLen])

		coldE := NewEngine(m.Net)
		coldE.Workers = 1
		coldE.Reset(x1)
		var coldTop []float64
		for s := 1; s <= n; s++ {
			out, _, err := coldE.Step(s)
			if err != nil {
				t.Fatal(err)
			}
			if s == k {
				for e, v := range st.Layers[len(st.Layers)-1].Data() {
					if v != out.Data()[e] {
						t.Fatalf("row %d: exported rung-%d logit[%d]=%v, cold %v", row, k, e, st.Layers[len(st.Layers)-1].Data()[e], out.Data()[e])
					}
				}
			}
			if s == n {
				coldTop = append([]float64(nil), out.Data()...)
			}
		}

		r := NewEngine(m.Net)
		r.Workers = 1
		if err := r.ImportState(x1, st); err != nil {
			t.Fatal(err)
		}
		out, _, err := r.Step(n)
		if err != nil {
			t.Fatal(err)
		}
		for e, v := range out.Data() {
			if v != coldTop[e] {
				t.Fatalf("row %d resumed logit[%d]=%v, cold %v", row, e, v, coldTop[e])
			}
		}
	}
}

// TestImportStateRejectsMismatch pins the structural validation of
// ImportState: nil states, subnet 0, wrong layer counts, multi-image
// inputs, input-shape mismatches and non-batch-1 layer tensors are all
// rejected with an error before the engine is touched, and ExportState
// refuses to snapshot an unwalked engine or an out-of-range row.
func TestImportStateRejectsMismatch(t *testing.T) {
	m := intraGridModel(161, 1, 8, 1.0)
	x := tensor.New(1, 1, 8, 8)
	x.FillNormal(tensor.NewRNG(261), 0, 1)
	e := NewEngine(m.Net)
	e.Workers = 1
	e.Reset(x)

	if _, err := e.ExportState(0); err == nil {
		t.Fatal("ExportState before any Step should fail")
	}
	e.MustStep(2)
	if _, err := e.ExportState(1); err == nil {
		t.Fatal("ExportState row out of range should fail")
	}
	st, err := e.ExportState(0)
	if err != nil {
		t.Fatal(err)
	}

	fresh := func() *Engine {
		r := NewEngine(m.Net)
		r.Workers = 1
		return r
	}
	if err := fresh().ImportState(x, nil); err == nil {
		t.Fatal("nil state should be rejected")
	}
	bad := *st
	bad.Subnet = 0
	if err := fresh().ImportState(x, &bad); err == nil {
		t.Fatal("subnet 0 should be rejected")
	}
	bad = *st
	bad.Layers = st.Layers[:len(st.Layers)-1]
	if err := fresh().ImportState(x, &bad); err == nil {
		t.Fatal("wrong layer count should be rejected")
	}
	bad = *st
	bad.Layers = append([]*tensor.Tensor(nil), st.Layers...)
	bad.Layers[0] = nil
	if err := fresh().ImportState(x, &bad); err == nil {
		t.Fatal("nil layer tensor should be rejected")
	}
	bad = *st
	bad.Layers = append([]*tensor.Tensor(nil), st.Layers...)
	bad.Layers[1] = tensor.New(2, bad.Layers[1].Len())
	if err := fresh().ImportState(x, &bad); err == nil {
		t.Fatal("non-batch-1 layer tensor should be rejected")
	}
	x2 := tensor.New(2, 1, 8, 8)
	if err := fresh().ImportState(x2, st); err == nil {
		t.Fatal("multi-image input should be rejected")
	}
	xw := tensor.New(1, 1, 8, 9)
	if err := fresh().ImportState(xw, st); err == nil {
		t.Fatal("input shape mismatch should be rejected")
	}
	if err := fresh().ImportState(nil, st); err == nil {
		t.Fatal("nil input should be rejected")
	}

	// The state itself is still importable after all the rejections
	// (they must not have mutated it), and a valid import still works.
	r := fresh()
	if err := r.ImportState(x, st); err != nil {
		t.Fatal(err)
	}
	if r.Current() != 2 {
		t.Fatalf("Current()=%d after valid import", r.Current())
	}
}

// TestResumedClimbZeroAlloc pins that the semantic cache does not
// cost the hot walk its zero-allocation budget: at steady state (pool
// warm), a full import-and-climb cycle — ImportState seeding every
// layer from the recycle pool, then stepping to the top — allocates
// nothing, exactly like the cold walk the engine benchmarks gate.
func TestResumedClimbZeroAlloc(t *testing.T) {
	m := buildModel(61)
	x := tensor.New(1, 1, 8, 8)
	x.FillNormal(tensor.NewRNG(62), 0, 1)
	e := NewEngine(m.Net)
	e.Workers = 1
	defer e.Close()
	e.Reset(x)
	e.MustStep(1)
	e.MustStep(2)
	st, err := e.ExportState(0)
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		if err := e.ImportState(x, st); err != nil {
			t.Fatal(err)
		}
		e.MustStep(3)
	}
	for i := 0; i < 3; i++ {
		cycle() // warm the recycle pool to steady state
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("resumed climb allocates %v times per run, want 0", allocs)
	}
}
