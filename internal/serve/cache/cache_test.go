package cache

import (
	"math"
	"testing"

	"steppingnet/internal/infer"
	"steppingnet/internal/tensor"
)

// entry builds a logits-only entry at the given rung with a synthetic
// state of stateFloats float64s, so byte accounting is exercised
// without a real engine.
func entry(subnet, stateFloats int) *Entry {
	e := &Entry{Subnet: subnet, Logits: make([]float64, 5)}
	if stateFloats > 0 {
		e.State = &infer.LadderState{
			Subnet: subnet,
			In:     []int{1, 1, 1, 1},
			Layers: []*tensor.Tensor{tensor.New(1, stateFloats)},
		}
	}
	return e
}

// TestKeyDeterminism pins the hash contract: equal inputs hash equal,
// the hash covers every element and the length, and the bit pattern —
// not the numeric value — is what is hashed (-0 vs +0 differ, equal
// NaN payloads match). The exact values are also pinned so the key
// stays stable across processes and releases: a silent hash change
// would orphan every routed cache in a cluster.
func TestKeyDeterminism(t *testing.T) {
	x := []float64{1.5, -2.25, 0, 3e-9}
	if KeyOf(x) != KeyOf(append([]float64(nil), x...)) {
		t.Fatal("equal inputs hash differently")
	}
	y := append([]float64(nil), x...)
	y[3] = math.Nextafter(y[3], 1)
	if KeyOf(x) == KeyOf(y) {
		t.Fatal("one-ulp change did not change the key")
	}
	if KeyOf(x) == KeyOf(x[:3]) {
		t.Fatal("prefix hashes equal to full input")
	}
	if KeyOf([]float64{0}) == KeyOf([]float64{math.Copysign(0, -1)}) {
		t.Fatal("+0 and -0 should hash differently (bit-pattern hash)")
	}
	nan1 := math.Float64frombits(0x7ff8000000000001)
	if KeyOf([]float64{nan1}) != KeyOf([]float64{math.Float64frombits(0x7ff8000000000001)}) {
		t.Fatal("equal NaN payloads should hash equal")
	}
	// Pinned values: recomputing these on any platform must agree.
	if got, want := KeyOf(nil), Key(0xa8c7f832281a39c5); got != want {
		t.Fatalf("KeyOf(nil) = %#x, want %#x", got, want)
	}
	if got, want := KeyOf([]float64{1}), Key(0x38ebb0f14dbc2579); got != want {
		t.Fatalf("KeyOf([1]) = %#x, want %#x", got, want)
	}
}

// TestWidestRungWins pins the replacement policy: a Put at a narrower
// or equal rung is dropped, a wider one replaces, and byte accounting
// follows the live entry.
func TestWidestRungWins(t *testing.T) {
	c := New(Config{MaxEntries: 8, MaxBytes: 1 << 20})
	k := KeyOf([]float64{42})
	if !c.Put(k, entry(2, 64)) {
		t.Fatal("first Put should store")
	}
	if c.Put(k, entry(1, 64)) {
		t.Fatal("narrower rung should be dropped")
	}
	if c.Put(k, entry(2, 64)) {
		t.Fatal("equal rung should be dropped")
	}
	if !c.Put(k, entry(3, 128)) {
		t.Fatal("wider rung should replace")
	}
	e, ok := c.Get(k)
	if !ok || e.Subnet != 3 {
		t.Fatalf("Get returned %+v, want subnet 3", e)
	}
	ctr := c.Counters()
	if ctr.Inserts != 1 || ctr.Widens != 1 {
		t.Fatalf("counters %+v, want 1 insert 1 widen", ctr)
	}
	if c.Len() != 1 {
		t.Fatalf("Len %d, want 1", c.Len())
	}
	if want := entry(3, 128).bytes(); c.Bytes() != want {
		t.Fatalf("Bytes %d, want %d (the live entry only)", c.Bytes(), want)
	}
}

// TestLRUEviction pins the eviction order (least recently USED, where
// Get refreshes recency) and both bounds.
func TestLRUEviction(t *testing.T) {
	c := New(Config{MaxEntries: 3, MaxBytes: 1 << 20})
	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = KeyOf([]float64{float64(i)})
	}
	c.Put(keys[0], entry(1, 16))
	c.Put(keys[1], entry(1, 16))
	c.Put(keys[2], entry(1, 16))
	c.Get(keys[0]) // refresh key 0: key 1 is now LRU
	c.Put(keys[3], entry(1, 16))
	if _, ok := c.Get(keys[1]); ok {
		t.Fatal("key 1 should have been evicted (LRU)")
	}
	for _, k := range []Key{keys[0], keys[2], keys[3]} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("key %#x should be live", k)
		}
	}
	if c.Counters().Evictions != 1 {
		t.Fatalf("evictions %d, want 1", c.Counters().Evictions)
	}

	// Byte bound: one big entry evicts several small ones.
	small := entry(1, 16).bytes()
	cb := New(Config{MaxEntries: 100, MaxBytes: 4*small + entry(1, 16).bytes()})
	for i := 0; i < 4; i++ {
		cb.Put(KeyOf([]float64{10, float64(i)}), entry(1, 16))
	}
	big := entry(1, int(3*small/8))
	if !cb.Put(KeyOf([]float64{99}), big) {
		t.Fatal("big entry should store after evictions")
	}
	if cb.Bytes() > cb.cfg.MaxBytes {
		t.Fatalf("byte bound violated: %d > %d", cb.Bytes(), cb.cfg.MaxBytes)
	}
	if _, ok := cb.Get(KeyOf([]float64{99})); !ok {
		t.Fatal("big entry should be live")
	}

	// An entry alone exceeding MaxBytes is rejected without
	// disturbing the live set.
	before := cb.Len()
	if cb.Put(KeyOf([]float64{7}), entry(1, 1<<20)) {
		t.Fatal("oversized entry should be rejected")
	}
	if cb.Len() != before {
		t.Fatal("oversized Put disturbed the live set")
	}
}

// TestWidenRetainsState pins the widen-retains-state fix: a wider
// logits-only offer (State == nil — legal per the Entry doc, and
// exactly what the warming wire path can produce) replacing a
// narrower RESUMABLE entry must keep the old state, so later repeats
// can still full-hit at the new rung AND seed a climb from the
// retained rung. Byte accounting must follow the merged entry.
func TestWidenRetainsState(t *testing.T) {
	c := New(Config{MaxEntries: 8, MaxBytes: 1 << 20})
	k := KeyOf([]float64{7})
	narrow := entry(2, 64) // resumable at rung 2
	if !c.Put(k, narrow) {
		t.Fatal("first Put should store")
	}
	wide := entry(3, 0) // logits-only at rung 3
	if wide.State != nil {
		t.Fatal("test setup: wide offer should be logits-only")
	}
	if !c.Put(k, wide) {
		t.Fatal("wider offer should replace")
	}
	e, ok := c.Get(k)
	if !ok || e.Subnet != 3 {
		t.Fatalf("Get returned %+v, want rung-3 entry", e)
	}
	if e.State == nil {
		t.Fatal("widen dropped the narrower entry's resume state")
	}
	if e.State.Subnet != 2 {
		t.Fatalf("retained state at rung %d, want 2", e.State.Subnet)
	}
	// Accounting: the live entry is the merged one — rung-3 logits
	// plus the rung-2 state.
	want := (&Entry{Subnet: 3, Logits: wide.Logits, State: narrow.State}).bytes()
	if c.Bytes() != want {
		t.Fatalf("Bytes %d, want merged footprint %d", c.Bytes(), want)
	}
	// A wider offer that carries its OWN state replaces outright.
	wider := entry(4, 32)
	if !c.Put(k, wider) {
		t.Fatal("wider resumable offer should replace")
	}
	if e, _ := c.Get(k); e.State != wider.State {
		t.Fatal("resumable widen should install the new state")
	}
}

// TestLookupTouchRecency pins the recency split the serving layer
// depends on: Lookup counts but does not move the LRU order (doomed
// requests cannot churn live keys), Touch moves without counting,
// and Get remains lookup+touch.
func TestLookupTouchRecency(t *testing.T) {
	c := New(Config{MaxEntries: 3, MaxBytes: 1 << 20})
	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = KeyOf([]float64{float64(i)})
		if i < 3 {
			c.Put(keys[i], entry(1, 16))
		}
	}
	// Lookup key 0 (oldest) — recency must NOT refresh, so the next
	// insert still evicts key 0.
	if _, ok := c.Lookup(keys[0]); !ok {
		t.Fatal("Lookup should find key 0")
	}
	c.Put(keys[3], entry(1, 16))
	if _, ok := c.Peek(keys[0]); ok {
		t.Fatal("Lookup refreshed recency: key 0 survived, key 1 evicted")
	}
	// Rebuild; Touch key 0 — now it must survive.
	c = New(Config{MaxEntries: 3, MaxBytes: 1 << 20})
	for i := 0; i < 3; i++ {
		c.Put(keys[i], entry(1, 16))
	}
	c.Touch(keys[0])
	c.Put(keys[3], entry(1, 16))
	if _, ok := c.Peek(keys[0]); !ok {
		t.Fatal("Touch did not refresh recency: key 0 evicted")
	}
	if _, ok := c.Peek(keys[1]); ok {
		t.Fatal("key 1 should be the LRU victim after Touch(key 0)")
	}
	// Peek counts nothing.
	before := c.Counters()
	c.Peek(keys[0])
	c.Peek(keys[1])
	if after := c.Counters(); after != before {
		t.Fatalf("Peek moved counters: %+v -> %+v", before, after)
	}
}

// TestUnboundedConfig pins that zero bounds mean unbounded (the
// library default; the serving layer always sets both).
func TestUnboundedConfig(t *testing.T) {
	c := New(Config{})
	for i := 0; i < 100; i++ {
		c.Put(KeyOf([]float64{float64(i)}), entry(1, 8))
	}
	if c.Len() != 100 || c.Counters().Evictions != 0 {
		t.Fatalf("unbounded cache evicted: len %d, evictions %d", c.Len(), c.Counters().Evictions)
	}
}
