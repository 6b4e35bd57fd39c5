package cache

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// remembered lists the doorkeeper's remembered refused keys, oldest
// first.
func (c *Cache) remembered() []Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Key
	n := int64(len(c.doorRing))
	for seq := max(0, c.ctr.Refused-n); seq < c.ctr.Refused; seq++ {
		k := c.doorRing[seq%n]
		if s, ok := c.door[k]; ok && s == seq {
			out = append(out, k)
		}
	}
	return out
}

// admitKeys returns n distinct keys.
func admitKeys(n int) []Key {
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = KeyOf([]float64{float64(i)})
	}
	return keys
}

// fill stores the given keys, in order, into c.
func fill(t *testing.T, c *Cache, keys []Key) {
	t.Helper()
	for _, k := range keys {
		if !c.Admit(k) || !c.Put(k, entry(1, 16)) {
			t.Fatalf("key %#x not stored while the cache had room", k)
		}
	}
}

// TestAdmitWithRoom pins that a cache below its entry bound admits
// every key, and that an unbounded cache never refuses.
func TestAdmitWithRoom(t *testing.T) {
	c := New(Config{MaxEntries: 3, MaxBytes: 1 << 20})
	fill(t, c, admitKeys(3))
	if ctr := c.Counters(); ctr.Refused != 0 || ctr.Inserts != 3 {
		t.Fatalf("counters %+v, want 3 inserts and no refusals", ctr)
	}
	u := New(Config{})
	for _, k := range admitKeys(50) {
		if !u.Admit(k) {
			t.Fatal("an unbounded cache refused an offer")
		}
		u.Put(k, entry(1, 8))
	}
}

// TestAdmitRefusesFirstOfferWhenFull pins the doorkeeper: once the
// cache is full, a new key's first offer is refused, counted and
// remembered, and the live set is left untouched.
func TestAdmitRefusesFirstOfferWhenFull(t *testing.T) {
	keys := admitKeys(4)
	c := New(Config{MaxEntries: 3, MaxBytes: 1 << 20})
	fill(t, c, keys[:3])
	if c.Admit(keys[3]) {
		t.Fatal("a full cache admitted a first offer")
	}
	if got := c.remembered(); !slices.Equal(got, keys[3:]) {
		t.Fatalf("remembered %x, want %x", got, keys[3:])
	}
	st := c.Stats()
	if st.Counters.Refused != 1 || st.Len != 3 || st.Counters.Evictions != 0 {
		t.Fatalf("after one refusal: %+v, want 1 refused, 3 live, 0 evictions", st)
	}
}

// TestAdmitSecondOfferEvictsLRU pins the second offer: a remembered
// key is admitted (and forgotten), and its Put evicts the LRU victim
// exactly as any insert into a full cache does.
func TestAdmitSecondOfferEvictsLRU(t *testing.T) {
	keys := admitKeys(4)
	c := New(Config{MaxEntries: 3, MaxBytes: 1 << 20})
	fill(t, c, keys[:3])
	c.Touch(keys[0]) // key 1 is now the LRU victim
	c.Admit(keys[3])
	if !c.Admit(keys[3]) {
		t.Fatal("a second offer was refused")
	}
	if got := c.remembered(); len(got) != 0 {
		t.Fatalf("admitted key still remembered: %x", got)
	}
	if !c.Put(keys[3], entry(1, 16)) {
		t.Fatal("Put of an admitted key did not store")
	}
	if _, ok := c.Peek(keys[1]); ok {
		t.Fatal("key 1 should have been evicted as the LRU victim")
	}
	for _, k := range []Key{keys[0], keys[2], keys[3]} {
		if _, ok := c.Peek(k); !ok {
			t.Fatalf("key %#x should be live", k)
		}
	}
	if ctr := c.Counters(); ctr.Refused != 1 || ctr.Evictions != 1 || ctr.Inserts != 4 {
		t.Fatalf("counters %+v, want 1 refused, 1 eviction, 4 inserts", ctr)
	}
}

// TestDoorkeeperFIFOBound pins the remembered set: at most MaxEntries
// keys, oldest forgotten first, an admitted key leaving from the
// middle without disturbing the others, and a forgotten key starting
// over at its next offer.
func TestDoorkeeperFIFOBound(t *testing.T) {
	keys := admitKeys(12)
	c := New(Config{MaxEntries: 3, MaxBytes: 1 << 20})
	fill(t, c, keys[:3])
	for _, k := range keys[3:10] {
		if c.Admit(k) {
			t.Fatalf("first offer of %#x admitted", k)
		}
	}
	if got, want := c.remembered(), keys[7:10]; !slices.Equal(got, want) {
		t.Fatalf("remembered %x, want the last three refusals %x", got, want)
	}
	if c.Admit(keys[3]) {
		t.Fatal("a forgotten key was admitted as a second offer")
	}
	if got, want := c.remembered(), []Key{keys[8], keys[9], keys[3]}; !slices.Equal(got, want) {
		t.Fatalf("remembered %x, want %x", got, want)
	}
	if !c.Admit(keys[9]) {
		t.Fatal("a remembered key was refused")
	}
	if got, want := c.remembered(), []Key{keys[8], keys[3]}; !slices.Equal(got, want) {
		t.Fatalf("after admitting from the middle: remembered %x, want %x", got, want)
	}
	c.Admit(keys[10])
	c.Admit(keys[11])
	if got, want := c.remembered(), []Key{keys[3], keys[10], keys[11]}; !slices.Equal(got, want) {
		t.Fatalf("remembered %x, want %x", got, want)
	}
	if got := c.Counters().Refused; got != 10 {
		t.Fatalf("Refused = %d, want 10", got)
	}
}

// TestAdmitLiveKeyBypassesDoorkeeper pins that a live key's offer (a
// widen) is always admitted and never touches the doorkeeper or the
// refusal counter.
func TestAdmitLiveKeyBypassesDoorkeeper(t *testing.T) {
	keys := admitKeys(3)
	c := New(Config{MaxEntries: 3, MaxBytes: 1 << 20})
	fill(t, c, keys)
	for i := 0; i < 5; i++ {
		for _, k := range keys {
			if !c.Admit(k) {
				t.Fatalf("live key %#x refused", k)
			}
		}
	}
	if got := c.remembered(); len(got) != 0 || c.Counters().Refused != 0 {
		t.Fatalf("live offers reached the doorkeeper: remembered %x, refused %d", got, c.Counters().Refused)
	}
	if !c.Put(keys[0], entry(2, 16)) || c.Counters().Widens != 1 {
		t.Fatal("widen of a live key not stored")
	}
}

// TestAdmissionResistsScans replays the repeat workload's input mix
// through two 6-entry caches that split the keys between them, as two
// affinity-routed replicas do: 60% of requests re-send one of 16 hot
// inputs drawn zipf(0.5), the rest walk a 1024-input cold ring. A
// plain LRU, storing every walk, lets the one-shot cold inputs evict
// the hot set (hit rate 0.26–0.28); the doorkeeper keeps it.
func TestAdmissionResistsScans(t *testing.T) {
	const hot, cold, requests = 16, 1024, 20000
	zipf := make([]float64, hot)
	sum := 0.0
	for k := range zipf {
		sum += 1 / math.Sqrt(float64(k+1))
		zipf[k] = sum
	}
	keys := admitKeys(hot + cold)
	replay := func(admit bool) float64 {
		caches := [2]*Cache{
			New(Config{MaxEntries: 6, MaxBytes: 1 << 20}),
			New(Config{MaxEntries: 6, MaxBytes: 1 << 20}),
		}
		r := rand.New(rand.NewPCG(1, 2))
		hits, next := 0, 0
		for i := 0; i < requests; i++ {
			in := hot + next%cold
			if r.Float64() < 0.6 {
				x := r.Float64() * sum
				for in = 0; in < hot-1 && x >= zipf[in]; in++ {
				}
			} else {
				next++
			}
			c, k := caches[in%2], keys[in]
			if _, ok := c.Get(k); ok {
				hits++
				continue
			}
			if !admit || c.Admit(k) {
				c.Put(k, entry(1, 16))
			}
		}
		return float64(hits) / requests
	}
	lru, door := replay(false), replay(true)
	t.Logf("hit rate: plain LRU %.3f, with admission %.3f", lru, door)
	if lru >= 0.30 {
		t.Fatalf("plain LRU hit rate %.3f: the replay no longer scans the cache", lru)
	}
	if door < 0.40 {
		t.Fatalf("hit rate with admission %.3f, want ≥ 0.40 (plain LRU %.3f)", door, lru)
	}
}
