// Package cache implements the serving tier's semantic result cache:
// a bounded, concurrency-safe map from deterministic input hashes to
// the widest ladder rung previously reached for that input, its
// logits, and the engine-visible per-layer state (infer.LadderState)
// needed to RESUME the walk from that rung. The anytime property is
// what makes the cache semantic rather than exact-match-only in value:
// a hit whose cached rung already satisfies the request's budget is a
// free answer, and a hit below the budget still converts the cached
// rungs into a head start — the worker imports the state and climbs
// from rung k instead of rung 0, bitwise-equivalent to the cold walk
// it replaced (TestResumeMatchesColdWalk).
//
// Entries are immutable after Put: readers share the returned pointer
// without copying, and writers publish strictly wider walks by
// inserting replacement entries. Eviction is LRU within the admitted
// set, under two simultaneous bounds (entry count and total bytes),
// so cached engine states — the heavy part — cannot grow without
// limit.
//
// Admission is scan-resistant (Admit, after TinyLFU's doorkeeper):
// while the cache holds fewer than MaxEntries entries every offer is
// admitted, but once it is full a key with no live entry is
// admitted only on its second offer. The first offer is refused and
// the key remembered among the last MaxEntries refused keys (FIFO), so
// a stream of one-shot inputs cannot push the repeated ones out. Put
// itself never consults the doorkeeper: callers that hold evidence of
// demand (a widen, a peer's transfer) store directly.
//
// Entries never go stale. A cached rung is a pure function of the
// frozen model and its input: the model is fixed for the life of the
// server, and a calibration refresh changes which rung a request can
// afford, never the value of a rung. So an entry stays valid until
// the LRU bounds evict it, and there is no expiry or invalidation.
package cache

import (
	"math"
	"sync"

	"steppingnet/internal/infer"
)

// Key is a deterministic 64-bit hash of an input vector. Equal inputs
// hash equal across processes and runs (FNV-1a over the IEEE-754 bit
// patterns — no per-process seed), so keys are stable enough to route
// on in a cluster, not just to look up locally.
type Key uint64

// fnvOffset and fnvPrime are the standard FNV-1a 64-bit parameters.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// KeyOf hashes an input vector to its cache key: FNV-1a 64 over the
// little-endian IEEE-754 bit pattern of each element in order. The
// element count is folded in first, so a prefix and its extension
// cannot collide trivially. Bitwise-equal inputs — and only the bit
// pattern matters, so -0 and +0 differ and equal NaN payloads match —
// always produce equal keys.
//
// The cluster router keys its rendezvous hashing on this same value,
// so repeats of an input land on the replica whose cache holds the
// walk. The construction is therefore part of the wire contract: it
// must stay deterministic across processes and releases (the golden
// values in cache_test.go pin it).
func KeyOf(x []float64) Key {
	h := uint64(fnvOffset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime
			v >>= 8
		}
	}
	mix(uint64(len(x)))
	for _, f := range x {
		mix(math.Float64bits(f))
	}
	return Key(h)
}

// Entry is one cached result: the widest rung a previous walk reached
// for this input, the logits that rung produced, and the ladder state
// to resume from. Entries are immutable once handed to Put — the
// cache shares them by pointer with concurrent readers.
type Entry struct {
	// Subnet is the rung the entry represents (≥ 1).
	Subnet int
	// Logits is the network output at Subnet, one value per class.
	Logits []float64
	// State resumes the walk: importing it into an engine and
	// stepping to s > Subnet computes only the missing units. Nil is
	// allowed (logits-only entry); such an entry can short-circuit a
	// request whose budget the rung already covers but cannot seed a
	// climb. State.Subnet may be NARROWER than Subnet: a wider
	// logits-only offer widening a resumable entry retains the old
	// state (see Put), so the logits answer at Subnet while a resume
	// seeds at State.Subnet.
	State *infer.LadderState
}

// entryOverhead approximates the fixed per-entry bookkeeping cost
// (map slot, list element, headers) charged against MaxBytes on top
// of the tensor data, so a flood of tiny entries still hits the byte
// bound honestly.
const entryOverhead = 256

// bytes reports the entry's accounted footprint.
func (e *Entry) bytes() int64 {
	return int64(len(e.Logits))*8 + e.State.Bytes() + entryOverhead
}

// Config bounds a Cache. Zero values disable the respective bound,
// but the serving layer always sets both: cached ladder states are
// the dominant per-entry weight and must not grow without limit.
type Config struct {
	// MaxEntries caps the number of live entries (LRU evicts beyond
	// it). ≤ 0 means unbounded.
	MaxEntries int
	// MaxBytes caps the summed accounted footprint of live entries.
	// ≤ 0 means unbounded. A single entry larger than MaxBytes is
	// rejected by Put (storing it would immediately evict everything
	// including itself).
	MaxBytes int64
}

// Counters is a snapshot of the cache's monotonic event counters.
type Counters struct {
	// Hits counts lookups that found a live entry.
	Hits int64
	// Misses counts lookups that found nothing live.
	Misses int64
	// Inserts counts Puts that stored a new key.
	Inserts int64
	// Widens counts Puts that replaced a live entry with a wider rung.
	Widens int64
	// Evictions counts live entries the LRU bounds removed. An
	// oversized Put rejected outright is not an eviction (nothing
	// live was removed), so Len() == Inserts − Evictions always holds
	// — an invariant the fuzz target leans on.
	Evictions int64
	// Refused counts offers Admit turned away: first offers of a key
	// with no live entry while the cache was full.
	Refused int64
}

// Stats is a coherent snapshot of the cache's gauges and counters,
// taken under one lock acquisition — Len, Bytes and the counters are
// mutually consistent (e.g. Len == Counters.Inserts −
// Counters.Evictions holds exactly), which three separate accessor
// calls cannot guarantee under concurrent churn.
type Stats struct {
	// Len is the number of live entries.
	Len int
	// Bytes is the summed accounted footprint of live entries.
	Bytes int64
	// Counters is the monotonic event-counter snapshot.
	Counters Counters
}

// Cache is the bounded semantic result cache. All methods are safe
// for concurrent use; the zero value is not usable — construct with
// New.
type Cache struct {
	mu    sync.Mutex
	cfg   Config
	items map[Key]*node
	// Intrusive LRU list: head.next is most recently used, head.prev
	// least. A sentinel head keeps link/unlink branch-free.
	head  node
	bytes int64
	ctr   Counters
	// The admission doorkeeper (Admit): door maps each remembered
	// refused key to its refusal sequence number (the value of
	// ctr.Refused when it was refused); doorRing holds the last
	// MaxEntries refused keys in slots seq % MaxEntries, so the oldest
	// is forgotten as a new one arrives.
	door     map[Key]int64
	doorRing []Key
}

// node is one LRU slot. Entries travel by pointer and are immutable;
// only the links and the slot's identity mutate under the lock.
type node struct {
	key        Key
	entry      *Entry
	size       int64
	prev, next *node
}

// New builds an empty cache bounded by cfg.
func New(cfg Config) *Cache {
	c := &Cache{cfg: cfg, items: make(map[Key]*node)}
	if cfg.MaxEntries > 0 {
		c.door = make(map[Key]int64, cfg.MaxEntries)
		c.doorRing = make([]Key, cfg.MaxEntries)
	}
	c.head.prev = &c.head
	c.head.next = &c.head
	return c
}

// Get returns the live entry for k, marking it most recently used.
// The returned entry is shared and immutable — callers must not
// mutate it. Callers that may still abandon the request
// (admission, deadline checks) should use Lookup + Touch instead, so
// doomed work cannot churn the LRU order.
func (c *Cache) Get(k Key) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.items[k]
	if !ok {
		c.ctr.Misses++
		return nil, false
	}
	c.ctr.Hits++
	c.unlink(n)
	c.pushFront(n)
	return n.entry, true
}

// Lookup is Get without the recency refresh: it counts the hit or
// miss but leaves the LRU order untouched.
// The serving layer looks entries up at batch formation and calls
// Touch only for requests that actually reach an answer or a walk —
// a flood of requests that are then rejected downstream must not
// push live keys toward eviction.
func (c *Cache) Lookup(k Key) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.items[k]
	if !ok {
		c.ctr.Misses++
		return nil, false
	}
	c.ctr.Hits++
	return n.entry, true
}

// Peek returns the live entry for k without counting a hit or miss
// and without refreshing recency. It serves observers that
// are not request traffic: the speculative pre-climber choosing work
// and the warming endpoint exporting entries to peers.
func (c *Cache) Peek(k Key) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.items[k]
	if !ok {
		return nil, false
	}
	return n.entry, true
}

// Touch marks k most recently used if it is live, and is otherwise a
// no-op. Pairs with Lookup: recency moves only when the looked-up
// request commits to using the entry.
func (c *Cache) Touch(k Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.items[k]; ok {
		c.unlink(n)
		c.pushFront(n)
	}
}

// Admit reports whether a walk for k should be offered to Put: the
// scan-resistant admission rule. A live key is always admitted (its
// offer can only widen), and so is any key while the cache holds
// fewer than MaxEntries entries (or has no entry bound). Once it is
// full, a key's first offer is refused — counted in Refused — and the
// key remembered among the last MaxEntries refused keys; a second
// offer while it is still remembered is admitted and forgets it.
// Callers ask before building the entry, so a refused offer costs
// nothing.
func (c *Cache) Admit(k Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[k]; ok {
		return true
	}
	if c.cfg.MaxEntries <= 0 || len(c.items) < c.cfg.MaxEntries {
		return true
	}
	if _, ok := c.door[k]; ok {
		delete(c.door, k)
		return true
	}
	// Remember k in the oldest slot, forgetting the slot's previous
	// key unless it has since been admitted and refused anew.
	seq, n := c.ctr.Refused, int64(len(c.doorRing))
	if s, ok := c.door[c.doorRing[seq%n]]; ok && s == seq-n {
		delete(c.door, c.doorRing[seq%n])
	}
	c.doorRing[seq%n] = k
	c.door[k] = seq
	c.ctr.Refused++
	return false
}

// Put offers an entry for k and reports whether it was stored. An
// existing live entry at an equal or wider rung wins (the offer is
// dropped — the cache keeps only the widest walk per key, and a
// narrower result adds nothing). A wider offer that carries no
// resume state retains the replaced entry's state (re-accounted),
// so widening never destroys resumability. Storing may evict
// least-recently-used entries to restore the bounds; an entry that
// alone exceeds MaxBytes is rejected without disturbing the rest.
func (c *Cache) Put(k Key, e *Entry) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e == nil || e.Subnet < 1 {
		return false
	}
	size := e.bytes()
	if c.cfg.MaxBytes > 0 && size > c.cfg.MaxBytes {
		return false
	}
	if n, ok := c.items[k]; ok {
		if n.entry.Subnet >= e.Subnet {
			// Keep the wider (or equal) walk; refresh recency — the
			// key is demonstrably hot.
			c.unlink(n)
			c.pushFront(n)
			return false
		}
		if e.State == nil && n.entry.State != nil {
			// Widen-retains-state: a wider logits-only offer must not
			// destroy the narrower entry's resumability. Merge: the
			// new rung's logits answer, the old state still seeds a
			// climb (from State.Subnet). Skipped only if the merged
			// footprint alone would bust the byte bound.
			merged := &Entry{Subnet: e.Subnet, Logits: e.Logits, State: n.entry.State}
			if ms := merged.bytes(); c.cfg.MaxBytes <= 0 || ms <= c.cfg.MaxBytes {
				e, size = merged, ms
			}
		}
		c.bytes -= n.size
		n.entry, n.size = e, size
		c.bytes += size
		c.unlink(n)
		c.pushFront(n)
		c.ctr.Widens++
		c.evictOver()
		return true
	}
	n := &node{key: k, entry: e, size: size}
	c.items[k] = n
	c.bytes += size
	c.pushFront(n)
	c.ctr.Inserts++
	c.evictOver()
	return true
}

// evictOver drops least-recently-used entries until both bounds hold.
// Caller holds the lock.
func (c *Cache) evictOver() {
	for (c.cfg.MaxEntries > 0 && len(c.items) > c.cfg.MaxEntries) ||
		(c.cfg.MaxBytes > 0 && c.bytes > c.cfg.MaxBytes) {
		lru := c.head.prev
		if lru == &c.head {
			return
		}
		c.unlink(lru)
		delete(c.items, lru.key)
		c.bytes -= lru.size
		c.ctr.Evictions++
	}
}

// unlink removes n from the LRU list. Caller holds the lock.
func (c *Cache) unlink(n *node) {
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev, n.next = nil, nil
}

// pushFront marks n most recently used. Caller holds the lock.
func (c *Cache) pushFront(n *node) {
	n.next = c.head.next
	n.prev = &c.head
	c.head.next.prev = n
	c.head.next = n
}

// Len reports the number of live entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Bytes reports the summed accounted footprint of live entries.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Counters returns a snapshot of the event counters.
func (c *Cache) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ctr
}

// Stats returns the gauges and counters as one coherent snapshot
// taken under a single lock acquisition. Prefer it over separate
// Len/Bytes/Counters calls wherever the values are reported together
// — a composite read across three acquisitions can tear against
// concurrent Put/evict traffic.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Len: len(c.items), Bytes: c.bytes, Counters: c.ctr}
}
