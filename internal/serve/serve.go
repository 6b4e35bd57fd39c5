// Package serve turns the anytime engine into a concurrent inference
// service: the paper's MAC-budgeted subnet ladder becomes a
// load-management mechanism. A pool of workers — each owning one
// infer.Engine with its persistent shard state and buffer pools —
// executes micro-batches that a central batch former assembles from a
// bounded, priority-ordered admission queue. A deadline-aware
// scheduler walks every request up the ladder only as far as its
// deadline allows, using per-subnet step latencies calibrated at
// startup (infer.Engine.CalibrateSteps threaded through
// governor.LatencyModel) and kept honest by an optional background
// calibration-refresh loop fed with live step timings. Queue-pressure
// signals cap the ladder under overload so the service degrades to
// narrower answers instead of queuing unboundedly — and with priority
// classes configured, low-priority traffic narrows and sheds first,
// protecting high-priority deadlines. Every answer reports which
// subnet produced it, the MACs actually spent, and whether the
// deadline was met.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"steppingnet/internal/governor"
	"steppingnet/internal/infer"
	"steppingnet/internal/models"
	"steppingnet/internal/serve/cache"
	"steppingnet/internal/tensor"
)

// ErrClosed is returned by Submit after Close has begun: the server
// no longer admits work (in-flight and already-queued requests still
// drain to completion).
var ErrClosed = errors.New("serve: server closed")

// ErrOverloaded is returned by Submit when the request's priority
// class has exhausted its share of the bounded admission queue, or
// when the request's deadline is already unmeetable given the
// measured backlog ahead of its class (the predicted queue wait alone
// exceeds it). It is the service's fast-fail signal: callers should
// back off (or retry with a longer deadline) rather than pile on —
// serving a guaranteed-late answer would only steal capacity from
// requests that can still make their deadlines.
var ErrOverloaded = errors.New("serve: overloaded")

// ErrBadInput is returned (wrapped) by Submit when the request input
// does not match the model's input geometry.
var ErrBadInput = errors.New("serve: bad input")

// Config parameterizes a Server.
type Config struct {
	// Model is the constructed stepping model to serve. Required.
	Model *models.Model
	// Subnets is the ladder depth n the model was constructed with.
	// Required, ≥ 1.
	Subnets int
	// Workers sets the engine-pool size (one infer.Engine per
	// worker). 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission queue; a class that has filled
	// its share of the queue rejects with ErrOverloaded. 0 means 64.
	QueueDepth int
	// MaxBatch enables micro-batching: the central batch former
	// assembles up to this many queued requests (highest priority
	// first) into one engine batch, amortizing per-step overhead;
	// each request still finalizes at the widest subnet its own
	// deadline and shed cap afford. 0 or 1 disables.
	MaxBatch int
	// BatchWindow, when positive, lets the batch former wait this
	// long for more arrivals after popping an under-filled batch —
	// trading a bounded latency hit for fuller batches under moderate
	// load. 0 hands batches to workers greedily.
	BatchWindow time.Duration
	// PriorityClasses is the number of request priority classes
	// (Request.Priority is clamped to 0..PriorityClasses-1, higher is
	// more important). Class c may occupy at most the nested share
	// QueueDepth·(c+1)/PriorityClasses of the queue, the batch former
	// serves higher classes first, and both the shed cap and the
	// admission controller measure only the backlog at or above a
	// request's own class — so under overload, low-priority traffic
	// narrows and sheds first while high-priority deadlines stay
	// protected. 0 or 1 means a single class (every request equal).
	PriorityClasses int
	// DefaultDeadline applies to requests that carry none. 0 means
	// 50ms.
	DefaultDeadline time.Duration
	// MinSubnet is the narrowest answer the scheduler will return.
	// Every admitted request is walked at least this far, even when
	// its deadline is already blown — an anytime service answers
	// narrow rather than not at all. 0 means 1.
	MinSubnet int
	// Margin is the scheduling safety margin added to every
	// estimated step cost before the feasibility check, absorbing
	// calibration jitter. 0 means 100µs.
	Margin time.Duration
	// CalibrationReps is the number of calibration walks at startup
	// (fastest rep wins, see infer.Engine.CalibrateSteps). 0 means 3.
	CalibrationReps int
	// Calibration, when non-zero, supplies a pre-measured latency
	// model and skips startup calibration (tests, warm restarts).
	Calibration governor.LatencyModel
	// RefreshInterval, when positive, runs the calibration refresh
	// loop: worker engines time every live ladder step
	// (infer.Engine.StepTimer), a per-step EWMA absorbs the
	// observations, and every interval the server swaps in a latency
	// model rebuilt from them — so thermal or contention drift cannot
	// silently invalidate the deadline→MAC-budget mapping the
	// scheduler and admission controller plan with. 0 disables (the
	// startup calibration is trusted forever).
	RefreshInterval time.Duration
	// ServeDelay, when positive, stalls each batch walk before it
	// executes — a fault-injection/test hook that caps one worker's
	// throughput at a known rate, so overload and replica-slowdown
	// scenarios are deterministic on fast machines (the in-package
	// overload tests and the cluster chaos tests both lean on it).
	// Always 0 in production configurations.
	ServeDelay time.Duration
	// SLOs, when non-empty, arms the adaptive overload governor:
	// SLOs[c] is priority class c's objective (missing or zero entries
	// exempt a class). Each ControlInterval the governor compares the
	// per-class percentile rings and hit-rate counters against these
	// targets and walks the brownout ladder (narrow low classes, then
	// fast-fail them, then shed) documented on governor.Controller,
	// publishing its knob settings through an atomic policy swap the
	// admission check, shed cap and batch former read. Empty disables
	// the controller entirely (the static defenses still apply).
	SLOs []governor.SLO
	// ControlInterval is the governor's tick period. 0 with SLOs set
	// means 100ms; ignored when SLOs is empty. Tests may set SLOs with
	// a negative ControlInterval to build the controller but drive
	// ticks manually (no background goroutine, no wall-clock).
	ControlInterval time.Duration
	// CacheEntries, when positive, arms the semantic result cache:
	// every served request is keyed by a deterministic hash of its
	// input and its widest reached rung (logits + resumable engine
	// state) is stored, bounded by CacheEntries live entries. A repeat
	// request whose cached rung already covers its ladder cap is
	// answered from the cache at zero MACs; one whose budget reaches
	// further seeds a worker engine from the cached rung and climbs
	// from there, bitwise-equivalent to the cold walk it replaced. 0
	// (the default) disables caching entirely.
	CacheEntries int
	// CacheBytes bounds the cache's accounted memory footprint (the
	// dominant weight is the cached per-layer engine states). 0 with
	// CacheEntries set means 64 MiB; ignored when the cache is off.
	CacheBytes int64
	// ExitMargin, when positive, arms the confidence early exit: after
	// each ladder step, a request whose top-2 logit margin is at least
	// this threshold answers immediately at the current rung instead
	// of climbing further — the answer is already decided, so the
	// remaining headroom goes back to the queue. Early exit never
	// changes which class is predicted AT THE EXITED RUNG; pair it
	// with CalibrateExitMargins-derived per-class thresholds
	// (ExitMargins) to also bound disagreement with the full-ladder
	// answer. 0 disables.
	ExitMargin float64
	// ExitMargins, when non-empty, supplies a per-PREDICTED-class
	// margin threshold (length = the model's output classes, as
	// produced by CalibrateExitMargins) and overrides ExitMargin for
	// rungs whose argmax falls on that class. Arms the early exit just
	// like ExitMargin.
	ExitMargins []float64
	// CacheTTL, when positive, bounds every cache entry's lifetime
	// from its insertion: a repeat arriving past the TTL sees a miss
	// (the stale entry is evicted, counted under CacheExpired) and
	// walks cold. 0 means entries live until the LRU bounds or a
	// generation bump remove them. Ignored when the cache is off.
	CacheTTL time.Duration
	// CacheNow overrides the cache's TTL clock — the injection point
	// that makes expiry deterministic in tests. Nil means time.Now.
	CacheNow func() time.Time
	// Speculate, when true, arms the idle-window speculative
	// pre-climber: whenever the batch former finds the queue empty and
	// a worker idle, it pops the hottest cache key whose stored walk
	// sits below the top rung off a small candidate ring (fed by cache
	// hits), seeds an engine from the cached state, and climbs exactly
	// one rung — so the next repeat of a hot input finds a wider (often
	// full-ladder, zero-MAC) entry. Strictly preemptible: a speculative
	// step aborts before touching the engine if any real request has
	// been admitted, and never spans more than one rung. Its MACs are
	// accounted separately (Snapshot.SpeculativeMACs), never against
	// request traffic. Requires the cache (CacheEntries > 0); off by
	// default.
	Speculate bool
}

// withDefaults fills zero fields and validates the rest.
func (c Config) withDefaults() (Config, error) {
	if c.Model == nil {
		return c, fmt.Errorf("serve: Config.Model is required")
	}
	if c.Subnets < 1 {
		return c, fmt.Errorf("serve: need ≥1 subnets, got %d", c.Subnets)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1
	}
	if c.BatchWindow < 0 {
		return c, fmt.Errorf("serve: negative BatchWindow %v", c.BatchWindow)
	}
	if c.PriorityClasses < 0 {
		return c, fmt.Errorf("serve: negative PriorityClasses %d", c.PriorityClasses)
	}
	if c.PriorityClasses == 0 {
		c.PriorityClasses = 1
	}
	if c.PriorityClasses > c.QueueDepth {
		return c, fmt.Errorf("serve: %d priority classes cannot share a %d-deep queue",
			c.PriorityClasses, c.QueueDepth)
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 50 * time.Millisecond
	}
	if c.MinSubnet <= 0 {
		c.MinSubnet = 1
	}
	if c.MinSubnet > c.Subnets {
		return c, fmt.Errorf("serve: MinSubnet %d exceeds Subnets %d", c.MinSubnet, c.Subnets)
	}
	if c.Margin <= 0 {
		c.Margin = 100 * time.Microsecond
	}
	if c.CalibrationReps <= 0 {
		c.CalibrationReps = 3
	}
	if c.RefreshInterval < 0 {
		return c, fmt.Errorf("serve: negative RefreshInterval %v", c.RefreshInterval)
	}
	if c.ServeDelay < 0 {
		return c, fmt.Errorf("serve: negative ServeDelay %v", c.ServeDelay)
	}
	if len(c.SLOs) > c.PriorityClasses {
		return c, fmt.Errorf("serve: %d SLOs for %d priority classes", len(c.SLOs), c.PriorityClasses)
	}
	if len(c.SLOs) > 0 && c.ControlInterval == 0 {
		c.ControlInterval = 100 * time.Millisecond
	}
	if c.CacheEntries < 0 {
		return c, fmt.Errorf("serve: negative CacheEntries %d", c.CacheEntries)
	}
	if c.CacheBytes < 0 {
		return c, fmt.Errorf("serve: negative CacheBytes %d", c.CacheBytes)
	}
	if c.CacheEntries > 0 && c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.CacheTTL < 0 {
		return c, fmt.Errorf("serve: negative CacheTTL %v", c.CacheTTL)
	}
	if c.Speculate && c.CacheEntries == 0 {
		return c, fmt.Errorf("serve: Speculate requires the cache (CacheEntries > 0)")
	}
	if c.ExitMargin < 0 {
		return c, fmt.Errorf("serve: negative ExitMargin %v", c.ExitMargin)
	}
	if len(c.ExitMargins) > 0 {
		if len(c.ExitMargins) != c.Model.Classes {
			return c, fmt.Errorf("serve: %d ExitMargins for a %d-class model", len(c.ExitMargins), c.Model.Classes)
		}
		for j, m := range c.ExitMargins {
			if m < 0 {
				return c, fmt.Errorf("serve: negative ExitMargins[%d] %v", j, m)
			}
		}
	}
	return c, nil
}

// Request is one inference submission.
type Request struct {
	// Input is the flattened image, length InC*InH*InW of the served
	// model. The slice must not be mutated until Submit returns.
	Input []float64
	// Deadline is the wall-clock budget measured from submission
	// (queue wait counts against it). 0 selects
	// Config.DefaultDeadline.
	Deadline time.Duration
	// Priority is the request's class, 0 (lowest) to
	// Config.PriorityClasses-1 (highest); out-of-range values are
	// clamped. Under overload, higher classes keep wider answers and
	// shed last.
	Priority int
}

// Result is the anytime answer: the widest completed subnet's output
// plus the metadata a caller needs to reason about answer quality.
type Result struct {
	// Subnet is the ladder rung that produced Logits (1..n; narrower
	// under deadline pressure or load shedding).
	Subnet int
	// Pred is the argmax class of Logits.
	Pred int
	// Logits is the served subnet's output row (a copy owned by the
	// caller).
	Logits []float64
	// MACs is the per-image MAC count actually executed for this
	// request — the incremental walk cost, not the from-scratch cost.
	MACs int64
	// Priority is the (clamped) priority class the request was
	// admitted and scheduled under.
	Priority int
	// DeadlineMet reports whether the answer was produced within the
	// request's deadline.
	DeadlineMet bool
	// QueueWait is the time spent in the admission queue before a
	// worker picked the request up.
	QueueWait time.Duration
	// Latency is end-to-end wall clock from submission to answer
	// (queue wait + walk).
	Latency time.Duration
	// CacheHit reports that the answer was served entirely from the
	// semantic result cache (a previous walk had already reached this
	// request's ladder cap): no engine walk ran and MACs is 0.
	CacheHit bool
	// Resumed reports that the walk was seeded from a cached rung and
	// climbed from there: MACs meters only the climbed steps (resumed
	// rungs cost 0 new MACs).
	Resumed bool
	// EarlyExit reports that the confidence early exit answered this
	// request below its affordable ladder cap because the top-2 logit
	// margin cleared its threshold.
	EarlyExit bool
}

// response pairs a Result with a worker-side error for the channel
// back to Submit.
type response struct {
	res Result
	err error
}

// pending is a request in flight through the queue and scheduler.
type pending struct {
	input     []float64
	class     int
	submitted time.Time
	deadline  time.Time
	done      chan response

	// ladderCap is the widest subnet this request may be walked to,
	// assigned from its class's shed cap when the batch former pops
	// it.
	ladderCap int

	// Worker-owned while being served.
	started  time.Time // when a worker picked it up (queue wait ends)
	macs     int64
	answered bool

	// Semantic-cache bookkeeping (cache-armed servers only): the
	// request's input hash, the cache entry found at lookup (nil on a
	// miss), and the answer provenance flags copied into the Result.
	key       cache.Key
	hasKey    bool
	ent       *cache.Entry
	cacheHit  bool
	resumed   bool
	earlyExit bool

	// speculative marks an idle-window pre-climb job manufactured by
	// the batch former (Config.Speculate) rather than a submitted
	// request: it has no waiter (done is nil), no deadline, and is
	// served by runSpeculative instead of the batch walk.
	speculative bool
}

// Server is a concurrent anytime-inference service over one model.
// Create with New, submit with Submit, stop with Close.
type Server struct {
	cfg Config
	n   int

	inC, inH, inW int
	imgLen        int
	classes       int // model output classes
	priorities    int // priority-class count (Config.PriorityClasses)

	// lat is the latency model the scheduler and admission
	// controller plan with — atomically swappable so the calibration
	// refresh loop can republish it mid-flight without a lock on the
	// serving path.
	lat   governor.ModelRef
	ref   *refresher
	stats *Stats

	// policy is the overload governor's current actuator set,
	// published per control tick and read (one atomic load, no lock,
	// no allocation) by the admission check, the shed cap and the
	// batch former. The zero policy is neutral, so servers without
	// SLOs behave exactly as before the governor existed.
	policy governor.PolicyRef
	// ctl is the closed-loop brownout controller (nil when
	// Config.SLOs is empty). Its Tick is serialized by ctlMu:
	// normally only the control loop calls it, but drift tests drive
	// controlTick directly.
	ctl     *governor.Controller
	ctlMu   sync.Mutex
	ctlPrev []classTick

	// cache is the semantic result cache (nil when Config.CacheEntries
	// is 0); exitArmed records whether the confidence early exit is
	// configured (ExitMargin or ExitMargins).
	cache     *cache.Cache
	exitArmed bool

	// specRing is the speculative pre-climber's candidate ring
	// (Config.Speculate): the hottest cache keys whose stored walks
	// sit below the top rung, each carrying a private copy of its
	// input. Guarded by qmu — the former pops candidates under the
	// same lock it checks the queue under, and adding one signals
	// qcond so an idle former wakes. speculated/specMACs meter the
	// pre-climbed steps separately from request traffic; warmed counts
	// cache entries installed by a peer-transfer (WarmInstall).
	specRing   []specCand
	speculated atomic.Int64
	specMACs   atomic.Int64
	warmed     atomic.Int64

	// The priority admission queue: one FIFO lane per class, guarded
	// by qmu. qcond signals the batch former on arrivals and close.
	qmu    sync.Mutex
	qcond  *sync.Cond
	lanes  [][]*pending
	qtotal int
	closed bool

	// batches hands formed micro-batches from the central former to
	// the worker pool (unbuffered: a send is a worker handoff).
	batches chan []*pending

	// svcNs is an EWMA of per-request service time in nanoseconds,
	// updated by workers after every batch. It feeds the admission
	// controller's queue-wait prediction; zero until the first batch
	// completes (admission control off while cold).
	svcNs atomic.Int64

	stopRefresh chan struct{}
	wg          sync.WaitGroup
}

// New builds a Server: it calibrates per-subnet step latencies on one
// throwaway engine (unless Config.Calibration is supplied), then
// starts the batch former, the worker pool and (when configured) the
// calibration refresh loop. The returned server is ready for Submit.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	m := cfg.Model
	s := &Server{
		cfg: cfg, n: cfg.Subnets,
		inC: m.InC, inH: m.InH, inW: m.InW,
		imgLen:     m.InC * m.InH * m.InW,
		classes:    m.Classes,
		priorities: cfg.PriorityClasses,
		lanes:      make([][]*pending, cfg.PriorityClasses),
		batches:    make(chan []*pending),
		ref:        newRefresher(cfg.Subnets),
		stats:      newStats(cfg.Subnets, cfg.PriorityClasses),

		stopRefresh: make(chan struct{}),
	}
	s.qcond = sync.NewCond(&s.qmu)

	lat := cfg.Calibration
	if lat.Subnets() == 0 {
		times, err := calibrate(m, cfg.Subnets, cfg.CalibrationReps)
		if err != nil {
			return nil, err
		}
		lat = governor.LatencyModel{StepMACs: governor.StepCosts(m, cfg.Subnets), StepTime: times}
	}
	if err := lat.Validate(); err != nil {
		return nil, err
	}
	if lat.Subnets() != cfg.Subnets {
		return nil, fmt.Errorf("serve: latency model covers %d subnets, want %d", lat.Subnets(), cfg.Subnets)
	}
	s.lat.Store(lat)

	s.exitArmed = cfg.ExitMargin > 0 || len(cfg.ExitMargins) > 0
	if cfg.CacheEntries > 0 {
		s.cache = cache.New(cache.Config{
			MaxEntries: cfg.CacheEntries,
			MaxBytes:   cfg.CacheBytes,
			TTL:        cfg.CacheTTL,
			Now:        cfg.CacheNow,
		})
	}

	if len(cfg.SLOs) > 0 {
		// With the early exit armed, the brownout ladder gains its
		// stage 0: relaxing the exit margin is the cheapest relief
		// valve (no one's answer narrows), so the controller tries it
		// before any shed cap moves.
		relax := 0
		if s.exitArmed {
			relax = exitRelaxSteps
		}
		ctl, err := governor.NewController(governor.ControllerConfig{
			Classes:        cfg.PriorityClasses,
			Subnets:        cfg.Subnets,
			MinSubnet:      cfg.MinSubnet,
			SLOs:           cfg.SLOs,
			ExitRelaxSteps: relax,
		})
		if err != nil {
			return nil, err
		}
		s.ctl = ctl
		s.ctlPrev = make([]classTick, cfg.PriorityClasses)
	}

	s.wg.Add(1)
	go s.former()
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	if cfg.RefreshInterval > 0 {
		s.wg.Add(1)
		go s.refreshLoop()
	}
	if s.ctl != nil && cfg.ControlInterval > 0 {
		s.wg.Add(1)
		go s.controlLoop()
	}
	return s, nil
}

// calibrate measures the batch-1 step ladder on a throwaway engine.
func calibrate(m *models.Model, n, reps int) ([]time.Duration, error) {
	e := infer.NewEngine(m.Net)
	e.Workers = 1
	defer e.Close()
	x := tensor.New(1, m.InC, m.InH, m.InW)
	x.FillNormal(tensor.NewRNG(0xCA11B8A7E), 0, 1)
	return e.CalibrateSteps(x, n, reps)
}

// Latency exposes the latency model the scheduler currently plans
// with — the startup calibration, or the latest refresh-loop swap
// (for logging and load generators).
func (s *Server) Latency() governor.LatencyModel { return s.lat.Load() }

// Healthy reports whether the server is still admitting work: true
// until Close begins, false from then on (queued and in-flight
// requests may still be draining). It is the in-process readiness
// signal health probes and /healthz endpoints should surface — a
// draining server must stop attracting new traffic before its last
// answer leaves.
func (s *Server) Healthy() bool {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return !s.closed
}

// Stats returns a point-in-time snapshot of the serving counters,
// including queue gauges and the calibration constants.
func (s *Server) Stats() Snapshot {
	snap := s.stats.snapshot()
	s.qmu.Lock()
	snap.QueueLen = s.qtotal
	s.qmu.Unlock()
	snap.QueueCap = s.cfg.QueueDepth
	snap.Workers = s.cfg.Workers
	snap.MinSubnet = s.cfg.MinSubnet
	snap.ServiceEwmaMs = float64(s.svcNs.Load()) / float64(time.Millisecond)
	if s.cache != nil {
		// One coherent cache snapshot: separate Len/Bytes/Counters
		// calls acquire the cache lock three times and can tear against
		// concurrent Put/evict traffic (the gauges would disagree with
		// the counters they are reported alongside).
		cs := s.cache.Stats()
		snap.CacheEnabled = true
		snap.CacheEntries = cs.Len
		snap.CacheBytes = cs.Bytes
		snap.CacheEvictions = cs.Counters.Evictions
		snap.CacheExpired = cs.Counters.Expired
		snap.CacheInvalidated = cs.Counters.Invalidated
		snap.CacheGeneration = cs.Generation
	}
	snap.Speculated = s.speculated.Load()
	snap.SpeculativeMACs = s.specMACs.Load()
	snap.CacheWarmed = s.warmed.Load()
	lat := s.lat.Load()
	snap.MACRate = lat.MACRate()
	snap.StepTimeMs = make([]float64, s.n)
	for i, d := range lat.StepTime {
		snap.StepTimeMs[i] = float64(d) / float64(time.Millisecond)
	}
	if s.ctl != nil {
		pol := s.policy.Load()
		ps := &PolicySnapshot{
			ShedCap:    make([]int, s.priorities),
			AdmitScale: make([]float64, s.priorities),
			QueueShare: make([]int, s.priorities),
			Level:      make([]int, s.priorities),
			Lookahead:  pol.Lookahead,
		}
		for c := 0; c < s.priorities; c++ {
			ps.ShedCap[c] = pol.ClassShedCap(c)
			ps.AdmitScale[c] = pol.ClassAdmitScale(c)
			ps.QueueShare[c] = pol.ClassQueueShare(c)
			ps.Level[c] = pol.ClassLevel(c)
			if ps.Level[c] > ps.MaxLevel {
				ps.MaxLevel = ps.Level[c]
			}
		}
		snap.Policy = ps
	}
	return snap
}

// Submit runs one request through the service and blocks until its
// answer is ready (bounded by deadline handling: under pressure the
// answer comes back early from a narrower subnet). It returns
// ErrClosed after Close, ErrOverloaded (wrapped) when the request's
// class has filled its queue share or the deadline is unmeetable at
// the measured backlog, and a wrapped ErrBadInput for geometry
// mismatches.
func (s *Server) Submit(req Request) (Result, error) {
	if len(req.Input) != s.imgLen {
		return Result{}, fmt.Errorf("%w: input length %d, model wants %d (%d×%d×%d)",
			ErrBadInput, len(req.Input), s.imgLen, s.inC, s.inH, s.inW)
	}
	d := req.Deadline
	if d <= 0 {
		d = s.cfg.DefaultDeadline
	}
	class := req.Priority
	if class < 0 {
		class = 0
	}
	if class >= s.priorities {
		class = s.priorities - 1
	}
	now := time.Now()
	p := &pending{
		input:     req.Input,
		class:     class,
		submitted: now,
		deadline:  now.Add(d),
		done:      make(chan response, 1),
	}
	minWalk := s.lat.Load().WalkTime(s.cfg.MinSubnet)
	pol := s.policy.Load()

	s.qmu.Lock()
	if s.closed {
		// Before any counter moves, so Submitted = Served + Rejected
		// stays an invariant at quiescence.
		s.qmu.Unlock()
		return Result{}, ErrClosed
	}
	s.stats.recordSubmitted(class)
	// Deadline-aware admission: when the backlog at or above this
	// class alone makes the deadline unmeetable, fail fast instead of
	// serving late. Lower-class queue contents don't count — the
	// former serves this request first. The governor's fast-fail
	// brownout stage scales the predicted wait up, rejecting
	// borderline deadlines earlier for browned-out classes.
	if wait := s.predictedWaitLocked(class); wait > 0 {
		wait = time.Duration(float64(wait) * pol.ClassAdmitScale(class))
		if d < wait+minWalk {
			s.stats.recordRejected(class)
			s.qmu.Unlock()
			return Result{}, fmt.Errorf("%w: predicted queue wait %v exceeds deadline %v", ErrOverloaded, wait, d)
		}
	}
	// Weighted admission: class c owns the nested queue share
	// depth·(c+1)/classes, so when the queue fills, low classes
	// reject first while the top class can always use the whole
	// queue. The governor's shed brownout stage can cut a class's
	// share further, down to a single slot.
	admit := s.admitCap(class)
	if qs := pol.ClassQueueShare(class); qs > 0 && qs < admit {
		admit = qs
	}
	if s.qtotal >= admit {
		s.stats.recordRejected(class)
		s.qmu.Unlock()
		return Result{}, fmt.Errorf("%w: admission queue full for priority class %d", ErrOverloaded, class)
	}
	s.lanes[class] = append(s.lanes[class], p)
	s.qtotal++
	s.qcond.Signal()
	s.qmu.Unlock()

	r := <-p.done
	return r.res, r.err
}

// Close stops admission (Submit returns ErrClosed), drains every
// already-queued and in-flight request to a real answer, stops the
// refresh loop, waits for the batch former and workers to exit and
// releases their engines. It is idempotent and safe to call
// concurrently with Submit and with itself.
func (s *Server) Close() {
	s.qmu.Lock()
	if s.closed {
		s.qmu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.qcond.Broadcast()
	s.qmu.Unlock()
	close(s.stopRefresh)
	s.wg.Wait()
}

// admitCap returns how full the queue may be for class c to still be
// admitted: the nested share depth·(c+1)/classes, floored at 1 so no
// class is configured out of existence. With one class this is the
// full queue depth — the plain bounded queue.
func (s *Server) admitCap(c int) int {
	capc := s.cfg.QueueDepth * (c + 1) / s.priorities
	if capc < 1 {
		capc = 1
	}
	return capc
}

// occAtOrAboveLocked counts queued requests of class ≥ c — the
// backlog actually ahead of a class-c request under priority-ordered
// batch formation. Callers hold qmu.
func (s *Server) occAtOrAboveLocked(c int) int {
	occ := 0
	for k := c; k < s.priorities; k++ {
		occ += len(s.lanes[k])
	}
	return occ
}

// predictedWaitLocked estimates how long a class-c request admitted
// now would sit in the queue: the occupancy at or above its class ×
// the EWMA per-request service time, spread over the worker pool.
// Zero while the EWMA is cold. Callers hold qmu.
func (s *Server) predictedWaitLocked(c int) time.Duration {
	svc := time.Duration(s.svcNs.Load())
	if svc <= 0 {
		return 0
	}
	return time.Duration(s.occAtOrAboveLocked(c)) * svc / time.Duration(s.cfg.Workers)
}

// observeService folds one batch's per-request service time into the
// EWMA (α = 0.2; the first observation seeds it).
func (s *Server) observeService(perReq time.Duration) {
	for {
		old := s.svcNs.Load()
		next := int64(perReq)
		if old > 0 {
			next = old + (int64(perReq)-old)/5
		}
		if s.svcNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// shedCapLocked maps the queue pressure a class actually feels — the
// occupancy at or above it — to the widest subnet its requests may be
// walked to: no backlog allows the full ladder, a backlog at the full
// queue depth caps at MinSubnet, linear (ceiling) in between. This is
// the load-shedding signal: under overload answers get narrower, each
// request costs fewer MACs, and the queue drains faster instead of
// growing — and because a high class only sees the (small) backlog of
// its peers and above, narrowing concentrates in the low classes.
// Callers hold qmu.
func (s *Server) shedCapLocked(class int) int {
	depth := s.cfg.QueueDepth
	span := s.n - s.cfg.MinSubnet
	c := s.n - (s.occAtOrAboveLocked(class)*span+depth-1)/depth
	// The governor's narrow brownout stage can pin a browned-out class
	// tighter than queue pressure alone would (its cap never drops
	// below the class's SLO floor — the controller enforces that).
	if pc := s.policy.Load().ClassShedCap(class); pc > 0 && pc < c {
		c = pc
	}
	if c < s.cfg.MinSubnet {
		c = s.cfg.MinSubnet
	}
	return c
}

// popLocked moves up to max requests from the lanes into batch,
// highest class first, FIFO within a class, and stamps each with its
// class's shed cap at pop time. When the governor's policy carries a
// lookahead ratio, the pop additionally groups by compatible deadline
// headroom: the first request popped (or, on a top-up, the batch's
// existing head) seeds the batch, and the pop stops at the first
// candidate whose remaining headroom is incompatible with the seed's
// (min/max < ratio) — a batch step costs b·StepTime, so mixing one
// tight-deadline request into a generous batch would make every rung
// dearer for all of them. The incompatible request stays queued, in
// order, and seeds the next batch. Callers hold qmu.
func (s *Server) popLocked(batch []*pending, max int) []*pending {
	la := s.policy.Load().Lookahead
	var now time.Time
	var seedHead time.Duration
	seeded := false
	if la > 0 {
		now = time.Now()
		if len(batch) > 0 {
			seedHead, seeded = headroom(batch[0], now), true
		}
	}
pop:
	for c := s.priorities - 1; c >= 0 && len(batch) < max; c-- {
		lane := s.lanes[c]
		for len(lane) > 0 && len(batch) < max {
			p := lane[0]
			if la > 0 {
				h := headroom(p, now)
				if !seeded {
					seedHead, seeded = h, true
				} else if !compatibleHeadroom(seedHead, h, la) {
					s.lanes[c] = lane
					break pop
				}
			}
			lane[0] = nil // free the slot for GC; the lane slice is reused
			lane = lane[1:]
			s.qtotal--
			batch = append(batch, p)
		}
		s.lanes[c] = lane
	}
	for _, p := range batch {
		if p.ladderCap == 0 {
			p.ladderCap = s.shedCapLocked(p.class)
		}
	}
	return batch
}

// headroom is the time a queued request still has until its deadline,
// floored at zero (blown deadlines all look equally urgent).
func headroom(p *pending, now time.Time) time.Duration {
	if h := p.deadline.Sub(now); h > 0 {
		return h
	}
	return 0
}

// compatibleHeadroom reports whether two headrooms may share a batch
// under lookahead ratio la: the smaller must be at least la of the
// larger. Two already-blown deadlines are always compatible (there is
// nothing left to protect).
func compatibleHeadroom(a, b time.Duration, la float64) bool {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi <= 0 {
		return true
	}
	return float64(lo) >= la*float64(hi)
}

// popBatch blocks until at least one request is queued (or the server
// is closed and drained, returning nil), then pops up to max requests
// in priority order. With speculation armed, an empty queue with a
// candidate waiting yields a speculative batch instead of blocking —
// idle workers pre-climb hot cache entries; real arrivals always win
// the next pop.
func (s *Server) popBatch(max int) []*pending {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	for s.qtotal == 0 && !s.closed {
		// The ring is fed whenever the cache is armed (it doubles as
		// the restart-warming hot set), so the pop must gate on the
		// flag, not on ring occupancy.
		if s.cfg.Speculate && len(s.specRing) > 0 {
			return []*pending{s.popSpeculativeLocked()}
		}
		s.qcond.Wait()
	}
	if s.qtotal == 0 {
		return nil // closed and drained
	}
	return s.popLocked(make([]*pending, 0, max), max)
}

// topUp non-blockingly extends an under-filled batch with whatever
// has arrived since it was popped.
func (s *Server) topUp(batch []*pending, max int) []*pending {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return s.popLocked(batch, max)
}

// former is the central batch-formation goroutine: it assembles
// micro-batches from the shared priority queue — seeing arrivals from
// every submitter, not just whatever one worker's pop happened to
// catch — and hands them to idle workers. Under backlog it forms full
// MaxBatch batches in strict priority order; with BatchWindow set it
// briefly holds an under-filled batch open for late arrivals. It
// exits (closing the worker feed) once the server is closed and the
// queue drained.
func (s *Server) former() {
	defer s.wg.Done()
	defer close(s.batches)
	for {
		batch := s.popBatch(s.cfg.MaxBatch)
		if batch == nil {
			return
		}
		if w := s.cfg.BatchWindow; w > 0 && len(batch) < s.cfg.MaxBatch {
			// Hold an under-filled batch open only when no worker is
			// idle: stalling a ready worker would trade real capacity
			// for batch fullness (and cap throughput at MaxBatch per
			// window). An immediate handoff wins if one is waiting.
			select {
			case s.batches <- batch:
				continue
			default:
			}
			time.Sleep(w)
			batch = s.topUp(batch, s.cfg.MaxBatch)
		}
		s.batches <- batch
	}
}

// worker owns one engine and serves formed batches until the former
// closes the feed.
func (s *Server) worker() {
	defer s.wg.Done()
	e := infer.NewEngine(s.cfg.Model.Net)
	// Concurrency comes from the worker pool — a nested batch-parallel
	// fan-out per engine would oversubscribe the CPUs — so engines run
	// single-worker, and a lone request walks serially.
	e.Workers = 1
	if s.cfg.RefreshInterval > 0 {
		e.StepTimer = s.observeStep
	}
	defer e.Close()

	bufs := make(map[int]*tensor.Tensor) // batch size → reused input tensor
	for batch := range s.batches {
		s.runBatch(e, bufs, batch)
	}
}

// observeStep feeds one live step timing into the refresh sampler,
// normalized to the calibration's batch-1 scale (step cost is linear
// in rows on a CPU-bound walk). Installed as infer.Engine.StepTimer
// on every worker engine when the refresh loop is enabled.
func (s *Server) observeStep(subnet, rows int, d time.Duration) {
	if rows > 0 {
		s.ref.observe(subnet, d/time.Duration(rows))
	}
}

// refreshLoop periodically folds the live step-timing EWMAs into a
// fresh latency model and publishes it, until Close.
func (s *Server) refreshLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.RefreshInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopRefresh:
			return
		case <-t.C:
			s.refreshCalibration()
		}
	}
}

// stepEstimate predicts the wall-clock cost of stepping a b-row batch
// to subnet next: the calibrated batch-1 step time scales linearly in
// rows on a CPU-bound walk, plus the configured safety margin.
func (s *Server) stepEstimate(lat governor.LatencyModel, next, b int) time.Duration {
	return time.Duration(b)*lat.StepTime[next-1] + s.cfg.Margin
}

// runBatch walks one micro-batch up the subnet ladder. Every request
// is stepped to at least MinSubnet; beyond that, a step is taken only
// while (a) some request's per-class shed cap allows it and (b) at
// least one still-pending request's deadline affords the step's
// estimated cost. After each step, requests that have reached their
// own shed cap or cannot afford the next step finalize immediately at
// the current subnet — so within one batch, tight deadlines and
// low-priority requests answer narrow while generous, high-priority
// ones keep climbing.
func (s *Server) runBatch(e *infer.Engine, bufs map[int]*tensor.Tensor, batch []*pending) {
	if len(batch) == 1 && batch[0].speculative {
		s.runSpeculative(e, bufs, batch[0])
		return
	}
	started := time.Now()
	if s.cfg.ServeDelay > 0 {
		time.Sleep(s.cfg.ServeDelay)
	}
	// Semantic-cache lookup: requests whose cached rung already covers
	// their ladder cap are answered right here at zero MACs and leave
	// the batch; the rest carry their lookup result along (a hit below
	// the cap can still seed a batch-1 resume).
	if s.cache != nil {
		batch = s.serveCacheHits(batch, started)
		if len(batch) == 0 {
			s.observeService(time.Since(started))
			return
		}
	}
	lat := s.lat.Load() // one consistent model per batch, swap-safe
	b := len(batch)
	x := bufs[b]
	if x == nil {
		x = tensor.New(b, s.inC, s.inH, s.inW)
		bufs[b] = x
	}
	batchCap := s.cfg.MinSubnet
	for i, p := range batch {
		p.started = started
		if p.ladderCap > batchCap {
			batchCap = p.ladderCap
		}
		copy(x.Data()[i*s.imgLen:(i+1)*s.imgLen], p.input)
	}
	var out *tensor.Tensor
	cur := 0
	// A lone request with a cached rung below its cap resumes instead
	// of walking cold: the engine is seeded from the cached state and
	// the loop below climbs from there — bitwise the same logits as
	// the cold walk (TestResumeMatchesColdWalk), minus the resumed
	// rungs' MACs. Multi-request batches always walk cold (one engine
	// cache cannot hold rows at different rungs).
	if b == 1 && batch[0].ent != nil && batch[0].ent.State != nil {
		if err := e.ImportState(x, batch[0].ent.State); err == nil {
			// The engine resumes at the STATE's rung, which can sit
			// below the entry's logits rung after a widen retained an
			// older state — the climb accounting must follow the
			// engine, not the entry.
			cur = batch[0].ent.State.Subnet
			out = e.Output()
			batch[0].resumed = true
		} else {
			e.Reset(x) // structurally stale entry: fall back to a cold walk
		}
	} else {
		e.Reset(x)
	}
	var pol governor.Policy
	if s.exitArmed {
		pol = s.policy.Load()
	}
	for next := cur + 1; next <= s.n; next++ {
		if next > s.cfg.MinSubnet {
			if next > batchCap {
				break // load shedding: answer from what we have
			}
			if !s.anyAffords(lat, batch, next, b) {
				break // no pending deadline can pay for this step
			}
		}
		o, macs, err := e.Step(next)
		if err != nil {
			s.failBatch(batch, err)
			return
		}
		out, cur = o, next
		for _, p := range batch {
			if !p.answered {
				p.macs += macs
			}
		}
		// Confidence early exit: a request whose top-2 logit margin at
		// this rung clears its threshold answers now — the prediction
		// is already decided, so climbing further would spend MACs on
		// an answer that cannot change. Never below the MinSubnet
		// floor, and never flagged at a rung the request would
		// finalize at anyway. The governor's relax-exit brownout stage
		// divides the threshold per priority class.
		if s.exitArmed && next >= s.cfg.MinSubnet && next < s.n {
			for i, p := range batch {
				if p.answered || next >= p.ladderCap {
					continue
				}
				if margin, pred := rowMargin(out, i, s.classes); margin >= s.exitThreshold(pred, p.class, pol) {
					p.earlyExit = true
					s.finish(p, out, i, cur)
				}
			}
		}
		// Requests that have hit their own shed cap or cannot afford
		// the next rung answer now; the rest of the batch keeps
		// climbing. Never finalize below the MinSubnet floor — those
		// rungs are walked unconditionally.
		if next >= s.cfg.MinSubnet && next < s.n && next < batchCap {
			now := time.Now()
			est := s.stepEstimate(lat, next+1, b)
			for i, p := range batch {
				if p.answered {
					continue
				}
				if next >= p.ladderCap || p.deadline.Sub(now) < est {
					s.finish(p, out, i, cur)
				}
			}
		}
	}
	for i, p := range batch {
		if !p.answered {
			s.finish(p, out, i, cur)
		}
	}
	// Publish every request's reached rung to the semantic cache (the
	// whole batch walked to cur together, so each row's state is valid
	// there — including rows that answered earlier at a narrower rung).
	// The cache keeps the widest walk per key, so offers at or below a
	// live entry's rung are dropped inside Put.
	if s.cache != nil && cur >= 1 {
		for i, p := range batch {
			if !p.hasKey {
				continue
			}
			if p.ent != nil && p.ent.Subnet >= cur {
				// Nothing wider to publish, but the request did reach a
				// walk: this is the point the deferred recency refresh
				// (Lookup at batch formation, Touch on commitment)
				// lands — doomed requests released by failBatch never
				// get here.
				s.cache.Touch(p.key)
				continue
			}
			st, err := e.ExportState(i)
			if err != nil {
				break // nothing exportable (cannot happen after a stepped walk)
			}
			logits := make([]float64, s.classes)
			copy(logits, out.Data()[i*s.classes:(i+1)*s.classes])
			s.cache.Put(p.key, &cache.Entry{Subnet: cur, Logits: logits, State: st})
		}
	}
	s.observeService(time.Since(started) / time.Duration(b))
}

// anyAffords reports whether any still-pending request whose shed cap
// reaches next has a remaining deadline covering the estimated cost
// of stepping the batch there.
func (s *Server) anyAffords(lat governor.LatencyModel, batch []*pending, next, b int) bool {
	est := s.stepEstimate(lat, next, b)
	now := time.Now()
	for _, p := range batch {
		if !p.answered && next <= p.ladderCap && p.deadline.Sub(now) >= est {
			return true
		}
	}
	return false
}

// finish answers one request from batch row i at the given subnet.
func (s *Server) finish(p *pending, out *tensor.Tensor, i, subnet int) {
	logits := make([]float64, s.classes)
	copy(logits, out.Data()[i*s.classes:(i+1)*s.classes])
	s.answer(p, logits, subnet)
}

// answer delivers logits (ownership transfers to the caller of
// Submit) as p's result at the given subnet, stamping the timing and
// provenance metadata.
func (s *Server) answer(p *pending, logits []float64, subnet int) {
	pred := 0
	for j, v := range logits {
		if v > logits[pred] {
			pred = j
		}
	}
	now := time.Now()
	res := Result{
		Subnet:      subnet,
		Pred:        pred,
		Logits:      logits,
		MACs:        p.macs,
		Priority:    p.class,
		DeadlineMet: !now.After(p.deadline),
		QueueWait:   p.started.Sub(p.submitted),
		Latency:     now.Sub(p.submitted),
		CacheHit:    p.cacheHit,
		Resumed:     p.resumed,
		EarlyExit:   p.earlyExit,
	}
	p.answered = true
	s.stats.recordServed(res)
	p.done <- response{res: res}
}

// failBatch answers every still-pending request with err (engine
// failures are programming errors — a bad subnet index — but the
// callers blocked in Submit must still be released). Each failed
// request is recorded as rejected so the Submitted = Served +
// Rejected invariant survives even this path.
func (s *Server) failBatch(batch []*pending, err error) {
	for _, p := range batch {
		if !p.answered {
			p.answered = true
			s.stats.recordRejected(p.class)
			p.done <- response{err: err}
		}
	}
}
