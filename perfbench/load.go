package main

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"steppingnet/internal/serve"
)

// class is one entry of a workload's deadline mix.
type class struct {
	deadline time.Duration
	weight   float64
	hi       bool // sent at priority 1 instead of 0
}

// arrival is one request of an open-loop schedule.
type arrival struct {
	due   time.Duration // offset from the start of the window
	class int
	input int // index into the workload's input set
}

// Input set layout of the serving workloads: hotKeys inputs that
// repeat with a zipf(s=0.5) skew, then a coldRing of inputs sent in
// turn. The cold ring is larger than any cache the workloads arm, the
// hot set smaller than their combined capacity; the sizes match the
// stepserve load generator's mixer.
const (
	hotKeys  = 16
	coldRing = 1024
)

// schedule draws the arrivals of an open loop: independent users, so
// a Poisson process at rate rps over dur. Each request's deadline
// class is drawn by weight, and its input is a hot key with
// probability repeat, otherwise the next cold-ring input. The same
// seed always gives the same schedule.
func schedule(seed uint64, rps float64, dur time.Duration, mix []class, repeat float64) []arrival {
	r := rand.New(rand.NewPCG(seed, 0x5c4ed))
	var total float64
	for _, c := range mix {
		total += c.weight
	}
	zipf := make([]float64, hotKeys)
	sum := 0.0
	for k := range zipf {
		sum += 1 / math.Sqrt(float64(k+1))
		zipf[k] = sum
	}
	var out []arrival
	cold := 0
	for t := r.ExpFloat64() / rps; t < dur.Seconds(); t += r.ExpFloat64() / rps {
		a := arrival{due: time.Duration(t * float64(time.Second))}
		x := r.Float64() * total
		for a.class = 0; a.class < len(mix)-1; a.class++ {
			if x -= mix[a.class].weight; x < 0 {
				break
			}
		}
		if repeat > 0 && r.Float64() < repeat {
			x := r.Float64() * sum
			for a.input = 0; a.input < hotKeys-1 && x >= zipf[a.input]; a.input++ {
			}
		} else {
			a.input = hotKeys + cold%coldRing
			cold++
		}
		out = append(out, a)
	}
	return out
}

// reply is what one submit to the serving tier returns.
type reply struct {
	res serve.Result
	err error
	at  time.Time // when the serving replica produced the answer
	// over is the replica's Submit wall time minus res.Latency: the
	// serving layer's cost around the latency it reports.
	over time.Duration
}

// submitFunc sends one request to the serving tier and waits for the
// reply.
type submitFunc func(serve.Request) reply

// sent is the client-side record of one request.
type sent struct {
	lag  time.Duration // send time minus due time: generator lateness
	wall time.Duration // duration of the submit call
	// latency is the time from when the request was due to when the
	// serving replica produced its answer. It ends at the answer, not
	// at the return of the submit call: on a saturated two-core box
	// the sending goroutine can wait milliseconds for a processor
	// before it sees an answer that is already made, and that wait
	// belongs to this co-located client, not to the service. Under the
	// router it includes everything the router does before the
	// answering replica's call, refused attempts and retries too.
	latency time.Duration
	over    time.Duration // reply.over
	res     serve.Result
	err     error
}

// drive plays an open-loop schedule against submit: each request is
// sent on its own goroutine at its due time whether or not earlier
// ones have been answered, and every latency is counted from the due
// time, so a stall in the generator or the server shows in all the
// requests it delays. It returns once every request has its answer.
func drive(sched []arrival, inputs [][]float64, mix []class, submit submitFunc) []sent {
	recs := make([]sent, len(sched))
	var wg sync.WaitGroup
	var inflight atomic.Int64
	var start time.Time
	send := func(i int) {
		defer wg.Done()
		defer inflight.Add(-1)
		a, r := sched[i], &recs[i]
		c := mix[a.class]
		prio := 0
		if c.hi {
			prio = 1
		}
		t0 := time.Now()
		r.lag = t0.Sub(start) - a.due
		rp := submit(serve.Request{Input: inputs[a.input], Deadline: c.deadline, Priority: prio})
		r.wall = time.Since(t0)
		r.res, r.err, r.over = rp.res, rp.err, rp.over
		r.latency = rp.at.Sub(start) - a.due
	}
	procs := int64(runtime.GOMAXPROCS(0))
	start = time.Now()
	for i := 0; i < len(sched); {
		// How the generator waits depends on whether the server keeps
		// every processor busy. If not, nanosleep wakes it within the
		// kernel's timer slack, and a yield after each burst lets the
		// new senders run before it sleeps again. If so, a goroutine
		// leaving a system call or yielding lands on the global run
		// queue, which busy processors poll only every 61st schedule,
		// and the generator falls tens of milliseconds behind; a
		// runtime timer instead wakes it onto the local run queue of
		// whichever processor schedules next.
		busy := inflight.Load() >= procs
		due := start.Add(sched[i].due)
		if !busy {
			sleepUntil(due)
		} else if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		for now := time.Since(start); i < len(sched) && sched[i].due <= now; i++ {
			inflight.Add(1)
			wg.Add(1)
			go send(i)
		}
		if !busy {
			runtime.Gosched()
		}
	}
	wg.Wait()
	return recs
}

// sleepUntil blocks until t. time.Sleep wakes on the runtime's
// millisecond poll granularity, about 0.9ms late for a sub-millisecond
// sleep on Linux, which is more than the walk it would be timing;
// nanosleep wakes within the kernel's 50µs timer slack.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}
