package main

import (
	"runtime"
	"sync"
	"time"
)

// windowResult is what one measured window yields. ops counts
// successes; failed counts ops that returned an error, were denied, or
// (open loop) found the in-flight cap and the queue full.
type windowResult struct {
	ops, failed int64
	wall        time.Duration
	lat         hist // op latency, ns, every timed op; open loop: from the due instant
	late        hist // open loop only: actual send − due, ns
	offered     int64
	// perSecond holds the same samples as lat by the second of the window
	// the op completed in; ops that finish after the window closes are in
	// lat only. steadyP99 reads it.
	perSecond []hist
	// rssMB is the resident set read once a second while the window ran,
	// and once more when it closed.
	rssMB    []float64
	before   procSample
	after    procSample
	firstErr error
}

func (r *windowResult) attempted() int64 { return r.ops + r.failed }

// settle brings the heap to a common starting point before a window,
// so that set-up garbage is not collected on the window's clock.
func settle() {
	runtime.GC()
}

// startRSSSampler reads the resident set once a second on a goroutine
// of its own until the returned function is called, which returns the
// readings. One reading catches the heap wherever it is in its GC cycle
// (on check-local ten runs' closing readings spread by 5–11%); the
// median of a window's readings spreads by 2%.
func startRSSSampler() (finish func() []float64) {
	stop := make(chan struct{})
	out := make(chan []float64)
	go func() {
		var readings []float64
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- readings
				return
			case <-tick.C:
				readings = append(readings, procStatusMB("VmRSS:"))
			}
		}
	}()
	return func() []float64 { close(stop); return <-out }
}

// secondsIn is how many whole seconds a measured window of length d is
// cut into for perSecond; a window shorter than two seconds is one
// piece. Warm-up rounds and ladder rungs ask for one piece.
func secondsIn(d time.Duration) int {
	return max(int(d/time.Second), 1)
}

// secondOf returns the piece of a window of n pieces that t falls in,
// or -1 past the window's end.
func secondOf(start time.Time, d time.Duration, n int, t time.Time) int {
	i := int(t.Sub(start) / (d / time.Duration(n)))
	if i >= n {
		return -1
	}
	return i
}

// runClosed drives a closed loop: each caller issues its next op only
// when the previous one has returned. It runs for d, or until every
// caller has used its share of opCap (0: no cap). With stride > 1 only
// the first op of each stride is timed, and fn is told which. Latency
// samples are also kept by which of the window's n pieces they ended in.
func runClosed(callers int, d time.Duration, opCap int64, stride, n int, mk func(caller int) func(timed bool) error) *windowResult {
	type callerResult struct {
		ops, failed int64
		perSecond   []hist
		tail        hist // ops finishing after the window closed
		end         time.Time
		err         error
	}
	out := make([]callerResult, callers)
	fns := make([]func(bool) error, callers)
	for c := range fns {
		fns[c] = mk(c)
		out[c].perSecond = make([]hist, n)
	}
	perCaller := int64(0)
	if opCap > 0 {
		perCaller = opCap/int64(callers) + 1
	}
	res := &windowResult{perSecond: make([]hist, n)}
	settle()
	res.before = sampleProc()
	finishRSS := startRSSSampler()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(r *callerResult, fn func(bool) error) {
			defer wg.Done()
			count := func(err error) {
				if err != nil {
					r.failed++
					if r.err == nil {
						r.err = err
					}
					return
				}
				r.ops++
			}
			t0 := time.Now()
			for t0.Before(deadline) && (perCaller == 0 || r.ops+r.failed < perCaller) {
				err := fn(true)
				t1 := time.Now()
				count(err)
				if err == nil {
					if i := secondOf(start, d, n, t1); i >= 0 {
						r.perSecond[i].record(int64(t1.Sub(t0)))
					} else {
						r.tail.record(int64(t1.Sub(t0)))
					}
				}
				for i := 1; i < stride; i++ {
					count(fn(false))
				}
				if stride > 1 {
					t1 = time.Now()
				}
				t0 = t1
			}
			r.end = t0
		}(&out[c], fns[c])
	}
	wg.Wait()
	res.after = sampleProc()
	res.rssMB = append(finishRSS(), res.after.rssMB)
	end := start
	for i := range out {
		r := &out[i]
		res.ops += r.ops
		res.failed += r.failed
		for k := range r.perSecond {
			res.perSecond[k].merge(&r.perSecond[k])
		}
		res.lat.merge(&r.tail)
		if r.end.After(end) {
			end = r.end
		}
		if res.firstErr == nil {
			res.firstErr = r.err
		}
	}
	for k := range res.perSecond {
		res.lat.merge(&res.perSecond[k])
	}
	res.wall = end.Sub(start)
	res.offered = res.attempted()
	return res
}

// arrival is one scheduled op of the open loop.
type arrival struct {
	due   time.Time
	shard int
	o     op
}

// schedule is the seeded Poisson arrival process: exponential gaps with
// mean 1/rate, each arrival drawing its shard and op from the same
// stream. It is a pure function of its inputs, so a seed fixes the
// offered load to the nanosecond.
type schedule struct {
	r       rng
	gapNS   float64
	na, nb  int
	elapsed float64 // ns since the window opened
}

func newSchedule(seed int64, rate float64, na, nb int) *schedule {
	return &schedule{r: newRNG(seed, 0), gapNS: 1e9 / rate, na: na, nb: nb}
}

// next returns the offset from window start at which the next op is
// due, with its shard and op.
func (s *schedule) next() (time.Duration, int, op) {
	s.elapsed += s.r.exp(s.gapNS)
	shard := s.r.intn(shards)
	return time.Duration(s.elapsed), shard, op{a: s.r.intn(s.na), b: s.r.intn(s.nb)}
}

// runOpen drives the open loop: ops are sent when they fall due whether
// or not earlier ones have finished, by up to inflight parked callers.
// An arrival that finds every caller busy waits its turn in a queue of
// the given length; one that finds the queue full too is counted as
// failed and not sent. Latency is completion minus the due instant, so
// the time an op spent waiting for the generator, in the queue or
// behind a stall is part of it.
func runOpen(sched *schedule, d time.Duration, inflight, queue, n int, do func(shard int, o op) error) *windowResult {
	res := &windowResult{perSecond: make([]hist, n)}
	var (
		mu sync.Mutex // guards res.ops, res.failed, res.lat, res.perSecond, res.firstErr from the callers
		wg sync.WaitGroup
		// start is set once the callers are parked and the heap settled;
		// a caller reads it only after receiving an arrival, and the
		// channel orders that after the write.
		start time.Time
	)
	jobs := make(chan arrival, queue)
	for c := 0; c < inflight; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range jobs {
				err := do(a.shard, a.o)
				done := time.Now()
				lat := int64(done.Sub(a.due))
				mu.Lock()
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = err
					}
				} else {
					res.ops++
					res.lat.record(lat)
					if i := secondOf(start, d, n, done); i >= 0 {
						res.perSecond[i].record(lat)
					}
				}
				mu.Unlock()
			}
		}()
	}
	settle()
	res.before = sampleProc()
	finishRSS := startRSSSampler()
	start = time.Now()
	var overflow int64
	for {
		off, shard, o := sched.next()
		if off >= d {
			break
		}
		due := start.Add(off)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		res.late.record(int64(time.Since(due)))
		res.offered++
		select {
		case jobs <- arrival{due: due, shard: shard, o: o}:
		default:
			overflow++
		}
	}
	close(jobs)
	time.Sleep(time.Until(start.Add(d)))
	wg.Wait()
	res.wall = time.Since(start)
	res.after = sampleProc()
	res.rssMB = append(finishRSS(), res.after.rssMB)
	res.failed += overflow
	return res
}
