package main

import (
	"fmt"
	"math"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric of the benchmark: BENCHMARK.json is
// checked against these tables by a test, so the contract file and the
// program cannot drift apart.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEndMetrics are what a user of the system sees. Every workload
// reports all of them. The failure ratio is not among them because the
// contract wants metrics that are never 0 and it must be 0: it is
// carried by the result's attempted/failed counts and enforced by the
// gate instead.
//
// The contract accepts a bound only if ten runs of one commit spread by
// less than it. On this 2-vCPU shared VM a timing has spread by
// up to 18% (README.md, "Bounds"), so the timing bounds are the contract's
// maximum; the two that are not timings are tight. CPU time per op and
// the resident-set high-water mark have at times spread wider than any
// bound the contract allows; they are recorded with every run and
// printed beside the gated six, and the memory metric here is the
// median resident set over the window instead.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p99_us", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"rss_mb", "MB", "lower", 0.10},
}

// setupsPerRun is how many times a measured run stands the deployment
// up: setup_s is their median, as the benchmark contract asks, so that
// one slow fsync during provisioning does not read as a regression.
const setupsPerRun = 3

// runConfig is one invocation: a workload, a seed, a window length.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	outDir  string
	// setups is how many times the deployment is stood up before the
	// window (setupsPerRun; 1 in the smoke pass); the last one is
	// measured on.
	setups int
}

// runResult is what one run reports.
type runResult struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Trace     bool      `json:"trace"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Ops       int64     `json:"ops"`
	Samples   uint64    `json:"latency_samples"`
	WindowS   float64   `json:"window_s"`
	SetupsS   []float64 `json:"setups_s"`
	// CPUUSPerOp (getrusage user+sys ÷ ops) and PeakRSSMB (VmHWM) are
	// recorded with every end-to-end run but are not gated metrics.
	CPUUSPerOp float64 `json:"cpu_us_per_op,omitempty"`
	PeakRSSMB  float64 `json:"peak_rss_mb,omitempty"`
	// TailUS is the whole window's latency tail, late finishers included:
	// recorded with every end-to-end run, not gated (see steadyP99).
	TailUS    *tail             `json:"tail_us,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Waterfall []waterfallRow    `json:"waterfall,omitempty"`
	Checks    []check           `json:"checks,omitempty"`
}

// tail is the upper end of a window's latency histogram, in µs.
type tail struct {
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

// windowCap is the op cap of a window of the given length (0: none).
func windowCap(w *workload, seconds float64) int64 {
	return int64(math.Ceil(float64(w.capPerSecond) * seconds))
}

// execCapacity is how many Execute ops the app licenses can absorb
// before one runs dry, by the same arithmetic as the renew population:
// k holders per license, 2·k² steady renewals, each worth the steady
// grant. A lone holder lives off its first grant, a quarter of the
// budget.
func execCapacity(cfg stackConfig) float64 {
	if cfg.instances == 0 {
		return 0
	}
	usedShards := shards
	if cfg.instances < shards {
		usedShards = cfg.instances
	}
	k := (cfg.instances + shards - 1) / shards
	licenses := float64(usedShards * cfg.appLicensesPerShard)
	if k == 1 {
		return licenses * float64(cfg.appTotalGCL) / 4
	}
	grant := math.Floor(float64(cfg.appTotalGCL) / float64(4*k*k))
	return licenses * float64(renewalsPerWarmLicense(k)) * grant
}

// checkSizing refuses a run whose windows could exhaust a license: a
// denial costs the server almost nothing, so a dry license would show
// up as a throughput gain.
func checkSizing(w *workload, ops int64) error {
	if w.kind == opExecute && float64(ops) > execCapacity(w.stack) {
		return fmt.Errorf("%d ops exceed the %.0f the app licenses are provisioned for", ops, execCapacity(w.stack))
	}
	if w.kind == opRenew && w.capPerSecond == 0 {
		return fmt.Errorf("a renewal workload needs an op cap to size its licenses")
	}
	return nil
}

// opFunc is what a caller does with one drawn op. timed says whether
// the loop is timing this call (it times one op per stride); the trace
// pass gives only those a span.
type opFunc func(caller int, o op, timed bool) error

// do is the workload's op on st, as the end-to-end pass runs it.
func (st *stack) do(w *workload) opFunc {
	if w.kind == opRenew {
		return func(caller int, o op, _ bool) error { return st.renew(caller%shards, o) }
	}
	return func(caller int, o op, _ bool) error { return st.execute(caller, o) }
}

// opClosure returns caller's op function for a closed loop on st: a
// seeded stream of ops, each handed to do.
func (st *stack) opClosure(w *workload, seed int64, caller int, do opFunc) func(timed bool) error {
	na, nb := len(st.instances), st.opts.cfg.appLicensesPerShard
	if w.kind == opRenew {
		pop := &st.pops[caller%shards]
		na, nb = len(pop.slids), len(pop.licenses)
	}
	g := newOpGen(seed, caller, na, nb)
	return func(timed bool) error { return do(caller, g.next(), timed) }
}

// note books a finished window: Execute calls are counted for the gate.
func (st *stack) note(w *workload, res *windowResult) *windowResult {
	if w.kind == opExecute {
		st.executed += res.attempted()
	}
	return res
}

// warmUp is the untimed round that ends set-up: the workload's own op,
// closed loop, from a stream of its own.
func (st *stack) warmUp(w *workload, seed int64) error {
	callers := w.inflight
	if w.open {
		callers = w.ladderInflight
	}
	res := st.note(w, runClosed(callers, time.Minute, int64(w.warmOps), 1, 1, func(c int) func(bool) error {
		return st.opClosure(w, seed, 1000+c, st.do(w))
	}))
	if res.failed != 0 {
		return fmt.Errorf("warm-up: %d ops failed: %w", res.failed, res.firstErr)
	}
	return nil
}

// window runs the workload's measured window on st, every op through do.
func (st *stack) window(w *workload, seed int64, seconds float64, do opFunc) *windowResult {
	d := dur(seconds)
	if w.open {
		pop := &st.pops[0]
		return runOpen(newSchedule(seed, w.rate, len(pop.slids), len(pop.licenses)), d, w.inflight, w.queue, secondsIn(d),
			func(shard int, o op) error { return do(shard, o, true) })
	}
	return st.note(w, runClosed(w.inflight, d, windowCap(w, seconds), w.timedEvery, secondsIn(d), func(c int) func(bool) error {
		return st.opClosure(w, seed, c, do)
	}))
}

// setUp stands the deployment up rc.setups times, tearing all but the
// last down again, and returns the last with every set-up's duration.
func setUp(rc runConfig, opts stackOptions) (*stack, []float64, error) {
	var (
		st     *stack
		setups []float64
	)
	for k := 0; k < rc.setups; k++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, nil, fmt.Errorf("tearing down set-up %d: %w", k, err)
			}
			// Collect the torn-down deployment before standing the next
			// one up, so peak RSS is that of one deployment, not three.
			settle()
		}
		start := time.Now()
		var err error
		st, err = newStack(opts)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", k+1, err)
		}
		if err := st.warmUp(rc.w, rc.seed); err != nil {
			st.close()
			return nil, nil, fmt.Errorf("set-up %d: %w", k+1, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	return st, setups, nil
}

// runEndToEnd is the measured pass: every registry, tracer and bench
// decorator off.
func runEndToEnd(rc runConfig) (*runResult, error) {
	w := rc.w
	budget := windowCap(w, rc.seconds) + int64(w.warmOps)
	if err := checkSizing(w, budget); err != nil {
		return nil, err
	}
	st, setups, err := setUp(rc, stackOptions{
		cfg: w.stack, dir: rc.outDir, seed: rc.seed, renewBudget: int(budget),
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	res := st.window(w, rc.seed, rc.seconds, st.do(w))
	if _, err := st.gate(res.failed); err != nil {
		if res.firstErr != nil {
			err = fmt.Errorf("%w (first op error: %v)", err, res.firstErr)
		}
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	if res.after.rssMB == 0 {
		return nil, fmt.Errorf("cannot read VmRSS from /proc/self/status")
	}
	n := float64(res.ops)
	out := newResult(rc, res, setups, false)
	out.CPUUSPerOp = float64((res.after.cpu - res.before.cpu).Nanoseconds()) / 1e3 / n
	out.PeakRSSMB = procStatusMB("VmHWM:")
	out.TailUS = &tail{
		P99:  res.lat.quantile(0.99) / 1e3,
		P999: res.lat.quantile(0.999) / 1e3,
		Max:  res.lat.quantile(1) / 1e3,
	}
	out.Metrics = map[string]metric{
		"setup_s":       {median(setups), "s"},
		"ops_per_s":     {n / res.wall.Seconds(), "1/s"},
		"op_p50_us":     {res.lat.quantile(0.50) / 1e3, "us"},
		"op_p99_us":     {res.steadyP99() / 1e3, "us"},
		"allocs_per_op": {float64(res.after.mallocs-res.before.mallocs) / n, "count"},
		"rss_mb":        {median(res.rssMB), "MB"},
	}
	return out, nil
}

// steadyP99 is the 99th percentile of a typical second of the window:
// the median over the window's seconds of each second's own p99, in ns.
// The box's disk stalls for 100–250 ms in about one second in thirty,
// whatever the commit; in an open loop the arrivals that pile up behind
// such a stall are about 1% of a twenty-second window, so the window's
// own p99 reads 32–38 ms or 42–115 ms depending on whether one happened
// (over ten runs at the seed it spread by 12%, 43% and 182% in three
// sweeps, against 5%, 16% and 6% for this figure). This figure's own
// spread is sampling — a second's p99 rests on its eight slowest ops at
// 800 ops/s — and narrows only with the number of seconds, which is why
// BENCHMARK.json asks for twenty-second windows, not ten.
// That makes this the tail a gate can hold; it also means a stall that
// spoils fewer than half of the seconds does not move it, which is why
// the whole-window p99, p99.9 and maximum are recorded beside it
// (runResult.TailUS). A window of under two seconds, or one an op cap
// cut short, has no full seconds to take a median over and reads whole.
func (r *windowResult) steadyP99() float64 {
	if len(r.perSecond) < 2 {
		return r.lat.quantile(0.99)
	}
	p99s := make([]float64, len(r.perSecond))
	for i := range r.perSecond {
		if r.perSecond[i].n == 0 {
			return r.lat.quantile(0.99)
		}
		p99s[i] = r.perSecond[i].quantile(0.99)
	}
	return median(p99s)
}

func newResult(rc runConfig, res *windowResult, setups []float64, trace bool) *runResult {
	return &runResult{
		Workload:  rc.w.name,
		Seed:      rc.seed,
		Seconds:   rc.seconds,
		Trace:     trace,
		Attempted: res.attempted(),
		Failed:    res.failed,
		Ops:       res.ops,
		Samples:   res.lat.n,
		WindowS:   res.wall.Seconds(),
		SetupsS:   setups,
	}
}
