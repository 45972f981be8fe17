package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/seccrypto"
	"repro/internal/sgx"
	"repro/internal/slremote"
)

// These tests cover the harness's own arithmetic and keep it compiling
// against the program. None asserts on wall-clock time.

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.record(v * 10) // 10 ns .. 1 ms, uniform
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99} {
		want := q * 1e6
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%g) = %.0f, want %.0f within 1%%", q, got, want)
		}
	}
	if got, want := h.mean(), 500_005.0; math.Abs(got-want) > 1 {
		t.Errorf("mean = %f, want %f", got, want)
	}
	var empty hist
	if empty.quantile(0.5) != 0 || empty.mean() != 0 {
		t.Error("an empty histogram must read 0")
	}
}

func TestHistBucketsCoverTheirValues(t *testing.T) {
	for _, ns := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 123_456, 7_654_321, 1 << 40} {
		lo, hi := bucketBounds(bucketOf(ns))
		if float64(ns) < lo || float64(ns) >= hi {
			t.Errorf("%d ns landed in bucket [%g, %g)", ns, lo, hi)
		}
		if ns >= histSub && (hi-lo)/lo > 1.0/histSub+1e-9 {
			t.Errorf("bucket [%g, %g) of %d ns is wider than 1/%d of its value", lo, hi, ns, histSub)
		}
	}
	if b := bucketOf(math.MaxInt64); b != histBuckets-1 {
		t.Errorf("huge value landed in bucket %d, want the last", b)
	}
}

func TestHistMergeAndSubtract(t *testing.T) {
	var a, b hist
	for i := int64(0); i < 1000; i++ {
		a.record(1000 + i)
		b.record(50_000 + i)
	}
	sum := a
	sum.merge(&b)
	if sum.n != 2000 || sum.quantile(0.25) > 2100 || sum.quantile(0.75) < 49_000 {
		t.Errorf("merge: n=%d q25=%f q75=%f", sum.n, sum.quantile(0.25), sum.quantile(0.75))
	}
	sum.subtract(&a)
	if sum.n != b.n || sum.sum != b.sum || sum.quantile(0.5) != b.quantile(0.5) {
		t.Errorf("subtracting a from a+b does not give b back")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles = %g, %g, median %g; want 2.75, 8.25, 5.5", q1, q3, median(v))
	}
	if got := spread(v); got != 1 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %g, %g; want 1, 4", q1, q3)
	}
	if spread([]float64{7}) != 0 || spread(nil) != 0 {
		t.Error("fewer than two values have no spread")
	}
}

func TestSameSeedSameOpStream(t *testing.T) {
	a := streamHash(42, 16, 64, 25, 5000)
	if b := streamHash(42, 16, 64, 25, 5000); a != b {
		t.Errorf("same seed gave stream hashes %x and %x", a, b)
	}
	if c := streamHash(43, 16, 64, 25, 5000); a == c {
		t.Errorf("seeds 42 and 43 gave the same stream hash %x", a)
	}
	g := newOpGen(1, 0, 7, 3)
	seen := map[op]bool{}
	for i := 0; i < 10_000; i++ {
		o := g.next()
		if o.a < 0 || o.a >= 7 || o.b < 0 || o.b >= 3 {
			t.Fatalf("op %+v outside its population", o)
		}
		seen[o] = true
	}
	if len(seen) != 21 {
		t.Errorf("10000 draws reached %d of 21 ops", len(seen))
	}
	// Callers of one seed must not share a stream.
	g0, g1 := newOpGen(1, 0, 1000, 1000), newOpGen(1, 1, 1000, 1000)
	same := 0
	for i := 0; i < 1000; i++ {
		if g0.next() == g1.next() {
			same++
		}
	}
	if same > 10 {
		t.Errorf("callers 0 and 1 drew the same op %d times in 1000", same)
	}
}

// replay returns the due offsets a schedule produces inside d.
func replay(seed int64, rate float64, d time.Duration) []time.Duration {
	s := newSchedule(seed, rate, 64, 8)
	var offs []time.Duration
	for {
		off, shard, o := s.next()
		if off >= d {
			return offs
		}
		if shard < 0 || shard >= shards || o.a >= 64 || o.b >= 8 {
			panic("schedule drew outside its population")
		}
		offs = append(offs, off)
	}
}

func TestOpenLoopScheduleIsSeededPoisson(t *testing.T) {
	const rate = 1000.0
	a := replay(7, rate, 20*time.Second)
	b := replay(7, rate, 20*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed scheduled %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d due at %v and %v for the same seed", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
	}
	// 20000 expected arrivals, standard deviation 141: 5 sigma.
	if n := float64(len(a)); math.Abs(n-20_000) > 700 {
		t.Errorf("%d arrivals in 20 s at %g/s", len(a), rate)
	}
	// Exponential gaps: the share below the mean gap is 1 - 1/e.
	below := 0
	for i := 1; i < len(a); i++ {
		if a[i]-a[i-1] < time.Millisecond {
			below++
		}
	}
	if share := float64(below) / float64(len(a)-1); math.Abs(share-0.632) > 0.02 {
		t.Errorf("%.3f of the gaps are below the mean, want 0.632 for a Poisson process", share)
	}
	if c := replay(8, rate, 20*time.Second); len(c) == len(a) && c[0] == a[0] {
		t.Error("seeds 7 and 8 gave the same schedule")
	}
}

func TestOpenLoopAccounting(t *testing.T) {
	const (
		seed = 3
		rate = 2000.0
		d    = 100 * time.Millisecond
	)
	want := int64(len(replay(seed, rate, d)))
	res := runOpen(newSchedule(seed, rate, 64, 8), d, 4, 16, 2, func(int, op) error { return nil })
	if res.offered != want {
		t.Errorf("offered %d arrivals, the schedule holds %d", res.offered, want)
	}
	if res.attempted() != res.offered {
		t.Errorf("ops %d + failed %d != offered %d: every arrival is either run or counted as failed", res.ops, res.failed, res.offered)
	}
	if res.late.n != uint64(res.offered) {
		t.Errorf("%d lateness samples for %d arrivals", res.late.n, res.offered)
	}
	if res.lat.n != uint64(res.ops) {
		t.Errorf("%d latency samples for %d ops", res.lat.n, res.ops)
	}
	if len(res.rssMB) == 0 {
		t.Error("no reading of the resident set, not even the closing one")
	}
	// An op is timed from the instant it was due, not from when it was
	// sent: with no op failing, total latency cannot be below total
	// lateness.
	if res.failed == 0 && res.lat.sum < res.late.sum {
		t.Errorf("latency sum %g below lateness sum %g: ops are not timed from their due instant", res.lat.sum, res.late.sum)
	}
	var inSeconds uint64
	for i := range res.perSecond {
		inSeconds += res.perSecond[i].n
	}
	if inSeconds > res.lat.n {
		t.Errorf("the window's seconds hold %d samples, the window %d", inSeconds, res.lat.n)
	}
}

func TestOpenLoopCountsOverflowAsFailed(t *testing.T) {
	// One caller, a queue of two, and an op that blocks until well after
	// the generator is through (on an idle box; under load it may be
	// released earlier, which only means fewer overflows): arrivals that
	// find caller and queue full must be counted as failed, and none may
	// be lost either way.
	release := make(chan struct{})
	timer := time.AfterFunc(100*time.Millisecond, func() { close(release) })
	defer timer.Stop()
	res := runOpen(newSchedule(1, 5000, 4, 4), 20*time.Millisecond, 1, 2, 1, func(int, op) error {
		<-release
		return nil
	})
	if res.attempted() != res.offered {
		t.Errorf("ops %d + failed %d != offered %d", res.ops, res.failed, res.offered)
	}
	if res.ops > res.offered || res.lat.n != uint64(res.ops) {
		t.Errorf("%d ops, %d latency samples, %d offered", res.ops, res.lat.n, res.offered)
	}
}

func TestClosedLoopCounts(t *testing.T) {
	calls, timed := make([]int64, 3), make([]int64, 3)
	res := runClosed(3, time.Hour, 3000, 4, 2, func(c int) func(bool) error {
		return func(isTimed bool) error {
			calls[c]++
			if isTimed {
				timed[c]++
			}
			return nil
		}
	})
	var total, totalTimed int64
	for c := range calls {
		total += calls[c]
		totalTimed += timed[c]
	}
	if res.ops != total || res.failed != 0 {
		t.Errorf("window counted %d ops, the callers made %d", res.ops, total)
	}
	// The cap is shared out per caller and checked once a stride.
	if total < 3000 || total > 3000+3*4 {
		t.Errorf("%d ops under a cap of 3000 with stride 4", total)
	}
	// One op in four is timed, and the op function is told which.
	if res.lat.n != uint64(total)/4 || totalTimed != total/4 {
		t.Errorf("%d latency samples and %d ops told they were timed, for %d ops at stride 4", res.lat.n, totalTimed, total)
	}
	// An hour-long window that its cap ended at once: every sample is in
	// the first of its two pieces.
	if len(res.perSecond) != 2 || res.perSecond[0].n != res.lat.n {
		t.Errorf("%d pieces, %d samples in the first, %d in the window", len(res.perSecond), res.perSecond[0].n, res.lat.n)
	}

	failing := runClosed(2, time.Hour, 100, 1, 1, func(int) func(bool) error {
		n := 0
		return func(bool) error {
			n++
			if n%2 == 0 {
				return os.ErrInvalid
			}
			return nil
		}
	})
	if failing.failed == 0 || failing.firstErr == nil || failing.ops+failing.failed < 100 {
		t.Errorf("failures not counted: ops %d failed %d err %v", failing.ops, failing.failed, failing.firstErr)
	}
}

func TestSecondOf(t *testing.T) {
	start := time.Unix(1000, 0)
	const d = 10 * time.Second
	if n := secondsIn(d); n != 10 {
		t.Fatalf("a ten-second window has %d seconds", n)
	}
	for _, tc := range []struct {
		at   time.Duration
		want int
	}{{0, 0}, {999 * time.Millisecond, 0}, {time.Second, 1}, {9999 * time.Millisecond, 9}, {10 * time.Second, -1}, {11 * time.Second, -1}} {
		if got := secondOf(start, d, 10, start.Add(tc.at)); got != tc.want {
			t.Errorf("secondOf(+%v) = %d, want %d", tc.at, got, tc.want)
		}
	}
	if secondsIn(100*time.Millisecond) != 1 || secondsIn(3500*time.Millisecond) != 3 || secondsIn(time.Minute) != 60 {
		t.Error("secondsIn: whole seconds, one at least")
	}
}

// stalledWindow is a ten-second window of 1000 ops a second taking
// 1 ms each, of which the given seconds had a stall that held 200 ops
// for 300 ms.
func stalledWindow(stalled ...int) *windowResult {
	r := &windowResult{perSecond: make([]hist, 10)}
	isStalled := map[int]bool{}
	for _, s := range stalled {
		isStalled[s] = true
	}
	for s := range r.perSecond {
		for i := 0; i < 1000; i++ {
			lat := int64(time.Millisecond)
			if isStalled[s] && i < 200 {
				lat = int64(300 * time.Millisecond)
			}
			r.perSecond[s].record(lat)
		}
		r.lat.merge(&r.perSecond[s])
		r.ops += 1000
	}
	return r
}

// TestStallsAndTheTwoTails pins down what each of the two p99s sees.
// The whole-window tail rises with a single stalled second; the gated
// figure, the p99 of a typical second, holds still until the stalls
// reach most seconds, and then rises too.
func TestStallsAndTheTwoTails(t *testing.T) {
	const ms = float64(time.Millisecond)
	near := func(got, want float64) bool { return math.Abs(got-want)/want < 0.02 }

	quiet := stalledWindow()
	if !near(quiet.lat.quantile(0.99), ms) || !near(quiet.steadyP99(), ms) {
		t.Errorf("quiet window: whole p99 %g, steady p99 %g, want 1 ms", quiet.lat.quantile(0.99), quiet.steadyP99())
	}
	// One stalled second: 200 of 10000 ops, 2%, are beyond the 99th
	// percentile of the window.
	one := stalledWindow(4)
	if !near(one.lat.quantile(0.99), 300*ms) {
		t.Errorf("one stalled second: whole-window p99 %g, want 300 ms", one.lat.quantile(0.99))
	}
	if !near(one.steadyP99(), ms) {
		t.Errorf("one stalled second: steady p99 %g, want 1 ms", one.steadyP99())
	}
	most := stalledWindow(0, 2, 3, 5, 7, 8)
	if !near(most.steadyP99(), 300*ms) {
		t.Errorf("six stalled seconds: steady p99 %g, want 300 ms", most.steadyP99())
	}
	// An op that finished after the window closed is in no second, but it
	// is in the whole-window histogram and its maximum.
	one.lat.record(int64(5 * time.Second))
	if !near(one.lat.quantile(1), 5000*ms) || !near(one.steadyP99(), ms) {
		t.Errorf("late finisher: max %g, steady p99 %g", one.lat.quantile(1), one.steadyP99())
	}
	// A window cut short by its op cap has an empty second and reads whole.
	short := stalledWindow(4)
	short.perSecond[9] = hist{}
	if !near(short.steadyP99(), short.lat.quantile(0.99)) {
		t.Errorf("ragged window: steady p99 %g, whole %g", short.steadyP99(), short.lat.quantile(0.99))
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{StartNS: 0, EndNS: 100}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{StartNS: 10, EndNS: 30}}, 80},
		{"overlapping children count once", []span{{StartNS: 10, EndNS: 30}, {StartNS: 20, EndNS: 50}}, 60},
		{"nested child", []span{{StartNS: 10, EndNS: 50}, {StartNS: 20, EndNS: 30}}, 60},
		{"child sticking out is clipped", []span{{StartNS: 90, EndNS: 120}, {StartNS: -5, EndNS: 5}}, 85},
		{"child outside is ignored", []span{{StartNS: 200, EndNS: 300}}, 100},
		{"child covering everything", []span{{StartNS: -1, EndNS: 101}}, 0},
		{"unsorted children", []span{{StartNS: 60, EndNS: 70}, {StartNS: 10, EndNS: 20}}, 80},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimesResolvesParentsWithinAnOp(t *testing.T) {
	spans := []span{
		{Op: 1, Name: spanOp, StartNS: 0, EndNS: 100},
		{Op: 1, Name: spanRemoteRenew, Parent: spanOp, StartNS: 20, EndNS: 90},
		{Op: 2, Name: spanOp, StartNS: 0, EndNS: 50}, // no child: a token-cache hit
		{Op: 3, Name: spanServerRenew, StartNS: 0, EndNS: 40},
		{Op: 3, Name: spanLogAppend, Parent: spanServerRenew, StartNS: 5, EndNS: 35},
		// Same names under another op must not be charged to op 2.
		{Op: 4, Name: spanRemoteRenew, Parent: spanOp, StartNS: 0, EndNS: 50},
	}
	st := selfTimes(spans)
	if got := st[spanOp]; got.Count != 2 || got.MeanNS != 75 || got.SelfNS != (30+50)/2.0 {
		t.Errorf("op spans: %+v", got)
	}
	if got := st[spanServerRenew]; got.Count != 1 || got.SelfNS != 10 {
		t.Errorf("server span: %+v", got)
	}
	if got := st[spanLogAppend]; got.SelfNS != 30 || got.MeanNS != 30 {
		t.Errorf("append span: %+v", got)
	}
}

func TestSpanLogCapsAndCounts(t *testing.T) {
	l := newSpanLog(2)
	now := time.Now()
	for i := 0; i < 5; i++ {
		l.add(uint64(i+1), spanOp, "", now, now.Add(time.Microsecond))
	}
	// The cap is per name: a full name leaves room for another.
	l.add(9, spanRemoteRenew, spanOp, now, now.Add(time.Microsecond))
	spans, dropped := l.snapshot()
	if len(spans) != 3 || dropped != 3 || spans[2].Name != spanRemoteRenew {
		t.Errorf("kept %d spans and dropped %d, want 3 and 3", len(spans), dropped)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := l.writeFile(path); err != nil {
		t.Fatal(err)
	}
	var back struct {
		Dropped int64
		Spans   []span
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &back); err != nil || back.Dropped != 3 || len(back.Spans) != 3 || back.Spans[0].EndNS-back.Spans[0].StartNS != 1000 {
		t.Errorf("span file round trip: %v %+v", err, back)
	}
	var none *spanLog
	none.add(1, spanOp, "", now, now) // an absent log swallows spans
}

// fakeRemote grants a fixed number of units to every renewal.
type fakeRemote struct{ units int64 }

func (fakeRemote) InitClient(string, attest.Quote, *sgx.Machine) (slremote.InitResult, error) {
	return slremote.InitResult{}, nil
}
func (fakeRemote) EscrowRootKey(string, seccrypto.Key) error { return nil }
func (f fakeRemote) RenewLease(string, string) (slremote.Grant, error) {
	return slremote.Grant{Units: f.units}, nil
}

// TestTracedRemoteFindsTheOpByItsArguments: an Execute op cannot hand
// its id down through the program, so the decorator must find it by
// the (SLID, license) of the renewal — also with two ops in flight.
func TestTracedRemoteFindsTheOpByItsArguments(t *testing.T) {
	log := newSpanLog(100)
	tr := newTracedRemote(fakeRemote{units: 5}, log)
	a, b := renewKey{"slid-a", "lic-1"}, renewKey{"slid-b", "lic-1"}
	renew := func(k renewKey) {
		t.Helper()
		if g, err := tr.RenewLease(k.slid, k.license); err != nil || g.Units != 5 {
			t.Fatalf("RenewLease: %+v, %v", g, err)
		}
	}
	tr.enter(a, 1)
	tr.enter(b, 2)
	renew(b)
	renew(a)
	tr.leave(a, 1)
	renew(a) // no op announced: timed and booked, but no span
	// A stale leave must not withdraw a newer announcement of the key.
	tr.enter(a, 3)
	tr.enter(a, 4)
	tr.leave(a, 3)
	renew(a)
	spans, _ := log.snapshot()
	var got []uint64
	for _, s := range spans {
		if s.Name != spanRemoteRenew || s.Parent != spanOp {
			t.Errorf("unexpected span %+v", s)
		}
		got = append(got, s.Op)
	}
	if len(got) != 3 || got[0] != 2 || got[1] != 1 || got[2] != 4 {
		t.Errorf("renewal spans under ops %v, want [2 1 4]", got)
	}
	if n := tr.rtt.snapshot().n; n != 4 {
		t.Errorf("%d round trips timed, want 4", n)
	}
	if tr.grantedTo("slid-a") != 15 || tr.grantedTo("slid-b") != 5 {
		t.Errorf("ledger: slid-a %d, slid-b %d; want 15 and 5", tr.grantedTo("slid-a"), tr.grantedTo("slid-b"))
	}
}

func TestRungSubtraction(t *testing.T) {
	lad := &ladder{
		top:      rung{meanUS: 100},
		token:    rung{meanUS: 400},
		tree:     rung{meanUS: 10},
		attestNS: 5000,
		ratls:    rung{meanUS: 3000},
		insecure: rung{meanUS: 2900},
		inproc:   rung{meanUS: 2600},
		alone:    standaloneReport{appendMeanUS: 2000},
		auditUS:  100,
	}
	r := rates{tokensPerOp: 0.1, renewalsPerOp: 0.01, renewalsPerToken: 0.1, batch: 2}
	s := lad.selfTimes(true, true, r)
	want := selfUS{
		sllocalPerToken: 400 - 5 - 10 - 0.1*3000,
		ratls:           100,
		wire:            300,
		store:           2000,
		audit:           200, // every caller of a batch of two waits for both appends
		slremote:        2600 - 2000 - 200,
	}
	if s != want {
		t.Errorf("self times\n got %+v\nwant %+v", s, want)
	}
	if off := lad.selfTimes(true, false, r); off.audit != 0 || off.slremote != 600 {
		t.Errorf("without an audit chain: %+v", off)
	}
	if renew := lad.selfTimes(false, true, r); renew.sllocalPerToken != 0 {
		t.Errorf("a renewal workload has no SL-Local share: %+v", renew)
	}

	rows := lad.waterfall(true, s, r, 105, 0)
	byLayer := map[string]float64{}
	sum := 0.0
	for _, row := range rows {
		byLayer[row.Layer] = row.US
		sum += row.US
	}
	if math.Abs(sum-105) > 1e-9 {
		t.Errorf("rows and remainder sum to %g, the traced op took 105", sum)
	}
	// The rungs telescope to the untraced top rung (100), so the
	// remainder is what tracing added.
	if math.Abs(byLayer["unattributed"]-5) > 1e-9 {
		t.Errorf("unattributed = %g, want 5", byLayer["unattributed"])
	}
	for layer, want := range map[string]float64{
		"slmanager": 100 - 0.1*400, "sllocal": 0.1 * 85, "attest": 0.5, "leasetree": 1,
		"ratls": 1, "wire": 3, "slremote": 4, "store": 20, "audit": 2,
	} {
		if math.Abs(byLayer[layer]-want) > 1e-9 {
			t.Errorf("%s = %g µs per op, want %g", layer, byLayer[layer], want)
		}
	}
	if renew := lad.waterfall(false, s, rates{renewalsPerOp: 1, batch: 2}, 3100, 50); renew[0].US != 0 || renew[len(renew)-1].US != 3100-3000-50 {
		t.Errorf("renewal waterfall: %+v", renew)
	}
}

func TestSizing(t *testing.T) {
	// 64 holders: a warm license is good for 2·64² renewals.
	cfg := stackConfig{slidsPerShard: 64}
	for _, tc := range []struct{ budget, want int }{{0, 0}, {1, 1}, {16384, 1}, {16385, 2}, {100_000, 7}} {
		if got := renewLicensesPerShard(cfg, tc.budget); got != tc.want {
			t.Errorf("renewLicensesPerShard(budget %d) = %d, want %d", tc.budget, got, tc.want)
		}
	}
	if renewLicensesPerShard(stackConfig{}, 1000) != 0 {
		t.Error("no renew population wanted, some provisioned")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		RunSeconds float64 `json:"run_seconds"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := &workloads[i]
		if err := checkSizing(w, windowCap(w, bf.RunSeconds)+int64(w.warmOps)); err != nil {
			t.Errorf("%s cannot run the window BENCHMARK.json asks for: %v", w.name, err)
		}
		if w.kind == opRenew && w.stack.slidsPerShard == 0 {
			t.Errorf("%s renews but has no SLIDs", w.name)
		}
		if w.kind == opExecute && (w.stack.instances == 0 || w.ladderHolders == 0) {
			t.Errorf("%s executes but has no instances or no ladder population", w.name)
		}
	}
	e2e, err := workloadByName("e2e-stack")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSizing(e2e, int64(execCapacity(e2e.stack))+1); err == nil {
		t.Error("a window beyond the licenses' capacity was accepted")
	}
	if _, err := workloadByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		want   verdict
	}{
		{"unchanged", base, base, "lower", verdictOK},
		{"worse within the bound", base, scale(1.04), "lower", verdictOK},
		{"worse beyond the bound", base, scale(1.10), "lower", verdictRegressed},
		{"a lower throughput is worse", base, scale(0.90), "higher", verdictRegressed},
		{"a higher throughput is not", base, scale(1.10), "higher", verdictOK},
		{"better beyond the bound", base, scale(0.80), "lower", verdictOK},
		{"spread wider than the bound", noisy, noisy, "lower", verdictUnresolved},
		{"noisy, yet every run of b beats every run of a", noisy, scale(0.5), "lower", verdictOK},
	} {
		if got := judge(tc.a, tc.b, tc.better, 0.05); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	if w := worsening(100, 110, "lower"); math.Abs(w-0.10) > 1e-12 {
		t.Errorf("worsening lower = %g", w)
	}
	if w := worsening(100, 110, "higher"); math.Abs(w+0.10) > 1e-12 {
		t.Errorf("worsening higher = %g", w)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, factor float64) string {
		rs := resultSet{Env: envInfo{Commit: name}, Seed: 1, Repeat: 3}
		for i := range workloads {
			for k := 0; k < 3; k++ {
				m := map[string]metric{}
				for _, d := range endToEndMetrics {
					v := 100.0 + float64(k)
					if d.name == "op_p50_us" && workloads[i].name == "renew-durable" {
						v *= factor
					}
					m[d.name] = metric{v, d.unit}
				}
				rs.Runs = append(rs.Runs, &runResult{Workload: workloads[i].name, Seed: int64(k), Metrics: m})
			}
		}
		data, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a", 1), write("same", 1), write("slow", 2)
	var out strings.Builder
	if err := compareFiles(&out, a, same, "../BENCHMARK.json"); err != nil {
		t.Errorf("a set compared with itself: %v\n%s", err, out.String())
	}
	out.Reset()
	err := compareFiles(&out, a, slow, "../BENCHMARK.json")
	if err == nil || !strings.Contains(out.String(), string(verdictRegressed)) {
		t.Errorf("a doubled latency passed: %v\n%s", err, out.String())
	}
	if n := strings.Count(out.String(), string(verdictRegressed)+"\n"); n != 1 {
		t.Errorf("%d rows regressed, want exactly renew-durable/op_p50_us:\n%s", n, out.String())
	}
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json, the contract the
// acceptance driver reads, against the tables the program runs from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if strings.Join(bf.Command, " ") != "go run ./bench" || len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("command %v, paths %v", bf.Command, bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the table %q (or their why differs)", i, bf.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the table", len(bf.EndToEnd), len(endToEndMetrics))
	}
	hasSetup := false
	for i, d := range endToEndMetrics {
		m := bf.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, table %+v", i, m, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.name, d.bound)
		}
		hasSetup = hasSetup || d.name == "setup_s" && d.unit == "s" && d.better == "lower"
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bf.PerLayer) != len(perLayerMetrics) || len(perLayerMetrics) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the table", len(bf.PerLayer), len(perLayerMetrics))
	}
	names := map[string]bool{}
	for i, d := range perLayerMetrics {
		m := bf.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, table %+v", i, m, d)
		}
		if names[d.name] {
			t.Errorf("metric name %s used twice", d.name)
		}
		names[d.name] = true
	}
}

// TestSmoke runs both passes of every workload at smoke size: it keeps
// the harness compiling against wire, cluster, sllocal and the rest,
// and keeps the correctness gate wired into tier 1.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up fifteen small deployments")
	}
	var out strings.Builder
	if err := runSmoke(&out, t.TempDir(), 1); err != nil {
		t.Fatalf("smoke pass: %v\n%s", err, out.String())
	}
	t.Log("\n" + out.String())
	for i := range workloads {
		if !strings.Contains(out.String(), workloads[i].name) {
			t.Errorf("smoke pass skipped %s", workloads[i].name)
		}
	}
}

// TestFailedSetUpIsAnErrorAndLeavesNothing makes set-up fail after the
// cluster and the clients are up: the caller must get the error (not a
// panic from the cleanup) and the state directory must be gone.
func TestFailedSetUpIsAnErrorAndLeavesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up a deployment")
	}
	dir := t.TempDir()
	// A license with no budget is refused at registration.
	cfg := stackConfig{instances: 1, managersPerInstance: 1, appLicensesPerShard: 1, appTotalGCL: 0, tokenBatch: 10}
	st, err := newStack(stackOptions{cfg: cfg, dir: dir, seed: 1})
	if err == nil || st != nil {
		t.Fatalf("newStack with an unregistrable license: stack %v, error %v", st, err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("failed set-up left %d entries behind in %s", len(left), dir)
	}

	// The standalone server: its audit log cannot be opened on a directory.
	w, err := workloadByName("renew-durable")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "audit.log"), 0o755); err != nil {
		t.Fatal(err)
	}
	if sv, err := newStandaloneServer(dir, w, 2, 1, nil); err == nil || sv != nil {
		t.Errorf("newStandaloneServer with an unopenable audit log: server %v, error %v", sv, err)
	}
}

// TestGateCatchesAFailedOp drives the gate the way a broken run would:
// a window that reports a failed op must not pass.
func TestGateCatchesAFailedOp(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up a deployment")
	}
	w, err := workloadByName("renew-volatile")
	if err != nil {
		t.Fatal(err)
	}
	small := smokeScale(*w)
	st, err := newStack(stackOptions{cfg: small.stack, dir: t.TempDir(), seed: 1, renewBudget: 500})
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	if _, err := st.gate(1); err == nil {
		t.Error("the gate passed a window with a failed op")
	}
	// A grant the client never booked is a ledger mismatch.
	if _, err := st.cluster.Leader(0).Remote().RenewLease(st.pops[0].slids[0], st.pops[0].licenses[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := st.gate(0); err == nil || !strings.Contains(err.Error(), "ledger") {
		t.Errorf("the gate missed a grant outside the client ledger: %v", err)
	}
}
