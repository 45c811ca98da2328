package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// call adapts a func to Handler so the ordering tests can schedule
// inline bodies; the arg is ignored.
type call func()

func (c call) Fire(int) { c() }

func TestKernelStartsAtZero(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("new kernel time = %v, want 0", k.Now())
	}
	if k.Pending() != 0 {
		t.Fatalf("new kernel pending = %d, want 0", k.Pending())
	}
}

func TestScheduleAndRunOrdersByTime(t *testing.T) {
	k := NewKernel()
	var got []Time
	for _, tm := range []Time{5, 1, 3, 2, 4} {
		k.ScheduleEvent(tm, 0, call(func() { got = append(got, k.Now()) }), 0)
	}
	k.Run()
	want := []Time{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d at time %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSameTimeEventsRunInInsertionOrder(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		k.ScheduleEvent(7, 0, call(func() { got = append(got, i) }), 0)
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("got order %v, want insertion order", got)
		}
	}
}

func TestPriorityOrdersSameTimeEvents(t *testing.T) {
	k := NewKernel()
	var got []string
	k.ScheduleEvent(1, 5, call(func() { got = append(got, "low") }), 0)
	k.ScheduleEvent(1, -5, call(func() { got = append(got, "high") }), 0)
	k.ScheduleEvent(1, 0, call(func() { got = append(got, "mid") }), 0)
	k.Run()
	if len(got) != 3 || got[0] != "high" || got[1] != "mid" || got[2] != "low" {
		t.Fatalf("priority order = %v", got)
	}
}

func TestSchedulingIntoPastPanics(t *testing.T) {
	k := NewKernel()
	k.ScheduleEvent(10, 0, call(func() {}), 0)
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past did not panic")
		}
	}()
	k.ScheduleEvent(5, 0, call(func() {}), 0)
}

func TestCancelPreventsExecution(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.ScheduleEvent(1, 0, call(func() { fired = true }), 0)
	k.Cancel(e)
	k.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Scheduled() {
		t.Fatal("cancelled event still reports scheduled")
	}
}

func TestCancelIsIdempotentAndNilSafe(t *testing.T) {
	k := NewKernel()
	e := k.ScheduleEvent(1, 0, call(func() {}), 0)
	k.Cancel(e)
	k.Cancel(e)
	k.Cancel(nil)
	k.Run()
}

func TestCancelDuringRun(t *testing.T) {
	k := NewKernel()
	fired := false
	var victim *Event
	k.ScheduleEvent(1, 0, call(func() { k.Cancel(victim) }), 0)
	victim = k.ScheduleEvent(2, 0, call(func() { fired = true }), 0)
	k.Run()
	if fired {
		t.Fatal("event cancelled mid-run still fired")
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, tm := range []Time{1, 2, 3, 10} {
		k.ScheduleEvent(tm, 0, call(func() { fired = append(fired, tm) }), 0)
	}
	end := k.RunUntil(5)
	if end != 5 {
		t.Fatalf("RunUntil returned %v, want 5", end)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %v, want events at 1,2,3 only", fired)
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
	// The remaining event still runs when allowed.
	k.Run()
	if len(fired) != 4 || fired[3] != 10 {
		t.Fatalf("fired = %v, want final event at 10", fired)
	}
}

func TestRunUntilInclusiveOfDeadline(t *testing.T) {
	k := NewKernel()
	fired := false
	k.ScheduleEvent(5, 0, call(func() { fired = true }), 0)
	k.RunUntil(5)
	if !fired {
		t.Fatal("event exactly at deadline did not fire")
	}
}

func TestStopHaltsRun(t *testing.T) {
	k := NewKernel()
	count := 0
	var sched call
	sched = func() {
		count++
		if count == 100 {
			k.Stop()
		}
		k.ScheduleEvent(k.Now()+1, 0, sched, 0)
	}
	k.ScheduleEvent(0, 0, sched, 0)
	k.Run()
	if count != 100 {
		t.Fatalf("ran %d events after Stop, want exactly 100", count)
	}
	if !k.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
}

func TestNextEventTime(t *testing.T) {
	k := NewKernel()
	if k.NextEventTime() != Infinity {
		t.Fatal("empty kernel NextEventTime != Infinity")
	}
	k.ScheduleEvent(42, 0, call(func() {}), 0)
	if k.NextEventTime() != 42 {
		t.Fatalf("NextEventTime = %v, want 42", k.NextEventTime())
	}
}

func TestProcessedCounts(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 17; i++ {
		k.ScheduleEvent(Time(i), 0, call(func() {}), 0)
	}
	k.Run()
	if k.Processed() != 17 {
		t.Fatalf("Processed = %d, want 17", k.Processed())
	}
}

func TestEventsScheduledDuringExecutionRun(t *testing.T) {
	k := NewKernel()
	depth := 0
	var recurse call
	recurse = func() {
		depth++
		if depth < 50 {
			k.ScheduleEvent(k.Now()+1, 0, recurse, 0)
		}
	}
	k.ScheduleEvent(0, 0, recurse, 0)
	k.Run()
	if depth != 50 {
		t.Fatalf("recursion depth = %d, want 50", depth)
	}
	if k.Now() != 49 {
		t.Fatalf("final time = %v, want 49", k.Now())
	}
}

// Property: any multiset of scheduled times is dispatched in
// non-decreasing order.
func TestPropertyDispatchOrderSorted(t *testing.T) {
	f := func(raw []uint16) bool {
		k := NewKernel()
		var got []Time
		for _, v := range raw {
			k.ScheduleEvent(Time(v), 0, call(func() { got = append(got, k.Now()) }), 0)
		}
		k.Run()
		if len(got) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RunUntil(d) never leaves the clock past d when events beyond
// d remain, and dispatches exactly the events with time <= d.
func TestPropertyRunUntilBoundary(t *testing.T) {
	f := func(raw []uint8, dl uint8) bool {
		k := NewKernel()
		deadline := Time(dl)
		want := 0
		for _, v := range raw {
			tm := Time(v)
			if tm <= deadline {
				want++
			}
			k.ScheduleEvent(tm, 0, call(func() {}), 0)
		}
		k.RunUntil(deadline)
		return int(k.Processed()) == want && k.Now() <= deadline+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTickerRunsPhasesInOrder(t *testing.T) {
	k := NewKernel()
	tk := NewTicker(k, 1)
	var trace []string
	tk.OnTick(func(c uint64) { trace = append(trace, "a") })
	tk.OnTick(func(c uint64) { trace = append(trace, "b") })
	tk.Start()
	k.RunUntil(2) // ticks at t=0,1,2
	if tk.Cycle() != 3 {
		t.Fatalf("cycles = %d, want 3", tk.Cycle())
	}
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestTickerStopAndRestart(t *testing.T) {
	k := NewKernel()
	tk := NewTicker(k, 1)
	tk.OnTick(func(c uint64) {})
	tk.Start()
	k.RunUntil(4)
	tk.Stop()
	k.RunUntil(10)
	if tk.Cycle() != 5 {
		t.Fatalf("cycles after stop = %d, want 5", tk.Cycle())
	}
	tk.Start()
	k.RunUntil(12)
	if tk.Cycle() != 8 {
		t.Fatalf("cycles after restart = %d, want 8 (ticks at 10,11,12)", tk.Cycle())
	}
}

func TestTickerSameTimeEventBeforeTick(t *testing.T) {
	// An ordinary event at exactly time t must run before the tick at t,
	// so injections "at cycle c" are visible to pipeline step c.
	k := NewKernel()
	tk := NewTicker(k, 1)
	arrived := false
	var seenAtTick bool
	tk.OnTick(func(c uint64) {
		if c == 3 {
			seenAtTick = arrived
		}
	})
	tk.Start()
	k.ScheduleEvent(3, 0, call(func() { arrived = true }), 0)
	k.RunUntil(5)
	if !seenAtTick {
		t.Fatal("same-time ordinary event ran after the tick")
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero ticker period did not panic")
		}
	}()
	NewTicker(NewKernel(), 0)
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(12345), NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at draw %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds coincided %d/100 times", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Split()
	// Child must not replay the parent's stream.
	p, c := NewRNG(7), child
	_ = p.Uint64() // parent consumed one draw for the split
	same := 0
	for i := 0; i < 64; i++ {
		if p.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split stream tracks parent (%d/64 equal draws)", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestRNGIntnRangeAndCoverage(t *testing.T) {
	r := NewRNG(5)
	const n = 7
	seen := make([]int, n)
	for i := 0; i < 7000; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v]++
	}
	for v, c := range seen {
		if c == 0 {
			t.Fatalf("Intn never produced %d", v)
		}
		// Expected 1000 each; allow generous slack.
		if c < 700 || c > 1300 {
			t.Fatalf("Intn(%d) frequency of %d = %d, implausibly non-uniform", n, v, c)
		}
	}
}

func TestRNGIntnNonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	const rate = 0.25
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(rate)
		if v < 0 {
			t.Fatalf("negative exponential variate %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.05*(1/rate) {
		t.Fatalf("Exp mean = %v, want ≈ %v", mean, 1/rate)
	}
}

func TestRNGExpInvalidRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	NewRNG(1).Exp(0)
}

func TestRNGBernoulli(t *testing.T) {
	r := NewRNG(3)
	if r.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %v", p)
	}
}

func TestRNGPoissonMean(t *testing.T) {
	r := NewRNG(17)
	for _, mean := range []float64{0.5, 3, 12, 80} {
		const n = 50000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.05*mean+0.02 {
			t.Fatalf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(23)
	for n := 1; n <= 40; n++ {
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

// Property: Intn is always within bounds for arbitrary seeds and sizes.
func TestPropertyIntnBounds(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPoissonProcessRateViaKernel(t *testing.T) {
	// Integration: exponential interarrivals scheduled on the kernel
	// produce a Poisson process with the requested rate.
	k := NewKernel()
	r := NewRNG(31)
	const lambda = 0.2
	const horizon = 500000.0
	count := 0
	var arrive call
	arrive = func() {
		count++
		d := Time(r.Exp(lambda))
		if float64(k.Now())+float64(d) < horizon {
			k.ScheduleEvent(k.Now()+d, 0, arrive, 0)
		}
	}
	k.ScheduleEvent(Time(r.Exp(lambda)), 0, arrive, 0)
	k.Run()
	got := float64(count) / horizon
	if math.Abs(got-lambda) > 0.03*lambda {
		t.Fatalf("Poisson process rate = %v, want ≈ %v", got, lambda)
	}
}
