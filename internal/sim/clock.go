package sim

// Ticker drives synchronous (clocked) components on top of the
// event kernel. The NoC routers in this module are synchronous finite
// state machines: every cycle each router performs one pipeline step.
// Ticker registers those components and schedules one kernel event per
// cycle that walks them in two phases:
//
//  1. Phase funcs registered with OnTick run in registration order.
//     Models use ordered phases to implement the classic two-phase
//     (compute/commit) update so that intra-cycle evaluation order
//     cannot change results.
//  2. After the last phase, the ticker re-schedules itself one Period
//     later, unless stopped.
//
// Events scheduled by non-clocked components (e.g. Poisson packet
// arrivals) interleave naturally: the kernel orders them against tick
// events by time, and tick events use a high priority value so that at
// identical timestamps arrivals are visible to the very next tick.
type Ticker struct {
	kernel *Kernel
	period Time
	phases []func(cycle uint64)
	pace   func(cycle uint64, next Time) Time
	cycle  uint64
	event  *Event
	run    bool
}

// TickPriority orders tick events after same-time ordinary events, so a
// packet injected "at time t" is seen by the router pipeline step of
// cycle t rather than silently waiting a full extra cycle.
const TickPriority = 1 << 10

// NewTicker creates a ticker on the kernel with the given period. The
// ticker is created stopped; call Start.
func NewTicker(k *Kernel, period Time) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	return &Ticker{kernel: k, period: period}
}

// OnTick appends a phase function invoked once per cycle, after all
// previously registered phases. The function receives the cycle index
// (0-based).
func (t *Ticker) OnTick(fn func(cycle uint64)) {
	if fn == nil {
		panic("sim: nil tick phase")
	}
	t.phases = append(t.phases, fn)
}

// OnPace installs a wake-scheduling hook consulted after each tick's
// phases for the time of the next tick. It receives the just-completed
// cycle index and the default next tick time (now + period) and
// returns the time to actually schedule. Returning the default keeps
// the ticker periodic; returning a later time skips the intervening
// ticks — the cycle counter advances by the number of whole periods
// skipped, as if the ticks had fired and done nothing. Clocked models
// that can prove their skipped cycles are no-ops (an idle NoC between
// two Poisson arrivals, found via Kernel.NextEventTime) use this to
// fast-forward without paying one kernel event per empty cycle. An
// earlier time than the default is ignored.
func (t *Ticker) OnPace(fn func(cycle uint64, next Time) Time) {
	t.pace = fn
}

// Start schedules the first tick at the current kernel time. Starting a
// running ticker is a no-op.
func (t *Ticker) Start() {
	if t.run {
		return
	}
	t.run = true
	t.event = t.kernel.ScheduleEvent(t.kernel.Now(), TickPriority, t, 0)
}

// Stop cancels the pending tick; the current cycle (if executing) still
// completes all phases.
func (t *Ticker) Stop() {
	if !t.run {
		return
	}
	t.run = false
	t.kernel.Cancel(t.event)
	t.event = nil
}

// Cycle returns the number of completed cycles.
func (t *Ticker) Cycle() uint64 { return t.cycle }

// Fire implements Handler: the ticker schedules itself through the
// kernel's pooled event records, so a clocked simulation pays zero
// allocations per cycle.
func (t *Ticker) Fire(int) { t.tick() }

func (t *Ticker) tick() {
	// The record backing t.event just fired and is back on the kernel's
	// freelist; drop the reference so a Stop from within a phase cannot
	// cancel a recycled record.
	t.event = nil
	c := t.cycle
	for _, fn := range t.phases {
		fn(c)
	}
	t.cycle++
	if !t.run {
		return
	}
	next := t.kernel.Now() + t.period
	if t.pace != nil {
		if w := t.pace(c, next); w > next {
			t.cycle += uint64((w-next)/t.period + 0.5)
			next = w
		}
	}
	t.event = t.kernel.ScheduleEvent(next, TickPriority, t, 0)
}
