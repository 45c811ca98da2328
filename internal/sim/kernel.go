package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is the simulation time in cycles. The NoC models are synchronous,
// so integer cycle boundaries carry all router activity, but the kernel
// itself supports arbitrary fractional times (Poisson arrivals fall
// between ticks, exactly as in an OMNeT++ model).
type Time float64

// Infinity is a time later than any schedulable event.
const Infinity Time = Time(math.MaxFloat64)

// Handler is the event target: a component implements Handler once and
// schedules (handler, arg) pairs through ScheduleEvent, so an event
// costs no captured closure and no heap allocation. The arg is an
// opaque payload the handler gave the kernel at scheduling time,
// typically a node index, so one handler object serves every per-node
// event stream of a model.
type Handler interface {
	// Fire runs the event. The kernel clock already shows the event's
	// time when Fire is invoked.
	Fire(arg int)
}

// Event is a unit of future work. Events are ordered by (time, priority,
// insertion order); lower priority values run first at equal times and
// insertion order breaks remaining ties so execution is deterministic.
type Event struct {
	time     Time
	priority int
	seq      uint64
	index    int // heap index, -1 when not queued
	h        Handler
	arg      int
	canceled bool
}

// Time returns the time the event is scheduled for.
func (e *Event) Time() Time { return e.time }

// Scheduled reports whether the event is still pending in a kernel.
func (e *Event) Scheduled() bool { return e.index >= 0 && !e.canceled }

// eventQueue implements heap.Interface ordered by (time, priority, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.time != b.time {
		return a.time < b.time
	}
	if a.priority != b.priority {
		return a.priority < b.priority
	}
	return a.seq < b.seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Kernel is a discrete-event simulation executive: a clock plus a
// future-event list. A Kernel is not safe for concurrent use; run one
// simulation per goroutine.
type Kernel struct {
	now       Time
	queue     eventQueue
	seq       uint64
	processed uint64
	running   bool
	stopped   bool

	// free is the recycled-record list: an event record returns here
	// when it fires (or when Reset drops it from the queue), so a
	// steady-state simulation schedules events without allocating.
	free []*Event
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Pending returns the number of events waiting in the future-event list.
func (k *Kernel) Pending() int { return len(k.queue) }

// Processed returns the total number of events dispatched so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// ScheduleEvent enqueues a (handler, arg) pair to fire at absolute time
// t with the given priority; lower priorities run first among events at
// the same time. It panics if t is earlier than the current time:
// scheduling into the past is always a model bug and silently
// reordering it would corrupt causality. The event record is drawn from
// the kernel's freelist and returns there when the event fires, so the
// returned *Event is only valid while the event is pending: Cancel it
// before it fires, never after (the record may already describe a
// different event). Holding it across a firing is the one misuse the
// pool cannot detect; every in-module scheduler drops its reference
// when the event dispatches.
func (k *Kernel) ScheduleEvent(t Time, priority int, h Handler, arg int) *Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling into the past (now=%v, t=%v)", k.now, t))
	}
	if h == nil {
		panic("sim: scheduling a nil event handler")
	}
	var e *Event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		e = &Event{}
	}
	*e = Event{time: t, priority: priority, seq: k.seq, h: h, arg: arg, index: -1}
	k.seq++
	heap.Push(&k.queue, e)
	return e
}

// release returns a record to the freelist. The caller must have
// removed it from the queue already.
func (k *Kernel) release(e *Event) {
	*e = Event{index: -1}
	k.free = append(k.free, e)
}

// Cancel removes a pending event; cancelling an already-cancelled event
// is a no-op. A cancelled record is deliberately NOT recycled — it is
// dropped to the garbage collector — so double-cancelling stays
// harmless; the one remaining misuse is cancelling an event after it
// fired, when the record may already describe a different pending
// event (see ScheduleEvent).
func (k *Kernel) Cancel(e *Event) {
	if e == nil || e.canceled {
		return
	}
	e.canceled = true
	if e.index >= 0 {
		heap.Remove(&k.queue, e.index)
	}
}

// Step dispatches the single earliest event. It returns false when the
// future-event list is empty or the kernel has been stopped.
func (k *Kernel) Step() bool {
	if k.stopped {
		return false
	}
	for len(k.queue) > 0 {
		e := heap.Pop(&k.queue).(*Event)
		if e.canceled {
			continue
		}
		k.now = e.time
		k.processed++
		// Copy the target out and recycle the record before firing, so
		// the handler's own rescheduling reuses it immediately.
		h, arg := e.h, e.arg
		k.release(e)
		h.Fire(arg)
		return true
	}
	return false
}

// Run dispatches events until the future-event list drains or Stop is
// called. It returns the final simulation time.
func (k *Kernel) Run() Time {
	k.running = true
	defer func() { k.running = false }()
	for k.Step() {
	}
	return k.now
}

// RunUntil dispatches events with time <= deadline, then advances the
// clock to the deadline (if it is ahead of the last event) and returns.
// Events scheduled exactly at the deadline do run.
func (k *Kernel) RunUntil(deadline Time) Time {
	k.running = true
	defer func() { k.running = false }()
	for !k.stopped && len(k.queue) > 0 {
		// Peek: queue[0] is the earliest event.
		if k.queue[0].time > deadline {
			break
		}
		k.Step()
	}
	if !k.stopped && k.now < deadline {
		k.now = deadline
	}
	return k.now
}

// Stop halts Run/RunUntil after the current event completes. Pending
// events remain queued; a stopped kernel dispatches nothing further.
func (k *Kernel) Stop() { k.stopped = true }

// Stopped reports whether Stop has been called.
func (k *Kernel) Stopped() bool { return k.stopped }

// NextEventTime returns the time of the earliest pending event, or
// Infinity when the future-event list is empty.
func (k *Kernel) NextEventTime() Time {
	if len(k.queue) == 0 {
		return Infinity
	}
	return k.queue[0].time
}

// Reset returns the kernel to its just-constructed state — clock at
// zero, empty future-event list, sequence and processed counters
// cleared — while keeping the queue's backing array and the event
// records for reuse. A reset kernel runs a fresh simulation bit
// for bit like a new one; campaign replications reuse one kernel this
// way instead of rebuilding it per run.
func (k *Kernel) Reset() {
	for i, e := range k.queue {
		k.queue[i] = nil
		k.release(e)
	}
	k.queue = k.queue[:0]
	k.now = 0
	k.seq = 0
	k.processed = 0
	k.running = false
	k.stopped = false
}
