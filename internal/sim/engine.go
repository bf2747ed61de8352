// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a calendar queue of timestamped
// events. Events scheduled for the same instant fire in the order they were
// scheduled, which keeps runs bit-for-bit reproducible under a fixed seed.
// All simulated Hadoop machinery (heartbeats, task completions, control
// intervals) is driven by this engine.
//
// Every event is typed: a handler is registered once (RegisterKind) and
// each scheduled occurrence (ScheduleKind/ScheduleKindAfter) carries a
// small payload — an int index and a pointer — dispatched through a
// per-engine jump table. Scheduling one performs no allocation once the
// event pool is warm.
package sim

import (
	"errors"
	"fmt"
	"time"
)

// ErrStopped is returned by Run when the simulation was halted by Stop
// before the event queue drained or the horizon was reached.
var ErrStopped = errors.New("sim: stopped")

// TypedHandler is the jump-table callback of a registered event kind. It
// receives the payload stored at schedule time: an integer (machine index,
// slot number) and a pointer-shaped argument (task, job). Neither is boxed
// per event, so a typed schedule is allocation-free. The engine's clock is
// already advanced to the event time when the handler runs.
type TypedHandler func(i int, arg any)

// EventKind names one registered typed handler. The zero value is
// reserved — no handler is ever registered under it — so an unset kind
// cannot be scheduled by accident.
type EventKind uint16

// event is a scheduled callback. seq breaks ties between events scheduled
// for the same virtual instant so execution order is deterministic.
//
// Event structs are pooled: once an event fires (or a cancelled event is
// popped), its struct goes onto the engine's free list and is reused by a
// later ScheduleKind. gen counts reuses; an EventHandle captures the gen at
// schedule time, so a stale handle whose event has been recycled can
// never cancel the struct's new occupant.
type event struct {
	at  time.Duration
	seq uint64
	gen uint64
	// eng backs EventHandle.Cancel's live-count bookkeeping.
	eng *Engine
	// arg and i are the payload handed to the kind's handler.
	arg       any
	i         int
	kind      EventKind
	cancelled bool
}

// EventHandle cancels a scheduled event. The zero value is a no-op.
//
// Reuse rule: a handle is bound to one scheduled occurrence, not to the
// underlying struct. After the event fires (or its cancellation is
// collected), the struct may be recycled for a future ScheduleKind; the old
// handle then goes inert — Cancel is a no-op and Cancelled reports
// false. It is always safe to Cancel a handle "late".
type EventHandle struct {
	ev  *event
	gen uint64
}

// Cancel prevents the event from firing. Safe to call multiple times and
// after the event has fired (then it has no effect, even if the event
// struct has since been recycled for an unrelated event).
func (h EventHandle) Cancel() {
	if h.ev != nil && h.ev.gen == h.gen && !h.ev.cancelled {
		h.ev.cancelled = true
		h.ev.eng.live--
	}
}

// Cancelled reports whether Cancel was called before the event fired or
// was collected. A handle whose event already fired reports false.
func (h EventHandle) Cancelled() bool {
	return h.ev != nil && h.ev.gen == h.gen && h.ev.cancelled
}

// numBuckets is the calendar window: events within numBuckets×width of
// the active bucket live in the ring; anything farther sits in the
// overflow heap until the window reaches it. 64 buckets of the default
// 3 s heartbeat width give a 192 s window — heartbeats, completions and
// shuffle transitions land in the ring, while control ticks (5 min) and
// far-future job submissions take the overflow path.
const numBuckets = 64

// maxFreeEvents is the free list's high-water mark, sized to cover the
// in-flight event population of a 1024-machine fleet (one completion
// timer per occupied slot). Recycled structs past the cap are dropped to
// the garbage collector, so a campaign that briefly peaks far above the
// steady state does not retain a peak-size struct pool for the rest of
// the run.
const maxFreeEvents = 8192

// Engine is a single-threaded discrete-event simulator. The zero value is
// not usable; construct with NewEngine. Engine is not safe for concurrent
// use: the simulation model is a single logical process. Concurrency
// lives one level up — independent runs, each with its own Engine, fan
// out through internal/parallel.
//
// The queue is a bucketed calendar: fixed-width time buckets (width
// defaults to 3 s, the Hadoop heartbeat; see SetBucketWidth) arranged in
// a ring of numBuckets, an (at, seq) min-heap for the active bucket, and
// an (at, seq) min-heap overflow band for events beyond the ring window.
// Scheduling into a future ring bucket is an O(1) append; heap work is
// confined to the handful of events sharing the active bucket and to the
// rare far-future overflow, so the per-event cost is amortized O(1)
// instead of the O(log n) of a global heap. Because every pop compares
// the full (at, seq) key, the firing order is identical to a single
// min-heap's — the calendar changes only where events wait, never when
// they fire.
type Engine struct {
	now     time.Duration
	width   time.Duration
	curBi   int64 // absolute index of the active bucket
	buckets [numBuckets][]*event
	ringN   int      // events (incl. cancelled) in ring buckets
	active  []*event // min-heap: active bucket + pulled overflow
	over    []*event // min-heap: events at or beyond the ring window
	free    []*event // recycled event structs
	kinds   []TypedHandler
	seq     uint64
	fired   uint64
	queued  int // events in the queue, including cancelled ones
	live    int // queued minus cancelled — what Pending reports
	stopped bool
}

// NewEngine returns an engine with its clock at zero and the default 3 s
// bucket width.
func NewEngine() *Engine {
	return &Engine{
		width: 3 * time.Second,
		kinds: make([]TypedHandler, 1), // slot 0 is the reserved zero kind
	}
}

// SetBucketWidth sizes the calendar buckets, typically to the dominant
// event period (the driver uses its heartbeat). It may only be called
// while the queue is empty; non-positive widths panic.
func (e *Engine) SetBucketWidth(w time.Duration) {
	if w <= 0 {
		panic(fmt.Sprintf("sim: SetBucketWidth(%v) non-positive", w))
	}
	if e.queued != 0 {
		panic("sim: SetBucketWidth with events queued")
	}
	e.width = w
	e.curBi = int64(e.now / w)
}

// Reset returns the engine to the state NewEngine leaves it in — clock at
// zero, queue empty, counters cleared — while keeping the registered kind
// table, the bucket width, and the recycled event pool, so a warm rerun
// schedules from a hot free list instead of reallocating event structs.
// Any still-queued events (a horizon-cut run leaves some behind) are
// drained into the pool; their handles go inert via the generation bump.
func (e *Engine) Reset() {
	for i := range e.buckets {
		for _, ev := range e.buckets[i] {
			e.recycle(ev)
		}
		clearEvents(e.buckets[i])
		e.buckets[i] = e.buckets[i][:0]
	}
	for _, ev := range e.active {
		e.recycle(ev)
	}
	clearEvents(e.active)
	e.active = e.active[:0]
	for _, ev := range e.over {
		e.recycle(ev)
	}
	clearEvents(e.over)
	e.over = e.over[:0]
	e.ringN, e.queued, e.live = 0, 0, 0
	e.now, e.curBi = 0, 0
	e.seq, e.fired = 0, 0
	e.stopped = false
}

// RegisterKind adds h to the engine's typed-event jump table and returns
// its kind for ScheduleKind. Kinds are registered once per run (per
// handler, not per event); a nil handler panics.
func (e *Engine) RegisterKind(h TypedHandler) EventKind {
	if h == nil {
		panic("sim: RegisterKind called with nil handler")
	}
	e.kinds = append(e.kinds, h)
	return EventKind(len(e.kinds) - 1)
}

// Now returns the current virtual time, measured from simulation start.
func (e *Engine) Now() time.Duration { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are scheduled but not yet executed,
// excluding cancelled events awaiting collection.
func (e *Engine) Pending() int { return e.live }

// alloc takes a struct from the free list (or the heap) and stamps it
// with the next sequence number.
func (e *Engine) alloc(at time.Duration) *event {
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleKind(%v) is before Now()=%v", at, e.now))
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{eng: e}
	}
	ev.at, ev.seq, ev.cancelled = at, e.seq, false
	return ev
}

// ScheduleKind registers a typed event at absolute virtual time at,
// returning a handle that can cancel it. The payload (i, arg) is delivered
// to the kind's registered handler; arg should be a pointer (or nil) so
// storing it does not box. Unregistered kinds — including the zero
// EventKind — panic, as does scheduling in the past (before Now), which
// would silently corrupt causality in the model.
func (e *Engine) ScheduleKind(at time.Duration, kind EventKind, i int, arg any) EventHandle {
	if kind == 0 || int(kind) >= len(e.kinds) {
		panic(fmt.Sprintf("sim: ScheduleKind with unregistered kind %d", kind))
	}
	ev := e.alloc(at)
	ev.kind, ev.i, ev.arg = kind, i, arg
	e.insert(ev)
	return EventHandle{ev: ev, gen: ev.gen}
}

// ScheduleKindAfter registers a typed event d after the current virtual
// time. Negative d panics.
func (e *Engine) ScheduleKindAfter(d time.Duration, kind EventKind, i int, arg any) EventHandle {
	if d < 0 {
		panic(fmt.Sprintf("sim: ScheduleKindAfter(%v) with negative delay", d))
	}
	return e.ScheduleKind(e.now+d, kind, i, arg)
}

// Stop halts the run loop after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in timestamp order until the queue is empty.
// It returns ErrStopped if Stop was called.
func (e *Engine) Run() error {
	return e.RunUntil(-1)
}

// RunUntil executes events in timestamp order until the queue is empty or
// the clock would pass horizon (exclusive of events strictly later than
// horizon). A negative horizon means no limit. When the horizon cuts the
// run short, the clock is left at the horizon so energy integration over
// [0, horizon] is exact; when the queue drains first, the clock stays at
// the last event (the makespan), not the horizon.
//
// Cancelled events sitting at the head of the queue are collected (and
// their structs recycled) before a horizon cut returns, so Pending and
// Fired read the same whether a run was horizon-limited or drained.
func (e *Engine) RunUntil(horizon time.Duration) error {
	e.stopped = false
	for e.queued > 0 {
		if e.stopped {
			return ErrStopped
		}
		next := e.peekLive()
		if next == nil {
			return nil
		}
		if horizon >= 0 && next.at > horizon {
			e.now = horizon
			return nil
		}
		e.popActive()
		e.queued--
		e.live--
		e.now = next.at
		e.fired++
		kind, i, arg := next.kind, next.i, next.arg
		// Recycle before firing: the handler may schedule new events that
		// reuse this struct. The generation bump makes any handle still
		// pointing at this occurrence inert (see EventHandle).
		e.recycle(next)
		e.kinds[kind](i, arg)
	}
	return nil
}

// peekLive returns the earliest non-cancelled event without removing it,
// draining (and recycling) any cancelled events encountered at the head
// of the queue. Returns nil when the queue holds no live events.
func (e *Engine) peekLive() *event {
	for {
		for len(e.active) == 0 {
			if e.queued == 0 {
				return nil
			}
			e.advance()
		}
		top := e.active[0]
		if !top.cancelled {
			return top
		}
		e.popActive()
		e.queued--
		e.recycle(top)
	}
}

// advance moves the calendar to the next populated bucket: the active
// bucket's ring slice is pushed onto the active heap together with any
// overflow events whose bucket the window has reached. When the ring is
// empty the window jumps straight to the overflow head's bucket.
func (e *Engine) advance() {
	if e.ringN == 0 {
		if len(e.over) == 0 {
			return // queue truly empty; caller rechecks queued
		}
		bi := int64(e.over[0].at / e.width)
		if bi > e.curBi {
			e.curBi = bi
		}
	} else {
		e.curBi++
	}
	// Pull overflow events whose bucket is now active. Events farther out
	// stay put; they are pulled when the window reaches their bucket, so
	// they can never fire out of order with ring events.
	for len(e.over) > 0 && int64(e.over[0].at/e.width) <= e.curBi {
		e.active = heapPush(e.active, heapPop(&e.over))
	}
	slot := &e.buckets[e.curBi%numBuckets]
	if len(*slot) > 0 {
		for _, ev := range *slot {
			e.active = heapPush(e.active, ev)
		}
		e.ringN -= len(*slot)
		clearEvents(*slot)
		*slot = (*slot)[:0]
	}
}

// insert files ev into the calendar: the active heap for the current
// bucket (or anything already reachable), a ring bucket inside the
// window, or the overflow heap beyond it.
func (e *Engine) insert(ev *event) {
	e.queued++
	e.live++
	bi := int64(ev.at / e.width)
	switch {
	case bi <= e.curBi:
		e.active = heapPush(e.active, ev)
	case bi < e.curBi+numBuckets:
		e.buckets[bi%numBuckets] = append(e.buckets[bi%numBuckets], ev)
		e.ringN++
	default:
		e.over = heapPush(e.over, ev)
	}
}

// popActive removes the minimum event from the active heap.
func (e *Engine) popActive() { heapPop(&e.active) }

// recycle retires a popped event struct onto the free list, bumping its
// generation so outstanding handles cannot touch its next occupant. Past
// the high-water mark the struct is dropped to the garbage collector
// instead (see maxFreeEvents).
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.arg = nil // release the payload
	if len(e.free) < maxFreeEvents {
		e.free = append(e.free, ev)
	}
}

// less orders events by (time, sequence): earlier first; among same-time
// events, schedule order.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// clearEvents nils a drained bucket slice so the retained capacity holds
// no stale pointers.
func clearEvents(s []*event) {
	for i := range s {
		s[i] = nil
	}
}

// heapPush inserts ev into the (at, seq) min-heap q.
func heapPush(q []*event, ev *event) []*event {
	q = append(q, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	return q
}

// heapPop removes and returns the minimum event of *qp.
func heapPop(qp *[]*event) *event {
	q := *qp
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && less(q[right], q[left]) {
			child = right
		}
		if !less(q[child], q[i]) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	*qp = q
	return top
}
