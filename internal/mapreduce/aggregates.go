package mapreduce

import (
	"fmt"

	"eant/internal/cluster"
)

// This file is the driver's incremental-statistics layer. The scheduler
// hot path (one call per free slot per heartbeat) used to recompute
// cluster-wide facts — pending work per task kind, awake slot capacity,
// per-type free reduce slots — by scanning every active job or every
// machine on each offer. The driver instead maintains those facts as live
// aggregates, updated at the O(1) events that change them: queue
// pops/requeues, job arrival/departure, task start/finish, and machine
// availability transitions (sleep/wake, crash/recover, blacklist).
//
// Invariants (checkAggregates verifies them after every mutating event):
//
//   - pendingMaps    == Σ over active jobs of Job.PendingMaps()
//   - pendingReduces == Σ over active jobs of Job.PendingReduces()
//   - readyPendingReduces restricts pendingReduces to jobs past their map
//     barrier (Job.MapsDone); completeTask adds a job's pending reduces
//     when its barrier opens, and reexecuteLostMaps takes them out when a
//     lost map output reopens it.
//   - class[id] is the machine's availability class with precedence
//     dead > asleep-and-blacklisted > asleep > blacklisted > awake. A
//     blacklist expiry is a time-based transition with no event attached,
//     so class may lag as blacklisted (asleep or not) past the cooldown.
//     The lag ends at the next heartbeat, which reconciles every expired
//     blacklist from the expiry queue before it serves or counts any
//     machine. Between heartbeats it is invisible: AwakeSlots reads
//     awake+blacklisted summed (a blacklisted machine still holds slots
//     and finishes work), and no other consumer reads the classes.
//   - freeMap[id]/freeReduce[id] mirror Machine.FreeXSlots() (0 while
//     dead); byClass buckets sum capacity and accounted free slots over
//     the machines currently in each class, and count the class's
//     machines holding at least one accounted free slot of each kind
//     (mapHosts/reduceHosts: the offers an idle sweep would make).
//   - freeReduceByType[t] == Σ FreeReduceSlots() over machines of type t
//     (dead machines contribute 0), in sorted type-name order.
//   - every job's inFlight lists exactly its running or shuffling attempts
//     (speculative clones included), each at its flightPos.
//   - with consolidation on, every sleep candidate (available, awake, idle
//     and not covering) is in the sleep queue keyed at or before its
//     lastBusy; with fault injection on, every machine with a live
//     blacklist, or a class still saying blacklisted, is in the expiry
//     queue keyed at or before its blacklist expiry.
//
// Note the pending counters deliberately reproduce the lazy-queue
// semantics of Job.PendingMaps(): popping a map through the locality
// index leaves its FIFO entry behind, so the count overcounts until
// popAnyMap skips the stale entries. The aggregates track the same
// quantity by applying before/after deltas around each queue operation,
// keeping every consumer bit-identical to the scan it replaced.

// machineClass is a machine's availability bucket.
type machineClass uint8

const (
	classAwake machineClass = iota
	classAsleep
	classBlacklisted
	// classAsleepBlacklisted holds machines that fell asleep while
	// blacklisted (the sweep runs maybeSleep before the blacklist check,
	// and the cooldown may outlast the idle timeout): asleep, yet offered
	// nothing until the blacklist runs out.
	classAsleepBlacklisted
	classDead
	numClasses
)

// classSlots aggregates slot capacity and free slots over one class.
// mapHosts/reduceHosts count the class's machines with at least one
// accounted free slot of that kind.
type classSlots struct {
	mapSlots    int
	reduceSlots int
	freeMap     int
	freeReduce  int
	mapHosts    int
	reduceHosts int
}

// hosts is 1 when a machine with free accounted slots of one kind counts
// toward that kind's host total, else 0.
func hosts(free int) int {
	if free > 0 {
		return 1
	}
	return 0
}

// aggregates is the driver's incremental-statistics state.
type aggregates struct {
	pendingMaps         int
	pendingReduces      int
	readyPendingReduces int

	class   []machineClass
	byClass [numClasses]classSlots
	// freeMap/freeReduce are the per-machine free slots accounted into
	// the class buckets (zeroed while a machine is dead).
	freeMap    []int
	freeReduce []int

	// typeIdx maps machine ID to its index in the driver's typeReps
	// (sorted type-name order); freeReduceByType aggregates free reduce
	// slots per type for the straggler guard.
	typeIdx          []int
	freeReduceByType []int

	// epoch counts machine crash/recover transitions; schedulers stamp
	// derived per-interval indices with it so a mid-interval availability
	// change invalidates them.
	epoch uint64
}

// initAggregates allocates the aggregate buffers and the type table for
// the driver's fleet; Reset seeds them through resetAggregates.
func (d *Driver) initAggregates() {
	c := d.cluster
	n := c.Size()
	a := &d.agg
	a.class = make([]machineClass, n)

	names := c.TypeNames()
	d.typeReps = make([]*cluster.TypeSpec, len(names))
	for i, name := range names {
		d.typeReps[i] = c.ByType(name)[0].Spec()
	}

	// One backing array for the per-machine and per-type int aggregates:
	// this runs once per driver, so setup allocations stay negligible next
	// to a run's steady-state footprint.
	buf := make([]int, 3*n+len(names))
	a.freeMap, buf = buf[:n:n], buf[n:]
	a.freeReduce, buf = buf[:n:n], buf[n:]
	a.typeIdx, buf = buf[:n:n], buf[n:]
	a.freeReduceByType = buf

	for _, m := range c.Machines() {
		for i, rep := range d.typeReps {
			if rep.Name == m.Spec().Name {
				a.typeIdx[m.ID()] = i
				break
			}
		}
	}
}

// classOf derives a machine's availability class from its live state.
func (d *Driver) classOf(m cluster.Machine) machineClass {
	switch {
	case !m.Available():
		return classDead
	case m.Asleep() && d.blacklisted(m.ID()):
		return classAsleepBlacklisted
	case m.Asleep():
		return classAsleep
	case d.blacklisted(m.ID()):
		return classBlacklisted
	default:
		return classAwake
	}
}

// reclassify moves m's capacity and free-slot contributions into its
// current availability class. Call after any transition: sleep/wake,
// crash/recover, blacklisting, blacklist expiry. Entering the dead class
// zeroes the machine's accounted free slots (a crashed machine holds none
// — the driver detaches every running attempt before Machine.Fail, so at
// that point free == capacity); leaving it restores them to full
// capacity.
func (d *Driver) reclassify(m cluster.Machine) {
	a := &d.agg
	old := a.class[m.ID()]
	now := d.classOf(m)
	if now == old {
		return
	}
	spec := m.Spec()
	from := &a.byClass[old]
	from.mapSlots -= spec.MapSlots
	from.reduceSlots -= spec.ReduceSlots
	from.freeMap -= a.freeMap[m.ID()]
	from.freeReduce -= a.freeReduce[m.ID()]
	from.mapHosts -= hosts(a.freeMap[m.ID()])
	from.reduceHosts -= hosts(a.freeReduce[m.ID()])
	if now == classDead {
		a.freeReduceByType[a.typeIdx[m.ID()]] -= a.freeReduce[m.ID()]
		a.freeMap[m.ID()] = 0
		a.freeReduce[m.ID()] = 0
	} else if old == classDead {
		a.freeMap[m.ID()] = spec.MapSlots
		a.freeReduce[m.ID()] = spec.ReduceSlots
		a.freeReduceByType[a.typeIdx[m.ID()]] += spec.ReduceSlots
	}
	to := &a.byClass[now]
	to.mapSlots += spec.MapSlots
	to.reduceSlots += spec.ReduceSlots
	to.freeMap += a.freeMap[m.ID()]
	to.freeReduce += a.freeReduce[m.ID()]
	to.mapHosts += hosts(a.freeMap[m.ID()])
	to.reduceHosts += hosts(a.freeReduce[m.ID()])
	a.class[m.ID()] = now
}

// noteAvailabilityChange records a crash/recover: reclassifies the
// machine and bumps the epoch that invalidates scheduler-side indices.
func (d *Driver) noteAvailabilityChange(m cluster.Machine) {
	d.reclassify(m)
	d.agg.epoch++
}

// noteSlotChange records a ±1 change in m's free slots of one kind and
// forwards it to the scheduler's slot observer, if any. A change that
// crosses between zero and positive moves m in or out of its class's
// host count for the kind, and a release that leaves m idle makes it a
// sleep candidate.
func (d *Driver) noteSlotChange(m cluster.Machine, kind TaskKind, delta int) {
	a := &d.agg
	cl := &a.byClass[a.class[m.ID()]]
	if kind == MapTask {
		before := a.freeMap[m.ID()]
		a.freeMap[m.ID()] += delta
		cl.freeMap += delta
		cl.mapHosts += hosts(a.freeMap[m.ID()]) - hosts(before)
	} else {
		before := a.freeReduce[m.ID()]
		a.freeReduce[m.ID()] += delta
		cl.freeReduce += delta
		cl.reduceHosts += hosts(a.freeReduce[m.ID()]) - hosts(before)
		a.freeReduceByType[a.typeIdx[m.ID()]] += delta
	}
	if delta > 0 {
		d.queueSleep(m)
	}
	if d.slotObs != nil {
		d.slotObs.OnSlotFreeChange(d.ctx, m, kind, delta)
	}
}

// notePending applies a delta to the pending-task aggregates for one of
// job j's kinds. Callers compute delta as after-minus-before around the
// queue operation, which reproduces the lazy-queue overcounting exactly.
func (d *Driver) notePending(j *Job, kind TaskKind, delta int) {
	if delta == 0 {
		return
	}
	a := &d.agg
	if kind == MapTask {
		a.pendingMaps += delta
	} else {
		a.pendingReduces += delta
		if j.MapsDone() {
			a.readyPendingReduces += delta
		}
	}
}

// dropJobAggregates removes a departing job's remaining pending
// contributions (including stale queue entries). Call before the job
// leaves the active list or its queues are drained.
func (d *Driver) dropJobAggregates(j *Job) {
	d.notePending(j, MapTask, -j.PendingMaps())
	d.notePending(j, ReduceTask, -j.PendingReduces())
}

// requeuePending returns a reset task to its job's pending pools after an
// attempt failure or lost map output, keeping the aggregates in step
// (requeueRetry always appends exactly one live entry).
func (d *Driver) requeuePending(t *Task) {
	t.Job.requeueRetry(t)
	d.notePending(t.Job, t.Kind, 1)
}

// mutated runs the test-only invariant hook, if installed.
func (d *Driver) mutated(where string) {
	if d.onMutation != nil {
		d.onMutation(where)
	}
}

// EnableInvariantChecks installs a self-check that recomputes every
// aggregate from scratch after each mutating event and reports the first
// divergence through fail. Test-only: checkInFlight walks every task of
// every job in the arena, finished and unsubmitted jobs included, so the
// recompute is O(all tasks + machines) per event and would defeat the
// incremental layer in real runs.
func (d *Driver) EnableInvariantChecks(fail func(error)) {
	d.onMutation = func(where string) {
		if err := d.checkAggregates(); err != nil {
			fail(fmt.Errorf("after %s: %w", where, err))
		}
	}
}

// checkInFlight verifies j's in-flight list against its tasks' states.
func (j *Job) checkInFlight() error {
	for i, t := range j.inFlight {
		if int(t.flightPos) != i {
			return fmt.Errorf("%s listed at %d, flightPos %d", t.ID(), i, t.flightPos)
		}
		if t.State != TaskRunning && t.State != TaskShuffling {
			return fmt.Errorf("%s listed in flight in state %d", t.ID(), t.State)
		}
	}
	for _, tasks := range [2][]Task{j.Maps, j.Reduces} {
		for i := range tasks {
			// The attempt and its speculative clone, if any.
			for t := &tasks[i]; t != nil; t = t.clone {
				if (t.State == TaskRunning || t.State == TaskShuffling) &&
					(int(t.flightPos) >= len(j.inFlight) || j.inFlight[t.flightPos] != t) {
					return fmt.Errorf("%s (speculative %v) in flight but not listed", t.ID(), t.Speculative())
				}
			}
		}
	}
	return nil
}

// checkAggregates recomputes the aggregate state from first principles
// and returns the first divergence from the incremental counters.
func (d *Driver) checkAggregates() error {
	a := &d.agg

	pm, pr, rpr := 0, 0, 0
	for _, j := range d.active {
		pm += j.PendingMaps()
		pr += j.PendingReduces()
		if j.MapsDone() {
			rpr += j.PendingReduces()
		}
	}
	if pm != a.pendingMaps {
		return fmt.Errorf("pendingMaps %d, recomputed %d", a.pendingMaps, pm)
	}
	if pr != a.pendingReduces {
		return fmt.Errorf("pendingReduces %d, recomputed %d", a.pendingReduces, pr)
	}
	if rpr != a.readyPendingReduces {
		return fmt.Errorf("readyPendingReduces %d, recomputed %d", a.readyPendingReduces, rpr)
	}
	for i := range d.arena.jobs {
		if err := d.arena.jobs[i].checkInFlight(); err != nil {
			return err
		}
	}

	var byClass [numClasses]classSlots
	freeByType := make([]int, len(a.freeReduceByType))
	for _, m := range d.cluster.Machines() {
		want := d.classOf(m)
		got := a.class[m.ID()]
		// A blacklist expiry has no event; the class may lag until the
		// next heartbeat reconciles it. Only that direction may lag.
		if got != want && !(got == classBlacklisted && want == classAwake) &&
			!(got == classAsleepBlacklisted && want == classAsleep) {
			return fmt.Errorf("%s class %d, derived %d", m, got, want)
		}
		if a.freeMap[m.ID()] != m.FreeMapSlots() {
			return fmt.Errorf("%s accounted free map slots %d, actual %d", m, a.freeMap[m.ID()], m.FreeMapSlots())
		}
		if a.freeReduce[m.ID()] != m.FreeReduceSlots() {
			return fmt.Errorf("%s accounted free reduce slots %d, actual %d", m, a.freeReduce[m.ID()], m.FreeReduceSlots())
		}
		cl := &byClass[got]
		cl.mapSlots += m.Spec().MapSlots
		cl.reduceSlots += m.Spec().ReduceSlots
		cl.freeMap += a.freeMap[m.ID()]
		cl.freeReduce += a.freeReduce[m.ID()]
		cl.mapHosts += hosts(a.freeMap[m.ID()])
		cl.reduceHosts += hosts(a.freeReduce[m.ID()])
		freeByType[a.typeIdx[m.ID()]] += m.FreeReduceSlots()
	}
	for c := machineClass(0); c < numClasses; c++ {
		if byClass[c] != a.byClass[c] {
			return fmt.Errorf("class %d slots %+v, recomputed %+v", c, a.byClass[c], byClass[c])
		}
	}
	for t, free := range freeByType {
		if free != a.freeReduceByType[t] {
			return fmt.Errorf("type %d free reduce slots %d, recomputed %d", t, a.freeReduceByType[t], free)
		}
	}
	return d.checkQueues()
}

// checkQueues verifies that the sleep and expiry queues hold every machine
// the counted idle sweep needs from them (see sweep): a heap entry keyed at
// or before the time it waits on, so popping the due entries finds it.
func (d *Driver) checkQueues() error {
	if d.lastBusy != nil {
		keys, err := d.sleepQ.keys()
		if err != nil {
			return fmt.Errorf("sleep queue: %w", err)
		}
		for _, m := range d.cluster.Machines() {
			id := m.ID()
			if d.sleepCandidate(m) && !(d.sleepQ.queued[id] && keys[id] <= d.lastBusy[id]) {
				return fmt.Errorf("%s idle since %v: sleep queue has %v (queued %v)", m, d.lastBusy[id], keys[id], d.sleepQ.queued[id])
			}
		}
	}
	if d.blacklistUntil != nil {
		keys, err := d.expiryQ.keys()
		if err != nil {
			return fmt.Errorf("expiry queue: %w", err)
		}
		for _, m := range d.cluster.Machines() {
			id := m.ID()
			benched := d.blacklisted(id) || d.agg.class[id] == classBlacklisted || d.agg.class[id] == classAsleepBlacklisted
			if benched && !(d.expiryQ.queued[id] && keys[id] <= d.blacklistUntil[id]) {
				return fmt.Errorf("%s blacklisted until %v: expiry queue has %v (queued %v)", m, d.blacklistUntil[id], keys[id], d.expiryQ.queued[id])
			}
		}
	}
	return nil
}
