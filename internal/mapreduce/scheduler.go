package mapreduce

import (
	"time"

	"eant/internal/cluster"
	"eant/internal/hdfs"
	"eant/internal/probe"
	"eant/internal/sim"
)

// Scheduler is the task-assignment policy plugged into the JobTracker.
// AssignMap/AssignReduce are called once per free slot per heartbeat
// (idle offers to a QuietWhenIdle policy may be counted instead); a
// scheduler hands back a task popped from some job's pending queue, or
// nil to leave the slot idle until the next heartbeat (how E-Ant starves
// energy-inefficient machines). OnTaskComplete delivers the task-level
// energy feedback each TaskTracker reports; OnControlTick fires every
// control interval for policy refresh.
type Scheduler interface {
	// Name identifies the policy in reports ("Fair", "Tarazu", "E-Ant"...).
	Name() string
	// AssignMap selects a pending map task to run on m, or nil.
	AssignMap(ctx *Context, m cluster.Machine) *Task
	// AssignReduce selects a ready reduce task to run on m, or nil.
	AssignReduce(ctx *Context, m cluster.Machine) *Task
	// OnTaskComplete observes a finished task with its energy estimate.
	OnTaskComplete(ctx *Context, t *Task)
	// OnControlTick fires at every control-interval boundary.
	OnControlTick(ctx *Context)
}

// SlotObserver is an optional Scheduler extension: the driver notifies it
// whenever a machine's free-slot count of one kind changes (task start,
// completion, kill). Schedulers use it to keep per-control-interval
// indices (E-Ant's trail-ranked free-slot counters) current without
// rescanning machines on every offer.
type SlotObserver interface {
	OnSlotFreeChange(ctx *Context, m cluster.Machine, kind TaskKind, delta int)
}

// QuietWhenIdle is an optional Scheduler extension, a marker the driver
// detects by type assertion. Implementing it promises that AssignMap
// returns nil with no side effect whenever ctx.PendingTasks(MapTask) == 0,
// and AssignReduce likewise whenever ctx.ReadyReduceTasks() == 0. Once both
// are zero, the driver may then count a heartbeat's remaining offers from
// its free-slot host counts instead of calling the policy once per machine
// and kind (see Driver.sweep), with or without fault injection and
// consolidation; only an attached probe, which records every offer, makes
// it call. A policy that acts on empty queues (LATE speculates) must not
// implement it, and a wrapper that forwards only Scheduler hides it, so
// the wrapped policy is offered every slot.
type QuietWhenIdle interface {
	QuietWhenIdle()
}

// Context is the JobTracker state a scheduler may consult.
type Context struct {
	Cluster *cluster.Cluster
	HDFS    *hdfs.Namespace
	// Rng is the scheduler's dedicated random stream.
	Rng *sim.RNG

	driver *Driver
}

// Now returns the current virtual time.
func (c *Context) Now() time.Duration { return c.driver.engine.Now() }

// Probe returns the run's observability probe, or nil when disabled.
// Schedulers recording decision events must treat it as a pure sink:
// record-only, guarded by a nil check on the hot path.
func (c *Context) Probe() *probe.Probe { return c.driver.probe }

// ActiveJobs returns submitted, unfinished jobs in submission order. The
// slice is shared; callers must not mutate it.
func (c *Context) ActiveJobs() []*Job { return c.driver.active }

// ControlInterval returns the configured policy-refresh period.
func (c *Context) ControlInterval() time.Duration { return c.driver.cfg.ControlInterval }

// ReduceReady reports whether j's reduces may be scheduled yet: the job's
// map progress has passed the slowstart threshold and reduces remain. The
// gate reads the cached reduceGateOpen flag, which syncReduceGate
// re-derives whenever mapsDone changes (checkAggregates verifies the two
// never diverge), so the call is two integer reads per offer instead of a
// floating-point progress ratio.
func (c *Context) ReduceReady(j *Job) bool {
	return j.reduceGateOpen && j.PendingReduces() != 0
}

// ReadyReduceTasks returns the cluster-wide count of pending reduces on
// jobs whose slowstart gate is open — zero exactly when no job satisfies
// ReduceReady, letting schedulers skip the active-job scan on idle-reduce
// heartbeats.
func (c *Context) ReadyReduceTasks() int {
	return c.driver.agg.readyPendingReduces
}

// TotalSlots returns S_pool, the fleet-wide slot count (Eq. 7).
func (c *Context) TotalSlots() int { return c.driver.totalSlots }

// QueuePressure reports how backlogged the cluster is for the given task
// kind: 0 when queues are empty, 1 when pending work is at least twice the
// fleet's slot capacity for that kind. Schedulers that deliberately idle
// slots (E-Ant) use it to stay work-conserving under heavy load.
func (c *Context) QueuePressure(kind TaskKind) float64 {
	d := c.driver
	var pending, slots int
	if kind == MapTask {
		pending = d.agg.pendingMaps
		slots = d.totalMapSlots
	} else {
		pending = d.agg.readyPendingReduces
		slots = d.totalReduceSlots
	}
	if slots == 0 {
		return 1
	}
	p := float64(pending) / float64(2*slots)
	if p > 1 {
		p = 1
	}
	return p
}

// FairShare returns S_min for job j: an equal split of the slot pool among
// active jobs, as the Hadoop Fair Scheduler's single-pool default.
func (c *Context) FairShare(j *Job) float64 {
	n := len(c.driver.active)
	if n == 0 {
		return 0
	}
	return float64(c.driver.totalSlots) / float64(n)
}

// HasLocalMap reports whether job j still has a pending map task whose
// input block has a replica on machine m.
func (c *Context) HasLocalMap(j *Job, m cluster.Machine) bool {
	return j.peekPendingLocalMap(m.ID())
}

// PopMapPreferLocal removes and returns a pending map of j, choosing a
// block-local task for m when one exists. The pending aggregate is updated
// by the operation's observed delta: a local pop leaves its FIFO entry
// behind (delta 0), exactly reproducing the lazy-queue count.
func (c *Context) PopMapPreferLocal(j *Job, m cluster.Machine) *Task {
	before := j.PendingMaps()
	t := j.popLocalMap(m.ID())
	if t == nil {
		t = j.popAnyMap()
	}
	c.driver.notePending(j, MapTask, j.PendingMaps()-before)
	return t
}

// PopMapAny removes and returns the oldest pending map of j, ignoring
// locality.
func (c *Context) PopMapAny(j *Job) *Task {
	before := j.PendingMaps()
	t := j.popAnyMap()
	c.driver.notePending(j, MapTask, j.PendingMaps()-before)
	return t
}

// PopReduce removes and returns the next pending reduce of j.
func (c *Context) PopReduce(j *Job) *Task {
	before := j.PendingReduces()
	t := j.popReduce()
	c.driver.notePending(j, ReduceTask, j.PendingReduces()-before)
	return t
}

// Requeue returns an unstarted task popped this heartbeat back to its job
// (the scheduler declined the assignment after inspecting it). requeue
// always re-adds exactly one live entry, so the pending delta is +1. A map
// popped through machine m's locality queue goes back to the job's FIFO
// but not to m's queue; the queues of its other replica machines still
// hold it. No built-in policy calls Requeue; the bench module's offer
// fixture does, to restore the queues it popped.
func (c *Context) Requeue(t *Task) {
	t.Job.requeue(t)
	c.driver.notePending(t.Job, t.Kind, 1)
}

// CloneForSpeculation creates a speculative copy of a straggling running
// attempt, to be returned from AssignMap/AssignReduce like a pending
// task. The first of the pair to finish wins; the driver kills the
// other. It returns nil when the attempt cannot be speculated: not
// running, already part of a race, or a reduce whose job's map barrier
// has not passed (its shuffle data is not fully available to re-pull).
func (c *Context) CloneForSpeculation(orig *Task) *Task {
	if orig == nil || orig.State != TaskRunning || orig.clone != nil || orig.original != nil {
		return nil
	}
	if orig.Kind == ReduceTask && !orig.Job.MapsDone() {
		return nil
	}
	clone := &Task{
		Job:      orig.Job,
		Index:    orig.Index,
		Kind:     orig.Kind,
		InputMB:  orig.InputMB,
		State:    TaskPending,
		original: orig,
	}
	orig.clone = clone
	c.driver.stats.SpeculativeStarted++
	return clone
}

// EstimateMapSeconds predicts the noise-free service time of one of j's
// map tasks on a machine of the ti-th type (TypeSpecs order), assuming
// data-local execution. Schedulers like Tarazu use it as the task-duration
// profile a real implementation would learn from completed waves. The
// driver tabulates it per (app, type) for each run.
func (c *Context) EstimateMapSeconds(j *Job, ti int) float64 {
	return c.driver.mapEst[c.driver.estIndex(j.Spec.App, ti)]
}

// EstimateReduceSeconds predicts the noise-free compute time of one of j's
// reduce tasks on a machine of the ti-th type (TypeSpecs order), shuffle
// excluded. The driver tabulates it per type when j is submitted.
func (c *Context) EstimateReduceSeconds(j *Job, ti int) float64 {
	return j.reduceEst[ti]
}

// PendingTasks returns the cluster-wide count of unassigned tasks of the
// given kind across active jobs, with the same lazy-queue semantics as a
// per-job PendingMaps/PendingReduces scan.
func (c *Context) PendingTasks(kind TaskKind) int {
	if kind == MapTask {
		return c.driver.agg.pendingMaps
	}
	return c.driver.agg.pendingReduces
}

// AwakeSlots returns the slot capacity and free slots of the given kind on
// powered-up machines. Blacklisted machines count (they hold slots and
// finish in-flight work); dead and sleeping machines do not.
func (c *Context) AwakeSlots(kind TaskKind) (slots, free int) {
	a := &c.driver.agg
	aw, bl := &a.byClass[classAwake], &a.byClass[classBlacklisted]
	if kind == MapTask {
		return aw.mapSlots + bl.mapSlots, aw.freeMap + bl.freeMap
	}
	return aw.reduceSlots + bl.reduceSlots, aw.freeReduce + bl.freeReduce
}

// AvailabilityEpoch counts machine crash/recover transitions. Schedulers
// stamp per-control-interval indices with it so a mid-interval
// availability change invalidates them.
func (c *Context) AvailabilityEpoch() uint64 { return c.driver.agg.epoch }

// TypeSpecs returns one representative spec per machine type in sorted
// type-name order. The slice is shared; callers must not mutate it.
func (c *Context) TypeSpecs() []*cluster.TypeSpec { return c.driver.typeReps }

// TypeIndex returns the index of m's machine type in TypeSpecs.
func (c *Context) TypeIndex(m cluster.Machine) int { return c.driver.agg.typeIdx[m.ID()] }

// FreeReduceSlotsOfType returns the free reduce slots on machines of the
// i-th type (TypeSpecs order), excluding dead machines.
func (c *Context) FreeReduceSlotsOfType(i int) int { return c.driver.agg.freeReduceByType[i] }
