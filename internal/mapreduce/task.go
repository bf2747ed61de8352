// Package mapreduce simulates the Hadoop 1.x execution substrate the paper
// modifies: jobs split into map and reduce tasks, TaskTracker slots,
// 3-second heartbeats, multi-wave task execution, the shuffle barrier, and
// task-level CPU/energy reporting. The Driver plays the JobTracker: it owns
// the virtual clock, submits jobs, serves heartbeats through a pluggable
// Scheduler, and accounts energy through the power meter.
package mapreduce

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"eant/internal/cluster"
	"eant/internal/sim"
	"eant/internal/workload"
)

// simEventHandle aliases the engine's cancellable-event handle.
type simEventHandle = sim.EventHandle

// TaskKind distinguishes map from reduce tasks.
type TaskKind uint8

// Task kinds.
const (
	MapTask TaskKind = iota + 1
	ReduceTask
)

// String returns "map" or "reduce".
func (k TaskKind) String() string {
	switch k {
	case MapTask:
		return "map"
	case ReduceTask:
		return "reduce"
	default:
		return fmt.Sprintf("TaskKind(%d)", int(k))
	}
}

// TaskState is the lifecycle of a task.
type TaskState uint8

// Task states. Reduce tasks pass through Shuffling before Running when they
// are assigned ahead of the job's map barrier. TaskKilled marks the losing
// attempt of a speculative pair.
const (
	TaskPending TaskState = iota + 1
	TaskShuffling
	TaskRunning
	TaskDone
	TaskKilled
)

// Task is one map or reduce attempt. Speculative execution (the LATE
// scheduler) clones a straggling attempt; the original and the clone are
// linked, the first to finish wins, and the driver kills the other. A run
// holds one Task per map and reduce in its driver's arena, so the
// narrow fields go last, packed into one word.
type Task struct {
	Job   *Job
	Index int

	// InputMB is split input for maps, shuffle volume for reduces.
	InputMB float64

	Machine cluster.Machine

	Start  time.Duration
	Finish time.Duration
	// computeStart is when the compute phase began: Start for maps, the
	// shuffle→compute transition for reduces. Straggler detection
	// measures from here so barrier waits don't look like slowness.
	computeStart time.Duration

	// shuffleSecs/computeSecs decompose a reduce's service time; maps use
	// computeSecs only. Set at assignment.
	shuffleSecs float64
	computeSecs float64

	// trueUtil is the whole-machine CPU share the task occupies while in
	// its compute phase; shuffleUtil during the shuffle phase.
	trueUtil    float64
	shuffleUtil float64

	// EstJoules is the Eq. 2 energy estimate reported on completion.
	// TrueJoules is the noise-free marginal energy (idle share + dynamic),
	// kept for accuracy experiments.
	EstJoules  float64
	TrueJoules float64

	// original links a speculative clone back to the straggling attempt
	// it races; clone links the original forward. pendingEvent is the
	// task's next scheduled event (phase change or completion), cancelled
	// when the task loses the race.
	original     *Task
	clone        *Task
	pendingEvent simEventHandle
	// flightPos is the attempt's index in Job.inFlight while it runs.
	flightPos int32

	// failures counts this logical task's failed attempts (fault
	// injection); kept on the canonical task, never on clones. doomed
	// marks an attempt the fault model has decided will fail mid-flight.
	failures int32

	Kind   TaskKind
	State  TaskState
	Local  bool // map read its block from local disk
	doomed bool
}

// ComputeStart returns when the attempt's compute phase began.
func (t *Task) ComputeStart() time.Duration { return t.computeStart }

// Speculative reports whether the task is a speculative clone.
func (t *Task) Speculative() bool { return t.original != nil }

// HasClone reports whether a speculative copy of this task is in flight.
func (t *Task) HasClone() bool { return t.clone != nil }

// resetForRetry returns a finished, killed or crashed task to the pending
// state so it can be assigned again. Race links must be dissolved first.
func (t *Task) resetForRetry() {
	if t.clone != nil || t.original != nil {
		panic(fmt.Sprintf("mapreduce: retry of %s with live race link", t.ID()))
	}
	t.State = TaskPending
	t.Machine = cluster.Machine{}
	t.Local = false
	t.Start = 0
	t.Finish = 0
	t.computeStart = 0
	t.shuffleSecs = 0
	t.computeSecs = 0
	t.trueUtil = 0
	t.shuffleUtil = 0
	t.EstJoules = 0
	t.TrueJoules = 0
	t.doomed = false
	t.pendingEvent = simEventHandle{}
}

// ID returns a stable task identifier: "job3/map/17".
func (t *Task) ID() string {
	return fmt.Sprintf("job%d/%s/%d", t.Job.Spec.ID, t.Kind, t.Index)
}

// Duration returns the task's total service time; valid once done.
func (t *Task) Duration() time.Duration { return t.Finish - t.Start }

// currentUtil returns the machine share the task contributes in the given
// state.
func (t *Task) currentUtil(st TaskState) float64 {
	if st == TaskShuffling {
		return t.shuffleUtil
	}
	return t.trueUtil
}

// Job is a submitted MapReduce job with its task lists and progress
// counters. Its storage is a carving of its driver's arena (see arena.go).
type Job struct {
	Spec workload.JobSpec

	// Maps and Reduces hold the job's tasks by value, windows of the
	// arena's task array that are never resized, so &Maps[i] is stable for
	// the run (speculative clones are separate allocations).
	Maps    []Task
	Reduces []Task

	Submitted time.Duration
	// FirstStart is when the first task began executing.
	FirstStart time.Duration
	// MapsDoneAt is when the last map finished (the shuffle barrier).
	MapsDoneAt time.Duration
	// LastShuffleEnd is when the last reduce finished its shuffle phase.
	LastShuffleEnd time.Duration
	// Finished is when the last task completed.
	Finished time.Duration

	mapsDone    int
	reducesDone int
	started     bool
	done        bool
	failed      bool

	// ar is the arena the job is carved from; its entry arrays hold the
	// job's queue links. slot is the job's position in the run's mix.
	ar   *arena
	slot int
	// mapQ and reduceQ queue the map and reduce indices not yet assigned.
	mapQ, reduceQ fifo
	// The locality index queues, per machine, the pending maps with a
	// replica there: localHead[m] and localTail[m] are the first and last
	// entry of machine m's linked queue in the arena's local entries, -1
	// when it is empty. buildLocal lays each machine's initial queue out
	// contiguously in map order; retried maps are appended and linked from
	// the tail. Entries go stale when a task is assigned elsewhere; readers
	// skip non-pending tasks.
	localHead []int32
	localTail []int32
	// replicas is the input file's replica IDs, the arena's stride per
	// map, so retried tasks re-enter the locality index (the data survives
	// a TaskTracker crash on the other replicas). It is a window of the
	// HDFS namespace's array, which only the next run's placement rewrites.
	replicas []int32

	// inFlight lists the in-flight attempts (originals and speculative
	// clones) for the speculation and crash scans, in no particular order:
	// both impose their own total order. Each attempt's flightPos is its
	// index here, so removal swaps the last entry into its place.
	inFlight []*Task

	// reduceGateOpen caches whether MapProgress has passed the slowstart
	// threshold, so the ready-pending-reduce aggregate knows which jobs'
	// pending reduces count as schedulable. Synced by Driver.syncReduceGate
	// at submit, map completion, and lost-map re-execution (progress can
	// move backwards).
	reduceGateOpen bool
	// reduceEst is EstimateReduceSeconds per machine type (TypeSpecs
	// order), filled at submission: shuffle volume and profile are fixed
	// by the spec.
	reduceEst []float64
}

// mapReplicas returns the machine IDs holding map i's input block.
func (j *Job) mapReplicas(i int) []int32 {
	s := j.ar.stride
	return j.replicas[i*s : (i+1)*s]
}

// buildLocal lays the job's locality index out at the end of the arena's
// local entries, which has room for it. A counting pass sizes each
// machine's queue, a prefix sum turns the counts into offsets, and one
// fill in map order links every entry to its successor, so machine m's
// queue is the contiguous run local[localHead[m]..localTail[m]].
func (j *Job) buildLocal() {
	head, tail := j.localHead, j.localTail
	clear(head)
	for _, m := range j.replicas {
		head[m]++
	}
	a := j.ar
	off := int32(len(a.local))
	for m, n := range head {
		head[m] = off
		off += n
	}
	copy(tail, head)
	a.local = a.local[:off]
	for i := range j.Maps {
		for _, m := range j.mapReplicas(i) {
			e := tail[m]
			a.local[e] = queueEntry{task: int32(i), next: e + 1}
			tail[m] = e + 1
		}
	}
	// tail[m] now ends machine m's run: close it, or mark it empty.
	for m := range head {
		if tail[m] == head[m] {
			head[m], tail[m] = -1, -1
			continue
		}
		tail[m]--
		a.local[tail[m]].next = -1
	}
}

// pushLocal appends map i to machine m's locality queue.
func (j *Job) pushLocal(m, i int) {
	a := j.ar
	e := int32(len(a.local))
	a.local = append(a.local, queueEntry{task: int32(i), next: -1})
	if t := j.localTail[m]; t < 0 {
		j.localHead[m] = e
	} else {
		a.local[t].next = e
	}
	j.localTail[m] = e
}

// clearLocal empties every machine's locality queue in place.
func (j *Job) clearLocal() {
	for m := range j.localHead {
		j.localHead[m], j.localTail[m] = -1, -1
	}
}

// Slot returns the job's position in its run's mix: 0 for the first spec
// passed to Driver.Run, and unique among the run's jobs. A policy can
// index dense per-run tables by it instead of hashing the job ID.
func (j *Job) Slot() int { return j.slot }

// Done reports whether every task has completed.
func (j *Job) Done() bool { return j.done }

// Failed reports whether the job was failed (a task exhausted its retry
// budget under fault injection).
func (j *Job) Failed() bool { return j.failed }

// MapsDone reports whether the map phase is complete (shuffle barrier
// lifted).
func (j *Job) MapsDone() bool { return j.mapsDone == len(j.Maps) }

// MapProgress returns the completed-map fraction in [0, 1].
func (j *Job) MapProgress() float64 {
	if len(j.Maps) == 0 {
		return 1
	}
	return float64(j.mapsDone) / float64(len(j.Maps))
}

// PendingMaps returns the number of unassigned map tasks.
func (j *Job) PendingMaps() int { return int(j.mapQ.n) }

// PendingReduces returns the number of unassigned reduce tasks.
func (j *Job) PendingReduces() int { return int(j.reduceQ.n) }

// Running returns the number of currently executing tasks.
func (j *Job) Running() int { return len(j.inFlight) }

// addInFlight lists a started attempt.
func (j *Job) addInFlight(t *Task) {
	t.flightPos = int32(len(j.inFlight))
	j.inFlight = append(j.inFlight, t)
}

// removeInFlight unlists a finished or detached attempt.
func (j *Job) removeInFlight(t *Task) {
	last := len(j.inFlight) - 1
	moved := j.inFlight[last]
	j.inFlight[t.flightPos] = moved
	moved.flightPos = t.flightPos
	j.inFlight[last] = nil
	j.inFlight = j.inFlight[:last]
}

// popLocalMap removes and returns a pending map task with a replica on
// machineID, or nil. It drops the returned entry and every stale entry
// before it; a queue with no pending entry is emptied.
func (j *Job) popLocalMap(machineID int) *Task {
	local := j.ar.local
	for e := j.localHead[machineID]; e >= 0; {
		ent := local[e]
		e = ent.next
		if t := &j.Maps[ent.task]; t.State == TaskPending {
			j.localHead[machineID] = e
			if e < 0 {
				j.localTail[machineID] = -1
			}
			return t
		}
	}
	if j.localHead[machineID] >= 0 {
		j.localHead[machineID], j.localTail[machineID] = -1, -1
	}
	return nil
}

// popAnyMap removes and returns the oldest pending map task, or nil.
func (j *Job) popAnyMap() *Task {
	for {
		i, ok := j.mapQ.pop(j.ar.pending)
		if !ok {
			return nil
		}
		if t := &j.Maps[i]; t.State == TaskPending {
			return t
		}
	}
}

// peekPendingLocalMap reports whether a pending map task has a replica on
// machineID. It drops nothing: a stale entry turns pending again when its
// map is retried, and the next pop must find it there, ahead of the
// retry's appended entry.
func (j *Job) peekPendingLocalMap(machineID int) bool {
	local := j.ar.local
	for e := j.localHead[machineID]; e >= 0; e = local[e].next {
		if j.Maps[local[e].task].State == TaskPending {
			return true
		}
	}
	return false
}

// popReduce removes and returns the next pending reduce task, or nil.
func (j *Job) popReduce() *Task {
	for {
		i, ok := j.reduceQ.pop(j.ar.pending)
		if !ok {
			return nil
		}
		if t := &j.Reduces[i]; t.State == TaskPending {
			return t
		}
	}
}

// AppendRunningAttempts appends the job's in-flight attempts of one kind
// to dst and returns the extended slice. Only the appended part is
// sorted, by task index with an original before its clone; a task has at
// most one clone, so the order is total and iteration deterministic.
func (j *Job) AppendRunningAttempts(dst []*Task, kind TaskKind) []*Task {
	n := len(dst)
	for _, t := range j.inFlight {
		if t.Kind == kind {
			dst = append(dst, t)
		}
	}
	slices.SortFunc(dst[n:], func(a, b *Task) int {
		if a.Index != b.Index {
			return cmp.Compare(a.Index, b.Index)
		}
		switch {
		case a.Speculative() == b.Speculative():
			return 0
		case b.Speculative():
			return -1
		}
		return 1
	})
	return dst
}

// requeueRetry returns a reset task to the pending pools after an attempt
// failure, machine crash, or lost map output. Unlike requeue (which undoes
// a same-heartbeat pop), retried maps also re-enter the locality index:
// their input block still has replicas on the surviving machines.
func (j *Job) requeueRetry(t *Task) {
	if t.State != TaskPending {
		panic(fmt.Sprintf("mapreduce: retry requeue of %s in state %d", t.ID(), t.State))
	}
	if t.Kind == MapTask {
		j.mapQ.push(&j.ar.pending, t.Index)
		for _, machineID := range j.mapReplicas(t.Index) {
			j.pushLocal(int(machineID), t.Index)
		}
	} else {
		j.reduceQ.push(&j.ar.pending, t.Index)
	}
}

// requeue returns a popped task to its pending pool (a scheduler chose a
// job but then declined the assignment).
func (j *Job) requeue(t *Task) {
	if t.State != TaskPending {
		panic(fmt.Sprintf("mapreduce: requeue of %s in state %d", t.ID(), t.State))
	}
	if t.Kind == MapTask {
		j.mapQ.requeue(&j.ar.pending, t.Index)
	} else {
		j.reduceQ.requeue(&j.ar.pending, t.Index)
	}
}
